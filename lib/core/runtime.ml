open Sim
module Transport = Net.Transport
module Tracer = Metrics.Tracer

let log_src = Logs.Src.create "radical.runtime" ~doc:"Near-user runtime events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  loc : Net.Location.t;
  overlap : bool;
  ro_fast : bool;
  fu_window : float;
  fu_piggyback : bool;
}

let config ?(overlap = true) ?(ro_fast = true) ?(fu_window = 0.0)
    ?(fu_piggyback = false) loc =
  { loc; overlap; ro_fast; fu_window; fu_piggyback }

let invoke_overhead = 12.0
let frw_overhead = 1.0
let rpc_timeout = 60_000.0

type path = Speculative | Backup | Fallback | Local

let path_label = function
  | Speculative -> "Speculative"
  | Backup -> "Backup"
  | Fallback -> "Fallback"
  | Local -> "Local"

type outcome = { value : (Dval.t, string) result; latency : float; path : path }

type stats = {
  invocations : int;
  speculative : int;
  backup : int;
  fallback : int;
  skipped_speculations : int;
  ro_hints : int;
      (* LVI requests sent with the read-only hint set: the analysis
         proved the function write-free, so the server may answer on its
         validate-only fast path. *)
  fu_batches : int;
      (* Coalesced followup messages posted (each carrying >= 1
         followups); 0 when the coalescing window is off. *)
  fu_piggybacked : int;
      (* Followups that rode an outgoing LVI request instead of their
         own message. *)
  rpc_timeouts : int;
      (* LVI or direct-execution calls that hit the RPC timeout and
         returned an error outcome instead of blocking forever. *)
  prop_batches : int;
      (* cache_update messages received from the LVI server's
         propagation channel (0 with propagation off). *)
  prop_records : int;
      (* Update records carried by those messages. *)
  prop_installed : int;
      (* Records that actually changed the cache — installed a newer
         version, or evicted a stale entry in invalidate mode. The
         remainder lost the version guard (already as fresh, typically
         the origin's own writes or a reordered duplicate). *)
  lease_local : int;
      (* Statically read-only invocations served entirely at this site
         under read leases: zero LVI round trips (0 with leases off). *)
  lease_installed : int;
      (* Lease grants accepted off LVI replies and cache updates. *)
  lease_refused : int;
      (* Grants refused: fenced by a later revocation, or superseded. *)
  lease_revoked : int;
      (* Held grants dropped by server revocations. *)
}

(* One LVI server this runtime talks to. Unsharded deployments have
   exactly one; sharded ones have one per shard, indexed by shard id.
   Followup coalescers are per-endpoint: a followup must reach the
   shard that installed its intent, and a piggybacked followup may
   only ride a request bound for that same shard. *)
type endpoint = {
  ep_lvi : (Proto.lvi_request, Proto.lvi_response) Transport.service;
  ep_fu : (Proto.followup list, unit) Transport.service;
  ep_exec : (Proto.exec_request, Proto.exec_result) Transport.service;
  ep_coal : Client_pipeline.coalescer;
}

type t = {
  cfg : config;
  net : Transport.t;
  tracer : Tracer.t;
  registry : Registry.t;
  cache : Cache.t;
  (* Read leases held by this site, keyed like the cache. A statically
     read-only invocation whose whole (non-miss) read set is covered by
     valid leases is served locally with no LVI round trip. *)
  leases : Cache.Leases.t;
  extsvc : Extsvc.t;
  endpoints : endpoint array;
  router : Shard.Router.t option;
  mutable next_id : int;
  mutable recorder : (Lincheck.op -> unit) option;
  mutable s_invocations : int;
  mutable s_spec : int;
  mutable s_backup : int;
  mutable s_fallback : int;
  mutable s_skipped : int;
  mutable s_ro_hints : int;
  mutable s_rpc_timeouts : int;
  mutable s_prop_batches : int;
  mutable s_prop_records : int;
  mutable s_prop_installed : int;
  mutable s_lease_local : int;
  mutable cu_svc : (Proto.cache_update, unit) Transport.service option;
  mutable lr_svc : (Proto.lease_revoke, unit) Transport.service option;
}

(* Server-side write path revoking this site's leases. Drop the grants
   and fence the keys BEFORE the reply travels back: the ack is the
   server's licence to let the write validate, so nothing here may be
   deferred. The handler is synchronous and latency-free — the transport
   charges the round trip. *)
let handle_lease_revoke t (lr : Proto.lease_revoke) =
  Cache.Leases.drop t.leases ~now:(Engine.now ()) lr.lr_keys

(* Receiver half of the cache-update propagation channel: install (or,
   in invalidate mode, evict) each committed record. Installs are
   version-guarded, so lost, duplicated or reordered batches are
   harmless — at worst the cache stays as stale as it already was. The
   freshness lag (commit instant at primary to install instant here)
   lands in the per-site "prop_lag:<loc>" histogram. *)
let handle_cache_update t (cu : Proto.cache_update) =
  t.s_prop_batches <- t.s_prop_batches + 1;
  let now = Engine.now () in
  List.iter
    (fun ({ Proto.up_key; up_value; up_version }, stamp) ->
      t.s_prop_records <- t.s_prop_records + 1;
      let changed =
        if cu.cu_invalidate then
          Cache.invalidate t.cache up_key ~version:up_version
        else if Cache.version_of t.cache up_key < up_version then begin
          Cache.update t.cache up_key up_value ~version:up_version;
          true
        end
        else false
      in
      if changed then begin
        t.s_prop_installed <- t.s_prop_installed + 1;
        Tracer.record_queue t.tracer ~label:("prop_lag:" ^ t.cfg.loc)
          (now -. stamp)
      end)
    cu.cu_updates;
  Client_pipeline.install_leases t.leases cu.cu_leases

let endpoint_of ~net ~tracer cfg server =
  let ep_fu = Server.followup_service server in
  {
    ep_lvi = Server.lvi_service server;
    ep_fu;
    ep_exec = Server.exec_service server;
    ep_coal =
      Client_pipeline.coalescer ~window:cfg.fu_window
        ~piggyback:cfg.fu_piggyback
        ~post:(fun fus -> Transport.post net ~from:cfg.loc ep_fu fus)
        ~on_flush:(fun ~count ~waited ->
          Tracer.record_batch tracer ~label:"followup" count;
          Tracer.record_queue tracer ~label:"followup" waited);
  }

let create ?extsvc ?(tracer = Tracer.noop) ?sharding ~net ~registry ~cache
    ~server cfg =
  let router, endpoints =
    match sharding with
    | None -> (None, [| endpoint_of ~net ~tracer cfg server |])
    | Some (router, servers) ->
        let n = Shard.Directory.shards (Shard.Router.directory router) in
        let eps = Array.make n None in
        List.iter
          (fun s ->
            match Server.shard_id s with
            | Some id -> eps.(id) <- Some (endpoint_of ~net ~tracer cfg s)
            | None ->
                invalid_arg "Runtime.create: server without enable_sharding")
          servers;
        ( Some router,
          Array.mapi
            (fun i ep ->
              match ep with
              | Some ep -> ep
              | None ->
                  invalid_arg
                    (Printf.sprintf "Runtime.create: no server for shard %d" i))
            eps )
  in
  let t =
    {
    cfg;
    net;
    tracer;
    registry;
    cache;
    leases = Cache.Leases.create ();
    extsvc = (match extsvc with Some e -> e | None -> Extsvc.create ());
    endpoints;
    router;
    next_id = 0;
    recorder = None;
    s_invocations = 0;
    s_spec = 0;
    s_backup = 0;
    s_fallback = 0;
    s_skipped = 0;
    s_ro_hints = 0;
      s_rpc_timeouts = 0;
      s_prop_batches = 0;
      s_prop_records = 0;
      s_prop_installed = 0;
      s_lease_local = 0;
      cu_svc = None;
      lr_svc = None;
    }
  in
  t.cu_svc <-
    Some
      (Transport.serve net ~loc:cfg.loc ~name:"cache_update"
         (handle_cache_update t));
  t.lr_svc <-
    Some
      (Transport.serve net ~loc:cfg.loc ~name:"lease_revoke"
         (handle_lease_revoke t));
  t

let lease_revoke_service t = Option.get t.lr_svc

let cache_update_service t = Option.get t.cu_svc

let set_recorder t r = t.recorder <- Some r

let location t = t.cfg.loc

let cache t = t.cache

let fresh_exec_id t fn =
  t.next_id <- t.next_id + 1;
  Printf.sprintf "%s/%s/%d" t.cfg.loc fn t.next_id

let record t ~exec_id ~start ~finish (res : Proto.exec_result) =
  match t.recorder with
  | None -> ()
  | Some r ->
      r
        {
          Lincheck.op_id = exec_id;
          start;
          finish;
          reads = res.observed;
          writes = res.written;
        }

(* Speculative execution against the near-user cache (Figure 3, 2a).
   Writes are buffered — Radical delays cache updates until the LVI
   response arrives (§3.2) — and reads see the buffer first so the
   execution observes its own writes. *)
let speculate t ~exec_id ?(span = Tracer.none) ?(snapshot = [])
    (entry : Registry.entry) args : Proto.exec_result Ivar.t =
  let iv = Ivar.create () in
  Engine.spawn ~name:"speculate" (fun () ->
      let observed = ref [] in
      let buffer = ref [] in
      let host =
        {
          Wasm.Host.external_call = Extsvc.dispatcher t.extsvc ~exec_id;
          read =
            (fun k ->
              match List.assoc_opt k !buffer with
              | Some v -> v
              | None ->
                  (* Pay the cache access, but serve predicted reads
                     from the snapshot the LVI request validates: the
                     live cache can change mid-speculation (concurrent
                     followups, a fault-injected wipe) and those values
                     were never validated. *)
                  let live = Cache.get t.cache k in
                  let v =
                    match List.assoc_opt k snapshot with
                    | Some v -> v
                    | None -> (
                        match live with
                        | Some { Cache.value; _ } -> value
                        | None -> Dval.Unit)
                  in
                  if not (List.mem_assoc k !observed) then
                    observed := (k, v) :: !observed;
                  v);
          write = (fun k v -> buffer := (k, v) :: List.remove_assoc k !buffer);
          compute = Engine.sleep;
        }
      in
      let value =
        Wasm.Interp.run entry.modul ~host ~entry:entry.func.fn_name args
      in
      Tracer.stop span;
      Ivar.fill iv
        {
          Proto.value;
          observed = List.rev !observed;
          written = List.rev !buffer;
        });
  iv

(* --- Shard endpoint selection ---------------------------------------- *)

(* Target for a request with a concrete predicted key set: the shard
   holding all of them, or the coordinator anchor (minimum touched
   shard) when they span several. Unsharded runtimes have exactly one
   endpoint. *)
let endpoint_for_keys t keys =
  match t.router with
  | None -> t.endpoints.(0)
  | Some r -> t.endpoints.(Shard.Router.target_of_keys r keys)

(* Target for a direct execution (no predicted key set): route by the
   function's static key-shape classification — its home shard when the
   analyzer pinned one, the anchor shard otherwise. Direct executions
   run against the shared primary store, so any shard is correct; the
   classification merely spreads load. *)
let endpoint_for_entry t (entry : Registry.entry) =
  match t.router with
  | None -> t.endpoints.(0)
  | Some r -> (
      match Shard.Router.classify r entry.summary with
      | Shard.Router.Single s -> t.endpoints.(s)
      | Shard.Router.Cross -> t.endpoints.(0))

let direct_execute t ~start ~exec_id ~root ep fn args =
  t.s_fallback <- t.s_fallback + 1;
  let res =
    Tracer.with_phase t.tracer ~parent:root "direct_exec" (fun () ->
        Transport.call_timeout t.net ~from:t.cfg.loc
          ~timeout:rpc_timeout ep.ep_exec
          { Proto.dx_exec_id = exec_id; dx_fn_name = fn; dx_args = args })
  in
  let finish = Engine.now () in
  match res with
  | Some res ->
      record t ~exec_id ~start ~finish res;
      { value = res.value; latency = finish -. start; path = Fallback }
  | None ->
      t.s_rpc_timeouts <- t.s_rpc_timeouts + 1;
      {
        value = Error "direct execution timed out";
        latency = finish -. start;
        path = Fallback;
      }

let invoke t fn args =
  t.s_invocations <- t.s_invocations + 1;
  let start = Engine.now () in
  let exec_id = fresh_exec_id t fn in
  (* One trace per invocation: phase spans hang off this root, the LVI
     server attaches its own phases via the exec-id registration, and
     [finalize] folds the finished tree into the per-path histograms. *)
  let root = Tracer.root t.tracer fn in
  Tracer.annotate root "loc" t.cfg.loc;
  Tracer.annotate root "exec_id" exec_id;
  (* Analysis-derived metadata: whether the function is statically
     read-only, and with how many other registered functions it may
     conflict (shared key shape with a write involved). *)
  (match Registry.find t.registry fn with
  | Some e ->
      Tracer.annotate root "read_only" (if e.read_only then "true" else "false");
      Tracer.annotate root "conflict_degree"
        (string_of_int (Registry.conflict_degree t.registry fn))
  | None -> ());
  Tracer.register_exec t.tracer ~exec_id root;
  let finalize (o : outcome) =
    Tracer.release_exec t.tracer ~exec_id;
    Tracer.finalize t.tracer ~fn ~path:(path_label o.path) root;
    o
  in
  Tracer.with_phase t.tracer ~parent:root "invoke_overhead" (fun () ->
      Engine.sleep invoke_overhead);
  let entry =
    match Registry.find t.registry fn with
    | Some e -> e
    | None -> invalid_arg ("Runtime.invoke: unknown function " ^ fn)
  in
  match entry.derived with
  | None ->
      finalize
        (direct_execute t ~start ~exec_id ~root (endpoint_for_entry t entry)
           fn args)
  | Some { classification = Analyzer.Derive.Expensive; _ } ->
      (* §3.3 "Failure case": an f^rw that must do the function's own
         expensive computation runs in series with f and would erase the
         benefit — such functions always run near storage. *)
      finalize
        (direct_execute t ~start ~exec_id ~root (endpoint_for_entry t entry)
           fn args)
  | Some derived -> (
      (* (1) Run f^rw to predict the read/write set. Dependent reads hit
         the cache (paying its latency); an analysis-time [Compute] kept
         in an expensive f^rw burns virtual CPU. *)
      let sp_predict = Tracer.child t.tracer ~parent:root "frw_predict" in
      Engine.sleep frw_overhead;
      let cache_read k =
        match Cache.get t.cache k with
        | Some { value; _ } -> value
        | None -> Dval.Unit
      in
      match
        Analyzer.Derive.predict derived ~read:cache_read ~compute:Engine.sleep
          args
      with
      | exception Fdsl.Eval.Error _ ->
          Tracer.stop sp_predict;
          finalize
            (direct_execute t ~start ~exec_id ~root
               (endpoint_for_entry t entry) fn args)
      | rwset ->
          Tracer.stop sp_predict;
          (* The concrete predicted key set picks the shard: all keys on
             one shard sends the unchanged one-round-trip request there;
             a spanning set goes to its coordinator anchor. *)
          let ep = endpoint_for_keys t (rwset.reads @ rwset.writes) in
          (* Versions for validation and values for speculation come
             from one latency-free sweep — a single virtual instant —
             so the execution cannot observe state the LVI request does
             not validate. *)
          let snap =
            List.map (fun k -> (k, Cache.peek t.cache k)) rwset.reads
          in
          let reads =
            List.map
              (fun (k, e) ->
                (k, match e with Some e -> e.Cache.version | None -> -1))
              snap
          in
          let snapshot =
            List.filter_map
              (fun (k, e) -> Option.map (fun e -> (k, e.Cache.value)) e)
              snap
          in
          let misses = List.exists (fun (_, v) -> v = -1) reads in
          (* Lease-local fast path (zero LVI round trips); falls through
             to the normal protocol on any miss, uncovered key, version
             mismatch or expiry. *)
          if Client_pipeline.lease_local_eligible t.leases ~entry ~rwset ~misses
               ~reads
          then begin
            t.s_lease_local <- t.s_lease_local + 1;
            let sp = Tracer.child t.tracer ~parent:root "lease_local" in
            let spec_iv = speculate t ~exec_id ~span:sp ~snapshot entry args in
            let res = Ivar.read spec_iv in
            let finish = Engine.now () in
            record t ~exec_id ~start ~finish res;
            finalize
              { value = res.value; latency = finish -. start; path = Local }
          end
          else begin
          (* (2a) Speculate unless a miss makes failure certain (§3.2).
             With overlap disabled (ablation), execution is deferred
             until the LVI response arrives. *)
          let spec =
            if misses || not t.cfg.overlap then None
            else
              let sp = Tracer.child t.tracer ~parent:root "speculate" in
              Some (speculate t ~exec_id ~span:sp ~snapshot entry args)
          in
          if misses then t.s_skipped <- t.s_skipped + 1;
          (* (2b) The single LVI request, concurrent with speculation. *)
          let ro_hint =
            t.cfg.ro_fast && entry.read_only && rwset.writes = []
          in
          if ro_hint then t.s_ro_hints <- t.s_ro_hints + 1;
          match
            Tracer.with_phase t.tracer ~parent:root "lvi_rtt" (fun () ->
                Transport.call_timeout t.net ~from:t.cfg.loc
                  ~timeout:rpc_timeout ep.ep_lvi
                  {
                    Proto.exec_id;
                    fn_name = fn;
                    args;
                    reads;
                    writes = rwset.writes;
                    ro_hint;
                    from_loc = t.cfg.loc;
                    piggyback = Client_pipeline.take_piggyback ep.ep_coal;
                  })
          with
          | None ->
              (* Request or reply lost past the timeout: surface an error
                 instead of blocking this fiber forever. Never fall back
                 to direct execution here — the server may have installed
                 the write intent, and its timer would re-execute the
                 write alongside ours. *)
              t.s_rpc_timeouts <- t.s_rpc_timeouts + 1;
              t.s_fallback <- t.s_fallback + 1;
              finalize
                {
                  value = Error "LVI request timed out";
                  latency = Engine.now () -. start;
                  path = Fallback;
                }
          | Some response ->
          let spec =
            match (response, spec) with
            | Proto.Validated _, None when (not t.cfg.overlap) && not misses ->
                (* Ablation: execution starts only after validation, so
                   the LVI latency is fully exposed. *)
                let sp = Tracer.child t.tracer ~parent:root "speculate" in
                Some (speculate t ~exec_id ~span:sp ~snapshot entry args)
            | _ -> spec
          in
          (match (response, spec) with
          | Proto.Validated { write_versions; leases }, Some spec_iv ->
              Client_pipeline.install_leases t.leases leases;
              t.s_spec <- t.s_spec + 1;
              Log.debug (fun m -> m "%s validated; releasing speculation" exec_id);
              let spec_result = Ivar.read spec_iv in
              let finish = Engine.now () in
              record t ~exec_id ~start ~finish spec_result;
              (* (7a) Reply to the client, then (8a) update the cache and
                 send the write followup. *)
              let outcome =
                {
                  value = spec_result.value;
                  latency = finish -. start;
                  path = Speculative;
                }
              in
              if spec_result.written <> [] then
                Tracer.with_phase t.tracer ~parent:root "followup_post"
                  (fun () ->
                    List.iter
                      (fun (k, v) ->
                        (* The server returns the authoritative version
                           for every key in the validated write set, so
                           a gap means this speculation wrote a key it
                           never predicted — only possible with an
                           under-predicting manual f^rw. Installing a
                           guessed version would silently poison the
                           cache (and every peer, once propagated), so
                           fail loudly instead. *)
                        match List.assoc_opt k write_versions with
                        | Some base ->
                            Cache.update t.cache k v ~version:(base + 1)
                        | None ->
                            invalid_arg
                              (Printf.sprintf
                                 "Runtime: %s wrote key %S outside its \
                                  validated write set (unsound manual f^rw?)"
                                 exec_id k))
                      spec_result.written;
                    Client_pipeline.send ep.ep_coal
                      {
                        Proto.fu_exec_id = exec_id;
                        fu_from = t.cfg.loc;
                        fu_updates = spec_result.written;
                      });
              finalize outcome
          | Proto.Validated _, None ->
              (* Unreachable: a cache miss forces validation failure. *)
              assert false
          | Proto.Mismatch { backup; updates }, _ ->
              t.s_backup <- t.s_backup + 1;
              Log.debug (fun m ->
                  m "%s mismatched; %d cache repairs" exec_id
                    (List.length updates));
              (* (8b) Install fresh values, return the backup result. *)
              Tracer.with_phase t.tracer ~parent:root "cache_repair" (fun () ->
                  List.iter
                    (fun { Proto.up_key; up_value; up_version } ->
                      Cache.update t.cache up_key up_value ~version:up_version)
                    updates);
              let finish = Engine.now () in
              record t ~exec_id ~start ~finish backup;
              finalize
                { value = backup.value; latency = finish -. start; path = Backup })
          end)

let stats t =
  {
    invocations = t.s_invocations;
    speculative = t.s_spec;
    backup = t.s_backup;
    fallback = t.s_fallback;
    skipped_speculations = t.s_skipped;
    ro_hints = t.s_ro_hints;
    fu_batches =
      Array.fold_left
        (fun acc ep -> acc + Client_pipeline.flushes ep.ep_coal)
        0 t.endpoints;
    fu_piggybacked =
      Array.fold_left
        (fun acc ep -> acc + Client_pipeline.piggybacked ep.ep_coal)
        0 t.endpoints;
    rpc_timeouts = t.s_rpc_timeouts;
    prop_batches = t.s_prop_batches;
    prop_records = t.s_prop_records;
    prop_installed = t.s_prop_installed;
    lease_local = t.s_lease_local;
    lease_installed = Cache.Leases.installed t.leases;
    lease_refused = Cache.Leases.refused t.leases;
    lease_revoked = Cache.Leases.revoked t.leases;
  }
