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
  fu_batches : int;
  fu_piggybacked : int;
  rpc_timeouts : int;
  prop_batches : int;
  prop_records : int;
  prop_installed : int;
  lease_local : int;
  lease_installed : int;
  lease_refused : int;
  lease_revoked : int;
}

(* One LVI server this runtime talks to: one per shard, indexed by shard
   id.
   Followup batchers are per-endpoint: a followup must reach the shard
   that installed its intent, and a piggybacked followup may only ride
   a request bound for that same shard. So is the ack buffer: a reply
   is acknowledged to the server that stored it. *)
type endpoint = {
  ep_lvi : (Proto.lvi_request, Proto.lvi_response) Transport.service;
  ep_fu : (Proto.followup list, unit) Transport.service;
  ep_exec : (Proto.exec_request, Proto.exec_result) Transport.service;
  ep_fus : Proto.followup Batcher.t option;
      (* Followups waiting for the Nagle window or for a request to
         ride; [None] when the window is off and nothing piggybacks, so
         each followup is posted at once. The window must stay well
         under the server's 200 ms intent-timer floor: a buffered
         followup delays the release of its server-side locks by at
         most one window. *)
  mutable ep_acks : Proto.exec_id list;
      (* Calls to this endpoint that have returned since the last
         request to it; the next LVI or direct-exec request carries
         them, so the server can drop their stored replies. *)
}

(* The call [exec_id] to [ep] has returned, with a reply or a timeout:
   this site will never read another copy of its reply. *)
let ack ep exec_id = ep.ep_acks <- exec_id :: ep.ep_acks

let take_acks ep =
  let acks = ep.ep_acks in
  ep.ep_acks <- [];
  acks

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
  router : Shard.Router.t;
  mutable next_id : int;
  mutable recorder : (Lincheck.op -> unit) option;
  mutable s_invocations : int;
  mutable s_spec : int;
  mutable s_backup : int;
  mutable s_fallback : int;
  mutable s_skipped : int;
  mutable s_ro_hints : int;
  mutable s_fu_piggybacked : int;
  mutable s_rpc_timeouts : int;
  mutable s_prop_batches : int;
  mutable s_prop_records : int;
  mutable s_prop_installed : int;
  mutable s_lease_local : int;
}

(* Grants arrive piggybacked on Validated replies and cache updates.
   [Cache.Leases.install] refuses fenced grants (issued at or before the
   last acknowledged revocation of the key — they were in flight while a
   writer settled it) and keeps its own counters. *)
let install_leases t grants =
  List.iter
    (fun { Proto.lg_key; lg_version; lg_issued; lg_until } ->
      ignore
        (Cache.Leases.install t.leases ~key:lg_key ~version:lg_version
           ~issued:lg_issued ~until:lg_until
          : bool))
    grants

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
  install_leases t cu.cu_leases

let endpoint_of ~net ~tracer cfg server =
  let ep_fu = Server.followup_service server in
  {
    ep_lvi = Server.lvi_service server;
    ep_fu;
    ep_exec = Server.exec_service server;
    ep_fus =
      (if cfg.fu_window <= 0.0 && not cfg.fu_piggyback then None
       else
         Some
           (Batcher.create ~window:(Float.max 0.0 cfg.fu_window)
              ~on_flush:(fun ~size ~queue_delay ->
                Tracer.record_batch tracer ~label:"followup" size;
                Tracer.record_queue tracer ~label:"followup" queue_delay)
              (fun fus -> Transport.post net ~from:cfg.loc ep_fu fus)));
    ep_acks = [];
  }

let create ?extsvc ?(tracer = Tracer.noop) ~net ~registry ~cache ~router
    ~servers cfg =
  let n = Shard.Directory.shards (Shard.Router.directory router) in
  let endpoints =
    Array.init n (fun i ->
        match List.find_opt (fun s -> Server.shard_id s = i) servers with
        | Some s -> endpoint_of ~net ~tracer cfg s
        | None ->
            invalid_arg
              (Printf.sprintf "Runtime.create: no server for shard %d" i))
  in
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
    s_fu_piggybacked = 0;
    s_rpc_timeouts = 0;
    s_prop_batches = 0;
    s_prop_records = 0;
    s_prop_installed = 0;
    s_lease_local = 0;
  }

let lease_revoke_service t =
  Transport.serve ~loc:t.cfg.loc ~name:"lease_revoke" (handle_lease_revoke t)

let cache_update_service t =
  Transport.serve ~loc:t.cfg.loc ~name:"cache_update" (handle_cache_update t)

let set_recorder t r = t.recorder <- Some r

let location t = t.cfg.loc

let cache t = t.cache

let fresh_exec_id t fn =
  t.next_id <- t.next_id + 1;
  String.concat "/" [ t.cfg.loc; fn; string_of_int t.next_id ]

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
   Writes stay in the execution's own buffer — Radical delays cache
   updates until the LVI response arrives (§3.2). Each read pays the
   cache access, but predicted reads are served from the snapshot the
   LVI request validates: the live cache can change mid-speculation
   (concurrent followups, a fault-injected wipe) and those values were
   never validated. *)
let speculate t ~exec_id ?(span = Tracer.none) ?(snapshot = [])
    (entry : Registry.entry) args : Proto.exec_result Ivar.t =
  let iv = Ivar.create () in
  Engine.spawn ~name:"speculate" (fun () ->
      let result =
        Execute.run
          ~external_call:(Extsvc.dispatcher t.extsvc ~exec_id)
          entry
          ~read:(fun k ->
            let live = Cache.get t.cache k in
            match List.assoc_opt k snapshot with
            | Some v -> Some v
            | None -> Option.map (fun { Cache.value; _ } -> value) live)
          ~write:(fun _ _ -> ())
          args
      in
      Tracer.stop span;
      Ivar.fill iv result);
  iv

(* --- Shard endpoint selection ---------------------------------------- *)

(* Target for a request with a concrete predicted key set: the shard
   holding all of them, or the coordinator anchor (minimum touched
   shard) when they span several. *)
let endpoint_for_keys t keys =
  t.endpoints.(Shard.Router.target_of_keys t.router keys)

(* Target for a direct execution (no predicted key set): route by the
   function's static key-shape classification — its home shard when the
   analyzer pinned one, the anchor shard otherwise. Direct executions
   run against the shared primary store, so any shard is correct; the
   classification merely spreads load. *)
let endpoint_for_entry t (entry : Registry.entry) =
  match Shard.Router.classify t.router entry.summary with
  | Shard.Router.Single s -> t.endpoints.(s)
  | Shard.Router.Cross -> t.endpoints.(0)

(* Every exit of [invoke]: read the clock, record the history op (a
   timed-out call records none), run the speculative path's [followup]
   — after the reply, so outside the client's latency — and fold the
   finished trace into the per-path histograms. *)
let complete t ~fn ~exec_id ~start ~root ?followup path
    (res : (Proto.exec_result, string) result) =
  let finish = Engine.now () in
  let value =
    match res with
    | Ok res ->
        record t ~exec_id ~start ~finish res;
        res.value
    | Error msg ->
        t.s_rpc_timeouts <- t.s_rpc_timeouts + 1;
        Error msg
  in
  (match followup with
  | Some post -> Tracer.with_phase t.tracer ~parent:root "followup_post" post
  | None -> ());
  Tracer.release_exec t.tracer ~exec_id;
  Tracer.finalize t.tracer ~fn ~path:(path_label path) root;
  { value; latency = finish -. start; path }

let direct_execute t ~exec_id ~root ep fn args =
  t.s_fallback <- t.s_fallback + 1;
  let res =
    Tracer.with_phase t.tracer ~parent:root "direct_exec" (fun () ->
        Transport.call_timeout t.net ~from:t.cfg.loc
          ~timeout:rpc_timeout ep.ep_exec
          {
            Proto.dx_exec_id = exec_id;
            dx_fn_name = fn;
            dx_args = args;
            dx_acks = take_acks ep;
          })
  in
  ack ep exec_id;
  Option.to_result ~none:"direct execution timed out" res

(* Drain [ep]'s buffered followups into an outgoing LVI request; the
   server applies them before the request itself. *)
let take_piggyback t ep =
  match ep.ep_fus with
  | Some b when t.cfg.fu_piggyback ->
      let fus = Batcher.take b in
      t.s_fu_piggybacked <- t.s_fu_piggybacked + List.length fus;
      fus
  | Some _ | None -> []

let post_followup t ep fu =
  match ep.ep_fus with
  | Some b -> Batcher.add b [ fu ]
  | None -> Transport.post t.net ~from:t.cfg.loc ep.ep_fu [ fu ]

let invoke t fn args =
  t.s_invocations <- t.s_invocations + 1;
  let start = Engine.now () in
  let exec_id = fresh_exec_id t fn in
  (* One trace per invocation: phase spans hang off this root, the LVI
     server attaches its own phases via the exec-id registration, and
     [complete] folds the finished tree into the per-path histograms. *)
  let root = Tracer.root t.tracer fn in
  Tracer.annotate root "loc" t.cfg.loc;
  Tracer.annotate root "exec_id" exec_id;
  let entry =
    match Registry.find t.registry fn with
    | Some e -> e
    | None -> invalid_arg ("Runtime.invoke: unknown function " ^ fn)
  in
  (* Analysis-derived metadata: whether the function is statically
     read-only, and with how many other registered functions it may
     conflict (shared key shape with a write involved). *)
  if Tracer.enabled t.tracer then begin
    Tracer.annotate root "read_only"
      (if entry.read_only then "true" else "false");
    Tracer.annotate root "conflict_degree"
      (string_of_int (Registry.conflict_degree t.registry fn))
  end;
  Tracer.register_exec t.tracer ~exec_id root;
  Tracer.with_phase t.tracer ~parent:root "invoke_overhead" (fun () ->
      Engine.sleep invoke_overhead);
  match entry.derived with
  | None | Some { classification = Analyzer.Derive.Expensive; _ } ->
      (* No f^rw, or §3.3's "Failure case": an f^rw that must do the
         function's own expensive computation runs in series with f and
         would erase the benefit — such functions always run near
         storage. *)
      complete t ~fn ~exec_id ~start ~root Fallback
        (direct_execute t ~exec_id ~root (endpoint_for_entry t entry) fn args)
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
          complete t ~fn ~exec_id ~start ~root Fallback
            (direct_execute t ~exec_id ~root (endpoint_for_entry t entry) fn
               args)
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
          let read_only = entry.read_only && rwset.writes = [] in
          (* Lease-local fast path, zero LVI round trips: a statically
             read-only function whose whole read set is cached AND
             covered by valid leases certifying exactly the cached
             versions. The server promised no write to these keys
             validates before the leases are settled, so the snapshot is
             current and executing against it linearizes the invocation
             at this instant. Any miss, uncovered key, version mismatch
             or expiry falls through to the normal protocol. *)
          if
            read_only && (not misses)
            && Cache.Leases.covered t.leases ~now:(Engine.now ()) reads
          then begin
            t.s_lease_local <- t.s_lease_local + 1;
            let sp = Tracer.child t.tracer ~parent:root "lease_local" in
            let spec_iv = speculate t ~exec_id ~span:sp ~snapshot entry args in
            complete t ~fn ~exec_id ~start ~root Local
              (Ok (Ivar.read spec_iv))
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
          let ro_hint = t.cfg.ro_fast && read_only in
          if ro_hint then t.s_ro_hints <- t.s_ro_hints + 1;
          let reply =
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
                    piggyback = take_piggyback t ep;
                    acks = take_acks ep;
                  })
          in
          ack ep exec_id;
          match reply with
          | None ->
              (* Request or reply lost past the timeout: surface an error
                 instead of blocking this fiber forever. Never fall back
                 to direct execution here — the server may have installed
                 the write intent, and its timer would re-execute the
                 write alongside ours. *)
              t.s_fallback <- t.s_fallback + 1;
              complete t ~fn ~exec_id ~start ~root Fallback
                (Error "LVI request timed out")
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
              install_leases t leases;
              t.s_spec <- t.s_spec + 1;
              Log.debug (fun m -> m "%s validated; releasing speculation" exec_id);
              let spec_result = Ivar.read spec_iv in
              (* (7a) Reply to the client, then (8a) update the cache and
                 send the write followup. *)
              let followup =
                if spec_result.written = [] then None
                else
                  Some
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
                                    validated write set (unsound manual \
                                    f^rw?)"
                                   exec_id k))
                        spec_result.written;
                      post_followup t ep
                        {
                          Proto.fu_exec_id = exec_id;
                          fu_from = t.cfg.loc;
                          fu_updates = spec_result.written;
                        })
              in
              complete t ~fn ~exec_id ~start ~root ?followup Speculative
                (Ok spec_result)
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
              complete t ~fn ~exec_id ~start ~root Backup (Ok backup))
          end)

let pending_acks t =
  Array.fold_left (fun acc ep -> acc + List.length ep.ep_acks) 0 t.endpoints

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
        (fun acc ep ->
          match ep.ep_fus with Some b -> acc + Batcher.flushes b | None -> acc)
        0 t.endpoints;
    fu_piggybacked = t.s_fu_piggybacked;
    rpc_timeouts = t.s_rpc_timeouts;
    prop_batches = t.s_prop_batches;
    prop_records = t.s_prop_records;
    prop_installed = t.s_prop_installed;
    lease_local = t.s_lease_local;
    lease_installed = Cache.Leases.installed t.leases;
    lease_refused = Cache.Leases.refused t.leases;
    lease_revoked = Cache.Leases.revoked t.leases;
  }
