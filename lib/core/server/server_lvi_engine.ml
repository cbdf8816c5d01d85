(* LVI request admission: the engine's front door (Figure 3, steps
   4-6). Dispatches each request to the cross-shard coordinator, the
   read-only validate-only fast path, or the locked slow path — the
   latter two composed from explicit {!Server_pipeline} stages so chaos
   fault hooks and stage-level instrumentation attach per stage. *)

open Sim
open Server_state
module Pipeline = Server_pipeline
module Kv = Store.Kv
module Locks = Store.Locks
module Intents = Store.Intents
module Tracer = Metrics.Tracer

(* Validate-only fast path for invocations the static analysis proved
   read-only (no writes, no external calls). No locks are taken, no
   intent or idempotency record is written: the request just samples the
   versions of its read set and probes the lock table.

   Soundness of the linearization point: [Kv.versions_of] charges its
   latency first and reads at the return instant, so the versions — and
   the lock probe right after — describe one storage state S. If no read
   key is stale and none is write-locked at that instant, replying
   Validated linearizes the invocation at S: a writer that finished
   before S bumped a version (caught by staleness); a writer holding a
   write lock at S may already have been acked to its client without its
   write being applied (intent pending), so reading around it would be a
   read of the past — the probe forces those onto the locked path. A
   writer merely *queued* at S has not validated yet, so S precedes its
   linearization point and reading S is legal. Skipping the idempotency
   record is safe because a re-executed read-only function writes
   nothing: at-most-once only matters for effects. *)
let ro_fast_eligible (t : t) (req : Proto.lvi_request) =
  (* The hint is client-provided; re-derive eligibility from this
     server's own registry before trusting it. *)
  req.ro_hint && req.writes = []
  && (match Registry.find t.registry req.fn_name with
     | Some entry -> entry.read_only
     | None -> false)

(* --- Slow path: the locked pipeline --------------------------------

   Stage sequence admit -> lock -> settle -> validate, then the reply
   as the pipeline's finish. The stage bodies are the pre-pipeline
   handler verbatim (same tracer phases, same order of effects); only
   the sequencing frame is explicit. *)

type slow_ctx = {
  sc_req : Proto.lvi_request;
  sc_root : Tracer.span;
  sc_lock_list : (string * Locks.mode) list;
  sc_all_keys : string list;
  mutable sc_ticket : Admission.ticket option;
  mutable sc_stale : string list;
  mutable sc_version_of : string -> int;
}

(* Conflict-aware admission brackets the lock-and-persist section:
   statically non-conflicting requests pass straight through and get
   their lock records batched together; actually-conflicting ones
   wait here in arrival order. The backup path's re-lock attempts
   run outside admission — they are rare, bounded, and still
   serialized by the lock table itself. *)
let admit_stage t =
  Pipeline.stage "admit" (fun c ->
      (match t.admission with
      | None -> ()
      | Some adm ->
          c.sc_ticket <-
            Some
              (Tracer.with_phase t.tracer ~parent:c.sc_root "admission"
                 (fun () ->
                   Admission.enter adm ~fn:c.sc_req.fn_name
                     ~reads:
                       (List.filter_map
                          (fun (k, m) ->
                            if m = Locks.Read then Some k else None)
                          c.sc_lock_list)
                     ~writes:c.sc_req.writes)));
      Pipeline.Continue)

let lock_stage t =
  Pipeline.stage "lock" (fun c ->
      Server_persist.acquire ~span:c.sc_root t ~owner:c.sc_req.exec_id
        c.sc_lock_list;
      (match (t.admission, c.sc_ticket) with
      | Some adm, Some tk -> Admission.leave adm tk
      | _ -> ());
      Pipeline.Continue)

(* Write keys are locked from here on, so no new lease on them can be
   granted; settle whatever grants are outstanding before the write
   may validate. *)
let settle_stage t =
  Pipeline.stage "settle" (fun c ->
      Server_lease_authority.settle_write_leases ~span:c.sc_root t
        c.sc_req.writes;
      Pipeline.Continue)

let validate_stage t =
  Pipeline.stage "validate" (fun c ->
      let sp_validate = Tracer.child t.tracer ~parent:c.sc_root "validate" in
      let versions = Kv.versions_of t.kv c.sc_all_keys in
      let version_of k =
        Option.value ~default:0 (List.assoc_opt k versions)
      in
      c.sc_version_of <- version_of;
      c.sc_stale <-
        List.filter_map
          (fun (k, cached) ->
            if version_of k <> cached then Some k else None)
          c.sc_req.reads;
      Tracer.stop sp_validate;
      Pipeline.Continue)

let reply_finish t c : Proto.lvi_response =
  let req = c.sc_req in
  let exec_id = req.exec_id in
  Log.debug (fun m ->
      m "LVI %s: %d reads, %d writes, stale=[%s]" exec_id
        (List.length req.reads) (List.length req.writes)
        (String.concat "," c.sc_stale));
  if c.sc_stale = [] then begin
    t.s_validated <- t.s_validated + 1;
    if req.writes = [] then begin
      (* Grant while the read locks are still held: the validated
         versions cannot move before the grants are recorded. *)
      let leases =
        Server_lease_authority.grant_leases t ~site:req.from_loc req.reads
      in
      Server_persist.release t ~owner:exec_id c.sc_all_keys;
      Proto.Validated { write_versions = []; leases }
    end
    else begin
      (* [put] is a conditional put-if-absent; with the reply cache
         deduping deliveries upstream the id is always fresh here, but a
         pre-existing intent must not crash the server either way. *)
      ignore (Intents.put t.intents ~exec_id : bool);
      Hashtbl.replace t.durable_reqs exec_id req;
      Server_recovery.start_intent_timer t req;
      Proto.Validated
        {
          write_versions =
            List.map (fun k -> (k, c.sc_version_of k)) req.writes;
          leases = [];
        }
    end
  end
  else begin
    t.s_mismatched <- t.s_mismatched + 1;
    match Registry.find t.registry req.fn_name with
    | None ->
        Server_persist.release t ~owner:exec_id c.sc_all_keys;
        Proto.Mismatch
          {
            backup =
              {
                value = Error ("unknown function " ^ req.fn_name);
                observed = [];
                written = [];
              };
            updates = [];
          }
    | Some entry ->
        (* The backup's own re-lock attempts nest under this span. *)
        let sp_backup = Tracer.child t.tracer ~parent:c.sc_root "backup_exec" in
        let backup =
          Server_exec.backup_execute ~span:sp_backup t entry req
            ~held_keys:c.sc_all_keys
        in
        Tracer.stop sp_backup;
        let refresh_keys =
          List.sort_uniq String.compare
            (c.sc_stale @ List.map fst backup.written)
        in
        let updates = Server_propagator.fresh_updates t refresh_keys in
        (* The repair material also freshens the other subscribed sites:
           they are at least as stale as the requester was. The
           requester itself installs [updates] from the response. *)
        Server_propagator.publish t ~exclude:req.from_loc updates;
        Proto.Mismatch { backup; updates }
  end

let handle_lvi_slow (t : t) (req : Proto.lvi_request) ~root :
    Proto.lvi_response =
  Server_persist.register_invocation t ~exec_id:req.exec_id;
  (* Write locks dominate for keys that are both read and written; the
     read is still validated in the validate stage. *)
  let lock_list =
    Locks.lock_list ~reads:(List.map fst req.reads) ~writes:req.writes
  in
  let ctx =
    {
      sc_req = req;
      sc_root = root;
      sc_lock_list = lock_list;
      sc_all_keys = List.map fst lock_list;
      sc_ticket = None;
      sc_stale = [];
      sc_version_of = (fun _ -> 0);
    }
  in
  Pipeline.run ~on_stage:t.stage_hook
    [ admit_stage t; lock_stage t; settle_stage t; validate_stage t ]
    ctx
    ~finish:(reply_finish t)

(* Read-only fast path as a single pipeline stage in front of the slow
   pipeline: [Done] replies without ever touching the lock table,
   [Continue] falls through to the full locked protocol (paying a
   second version sample under locks). *)
let ro_stage t ~root =
  Pipeline.stage "ro_validate" (fun (req : Proto.lvi_request) ->
      let sp = Tracer.child t.tracer ~parent:root "ro_validate" in
      let keys = List.map fst req.reads in
      let versions = Kv.versions_of t.kv keys in
      let fresh =
        List.for_all
          (fun (k, cached) ->
            Option.value ~default:0 (List.assoc_opt k versions) = cached)
          req.reads
      in
      let unlocked = not (List.exists (Locks.write_locked t.locks) keys) in
      Tracer.stop sp;
      if fresh && unlocked then begin
        t.s_validated <- t.s_validated + 1;
        t.s_ro_fast <- t.s_ro_fast + 1;
        Log.debug (fun m ->
            m "LVI %s: read-only fast path, %d reads validated" req.exec_id
              (List.length req.reads));
        (* The validated versions equal primary's at this (non-blocking)
           instant and none is write-locked: the reply may carry fresh
           leases on the whole read set for free. *)
        Pipeline.Done
          (Proto.Validated
             {
               write_versions = [];
               leases =
                 Server_lease_authority.grant_leases t ~site:req.from_loc
                   req.reads;
             })
      end
      else Pipeline.Continue)

let handle_lvi_once (t : t) (req : Proto.lvi_request) : Proto.lvi_response =
  (* Piggybacked followups of earlier invocations from the same site
     apply first: they release locks this request might otherwise queue
     behind. *)
  List.iter (Server_recovery.handle_followup t) req.piggyback;
  t.s_requests <- t.s_requests + 1;
  (* The near-user runtime registered this request's root span under its
     execution id; server-side phases attach to the same tree. *)
  let root = Tracer.exec_span t.tracer ~exec_id:req.exec_id in
  match Server_coordinator.cross_parts t req with
  | Some parts ->
      Server_coordinator.handle_lvi_cross t
        (Option.get t.sharding)
        req ~root
        ~arm_intent:(Server_recovery.start_intent_timer t)
        parts
  | None ->
      (match t.sharding with
      | Some sh -> Tracer.record_shard t.tracer ~shard:sh.sh_id ~parts:1
      | None -> ());
      if ro_fast_eligible t req then
        Pipeline.run ~on_stage:t.stage_hook [ ro_stage t ~root ] req
          ~finish:(fun req -> handle_lvi_slow t req ~root)
      else handle_lvi_slow t req ~root

(* At-least-once delivery guard: a duplicated LVI message must not run
   the protocol twice — the second pass would queue on its own locks,
   find its own writes "stale" and double-execute the backup. The first
   delivery registers an ivar and fills it with the response; a
   duplicate — even one arriving while the original is still being
   processed — blocks on the same ivar and returns the same response.
   Entries whose lifetime has passed are pruned first; none of their
   requests can still arrive. *)
let handle_lvi (t : t) (req : Proto.lvi_request) : Proto.lvi_response =
  Expiring.prune t.reply_cache ~now:(Engine.now ());
  match Expiring.find_opt t.reply_cache req.exec_id with
  | Some iv ->
      t.s_dup_deliveries <- t.s_dup_deliveries + 1;
      Log.info (fun m ->
          m "LVI %s: duplicate delivery, replaying reply" req.exec_id);
      Ivar.read iv
  | None ->
      let iv = Ivar.create () in
      Expiring.replace t.reply_cache req.exec_id iv;
      let resp = handle_lvi_once t req in
      Ivar.fill iv resp;
      expire_reply t.reply_cache req.exec_id iv;
      resp

(* Same reply-cache guard as [handle_lvi]: a duplicated direct-exec
   delivery must not run the function (and its effects) twice. *)
let handle_exec (t : t) (req : Proto.exec_request) : Proto.exec_result =
  Expiring.prune t.exec_replies ~now:(Engine.now ());
  match Expiring.find_opt t.exec_replies req.dx_exec_id with
  | Some iv ->
      t.s_dup_deliveries <- t.s_dup_deliveries + 1;
      Ivar.read iv
  | None ->
      let iv = Ivar.create () in
      Expiring.replace t.exec_replies req.dx_exec_id iv;
      t.s_direct <- t.s_direct + 1;
      let result =
        match Registry.find t.registry req.dx_fn_name with
        | None ->
            {
              Proto.value = Error ("unknown function " ^ req.dx_fn_name);
              observed = [];
              written = [];
            }
        | Some entry ->
            Server_exec.execute_on_primary t ~exec_id:req.dx_exec_id entry
              req.dx_args
      in
      Ivar.fill iv result;
      expire_reply t.exec_replies req.dx_exec_id iv;
      result
