(* LVI request admission: the engine's front door (Figure 3, steps
   4-6). Dispatches each request to the cross-shard coordinator, the
   read-only validate-only fast path, or the locked slow path.
   [t.stage_hook] fires with each step's name just before it runs, so
   chaos fault hooks and stage-level instrumentation attach per step. *)

open Sim
open Server_state
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

(* [Some reply] validates without ever touching the lock table; [None]
   falls through to the full locked protocol (paying a second version
   sample under locks). *)
let ro_validate (t : t) (req : Proto.lvi_request) ~root =
  t.stage_hook "ro_validate";
  let sp = Tracer.child t.tracer ~parent:root "ro_validate" in
  let keys = List.map fst req.reads in
  let _, stale = Server_exec.stale_reads t ~keys req.reads in
  let fresh = stale = [] in
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
    Some
      (Proto.Validated
         {
           write_versions = [];
           leases =
             Server_lease_authority.grant_leases t ~site:req.from_loc req.reads;
         })
  end
  else None

(* --- Slow path: the locked protocol ---------------------------------- *)

(* The reply once [all_keys] are locked and the reads validated: [stale]
   lists the read keys whose versions moved, [version_of] gives each
   locked key's version. *)
let lvi_reply (t : t) (req : Proto.lvi_request) ~root ~all_keys ~version_of
    stale : Proto.lvi_response =
  let exec_id = req.exec_id in
  Log.debug (fun m ->
      m "LVI %s: %d reads, %d writes, stale=[%s]" exec_id
        (List.length req.reads) (List.length req.writes)
        (String.concat "," stale));
  if stale = [] then begin
    t.s_validated <- t.s_validated + 1;
    if req.writes = [] then begin
      (* Grant while the read locks are still held: the validated
         versions cannot move before the grants are recorded. *)
      let leases =
        Server_lease_authority.grant_leases t ~site:req.from_loc req.reads
      in
      Server_persist.release t ~owner:exec_id all_keys;
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
          write_versions = List.map (fun k -> (k, version_of k)) req.writes;
          leases = [];
        }
    end
  end
  else begin
    t.s_mismatched <- t.s_mismatched + 1;
    match Registry.find t.registry req.fn_name with
    | None ->
        Server_persist.release t ~owner:exec_id all_keys;
        Proto.Mismatch
          {
            backup = Proto.failed ("unknown function " ^ req.fn_name);
            updates = [];
          }
    | Some entry ->
        (* The backup's own re-lock attempts nest under this span. *)
        let sp_backup = Tracer.child t.tracer ~parent:root "backup_exec" in
        let unlock (owner, keys) = Server_persist.release t ~owner keys in
        let backup, held =
          Server_exec.backup_execute t entry req ~held:(exec_id, all_keys)
            ~unlock ~lock:(fun attempt rwset ->
              let owner = String.concat "#" [ exec_id; string_of_int attempt ] in
              Server_persist.acquire ~span:sp_backup t ~owner
                (Server_persist.lock_list_of rwset);
              Some (owner, Analyzer.Rwset.all_keys rwset))
        in
        Option.iter unlock held;
        Tracer.stop sp_backup;
        let refresh_keys =
          List.sort_uniq String.compare (stale @ List.map fst backup.written)
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
     read is still validated below. *)
  let lock_list =
    Locks.lock_list ~reads:(List.map fst req.reads) ~writes:req.writes
  in
  let all_keys = List.map fst lock_list in
  (* Conflict-aware admission brackets the lock-and-persist section:
     statically non-conflicting requests pass straight through and get
     their lock records batched together; actually-conflicting ones
     wait here in arrival order. The backup path's re-lock attempts
     run outside admission — they are rare, bounded, and still
     serialized by the lock table itself. *)
  t.stage_hook "admit";
  let ticket =
    match t.admission with
    | None -> None
    | Some adm ->
        Some
          (Tracer.with_phase t.tracer ~parent:root "admission" (fun () ->
               Admission.enter adm ~fn:req.fn_name
                 ~reads:
                   (List.filter_map
                      (fun (k, m) -> if m = Locks.Read then Some k else None)
                      lock_list)
                 ~writes:req.writes))
  in
  t.stage_hook "lock";
  Server_persist.acquire ~span:root t ~owner:req.exec_id lock_list;
  (match (t.admission, ticket) with
  | Some adm, Some tk -> Admission.leave adm tk
  | _ -> ());
  (* Write keys are locked from here on, so no new lease on them can be
     granted; settle whatever grants are outstanding before the write
     may validate. *)
  t.stage_hook "settle";
  Server_lease_authority.settle_write_leases ~span:root t req.writes;
  t.stage_hook "validate";
  let sp_validate = Tracer.child t.tracer ~parent:root "validate" in
  let version_of, stale = Server_exec.stale_reads t ~keys:all_keys req.reads in
  Tracer.stop sp_validate;
  lvi_reply t req ~root ~all_keys ~version_of stale

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
      Server_coordinator.handle_lvi_cross t req ~root
        ~arm_intent:(Server_recovery.start_intent_timer t)
        parts
  | None -> (
      (* Per-shard load is a sharded deployment's row: one shard records
         none. *)
      let sh = t.sharding in
      if Shard.Directory.shards sh.sh_dir > 1 then
        Tracer.record_shard t.tracer ~shard:sh.sh_id ~parts:1;
      let fast =
        if ro_fast_eligible t req then ro_validate t req ~root else None
      in
      match fast with Some reply -> reply | None -> handle_lvi_slow t req ~root)

(* At-least-once delivery guard: a duplicated message must not run its
   handler twice — a second LVI pass would queue on its own locks, find
   its own writes "stale" and double-execute the backup; a second direct
   execution would repeat its effects. The first delivery registers an
   ivar and fills it with the response; a duplicate — even one arriving
   while the original is still being processed — blocks on the same ivar
   and returns the same response. Entries whose lifetime has passed are
   pruned first; none of their requests can still arrive. Then the
   replies the client acknowledges give up their responses; a duplicate
   of one of those gets the tombstone, after its client has finished the
   call. *)
let dedup_reply (t : t) tbl ~acks exec_id handle req =
  Expiring.prune tbl ~now:(Engine.now ());
  forget_acked t acks;
  match Expiring.find_opt tbl exec_id with
  | Some cell ->
      t.s_dup_deliveries <- t.s_dup_deliveries + 1;
      Log.info (fun m -> m "%s: duplicate delivery, replaying reply" exec_id);
      Ivar.read !cell
  | None ->
      let iv = Ivar.create () in
      let cell = ref iv in
      Expiring.replace tbl exec_id cell;
      let resp = handle t req in
      Ivar.fill iv resp;
      expire_reply tbl exec_id cell;
      resp

let handle_lvi (t : t) (req : Proto.lvi_request) : Proto.lvi_response =
  dedup_reply t t.reply_cache ~acks:req.acks req.exec_id handle_lvi_once req

let handle_exec_once (t : t) (req : Proto.exec_request) : Proto.exec_result =
  t.s_direct <- t.s_direct + 1;
  match Registry.find t.registry req.dx_fn_name with
  | None -> Proto.failed ("unknown function " ^ req.dx_fn_name)
  | Some entry ->
      Server_exec.execute_on_primary t ~exec_id:req.dx_exec_id entry
        req.dx_args

let handle_exec (t : t) (req : Proto.exec_request) : Proto.exec_result =
  dedup_reply t t.exec_replies ~acks:req.dx_acks req.dx_exec_id
    handle_exec_once req
