(* Recovery layer of the LVI server engine: intent timers, followup
   application, deterministic re-execution of orphaned intents (§3.4),
   and post-restart repopulation. *)

open Sim
open Server_state
module Intents = Store.Intents
module Kv = Store.Kv

(* Deterministic re-execution of an orphaned intent, at most once near
   storage (the "ns:" claim). Read locks kept the read set frozen, so
   the replay sees exactly the state the speculation saw and reproduces
   its writes. Returns the committed records; [] when the claim was
   already taken. *)
let replay (t : t) (req : Proto.lvi_request) =
  if Server_persist.claim_execution t ~exec_id:("ns:" ^ req.exec_id) then begin
    t.s_reexec <- t.s_reexec + 1;
    match Registry.find t.registry req.fn_name with
    | Some entry ->
        let result =
          Server_exec.execute_on_primary t ~exec_id:req.exec_id entry req.args
        in
        Server_propagator.committed_records t result.written
    | None -> []
  end
  else []

(* Resolve an intent whose followup never arrived by replaying it
   (§3.4). Shared by the intent timer and by post-restart recovery. *)
let resolve_orphaned_intent (t : t) (req : Proto.lvi_request) =
  let exec_id = req.exec_id in
  match t.mutation with
  | Some Skip_reexecution ->
      (* Sabotaged server: the orphaned intent is simply forgotten — its
         write is lost, the intent stays pending and its locks stay held.
         The chaos oracle must catch all three. *)
      Log.info (fun m -> m "intent %s orphaned; MUTATION skips re-execution" exec_id)
  | None -> (
  Log.info (fun m -> m "intent %s orphaned; deterministic re-execution" exec_id);
  match Server_coordinator.cross_parts t req with
  | None ->
      if Intents.try_complete t.intents ~exec_id then begin
        (* No exclusion: the origin installed these writes at
           [Validated] time with the very versions the replay
           reproduces, so the version guard turns its redundant install
           into a no-op. *)
        Server_propagator.publish t (replay t req);
        Intents.remove t.intents ~exec_id;
        Hashtbl.remove t.durable_reqs exec_id;
        Server_persist.release t ~owner:exec_id
          (Server_persist.locked_keys_of req)
      end
      (* [try_complete] lost: another party — a followup handler that
         had already passed its own pending check and was still paying
         the intent-store latency when this resolution started, or an
         earlier resolution — owns the completion, and with it the
         cleanup and the lock release. Releasing here too would free
         locks the winner still relies on and drive the owner count
         negative. *)
  | Some parts ->
      (* Cross-shard coordinator: every touched shard still holds its
         slice (locks froze the whole read set), so the replay observes
         exactly the speculated state. The coordinator applies all
         writes, then concludes each peer with a commit decision
         carrying that peer's own records. A lost [try_complete] means
         a racing conclusion handled the decisions; only our own slice
         is retired. *)
      let records =
        if Intents.try_complete t.intents ~exec_id then Some (replay t req)
        else None
      in
      Server_coordinator.conclude_commit t ~exec_id ~from:None ~parts records;
      Intents.remove t.intents ~exec_id;
      Hashtbl.remove t.durable_reqs exec_id;
      Hashtbl.remove t.sharding.sh_coord_round exec_id)

(* Exponentially-weighted expected followup delay for a function; the
   timer fires at 4x the expectation (bounded below by 200 ms and above
   by the configured ceiling) so transient jitter does not trigger
   spurious re-executions, while fast functions recover quickly. *)
let intent_timeout_for (t : t) fn_name =
  match Hashtbl.find_opt t.followup_delay fn_name with
  | Some avg ->
      Float.min t.config.intent_timeout (Float.max 200.0 (4.0 *. avg))
  | None -> t.config.intent_timeout

let observe_followup_delay (t : t) fn_name delay =
  let avg =
    match Hashtbl.find_opt t.followup_delay fn_name with
    | Some avg -> (0.8 *. avg) +. (0.2 *. delay)
    | None -> delay
  in
  Hashtbl.replace t.followup_delay fn_name avg

let start_intent_timer (t : t) (req : Proto.lvi_request) =
  let exec_id = req.exec_id in
  let timer =
    Timer.after (intent_timeout_for t req.fn_name) (fun () ->
        match Hashtbl.find_opt t.pending exec_id with
        | None -> ()
        | Some _ ->
            Hashtbl.remove t.pending exec_id;
            resolve_orphaned_intent t req)
  in
  Hashtbl.replace t.pending exec_id
    { p_req = req; p_timer = timer; p_created = Engine.now () }

(* Figure 3 steps 8a-10: apply the speculative writes carried by the
   followup, unless re-execution already handled the intent. *)
let handle_followup (t : t) (fu : Proto.followup) =
  let exec_id = fu.fu_exec_id in
  match Hashtbl.find_opt t.pending exec_id with
  | None -> t.s_fu_discarded <- t.s_fu_discarded + 1
  | Some { p_req; p_timer; p_created } ->
      Hashtbl.remove t.pending exec_id;
      Timer.cancel p_timer;
      observe_followup_delay t p_req.fn_name (Engine.now () -. p_created);
      let applied = Intents.try_complete t.intents ~exec_id in
      let committed =
        if applied then begin
          t.s_fu_applied <- t.s_fu_applied + 1;
          Log.debug (fun m ->
              m "followup %s: applying %d writes" exec_id
                (List.length fu.fu_updates));
          (* Cross-shard commits included: the coordinator applies the
             FULL write set to shared primary storage — exactly one
             party applies, so no shard can observe a torn set. *)
          Server_propagator.apply_updates t fu.fu_updates
        end
        else begin
          t.s_fu_discarded <- t.s_fu_discarded + 1;
          Log.info (fun m -> m "followup %s discarded (already handled)" exec_id);
          []
        end
      in
      Intents.remove t.intents ~exec_id;
      Hashtbl.remove t.durable_reqs exec_id;
      (match Server_coordinator.cross_parts t p_req with
      | None ->
          if applied then
            Server_propagator.publish t ~exclude:fu.fu_from committed;
          Server_persist.release t ~owner:exec_id
            (Server_persist.locked_keys_of p_req)
      | Some parts ->
          (* Conclude the commit at every touched shard; each publishes
             its own slice of the committed records. The coordinator's
             slice releases through the same path. *)
          Server_coordinator.conclude_commit t ~exec_id
            ~from:(Some fu.fu_from) ~parts
            (if applied then Some committed else None);
          Hashtbl.remove t.sharding.sh_coord_round exec_id)

(* Followups travel as a list: a coalescing runtime flushes one message
   per window carrying every followup buffered for this destination. *)
let handle_followups (t : t) fus = List.iter (handle_followup t) fus

(* Simulate a restart of the LVI server process: volatile state (intent
   timers and the pending table) is lost; the intent records, their
   request payloads, and the lock table (persisted to disk, §4) survive.
   Recovery resolves every orphaned pending intent by deterministic
   re-execution, releasing its locks. The instant need not be quiescent:
   a followup still in flight at restart time finds its intent already
   completed on arrival and is discarded (its write was produced by the
   re-execution, exactly once), and an in-flight LVI request that has
   not yet installed an intent is untouched — its handler fiber still
   owns its locks and releases them normally. *)
let restart_recover (t : t) =
  Log.info (fun m ->
      m "server restart: recovering %d pending intent(s)"
        (Hashtbl.length t.pending));
  Hashtbl.iter (fun _ { p_timer; _ } -> Timer.cancel p_timer) t.pending;
  Hashtbl.reset t.pending;
  (* The LVI reply cache is volatile process memory: its filled entries
     die with the process. (Unfilled entries belong to in-flight handler
     fibers, which this non-quiescent restart model keeps alive — wiping
     those would let a racing duplicate re-enter the protocol while the
     original still owns its locks.) Rebuild an entry for every durable
     pending intent BEFORE resolving orphans: the intent's locks are
     still held, so the current primary versions of its write keys are
     exactly the ones validation replied with. Without this
     repopulation, a duplicate LVI delivery arriving after the restart
     re-runs the full protocol — it re-acquires the now-released locks,
     finds its reads stale (re-execution bumped the versions) and
     double-executes the backup. Direct-exec replies have no durable
     record to rebuild from and keep their in-memory entries.
     Acknowledged entries hold the filled tombstone and go with the
     rest. *)
  let filled =
    Expiring.fold
      (fun id cell acc -> if Ivar.is_full !cell then id :: acc else acc)
      t.reply_cache []
  in
  List.iter (Expiring.remove t.reply_cache) filled;
  Hashtbl.iter
    (fun exec_id (req : Proto.lvi_request) ->
      if
        Intents.peek t.intents ~exec_id = Some Intents.Pending
        && not (Expiring.mem t.reply_cache exec_id)
      then begin
        let write_versions =
          List.map
            (fun k ->
              ( k,
                match Kv.peek t.kv k with
                | Some { Kv.version; _ } -> version
                | None -> 0 ))
            req.writes
        in
        let iv = Ivar.create () in
        Ivar.fill iv (Proto.Validated { write_versions; leases = [] });
        let cell = ref iv in
        Expiring.replace t.reply_cache exec_id cell;
        expire_reply t.reply_cache exec_id cell
      end)
    t.durable_reqs;
  let orphans = Hashtbl.fold (fun _ req acc -> req :: acc) t.durable_reqs [] in
  List.iter
    (fun (req : Proto.lvi_request) ->
      if Intents.peek t.intents ~exec_id:req.exec_id = Some Intents.Pending then
        resolve_orphaned_intent t req)
    orphans
