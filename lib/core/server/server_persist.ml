(* Persistence layer of the LVI server engine: how lock records reach
   the replicated log (§5.6), the at-most-once execution registry, and
   the lock acquire/release pair every higher layer goes through. *)

open Sim
open Server_state
module Transport = Net.Transport
module Locks = Store.Locks
module RaftLocks = Raft_locks
module Tracer = Metrics.Tracer

(* How a request's lock records reach the replicated log: through the
   cross-request Nagle flusher (persist_window), or one submit per
   record — the seed behaviour, "our implementation of the replicated
   server acquires all locks in series". *)
let persist_records (t : t) cmds =
  match t.repl with
  | None -> ()
  | Some { flusher = Some b; _ } -> Batcher.submit_all b cmds
  | Some { cluster; flusher = None; _ } ->
      List.iter
        (fun cmd -> ignore (RaftLocks.submit ~tracer:t.tracer cluster cmd))
        cmds

let persist_locks t ~exec_id keys =
  persist_records t
    (List.map (fun key -> Raft.Kvsm.Set ("lock:" ^ key, exec_id)) keys)

let persist_unlocks (t : t) keys =
  match t.repl with
  | None -> ()
  | Some _ ->
      (* Off the critical path: the response does not wait for these. *)
      Engine.spawn ~name:"unlock-persist" (fun () ->
          persist_records t
            (List.map (fun key -> Raft.Kvsm.Del ("lock:" ^ key)) keys))

(* Returns false if the execution was already claimed: at-most-once near
   storage. Singleton mode always allows. *)
let claim_execution (t : t) ~exec_id =
  match t.repl with
  | None -> true
  | Some { idempotency; _ } -> Store.Idempotency.register idempotency ~exec_id

(* Invocation records expire after the message lifetime, as the
   paper's DynamoDB items do by TTL: nothing reads them back, and no copy
   of the request can still arrive once the lifetime has passed. They
   are keyed by the exec id itself, the string the reply cache already
   binds; exec ids ([LOC/fn/n]) never start with "ns:", so they cannot
   collide with execution claims, which guard re-execution and stay. *)
let register_invocation (t : t) ~exec_id =
  match t.repl with
  | None -> ()
  | Some { idempotency; _ } ->
      ignore
        (Store.Idempotency.register ~ttl:Transport.max_message_age idempotency
           ~exec_id)

let release (t : t) ~owner keys =
  Locks.release t.locks ~owner;
  t.owners <- t.owners - 1;
  persist_unlocks t keys

let acquire ?(span = Tracer.none) (t : t) ~owner lock_list =
  Tracer.with_phase t.tracer ~parent:span "lock_wait" (fun () ->
      Locks.acquire t.locks ~owner lock_list);
  t.owners <- t.owners + 1;
  match t.repl with
  | None -> ()
  | Some _ ->
      Tracer.with_phase t.tracer ~parent:span "raft_persist" (fun () ->
          persist_locks t ~exec_id:owner (List.map fst lock_list))

let lock_list_of (rwset : Analyzer.Rwset.t) =
  Locks.lock_list ~reads:rwset.reads ~writes:rwset.writes

(* The keys [handle_lvi] actually locked for a request: its writes plus
   the reads that are not also written (the write lock dominates). Both
   release sites must use this — naively concatenating reads and writes
   passes a key that is read *and* written twice to [persist_unlocks],
   appending a redundant [Del] to the replicated lock log. *)
let locked_keys_of (req : Proto.lvi_request) =
  Locks.merged_keys ~reads:(List.map fst req.reads) ~writes:req.writes
