(* Shared mutable state of the LVI server engine. Every server_* layer
   operates on this one record; [Server.create] wires the transport
   services around it. Keeping the record (and only the record) here
   lets the layers stay acyclic: Persist -> Lease_authority -> Exec /
   Propagator -> Coordinator -> Recovery -> Lvi_engine, each depending
   only on the state and the layers below it. *)

module Transport = Net.Transport
module Kv = Store.Kv
module Locks = Store.Locks
module Intents = Store.Intents
module Tracer = Metrics.Tracer

let log_src = Logs.Src.create "radical.server" ~doc:"LVI server events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type repl = {
  cluster : Raft_locks.cluster;
  idempotency : Store.Idempotency.t;
  flusher : Raft.Kvsm.cmd Batcher.t option;
      (* Cross-request Nagle flusher folding the lock records of
         concurrent requests into one Raft proposal
         (batching.persist_window > 0). *)
}

(* A reply-cache entry. The cell, not the ivar, is what the table binds
   and what [Sim.Expiring]'s deadline is tied to ([==]), so repointing
   it at a tombstone leaves the deadline in force. *)
type 'r reply = 'r Sim.Ivar.t ref

type pending = {
  p_req : Proto.lvi_request;
  p_timer : Sim.Timer.t;
  p_created : float;
}

(* --- Sharded deployment (lib/shard) -------------------------------- *)

(* One request's slice of the key space owned by one shard. *)
type slice = { sl_reads : (string * int) list; sl_writes : string list }

type cross_state = Cross_prepared | Cross_committed | Cross_aborted

type shard_peer = {
  pe_prepare : (Proto.shard_prepare, Proto.shard_vote) Transport.service;
  pe_decide : (Proto.shard_decision, unit) Transport.service;
}

type sharding = {
  sh_id : int;
  sh_dir : Shard.Directory.t;
  mutable sh_peers : (int * shard_peer) list; (* other shards, ascending *)
  (* Participant-side slice bookkeeping: the locked slice of each
     cross-shard exec — (round, lock owner, locked keys). Conceptually
     persisted with the lock table: it survives restart_recover, and the
     coordinator's retried decision resolves it. *)
  sh_prepared : (string, int * string * string list) Hashtbl.t;
  (* Lock owners with a prepare acquire currently in flight: a
     duplicated prepare of the same round must not re-enter
     [Locks.acquire] under the same owner. *)
  sh_preparing : (string, unit) Hashtbl.t;
  (* Highest concluded prepare round per exec: prepares at or below it
     are refused, decisions at or below it are duplicates. *)
  sh_decided : (string, int) Hashtbl.t;
  (* Final prepare round of each cross-shard commit this server
     coordinates, stamped on its decisions; persisted with the intent
     record so post-restart recovery can still conclude its peers. *)
  sh_coord_round : (string, int) Hashtbl.t;
  (* Cross-shard atomicity log for the chaos oracle: every intent-ful
     prepare this server accepted (or initiated, as coordinator) and how
     it concluded. At quiescence the states of one exec_id must agree
     across every shard, with no Cross_prepared leftovers. *)
  sh_cross : (string, cross_state) Hashtbl.t;
  mutable sh_prepares : int; (* participant slices prepared here *)
}

type t = {
  config : Server_config.config;
  net : Transport.t;
  tracer : Tracer.t;
  registry : Registry.t;
  kv : Kv.t;
  extsvc : Extsvc.t;
  locks : Locks.t;
  intents : Intents.t;
  (* The request that created each intent, persisted in the same storage
     item as the intent record (§3.4 needs the function and inputs to
     re-execute after a failure). Unlike [pending] below, this survives a
     server restart. *)
  durable_reqs : (string, Proto.lvi_request) Hashtbl.t;
  (* Observed intent-to-followup delays per function, driving the
     adaptive intent timer (§3.4: "a timer longer than the expected
     execution latency of the function"). *)
  followup_delay : (string, float) Hashtbl.t;
  repl : repl option;
  admission : Admission.t option; (* Some when batching.admission *)
  pending : (string, pending) Hashtbl.t; (* volatile: timers, lost on crash *)
  (* Deliberate protocol sabotage for chaos testing: when set, the named
     protocol step is skipped so the invariant oracle can prove it has
     teeth. Never set in production paths. *)
  mutable mutation : Server_config.protocol_mutation option;
  (* One Nagle batcher per subscribed near-user cache; committed update
     records are coalesced per destination for propagation.prop_window
     virtual ms before one cache_update message ships. *)
  mutable subscribers :
    (Net.Location.t * (Proto.update * float) Batcher.t) list;
  (* At-least-once delivery defense: the response of every in-flight or
     recently completed LVI / direct-exec request, keyed by execution
     id. A duplicated delivery reads the first delivery's (possibly
     still pending) response instead of re-running the protocol — the
     simulation equivalent of a server-side reply cache. An entry is
     forgotten once the clock passes its fill time plus
     [Transport.max_message_age]: every copy of a request leaves before
     the first one arrives, so none can arrive after that. Once the
     client acknowledges the reply (a later request's [acks]), a filled
     entry keeps its key and deadline but its cell is pointed at the
     table's shared tombstone, so neither the table nor the deadline
     FIFO pins the response any more. *)
  reply_cache : (string, Proto.lvi_response reply) Sim.Expiring.t;
  exec_replies : (string, Proto.exec_result reply) Sim.Expiring.t;
  (* This server's shard of the LVI service; an unsharded deployment is
     shard 0 of a one-shard directory. *)
  sharding : sharding;
  (* Outstanding read leases this server (the lease authority for its
     keys) has granted to near-user sites. Conceptually persisted with
     the lock table: it survives [restart_recover], so a restarted
     server still settles pre-crash grants instead of letting a write
     race a forgotten lease. *)
  lease_tbl : Lease.t;
  (* Revocation channel per site that registered for leases; grants are
     only issued to sites present here. *)
  mutable lease_peers :
    (Net.Location.t * (Proto.lease_revoke, unit) Transport.service) list;
  (* Per-stage observation hook: [Server_lvi_engine] calls it with the
     step's name just before each step of an LVI request runs. Chaos
     fault injection and stage-level instrumentation attach here
     instead of threading ad hoc callbacks through the handlers. *)
  mutable stage_hook : string -> unit;
  mutable owners : int;
  mutable s_requests : int;
  mutable s_validated : int;
  mutable s_mismatched : int;
  mutable s_fu_applied : int;
  mutable s_fu_discarded : int;
  mutable s_reexec : int;
  mutable s_direct : int;
  mutable s_ro_fast : int;
  mutable s_prop_records : int;
  mutable s_dup_deliveries : int;
  mutable s_cross : int;
  mutable s_cross_commits : int;
  mutable s_cross_aborts : int;
  mutable s_lease_grants : int;
  mutable s_lease_revokes : int;
  mutable s_lease_waits : int;
  mutable s_lease_blocked : int;
  mutable lvi_svc :
    (Proto.lvi_request, Proto.lvi_response) Transport.service option;
  mutable fu_svc : (Proto.followup list, unit) Transport.service option;
  mutable exec_svc :
    (Proto.exec_request, Proto.exec_result) Transport.service option;
}

(* Bare state with no transport services wired: what [Server.create]
   starts from, and what the isolation tests of the extracted layers
   (lease authority, propagator, …) construct without spinning up the
   full stack. *)
let create ?repl ?admission ?(tracer = Tracer.noop) ~net ~registry ~kv ~extsvc
    ~shard ~directory (config : Server_config.config) =
  let n = Shard.Directory.shards directory in
  if shard < 0 || shard >= n then
    invalid_arg (Printf.sprintf "Server.create: shard %d out of range" shard);
  {
    config;
    net;
    tracer;
    registry;
    kv;
    extsvc;
    locks = Locks.create ();
    intents = Intents.create ();
    durable_reqs = Hashtbl.create 64;
    followup_delay = Hashtbl.create 16;
    repl;
    admission;
    pending = Hashtbl.create 64;
    mutation = None;
    subscribers = [];
    reply_cache = Sim.Expiring.create 256;
    exec_replies = Sim.Expiring.create 64;
    sharding =
      {
        sh_id = shard;
        sh_dir = directory;
        sh_peers = [];
        sh_prepared = Hashtbl.create 64;
        sh_preparing = Hashtbl.create 16;
        sh_decided = Hashtbl.create 64;
        sh_coord_round = Hashtbl.create 64;
        sh_cross = Hashtbl.create 64;
        sh_prepares = 0;
      };
    lease_tbl = Lease.create ();
    lease_peers = [];
    stage_hook = ignore;
    owners = 0;
    s_requests = 0;
    s_validated = 0;
    s_mismatched = 0;
    s_fu_applied = 0;
    s_fu_discarded = 0;
    s_reexec = 0;
    s_direct = 0;
    s_ro_fast = 0;
    s_prop_records = 0;
    s_dup_deliveries = 0;
    s_cross = 0;
    s_cross_commits = 0;
    s_cross_aborts = 0;
    s_lease_grants = 0;
    s_lease_revokes = 0;
    s_lease_waits = 0;
    s_lease_blocked = 0;
    lvi_svc = None;
    fu_svc = None;
    exec_svc = None;
  }

(* [cell], the reply bound to [id], was filled now: no copy of its
   request can arrive once the message lifetime has passed, so the entry
   may go then. *)
let expire_reply tbl id cell =
  Sim.Expiring.expire tbl id cell
    ~at:(Sim.Engine.now () +. Transport.max_message_age)

let tombstone v =
  let iv = Sim.Ivar.create () in
  Sim.Ivar.fill iv v;
  iv

let lvi_tombstone =
  tombstone
    (Proto.Mismatch { backup = Proto.failed "reply acknowledged"; updates = [] })

let exec_tombstone = tombstone (Proto.failed "reply acknowledged")

(* Whether [id] is bound in [tbl]; a filled entry gives up its reply. *)
let forget_reply tbl tomb id =
  match Sim.Expiring.find_opt tbl id with
  | Some cell ->
      if Sim.Ivar.is_full !cell then cell := tomb;
      true
  | None -> false

(* The client has stopped waiting on each acked call, so its stored
   response can go. Only filled entries are tombstoned: an unfilled one
   belongs to a handler still running, whose duplicates must block on it
   and get the real reply. An exec id names an LVI or a direct-exec call,
   never both. *)
let rec forget_acked (t : t) = function
  | [] -> ()
  | id :: acks ->
      if not (forget_reply t.reply_cache lvi_tombstone id) then
        ignore (forget_reply t.exec_replies exec_tombstone id : bool);
      forget_acked t acks
