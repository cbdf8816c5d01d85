(* The LVI server's consensus-replicated lock store (the etcd role in
   §5.6): a Raft cluster whose state machine is a string KV holding one
   record per held lock. Instantiated once here so the cluster type can
   appear in interfaces (tests crash/restart nodes through it). *)

include Raft.Consensus.Make (Raft.Kvsm)

(* Shadow [submit] with a traced variant: when a tracer is enabled it
   records the submit-to-commit latency of each lock record, feeding the
   §5.6 "added latency per lock" attribution. *)
let submit ?(tracer = Metrics.Tracer.noop) ?timeout cluster cmd =
  if not (Metrics.Tracer.enabled tracer) then submit ?timeout cluster cmd
  else begin
    let t0 = Sim.Engine.now () in
    let out = submit ?timeout cluster cmd in
    Metrics.Tracer.record_raft tracer (Sim.Engine.now () -. t0);
    out
  end

(* Same for batched flushes: one record per submit_batch call — the
   whole batch pays a single submit-to-commit round, which is the point. *)
let submit_batch ?(tracer = Metrics.Tracer.noop) ?timeout cluster cmds =
  if not (Metrics.Tracer.enabled tracer) then submit_batch ?timeout cluster cmds
  else begin
    let t0 = Sim.Engine.now () in
    let out = submit_batch ?timeout cluster cmds in
    Metrics.Tracer.record_raft tracer (Sim.Engine.now () -. t0);
    out
  end
