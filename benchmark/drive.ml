(* One simulated run of a workload: deploy, drive open-loop Poisson
   arrivals from the five user sites, drain, read every counter the
   program exposes, tear down. Latencies are on the virtual clock; the
   run's own cost (CPU seconds, events, allocation) on the real one. *)

open Sim
module Framework = Radical.Framework
module Runtime = Radical.Runtime
module Server = Radical.Server
module Raft_locks = Radical.Raft_locks
module Transport = Net.Transport
module Tracer = Metrics.Tracer

(* Growable unboxed float buffer: the benchmark keeps its own samples so
   its heap footprint and percentile rule stay fixed across commits. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n

  let sorted b =
    let a = to_array b in
    Array.sort Float.compare a;
    a
end

(* Requests are sampled from their completions into this many equal
   slices of the arrival window for the real-clock throughput. *)
let segments = 40

(* Virtual time left after the last completion for straggling followups,
   intent timers and lease settles before the quiescence gates look. *)
let drain_ms = 5_000.0

type counters = {
  srv_requests : int;
  srv_validated : int;
  srv_mismatched : int;
  srv_ro_fast : int;
  srv_reexecutions : int;
  srv_followups : int;
  srv_lease_revokes : int;
  srv_lease_expiry_waits : int;
  srv_lease_blocked_writes : int;
  locks_held : int;
  pending_intents : int;
  rt : Runtime.stats list;
  cache_hits : int;
  cache_misses : int;
  msgs_sent : int;
  rpc_timeouts : int;
  kv_reads : int;
  kv_writes : int;
  elections : int;
  raft_log : int;
  conserved_sum : int option;
      (* the primary's sum over the workload's conserved key family *)
  stage_counts : (string * int) list;
}

type result = {
  attempted : int;
  errors : int;
  read_lat : float array;
      (* sorted latencies of every read-only invocation; a failed one
         counts as infinitely late *)
  write_lat : float array;
  first_arrival : float;
  last_arrival : float;
  last_completion : float;
  write_ok_at : float array; (* completion instants of successful writes *)
  crashed_at : float option;
  seg_rates : float array; (* completed requests per CPU second, per slice *)
  cpu_s : float; (* CPU seconds of the arrival window *)
  events : int;
  fibers_peak : int;
  alloc_words : float;
  major_collections : int;
  live_words_end : int; (* after a full major, when [measure_live] *)
  counters : counters;
  calls : (string * Dval.t list) array; (* first [keep_calls] arrivals *)
  snapshot : (string * Dval.t) list; (* primary values of the seed keys *)
  history : Lincheck.op list;
}

type opts = {
  seed : int;
  rate : float;
  duration : float;
  fault : Workloads.fault option;
  tracer : Tracer.t option;
  stage_hook : bool;
  keep_calls : int;
  record_history : bool;
  measure_live : bool;
}

let opts ?fault ?tracer ?(stage_hook = false) ?(keep_calls = 0)
    ?(record_history = false) ?(measure_live = false) ~seed ~rate ~duration () =
  {
    seed;
    rate;
    duration;
    fault;
    tracer;
    stage_hook;
    keep_calls;
    record_history;
    measure_live;
  }

(* Seed data depends on the seed alone, so every build of a workload's
   deployment — main run, ladder rungs, set-up repetitions — loads the
   same contents. *)
let seed_data (w : Workloads.t) seed = w.data (Rng.create (seed * 7919 + 17))

let deploy ?tracer (w : Workloads.t) ~net ~data =
  Framework.create ~config:w.config ?schema:w.schema ?tracer ~net ~funcs:w.funcs
    ~data ()

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* The highest reading of [f] over the cluster's nodes. *)
let max_node f cluster =
  List.fold_left max 0 (List.init (Raft_locks.size cluster) (f cluster))

let read_counters (w : Workloads.t) fw net ~data ~term0 ~stages =
  let srvs = Framework.servers fw in
  let st = List.map Server.stats srvs in
  let rts = List.map (Framework.runtime fw) (Framework.locations fw) in
  let caches = List.map Runtime.cache rts in
  let kv = Framework.primary fw in
  let cluster = Server.raft_cluster (Framework.server fw) in
  {
    srv_requests = sum (fun (s : Server.stats) -> s.requests) st;
    srv_validated = sum (fun (s : Server.stats) -> s.validated) st;
    srv_mismatched = sum (fun (s : Server.stats) -> s.mismatched) st;
    srv_ro_fast = sum (fun (s : Server.stats) -> s.ro_fast) st;
    srv_reexecutions = sum (fun (s : Server.stats) -> s.reexecutions) st;
    srv_followups =
      sum (fun (s : Server.stats) -> s.followups_applied + s.followups_discarded) st;
    srv_lease_revokes = sum (fun (s : Server.stats) -> s.lease_revokes) st;
    srv_lease_expiry_waits = sum (fun (s : Server.stats) -> s.lease_expiry_waits) st;
    srv_lease_blocked_writes =
      sum (fun (s : Server.stats) -> s.lease_blocked_writes) st;
    locks_held = sum Server.locks_held srvs;
    pending_intents = sum Server.pending_intents srvs;
    rt = List.map Runtime.stats rts;
    cache_hits = sum Cache.hits caches;
    cache_misses = sum Cache.misses caches;
    msgs_sent = Transport.messages_sent net;
    rpc_timeouts = Transport.calls_timed_out net;
    kv_reads = Store.Kv.reads kv;
    kv_writes = Store.Kv.writes kv;
    elections =
      (match cluster with Some c -> max_node Raft_locks.current_term c - term0 | None -> 0);
    raft_log = (match cluster with Some c -> max_node Raft_locks.log_length c | None -> 0);
    conserved_sum =
      Option.map
        (fun (prefix, _) ->
          List.fold_left
            (fun acc (k, _) ->
              match Store.Kv.peek kv k with
              | Some { value = Dval.Int n; _ } when String.starts_with ~prefix k ->
                  acc + Int64.to_int n
              | _ -> acc)
            0 data)
        w.conserved;
    stage_counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) stages [];
  }

(* Crash the lock cluster's leader [crash_at] ms after [t0] and restart
   it [down_for] later; returns the crash instant through [crashed]. Does
   nothing once [over] is set, so a fault scheduled past the end of the
   run cannot keep the engine alive. *)
let schedule_fault fw (f : Workloads.fault) ~t0 ~crashed ~over =
  match Server.raft_cluster (Framework.server fw) with
  | None -> ()
  | Some cluster ->
      Engine.spawn ~name:"bench-fault" (fun () ->
          Engine.sleep (t0 +. f.crash_at -. Engine.now ());
          let rec leader () =
            if !over then None
            else
              match Raft_locks.leader cluster with
              | Some id -> Some id
              | None ->
                  Engine.sleep 10.0;
                  leader ()
          in
          Option.iter
            (fun id ->
              Raft_locks.crash cluster id;
              crashed := Some (Engine.now ());
              Engine.sleep f.down_for;
              if not !over then Raft_locks.restart cluster id)
            (leader ()))

let run (w : Workloads.t) (o : opts) =
  let engine = Engine.create ~seed:o.seed () in
  let data = seed_data w o.seed in
  let out = ref None in
  Engine.run engine (fun () ->
      let rng = Engine.rng () in
      let net =
        Transport.create ~jitter_sigma:0.05 ?tracer:o.tracer ~rng:(Rng.split rng) ()
      in
      let fw = deploy ?tracer:o.tracer w ~net ~data in
      let stages = Hashtbl.create 8 in
      if o.stage_hook then
        List.iter
          (fun s ->
            Server.on_stage s (fun name ->
                Hashtbl.replace stages name
                  (1 + Option.value ~default:0 (Hashtbl.find_opt stages name))))
          (Framework.servers fw);
      if o.record_history then Framework.record_history fw;
      if w.warmup > 0.0 then Engine.sleep w.warmup;
      let registry = Framework.registry fw in
      let read_only fn =
        match Radical.Registry.find registry fn with
        | Some e -> e.read_only
        | None -> false
      in
      let sites = Array.of_list (Framework.locations fw) in
      let gen = w.gen () in
      let req_rng = Rng.split rng and arrival_rng = Rng.split rng in
      let term0 =
        match Server.raft_cluster (Framework.server fw) with
        | Some c -> max_node Raft_locks.current_term c
        | None -> 0
      in
      let reads = Fbuf.create () and writes = Fbuf.create () in
      let write_ok_at = Fbuf.create () in
      let errors = ref 0 in
      let calls = ref [] and n_calls = ref 0 in
      let t0 = Engine.now () in
      let crashed = ref None and over = ref false in
      Option.iter (fun f -> schedule_fault fw f ~t0 ~crashed ~over) o.fault;
      let first_arrival = ref infinity and last_arrival = ref t0 in
      let last_completion = ref t0 in
      let completed = ref 0 in
      let fibers_peak = ref 0 in
      (* Real-clock slices, sampled from completions only: no extra
         engine events. *)
      let seg_len = o.duration /. float_of_int segments in
      let next_boundary = ref (t0 +. seg_len) in
      let marks = Fbuf.create () and mark_counts = Fbuf.create () in
      let (minor0, promoted0, major0) = Gc.counters () in
      let majors0 = (Gc.quick_stat ()).major_collections in
      let ev0 = Engine.events_processed engine in
      let cpu0 = Timing.cpu () in
      Fbuf.push marks cpu0;
      Fbuf.push mark_counts 0.0;
      let attempted =
        Workload.Driver.run_open ~rate:o.rate ~duration:o.duration ~rng:arrival_rng
          (fun ~arrival ->
            let due = Engine.now () in
            if due < !first_arrival then first_arrival := due;
            if due > !last_arrival then last_arrival := due;
            let fn, args = gen req_rng in
            if !n_calls < o.keep_calls then begin
              calls := (fn, args) :: !calls;
              incr n_calls
            end;
            let from = sites.(arrival mod Array.length sites) in
            let outcome = Framework.invoke fw ~from fn args in
            let now = Engine.now () in
            let ok = Result.is_ok outcome.value in
            if not ok then incr errors;
            let latency = if ok then outcome.latency else infinity in
            if read_only fn then Fbuf.push reads latency
            else begin
              Fbuf.push writes latency;
              if ok then Fbuf.push write_ok_at now
            end;
            incr completed;
            if now > !last_completion then last_completion := now;
            let live = Engine.live_fibers engine in
            if live > !fibers_peak then fibers_peak := live;
            while now >= !next_boundary && marks.n <= segments do
              Fbuf.push marks (Timing.cpu ());
              Fbuf.push mark_counts (float_of_int !completed);
              next_boundary := !next_boundary +. seg_len
            done)
      in
      let cpu_s = Timing.cpu () -. cpu0 in
      let events = Engine.events_processed engine - ev0 in
      let (minor1, promoted1, major1) = Gc.counters () in
      let majors1 = (Gc.quick_stat ()).major_collections in
      let m = Fbuf.to_array marks and c = Fbuf.to_array mark_counts in
      let seg_rates =
        Array.init
          (Array.length m - 1)
          (fun i -> (c.(i + 1) -. c.(i)) /. Float.max 1e-9 (m.(i + 1) -. m.(i)))
      in
      Engine.sleep drain_ms;
      let counters = read_counters w fw net ~data ~term0 ~stages in
      let live_words_end =
        if o.measure_live then begin
          Gc.full_major ();
          (Gc.stat ()).live_words
        end
        else 0
      in
      let kv = Framework.primary fw in
      let snapshot =
        List.filter_map
          (fun (k, _) ->
            Option.map (fun (v : Store.Kv.versioned) -> (k, v.value)) (Store.Kv.peek kv k))
          data
      in
      let history = if o.record_history then Framework.history fw else [] in
      over := true;
      Framework.stop fw;
      out :=
        Some
          {
            attempted;
            errors = !errors;
            read_lat = Fbuf.sorted reads;
            write_lat = Fbuf.sorted writes;
            first_arrival = !first_arrival;
            last_arrival = !last_arrival;
            last_completion = !last_completion;
            write_ok_at = Fbuf.to_array write_ok_at;
            crashed_at = !crashed;
            seg_rates;
            cpu_s;
            events;
            fibers_peak = !fibers_peak;
            alloc_words = minor1 +. major1 -. promoted1 -. (minor0 +. major0 -. promoted0);
            major_collections = majors1 - majors0;
            live_words_end;
            counters;
            calls = Array.of_list (List.rev !calls);
            snapshot;
            history;
          });
  match !out with Some r -> r | None -> failwith "Drive.run: engine stopped early"

(* CPU seconds of one fresh [Framework.create] of the workload's
   deployment: compile, validate, derive, optimize, certify, seed load
   into the primary and warm caches, and the Raft cluster when
   replicated. *)
let setup_once (w : Workloads.t) ~seed ~data =
  let engine = Engine.create ~seed () in
  let took = ref 0.0 in
  Engine.run engine (fun () ->
      let net = Transport.create ~rng:(Rng.split (Engine.rng ())) () in
      let c0 = Timing.cpu () in
      let fw = deploy w ~net ~data in
      took := Timing.cpu () -. c0;
      Framework.stop fw);
  !took
