(* Tests for the Raft consensus substrate: elections, replication, safety
   under crashes, and recovery by log replay. *)

open Sim
module Transport = Net.Transport
module R = Raft.Consensus.Make (Raft.Kvsm)

let az_rtt a b = if String.equal a b then 0.5 else 2.0

let azs = [ "AZ1"; "AZ2"; "AZ3" ]

let with_cluster_net ?(seed = 7) ?(locs = azs) ?on_apply f =
  let e = Engine.create ~seed () in
  Engine.run e (fun () ->
      let net = Transport.create ~rtt:az_rtt ~jitter_sigma:0.02 ~rng:(Rng.split (Engine.rng ())) () in
      let c = R.create ~net ~locs ~sm:Raft.Kvsm.create ?on_apply () in
      f net c;
      R.stop c)

let with_cluster ?seed ?locs ?on_apply f =
  with_cluster_net ?seed ?locs ?on_apply (fun _ c -> f c)

(* Commands each node's state machine applied, keyed by (node, log
   index), collected through the [on_apply] hook. *)
type applied_log = (int * int, Raft.Kvsm.cmd list) Hashtbl.t

let applied_log () : applied_log = Hashtbl.create 64

let record_apply (log : applied_log) node idx cmd =
  let prev = Option.value ~default:[] (Hashtbl.find_opt log (node, idx)) in
  Hashtbl.replace log (node, idx) (cmd :: prev)

(* The node's applied commands, oldest first. *)
let applied (log : applied_log) node =
  Hashtbl.fold
    (fun (n, idx) cmds acc -> if n = node then (idx, List.rev cmds) :: acc else acc)
    log []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.concat_map snd

(* A restarted node rebuilds its state machine by applying its log
   again from the start; forget what it applied before the crash so the
   replay is recorded once. *)
let restart log c id =
  Hashtbl.filter_map_inplace
    (fun (n, _) cmds -> if n = id then None else Some cmds)
    log;
  R.restart c id

let is_node_traffic label =
  String.length label >= 5
  && String.sub label 0 5 = "raft-"
  && not (String.length label >= 11 && String.sub label 0 11 = "raft-client")

(* Cut one AZ's raft links (node-to-node traffic only, so test clients
   can still reach the majority side). Heal it with [remove_fault]. *)
let isolate net az =
  Transport.add_fault net (fun ~src ~dst ~label ->
      if is_node_traffic label && String.equal src az <> String.equal dst az
      then Transport.Drop
      else Transport.Deliver)

let await_leader ?(max_wait = 5000.0) c =
  let deadline = Engine.now () +. max_wait in
  let rec loop () =
    match R.leader c with
    | Some id -> id
    | None ->
        if Engine.now () >= deadline then Alcotest.fail "no leader elected"
        else begin
          Engine.sleep 50.0;
          loop ()
        end
  in
  loop ()

let set c k v =
  match R.submit c (Raft.Kvsm.Set (k, v)) with
  | Some Raft.Kvsm.Done -> ()
  | Some (Raft.Kvsm.Value _) -> Alcotest.fail "unexpected reply"
  | None -> Alcotest.fail ("submit timed out for " ^ k)

let get c k =
  match R.submit c (Raft.Kvsm.Get k) with
  | Some (Raft.Kvsm.Value v) -> v
  | _ -> Alcotest.fail "get failed"

(* ------------------------------------------------------------------ *)

let test_elects_single_leader () =
  with_cluster (fun c ->
      let id = await_leader c in
      Engine.sleep 500.0;
      (* Stable: still the same single leader. *)
      Alcotest.(check (option int)) "stable leader" (Some id) (R.leader c);
      let max_term = R.current_term c id in
      for t = 1 to max_term do
        Alcotest.(check bool)
          (Printf.sprintf "at most one leader at term %d" t)
          true
          (List.length (R.leaders_at_term c t) <= 1)
      done)

let test_submit_applies_everywhere () =
  with_cluster (fun c ->
      let _ = await_leader c in
      set c "x" "1";
      set c "y" "2";
      Alcotest.(check (option string)) "read back" (Some "1") (get c "x");
      (* Wait for heartbeats to carry the commit index to followers. *)
      Engine.sleep 300.0;
      for id = 0 to R.size c - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "node %d applied all" id)
          true
          (R.commit_index c id >= 2)
      done)

let test_leader_crash_failover () =
  with_cluster (fun c ->
      let l1 = await_leader c in
      set c "x" "1";
      R.crash c l1;
      Engine.sleep 1000.0;
      let l2 = await_leader c in
      Alcotest.(check bool) "new leader differs" true (l1 <> l2);
      Alcotest.(check (option string)) "state preserved" (Some "1") (get c "x");
      set c "x" "2";
      Alcotest.(check (option string)) "new writes work" (Some "2") (get c "x"))

let test_follower_crash_still_commits () =
  with_cluster (fun c ->
      let l = await_leader c in
      let follower = if l = 0 then 1 else 0 in
      R.crash c follower;
      set c "x" "1";
      Alcotest.(check (option string)) "majority commits" (Some "1") (get c "x"))

let test_no_quorum_blocks () =
  with_cluster (fun c ->
      let l = await_leader c in
      let others = List.filter (fun i -> i <> l) [ 0; 1; 2 ] in
      List.iter (R.crash c) others;
      let r = R.submit ~timeout:800.0 c (Raft.Kvsm.Set ("x", "1")) in
      Alcotest.(check bool) "submit times out without quorum" true (r = None))

let test_restart_catches_up () =
  let log = applied_log () in
  with_cluster ~on_apply:(record_apply log) (fun c ->
      let l = await_leader c in
      let follower = if l = 0 then 1 else 0 in
      R.crash c follower;
      set c "a" "1";
      set c "b" "2";
      restart log c follower;
      Engine.sleep 1000.0;
      Alcotest.(check bool)
        "restarted node caught up" true
        (R.commit_index c follower >= 2);
      (* The state machine was rebuilt by replaying the log. *)
      let applied = applied log follower in
      Alcotest.(check bool) "replayed both sets" true (List.length applied >= 2))

let test_leader_restart_rejoins () =
  with_cluster (fun c ->
      let l1 = await_leader c in
      set c "x" "1";
      R.crash c l1;
      Engine.sleep 1000.0;
      let _ = await_leader c in
      set c "x" "2";
      R.restart c l1;
      Engine.sleep 1500.0;
      Alcotest.(check bool)
        "old leader rejoined and caught up" true
        (R.commit_index c l1 >= 2);
      Alcotest.(check (option string)) "value is newest" (Some "2") (get c "x"))

let test_single_node_cluster () =
  with_cluster ~locs:[ "AZ1" ] (fun c ->
      let _ = await_leader c in
      let t0 = Engine.now () in
      set c "x" "1";
      Alcotest.(check bool) "fast single-node commit" true
        (Engine.now () -. t0 < 10.0);
      Alcotest.(check (option string)) "read" (Some "1") (get c "x"))

let test_five_node_cluster () =
  with_cluster ~locs:[ "AZ1"; "AZ2"; "AZ3"; "AZ1"; "AZ2" ] (fun c ->
      let l = await_leader c in
      (* Two crashes still leave a quorum of 3/5. *)
      let dead =
        List.filteri (fun i _ -> i < 2)
          (List.filter (fun i -> i <> l) [ 0; 1; 2; 3; 4 ])
      in
      List.iter (R.crash c) dead;
      set c "x" "1";
      Alcotest.(check (option string)) "3/5 quorum commits" (Some "1") (get c "x"))

let test_leader_partition_failover () =
  with_cluster_net (fun net c ->
      let l1 = await_leader c in
      set c "x" "1";
      (* Cut the leader off: the majority side elects a replacement and
         keeps committing; the old leader cannot. Node i lives in AZ i. *)
      let cut = isolate net (List.nth azs l1) in
      Engine.sleep 1500.0;
      (match R.leader c with
      | Some l2 -> Alcotest.(check bool) "replacement leader" true (l2 <> l1)
      | None -> Alcotest.fail "no replacement leader");
      set c "x" "2";
      (* Heal: the deposed leader hears a higher term and steps down;
         logs converge. *)
      Transport.remove_fault net cut;
      Engine.sleep 2000.0;
      Alcotest.(check (option string)) "post-heal read" (Some "2") (get c "x");
      Alcotest.(check bool) "old leader caught up" true
        (R.commit_index c l1 >= 2);
      let max_term =
        List.fold_left (fun acc i -> max acc (R.current_term c i)) 0 [ 0; 1; 2 ]
      in
      for t = 1 to max_term do
        Alcotest.(check bool)
          (Printf.sprintf "election safety at term %d" t)
          true
          (List.length (R.leaders_at_term c t) <= 1)
      done)

let test_follower_partition_harmless () =
  with_cluster_net (fun net c ->
      let l = await_leader c in
      let follower = if l = 0 then 1 else 0 in
      let cut = isolate net (List.nth azs follower) in
      set c "a" "1";
      set c "b" "2";
      Alcotest.(check (option string)) "majority commits through partition"
        (Some "2") (get c "b");
      Transport.remove_fault net cut;
      Engine.sleep 2000.0;
      Alcotest.(check bool) "partitioned follower converged" true
        (R.commit_index c follower >= 2))

let test_full_partition_blocks () =
  with_cluster_net (fun net c ->
      let _ = await_leader c in
      (* Every AZ's raft links cut: no quorum anywhere. *)
      let cut =
        Transport.add_fault net (fun ~src ~dst ~label ->
            if is_node_traffic label && not (String.equal src dst) then
              Transport.Drop
            else Transport.Deliver)
      in
      Engine.sleep 500.0;
      let r = R.submit ~timeout:1500.0 c (Raft.Kvsm.Set ("x", "1")) in
      Alcotest.(check bool) "no quorum, no commit" true (r = None);
      Transport.remove_fault net cut;
      Engine.sleep 2000.0;
      set c "x" "2";
      Alcotest.(check (option string)) "recovers after heal" (Some "2") (get c "x"))

(* --- Log compaction / snapshots ------------------------------------ *)

let with_compacting_cluster ?(threshold = 10) f =
  let e = Engine.create ~seed:7 () in
  Engine.run e (fun () ->
      let net =
        Transport.create ~rtt:az_rtt ~jitter_sigma:0.02
          ~rng:(Rng.split (Engine.rng ())) ()
      in
      let c =
        R.create ~net ~locs:azs ~sm:Raft.Kvsm.create
          ~compaction_threshold:threshold ()
      in
      f net c;
      R.stop c)

let test_compaction_bounds_log () =
  with_compacting_cluster (fun _ c ->
      let l = await_leader c in
      for i = 1 to 35 do
        set c (Printf.sprintf "k%d" (i mod 5)) (string_of_int i)
      done;
      Alcotest.(check bool) "leader compacted" true (R.snapshot_index c l > 0);
      Alcotest.(check bool) "stored entries bounded" true
        (R.stored_entries c l < 20);
      Alcotest.(check bool) "logical length preserved" true
        (R.log_length c l >= 35);
      (* State machine unaffected by compaction. *)
      Alcotest.(check (option string)) "reads still correct" (Some "35")
        (get c "k0"))

let test_snapshot_catches_up_lagging_follower () =
  with_compacting_cluster (fun _ c ->
      let l = await_leader c in
      let follower = if l = 0 then 1 else 0 in
      R.crash c follower;
      (* Push far past the compaction threshold while it is down, so the
         entries it needs are gone from the leader's log. *)
      for i = 1 to 30 do
        set c "x" (string_of_int i)
      done;
      Alcotest.(check bool) "leader discarded the prefix" true
        (R.snapshot_index c l > 0);
      R.restart c follower;
      Engine.sleep 2000.0;
      Alcotest.(check bool) "follower caught up via snapshot" true
        (R.commit_index c follower >= 30);
      Alcotest.(check bool) "follower received the snapshot" true
        (R.snapshot_index c follower > 0);
      set c "x" "31";
      Alcotest.(check (option string)) "cluster still serves" (Some "31")
        (get c "x"))

let test_restart_recovers_from_snapshot () =
  with_compacting_cluster (fun _ c ->
      let l = await_leader c in
      for i = 1 to 25 do
        set c "x" (string_of_int i)
      done;
      Engine.sleep 500.0;
      let follower = if l = 0 then 1 else 0 in
      Alcotest.(check bool) "follower compacted too" true
        (R.snapshot_index c follower > 0);
      R.crash c follower;
      R.restart c follower;
      Engine.sleep 1500.0;
      (* The SM was rebuilt from its snapshot plus the log suffix, not a
         full replay. *)
      Alcotest.(check bool) "recovered beyond the snapshot" true
        (R.commit_index c follower >= 25))

(* Log-matching safety under random minority crashes: all live nodes end
   with the same committed data. *)
(* --- Group commit and batched submission --------------------------- *)

let with_gc_cluster ?(seed = 7) ?(locs = azs) ?(jitter_sigma = 0.02) ?on_batch
    ?on_apply f =
  let e = Engine.create ~seed () in
  Engine.run e (fun () ->
      let net =
        Transport.create ~rtt:az_rtt ~jitter_sigma
          ~rng:(Rng.split (Engine.rng ())) ()
      in
      let c =
        R.create ~net ~locs ~sm:Raft.Kvsm.create ~group_commit:true ?on_batch
          ?on_apply ()
      in
      f c;
      R.stop c)

(* submit_batch lands the whole list in ONE log entry, applies the
   commands back to back, and returns the outputs in submission order. *)
let test_submit_batch_atomic () =
  with_cluster (fun c ->
      let _ = await_leader c in
      let len0 = R.log_length c 0 in
      (match
         R.submit_batch c
           [
             Raft.Kvsm.Set ("a", "1");
             Raft.Kvsm.Set ("b", "2");
             Raft.Kvsm.Get "a";
           ]
       with
      | Some [ Raft.Kvsm.Done; Raft.Kvsm.Done; Raft.Kvsm.Value v ] ->
          Alcotest.(check (option string)) "batch reads its own write"
            (Some "1") v
      | Some _ -> Alcotest.fail "wrong output shape"
      | None -> Alcotest.fail "batch timed out");
      Alcotest.(check int) "one entry for three commands" (len0 + 1)
        (R.log_length c 0);
      Alcotest.(check (option string)) "b visible" (Some "2") (get c "b");
      Alcotest.(check (option int)) "empty batch is a no-op" (Some 0)
        (Option.map List.length (R.submit_batch c [])))

(* With group commit on, submissions issued at the same instant coalesce
   into a single log entry (the proposer drains the whole queue), every
   submitter still gets its own output, and the on_batch hook reports
   the coalesced size. *)
let test_group_commit_coalesces () =
  let sizes = ref [] in
  let on_batch ~size ~queue_delay =
    Alcotest.(check bool) "queue delay non-negative" true (queue_delay >= 0.0);
    sizes := size :: !sizes
  in
  (* Jitter-free net: all eight requests reach the node at the same
     virtual instant, so they all enqueue before the proposer fiber
     drains the queue — the purest coalescing case. *)
  with_gc_cluster ~locs:[ "AZ1" ] ~jitter_sigma:0.0 ~on_batch (fun c ->
      let _ = await_leader c in
      let len0 = R.log_length c 0 in
      let n = 8 in
      let done_ = ref 0 in
      for i = 1 to n do
        Engine.spawn (fun () ->
            match R.submit c (Raft.Kvsm.Set (Printf.sprintf "k%d" i, "v")) with
            | Some Raft.Kvsm.Done -> incr done_
            | _ -> Alcotest.fail "submit failed")
      done;
      Engine.sleep 500.0;
      Alcotest.(check int) "all submitters replied" n !done_;
      Alcotest.(check int) "one coalesced entry" (len0 + 1) (R.log_length c 0);
      Alcotest.(check int) "hook saw the whole batch" n
        (List.fold_left ( + ) 0 !sizes);
      Alcotest.(check bool) "coalescing actually happened" true
        (List.exists (fun s -> s >= 2) !sizes);
      for i = 1 to n do
        Alcotest.(check (option string))
          (Printf.sprintf "k%d applied" i)
          (Some "v")
          (get c (Printf.sprintf "k%d" i))
      done)

(* Group commit on a replicated cluster preserves per-replica apply
   order: staggered concurrent submitters coalesce into fewer entries
   than submissions, and every node applies the identical command
   sequence. *)
let test_group_commit_replicated_order () =
  let log = applied_log () in
  with_gc_cluster ~on_apply:(record_apply log) (fun c ->
      let _ = await_leader c in
      let len0 = R.log_length c 0 in
      let n = 12 in
      let done_ = ref 0 in
      for i = 1 to n do
        Engine.spawn (fun () ->
            (* Stagger inside one replication round-trip (~4 ms AZ RTT)
               so later submits queue behind the in-flight append. *)
            Engine.sleep (0.3 *. float_of_int i);
            match
              R.submit c (Raft.Kvsm.Set ("k", Printf.sprintf "%d" i))
            with
            | Some Raft.Kvsm.Done -> incr done_
            | _ -> Alcotest.fail "submit failed")
      done;
      Engine.sleep 2000.0;
      Alcotest.(check int) "all submitters replied" n !done_;
      let entries = R.log_length c 0 - len0 in
      Alcotest.(check bool)
        (Printf.sprintf "%d submissions in %d entries" n entries)
        true
        (entries >= 1 && entries < n);
      let reference = applied log 0 in
      Alcotest.(check bool) "every command applied" true
        (List.length reference >= n);
      for id = 1 to 2 do
        Alcotest.(check bool)
          (Printf.sprintf "node %d applied identical sequence" id)
          true
          (applied log id = reference)
      done)

(* With a modeled durable-append cost, unbatched same-instant submits
   serialize on the append device (k entries -> k appends) while group
   commit pays it once for the whole batch — the amortization the load
   sweep measures. *)
let test_append_cost_amortized () =
  let run_mode group_commit =
    let e = Engine.create ~seed:7 () in
    let finish = ref 0.0 in
    Engine.run e (fun () ->
        let net =
          Transport.create ~rtt:az_rtt ~jitter_sigma:0.0
            ~rng:(Rng.split (Engine.rng ())) ()
        in
        let c =
          R.create ~net ~locs:[ "AZ1" ] ~sm:Raft.Kvsm.create ~group_commit
            ~append_latency:1.0 ()
        in
        let _ = await_leader c in
        let t0 = Engine.now () in
        let done_ = ref 0 in
        for i = 1 to 8 do
          Engine.spawn (fun () ->
              match R.submit c (Raft.Kvsm.Set (Printf.sprintf "k%d" i, "v")) with
              | Some Raft.Kvsm.Done ->
                  incr done_;
                  if !done_ = 8 then finish := Engine.now () -. t0
              | _ -> Alcotest.fail "submit failed")
        done;
        Engine.sleep 500.0;
        Alcotest.(check int) "all committed" 8 !done_;
        R.stop c);
    !finish
  in
  let unbatched = run_mode false in
  let batched = run_mode true in
  Alcotest.(check bool)
    (Printf.sprintf "unbatched pays 8 serialized appends (%.1f ms)" unbatched)
    true (unbatched >= 8.0);
  Alcotest.(check bool)
    (Printf.sprintf "group commit amortizes to ~1 (%.1f ms)" batched)
    true
    (batched < unbatched /. 2.0)

(* A leader crash with proposals queued must fail them cleanly: the
   submit retry loop re-routes to the new leader and every caller still
   gets an answer. *)
let test_group_commit_failover_retries () =
  let log = applied_log () in
  with_gc_cluster ~on_apply:(record_apply log) (fun c ->
      let l = await_leader c in
      let n = 6 in
      let done_ = ref 0 in
      for i = 1 to n do
        Engine.spawn (fun () ->
            Engine.sleep (0.2 *. float_of_int i);
            match
              R.submit ~timeout:8000.0 c
                (Raft.Kvsm.Set (Printf.sprintf "f%d" i, "v"))
            with
            | Some Raft.Kvsm.Done -> incr done_
            | _ -> ())
      done;
      (* Crash the leader mid-stream. *)
      Engine.sleep 1.0;
      R.crash c l;
      Engine.sleep 10_000.0;
      restart log c l;
      Engine.sleep 3000.0;
      Alcotest.(check int) "every submitter eventually answered" n !done_;
      let applied = applied log l in
      for i = 1 to n do
        Alcotest.(check bool)
          (Printf.sprintf "f%d committed" i)
          true
          (List.mem (Raft.Kvsm.Set (Printf.sprintf "f%d" i, "v")) applied)
      done)

let prop_log_convergence =
  QCheck.Test.make ~name:"logs converge under minority crash/restart churn"
    ~count:10
    QCheck.(pair small_int (list_of_size Gen.(5 -- 15) (int_range 0 99)))
    (fun (seed, values) ->
      let result = ref true in
      let e = Engine.create ~seed:(seed + 1) () in
      Engine.run e (fun () ->
          let net =
            Transport.create ~rtt:az_rtt ~jitter_sigma:0.02
              ~rng:(Rng.split (Engine.rng ())) ()
          in
          let log = applied_log () in
          let c =
            R.create ~net ~locs:azs ~sm:Raft.Kvsm.create
              ~on_apply:(record_apply log) ()
          in
          let rng = Rng.split (Engine.rng ()) in
          let _ = await_leader c in
          List.iteri
            (fun i v ->
              (* Randomly crash one node, write, then restart it. *)
              let victim = Rng.int rng 3 in
              let crash_now = Rng.bool rng in
              if crash_now then R.crash c victim;
              (match
                 R.submit ~timeout:4000.0 c
                   (Raft.Kvsm.Set (Printf.sprintf "k%d" (i mod 3), string_of_int v))
               with
              | Some _ -> ()
              | None -> result := false);
              if crash_now then restart log c victim;
              Engine.sleep (Rng.float rng 200.0))
            values;
          Engine.sleep 3000.0;
          (* All live nodes agree on every key. *)
          let reference = applied log 0 in
          for id = 1 to 2 do
            let other = applied log id in
            let common = min (List.length reference) (List.length other) in
            let prefix l = List.filteri (fun i _ -> i < common) l in
            if prefix reference <> prefix other then result := false
          done;
          R.stop c);
      !result)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "raft"
    [
      ( "consensus",
        [
          Alcotest.test_case "elects a single leader" `Quick
            test_elects_single_leader;
          Alcotest.test_case "submit applies everywhere" `Quick
            test_submit_applies_everywhere;
          Alcotest.test_case "leader crash failover" `Quick
            test_leader_crash_failover;
          Alcotest.test_case "follower crash still commits" `Quick
            test_follower_crash_still_commits;
          Alcotest.test_case "no quorum blocks" `Quick test_no_quorum_blocks;
          Alcotest.test_case "restart catches up" `Quick test_restart_catches_up;
          Alcotest.test_case "leader restart rejoins" `Quick
            test_leader_restart_rejoins;
          Alcotest.test_case "single-node cluster" `Quick test_single_node_cluster;
          Alcotest.test_case "five-node cluster" `Quick test_five_node_cluster;
          Alcotest.test_case "leader partition failover" `Quick
            test_leader_partition_failover;
          Alcotest.test_case "follower partition harmless" `Quick
            test_follower_partition_harmless;
          Alcotest.test_case "full partition blocks" `Quick
            test_full_partition_blocks;
          Alcotest.test_case "compaction bounds the log" `Quick
            test_compaction_bounds_log;
          Alcotest.test_case "snapshot catches up lagging follower" `Quick
            test_snapshot_catches_up_lagging_follower;
          Alcotest.test_case "restart recovers from snapshot" `Quick
            test_restart_recovers_from_snapshot;
        ]
        @ qsuite [ prop_log_convergence ] );
      ( "group commit",
        [
          Alcotest.test_case "submit_batch is atomic" `Quick
            test_submit_batch_atomic;
          Alcotest.test_case "same-instant submits coalesce" `Quick
            test_group_commit_coalesces;
          Alcotest.test_case "replicated order preserved" `Quick
            test_group_commit_replicated_order;
          Alcotest.test_case "append cost amortized" `Quick
            test_append_cost_amortized;
          Alcotest.test_case "failover retries queued proposals" `Quick
            test_group_commit_failover_retries;
        ] );
    ]
