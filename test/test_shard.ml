(* Sharded LVI service: directory/router units, the single-shard fast
   path (unchanged one-round-trip protocol), cross-shard atomic commit
   (commit, stale-abort-backup, concurrent opposite-order transfers),
   N=1 bit-identity with the unsharded seed deployment, workload-stream
   determinism across shard counts, and the restart reply-cache
   regression. *)

open Sim
open Fdsl.Ast
module Transport = Net.Transport
module Location = Net.Location
module Framework = Radical.Framework
module Runtime = Radical.Runtime
module Server = Radical.Server
module Directory = Shard.Directory
module Router = Shard.Router
module Kv = Store.Kv

(* --- Test functions: two prefix families ----------------------------- *)

let key p input = Concat [ Str p; Input input ]

(* Read-modify-write inside family "a:" — statically pinned to the
   shard owning that prefix. *)
let incr_a =
  {
    fn_name = "incr_a";
    params = [ "k" ];
    body =
      Let
        ( "cur",
          Read (key "a:" "k"),
          Let
            ( "next",
              Binop (Add, If (Var "cur", Var "cur", Int 0L), Int 1L),
              Seq [ Write (key "a:" "k", Var "next"); Var "next" ] ) );
  }

let get_a =
  { fn_name = "get_a"; params = [ "k" ]; body = Read (key "a:" "k") }

(* Moves one unit from a:src to b:dst — spans both families, so at two
   shards it always takes the cross-shard prepare/commit path. *)
let xfer =
  {
    fn_name = "xfer";
    params = [ "src"; "dst" ];
    body =
      Let
        ( "s",
          Read (key "a:" "src"),
          Let
            ( "d",
              Read (key "b:" "dst"),
              Seq
                [
                  Write (key "a:" "src", Binop (Sub, Var "s", Int 1L));
                  Write (key "b:" "dst", Binop (Add, Var "d", Int 1L));
                  Binop (Add, Var "d", Int 1L);
                ] ) );
  }

(* Reverse direction: b:src -> a:dst, for opposite-order concurrency. *)
let refund =
  {
    fn_name = "refund";
    params = [ "src"; "dst" ];
    body =
      Let
        ( "s",
          Read (key "b:" "src"),
          Let
            ( "d",
              Read (key "a:" "dst"),
              Seq
                [
                  Write (key "b:" "src", Binop (Sub, Var "s", Int 1L));
                  Write (key "a:" "dst", Binop (Add, Var "d", Int 1L));
                  Binop (Add, Var "d", Int 1L);
                ] ) );
  }

let funcs = [ incr_a; get_a; xfer; refund ]

let data =
  [
    ("a:x", Dval.int 10);
    ("a:y", Dval.int 5);
    ("b:x", Dval.int 100);
    ("b:y", Dval.int 50);
  ]

let two_shards =
  Directory.Prefix
    { shards = 2; rules = [ ("a:", 0); ("b:", 1) ]; default = 0 }

let sharded_config =
  { Framework.default_config with sharding = Some two_shards }

(* --- Harness --------------------------------------------------------- *)

let with_sharded ?(seed = 11) ?(config = sharded_config) ?tracer f =
  let e = Engine.create ~seed () in
  Engine.run e (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let fw = Framework.create ~config ?tracer ~net ~funcs ~data () in
      f net fw;
      Framework.stop fw)

let ok_value (o : Runtime.outcome) =
  match o.value with
  | Ok v -> v
  | Error e -> Alcotest.fail ("execution failed: " ^ e)

let int_value o =
  match ok_value o with
  | Dval.Int i -> Int64.to_int i
  | v -> Alcotest.fail ("expected int, got " ^ Dval.to_string v)

let primary_int fw k =
  match Kv.peek (Framework.primary fw) k with
  | Some { Kv.value = Dval.Int i; _ } -> Int64.to_int i
  | Some { Kv.value = v; _ } ->
      Alcotest.fail ("expected int at " ^ k ^ ", got " ^ Dval.to_string v)
  | None -> Alcotest.fail ("missing key " ^ k)

let check_clean fw =
  Alcotest.(check (list string))
    "drained" []
    (List.map
       (fun (v : Chaos.Oracle.violation) -> v.detail)
       (Chaos.Oracle.drained fw));
  Alcotest.(check (list string))
    "cross-atomic" []
    (List.map
       (fun (v : Chaos.Oracle.violation) -> v.detail)
       (Chaos.Oracle.cross_atomic fw))

(* --- Directory units -------------------------------------------------- *)

let test_hash_in_range () =
  (* Would have caught the Int64->int sign-wrap: roughly half of all
     64-bit FNV values used to map to a negative shard. *)
  List.iter
    (fun shards ->
      let dir = Directory.hash ~shards in
      for i = 0 to 999 do
        let k = Printf.sprintf "user:%d:feed-%d" i (i * i) in
        let s = Directory.shard_of_key dir k in
        if s < 0 || s >= shards then
          Alcotest.failf "key %S -> shard %d out of [0,%d)" k s shards;
        Alcotest.(check int)
          "deterministic" s
          (Directory.shard_of_key dir k)
      done)
    [ 2; 3; 4; 7 ]

let test_hash_spreads () =
  let dir = Directory.hash ~shards:4 in
  let counts = Array.make 4 0 in
  for i = 0 to 999 do
    let s = Directory.shard_of_key dir (Printf.sprintf "k%d" i) in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      if c < 150 then Alcotest.failf "shard %d got only %d/1000 keys" s c)
    counts

let test_prefix_longest_match () =
  let dir =
    Directory.prefix ~shards:3 ~default:2
      [ ("user:", 0); ("user:hot:", 1) ]
  in
  Alcotest.(check int) "longest rule wins" 1
    (Directory.shard_of_key dir "user:hot:42");
  Alcotest.(check int) "shorter rule" 0
    (Directory.shard_of_key dir "user:cold:42");
  Alcotest.(check int) "default" 2 (Directory.shard_of_key dir "other:1")

let test_shape_pinning () =
  let dir =
    Directory.prefix ~shards:3 ~default:2
      [ ("user:", 0); ("user:hot:", 1) ]
  in
  let shape_of fn =
    match (Analyzer.Absint.summarize fn).sm_reads with
    | sh :: _ -> sh
    | [] -> Alcotest.fail "no read shape"
  in
  let reads_prefix name p =
    { fn_name = name; params = [ "k" ]; body = Read (key p "k") }
  in
  (* "user:" ^ ⟨k⟩ is NOT pinned: for some hole contents the longer
     "user:hot:" rule overrides the baseline. *)
  Alcotest.(check bool) "ambiguous prefix unpinned" true
    (Directory.shard_of_shape dir (shape_of (reads_prefix "f" "user:")) = None);
  (* "user:hot:" ^ ⟨k⟩ is pinned: no longer rule can override. *)
  Alcotest.(check bool) "extended prefix pinned" true
    (Directory.shard_of_shape dir (shape_of (reads_prefix "g" "user:hot:"))
    = Some 1);
  (* Hash strategies cannot pin a holed shape at all. *)
  Alcotest.(check bool) "hash cannot pin holes" true
    (Directory.shard_of_shape (Directory.hash ~shards:3)
       (shape_of (reads_prefix "h" "user:"))
    = None)

let test_reconfigure_invalidates_router () =
  let dir = Directory.create two_shards in
  let router = Router.create dir in
  let sm = Analyzer.Absint.summarize incr_a in
  Alcotest.(check string) "pinned to shard 0" "single-shard(0)"
    (Format.asprintf "%a" Router.pp_placement (Router.classify router sm));
  let gen = Directory.generation dir in
  Directory.reconfigure dir
    (Directory.Prefix
       { shards = 2; rules = [ ("a:", 1); ("b:", 0) ]; default = 0 });
  Alcotest.(check bool) "generation bumped" true
    (Directory.generation dir > gen);
  Alcotest.(check string) "memo invalidated, reclassified" "single-shard(1)"
    (Format.asprintf "%a" Router.pp_placement (Router.classify router sm))

let test_router_classification () =
  let router = Router.create (Directory.create two_shards) in
  let place fn =
    Format.asprintf "%a" Router.pp_placement
      (Router.classify router (Analyzer.Absint.summarize fn))
  in
  Alcotest.(check string) "family-a RMW is single-shard" "single-shard(0)"
    (place incr_a);
  Alcotest.(check string) "transfer spans both" "cross-shard" (place xfer);
  let stats = Router.stats router in
  Alcotest.(check int) "memoized" 2 stats.classified

(* --- Single-shard fast path ------------------------------------------ *)

let test_single_shard_one_round_trip () =
  let tracer = Metrics.Tracer.create () in
  with_sharded ~tracer (fun _ fw ->
      let o = Framework.invoke fw ~from:Location.ca "incr_a" [ Dval.Str "x" ] in
      Alcotest.(check int) "incremented" 11 (int_value o);
      Engine.sleep 2000.0;
      (* No coordination anywhere: the request ran the unchanged
         one-round-trip protocol at the shard owning family "a:". *)
      List.iter
        (fun s ->
          let st = Server.stats s in
          Alcotest.(check int) "no cross-shard requests" 0 st.cross_requests;
          Alcotest.(check int) "no participant prepares" 0 st.shard_prepares)
        (Framework.servers fw);
      let prepare_phases =
        List.filter
          (fun ((_, phase, _), _) -> phase = "shard_prepare")
          (Metrics.Tracer.phase_stats tracer)
      in
      Alcotest.(check int) "no shard_prepare phase in any trace" 0
        (List.length prepare_phases);
      check_clean fw)

(* --- Cross-shard atomic commit --------------------------------------- *)

let test_cross_shard_commit () =
  with_sharded (fun _ fw ->
      let o =
        Framework.invoke fw ~from:Location.de "xfer"
          [ Dval.Str "x"; Dval.Str "y" ]
      in
      Alcotest.(check int) "destination balance returned" 51 (int_value o);
      Engine.sleep 2000.0;
      Alcotest.(check int) "source debited" 9 (primary_int fw "a:x");
      Alcotest.(check int) "destination credited" 51 (primary_int fw "b:y");
      let coordinated =
        List.fold_left
          (fun acc s -> acc + (Server.stats s).cross_requests)
          0 (Framework.servers fw)
      in
      Alcotest.(check int) "one coordinated request" 1 coordinated;
      (* Both shards held a slice and agree the exec committed. *)
      let states = List.concat_map Server.cross_states (Framework.servers fw) in
      Alcotest.(check int) "both shards recorded the exec" 2
        (List.length states);
      List.iter
        (fun (_, st) ->
          Alcotest.(check bool) "committed" true (st = `Committed))
        states;
      check_clean fw)

let test_cross_shard_stale_backup () =
  with_sharded (fun _ fw ->
      (* Out-of-band primary write: every site's cached b:y (v1) is now
         stale, so shard 1's slice votes Stale and the coordinator runs
         the backup under the held locks. *)
      ignore (Kv.put (Framework.primary fw) "b:y" (Dval.int 80) : int);
      let o =
        Framework.invoke fw ~from:Location.de "xfer"
          [ Dval.Str "x"; Dval.Str "y" ]
      in
      Alcotest.(check int) "backup saw the fresh value" 81 (int_value o);
      Engine.sleep 2000.0;
      Alcotest.(check int) "source debited once" 9 (primary_int fw "a:x");
      Alcotest.(check int) "destination credited once" 81
        (primary_int fw "b:y");
      check_clean fw)

let test_concurrent_opposite_transfers () =
  with_sharded (fun _ fw ->
      (* xfer locks (a:x then b:x) at shards (0,1); refund locks (b:x
         then a:x) at shards (1,0). Both fire together from different
         sites: the non-blocking first round plus the ascending-shard
         blocking fallback must commit both without deadlock. *)
      let r1 = ref None and r2 = ref None in
      Engine.spawn (fun () ->
          r1 :=
            Some
              (Framework.invoke fw ~from:Location.ca "xfer"
                 [ Dval.Str "x"; Dval.Str "x" ]));
      Engine.spawn (fun () ->
          r2 :=
            Some
              (Framework.invoke fw ~from:Location.jp "refund"
                 [ Dval.Str "x"; Dval.Str "x" ]));
      Engine.sleep 8000.0;
      (match (!r1, !r2) with
      | Some o1, Some o2 ->
          ignore (ok_value o1);
          ignore (ok_value o2)
      | _ -> Alcotest.fail "a transfer never completed");
      (* One unit a->b and one unit b->a: balances are back where they
         started, through two atomic cross-shard commits. *)
      Alcotest.(check int) "a:x net zero" 10 (primary_int fw "a:x");
      Alcotest.(check int) "b:x net zero" 100 (primary_int fw "b:x");
      check_clean fw)

(* --- N=1 bit-identity with the seed deployment ----------------------- *)

let run_scripted sharding =
  let e = Engine.create ~seed:33 () in
  let out = ref [] in
  Engine.run e (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.05 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let config = { Framework.default_config with sharding } in
      let fw = Framework.create ~config ~net ~funcs ~data () in
      List.iter
        (fun (from, fn, args) ->
          let o = Framework.invoke fw ~from fn args in
          let v =
            match o.Runtime.value with Ok v -> Dval.to_string v | Error e -> e
          in
          out := Printf.sprintf "%s %s -> %s @ %.6f" from fn v o.latency :: !out)
        [
          (Location.ca, "incr_a", [ Dval.Str "x" ]);
          (Location.jp, "xfer", [ Dval.Str "x"; Dval.Str "y" ]);
          (Location.de, "get_a", [ Dval.Str "x" ]);
          (Location.ie, "refund", [ Dval.Str "y"; Dval.Str "y" ]);
          (Location.va, "incr_a", [ Dval.Str "y" ]);
        ];
      Engine.sleep 3000.0;
      Framework.stop fw);
  List.rev !out

let test_one_shard_bit_identical () =
  (* A 1-shard directory must construct a deployment that behaves
     bit-identically to the unsharded seed path: same results, same
     latencies to the microsecond, with transport jitter on (any extra
     message or RNG draw would shift every subsequent sample). *)
  Alcotest.(check (list string))
    "same results and latencies"
    (run_scripted None)
    (run_scripted (Some (Directory.Hash { shards = 1 })))

(* --- Workload-stream determinism across shard counts ------------------ *)

let test_workload_stream_determinism () =
  (* The campaign derives its generator RNG from the engine stream after
     deployment construction; topology must not perturb it. *)
  let stream sharding =
    let e = Engine.create ~seed:5 () in
    let out = ref [] in
    Engine.run e (fun () ->
        let rng = Engine.rng () in
        let net = Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split rng) () in
        let bundle = Apps.Bundle.social in
        let config = { Framework.default_config with sharding } in
        let fw =
          Framework.create ~config ~net ~funcs:bundle.funcs
            ~data:(bundle.seed (Rng.split rng))
            ()
        in
        let gen = bundle.new_gen () in
        let grng = Rng.split rng in
        for i = 0 to 39 do
          let fn, args = gen grng in
          out :=
            Printf.sprintf "%s(%s)" fn
              (String.concat "," (List.map Dval.to_string args))
            :: !out;
          let from =
            List.nth (Framework.locations fw)
              (i mod List.length (Framework.locations fw))
          in
          ignore (Framework.invoke fw ~from fn args : Runtime.outcome)
        done;
        Framework.stop fw);
    List.rev !out
  in
  let unsharded = stream None in
  Alcotest.(check (list string))
    "same request stream at 4 shards" unsharded
    (stream (Some (Directory.Hash { shards = 4 })));
  Alcotest.(check (list string))
    "same request stream at 2 shards" unsharded
    (stream (Some (Directory.Hash { shards = 2 })))

(* --- Restart repopulates the reply cache (regression) ----------------- *)

let test_restart_duplicate_lvi_dedup () =
  with_sharded ~config:Framework.default_config (fun net fw ->
      let server = Framework.server fw in
      let req =
        {
          Radical.Proto.exec_id = "dup-1";
          fn_name = "incr_a";
          args = [ Dval.Str "x" ];
          reads = [ ("a:x", 1) ];
          writes = [ "a:x" ];
          ro_hint = false;
          from_loc = Location.va;
          piggyback = [];
        }
      in
      let svc = Server.lvi_service server in
      (* Original delivery: validates and installs the intent; the
         followup never arrives (we are the client and send none). *)
      let r1 = Transport.call net ~from:Location.va svc req in
      (match r1 with
      | Radical.Proto.Validated { write_versions; _ } ->
          Alcotest.(check (list (pair string int)))
            "validated at v1"
            [ ("a:x", 1) ]
            write_versions
      | Radical.Proto.Mismatch _ -> Alcotest.fail "unexpected mismatch");
      Alcotest.(check int) "intent pending" 1 (Server.pending_intents server);
      (* Restart: recovery must rebuild the reply-cache entry from the
         durable intent BEFORE re-executing it. *)
      Server.restart_recover server;
      Alcotest.(check int) "recovery re-executed" 1
        (Server.stats server).reexecutions;
      Alcotest.(check int) "write applied by re-execution" 11
        (primary_int fw "a:x");
      (* Duplicate delivery after the restart: without the rebuilt entry
         it would re-run the whole protocol — re-acquire the released
         locks, find its read stale (the re-execution bumped a:x to v2)
         and run the backup a second time. *)
      let r2 = Transport.call net ~from:Location.va svc req in
      (match r2 with
      | Radical.Proto.Validated { write_versions; _ } ->
          Alcotest.(check (list (pair string int)))
            "duplicate served from the rebuilt reply cache"
            [ ("a:x", 1) ]
            write_versions
      | Radical.Proto.Mismatch _ ->
          Alcotest.fail "duplicate re-entered the protocol as a mismatch");
      Engine.sleep 3000.0;
      Alcotest.(check int) "applied exactly once" 11 (primary_int fw "a:x");
      Alcotest.(check int) "no second re-execution" 1
        (Server.stats server).reexecutions;
      Alcotest.(check int) "no mismatch backup run" 0 (Server.stats server).mismatched;
      Alcotest.(check int) "drained" 0
        (Server.pending_intents server + Server.locks_held server))

let () =
  Alcotest.run "shard"
    [
      ( "directory",
        [
          Alcotest.test_case "hash in range" `Quick test_hash_in_range;
          Alcotest.test_case "hash spreads" `Quick test_hash_spreads;
          Alcotest.test_case "prefix longest match" `Quick
            test_prefix_longest_match;
          Alcotest.test_case "shape pinning" `Quick test_shape_pinning;
          Alcotest.test_case "reconfigure invalidates router" `Quick
            test_reconfigure_invalidates_router;
        ] );
      ( "router",
        [
          Alcotest.test_case "classification" `Quick
            test_router_classification;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "single-shard one round trip" `Quick
            test_single_shard_one_round_trip;
          Alcotest.test_case "cross-shard commit" `Quick
            test_cross_shard_commit;
          Alcotest.test_case "cross-shard stale backup" `Quick
            test_cross_shard_stale_backup;
          Alcotest.test_case "concurrent opposite transfers" `Quick
            test_concurrent_opposite_transfers;
        ] );
      ( "identity",
        [
          Alcotest.test_case "1 shard bit-identical to seed" `Quick
            test_one_shard_bit_identical;
          Alcotest.test_case "workload stream determinism" `Quick
            test_workload_stream_determinism;
        ] );
      ( "restart",
        [
          Alcotest.test_case "duplicate LVI after restart dedups" `Quick
            test_restart_duplicate_lvi_dedup;
        ] );
    ]
