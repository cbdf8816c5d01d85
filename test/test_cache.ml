(* Tests for the near-user eventually consistent cache. *)

open Sim

let run_sim f =
  let e = Engine.create () in
  Engine.run e f

let test_miss_marker () =
  run_sim (fun () ->
      let c = Cache.create () in
      Alcotest.(check int) "miss is -1" (-1) (Cache.version_of c "x");
      Alcotest.(check bool) "get misses" true (Cache.get c "x" = None);
      Alcotest.(check int) "miss counted" 1 (Cache.misses c))

let test_update_and_get () =
  run_sim (fun () ->
      let c = Cache.create () in
      Cache.update c "x" (Dval.Str "a") ~version:3;
      (match Cache.get c "x" with
      | Some { value; version } ->
          Alcotest.(check string) "value" "\"a\"" (Dval.to_string value);
          Alcotest.(check int) "version" 3 version
      | None -> Alcotest.fail "expected hit");
      Alcotest.(check int) "hit counted" 1 (Cache.hits c))

let test_stale_update_ignored () =
  run_sim (fun () ->
      let c = Cache.create () in
      Cache.update c "x" (Dval.Str "new") ~version:5;
      Cache.update c "x" (Dval.Str "old") ~version:2;
      Alcotest.(check int) "keeps newer" 5 (Cache.version_of c "x"))

let test_get_latency () =
  run_sim (fun () ->
      let c = Cache.create ~access_latency:0.5 () in
      let t0 = Engine.now () in
      ignore (Cache.get c "x");
      Alcotest.(check (float 1e-9)) "pays latency" 0.5 (Engine.now () -. t0);
      let t1 = Engine.now () in
      ignore (Cache.get_many c [ "a"; "b"; "c" ]);
      Alcotest.(check (float 1e-9)) "batch pays once" 0.5 (Engine.now () -. t1))

let test_invalidate () =
  run_sim (fun () ->
      let c = Cache.create () in
      Cache.update c "x" (Dval.Str "old") ~version:3;
      (* Reordered/duplicated invalidations for versions the cache has
         already reached (or passed) are no-ops. *)
      Alcotest.(check bool) "same version is a no-op" false
        (Cache.invalidate c "x" ~version:3);
      Alcotest.(check bool) "older version is a no-op" false
        (Cache.invalidate c "x" ~version:2);
      Alcotest.(check int) "entry intact" 3 (Cache.version_of c "x");
      Alcotest.(check bool) "newer version evicts" true
        (Cache.invalidate c "x" ~version:4);
      Alcotest.(check int) "now a miss" (-1) (Cache.version_of c "x");
      Alcotest.(check bool) "miss is a no-op" false
        (Cache.invalidate c "x" ~version:9))

(* A copy is independent both ways: an update, invalidate or wipe on
   one side never reaches the other. *)
let test_copy_independent () =
  run_sim (fun () ->
      let a =
        Cache.of_list
          [ ("x", Dval.Str "a", 1); ("y", Dval.Unit, 1); ("x", Dval.Str "old", 0) ]
      in
      Alcotest.(check int) "of_list keeps the newest" 1 (Cache.version_of a "x");
      let b = Cache.copy a in
      Alcotest.(check int) "same entries" 2 (Cache.size b);
      Cache.update b "x" (Dval.Str "b") ~version:2;
      Cache.update a "z" Dval.Unit ~version:1;
      Alcotest.(check int) "update stays in the copy" 1 (Cache.version_of a "x");
      Alcotest.(check int) "update stays in the source" (-1)
        (Cache.version_of b "z");
      ignore (Cache.invalidate a "y" ~version:2);
      Alcotest.(check int) "invalidate stays in the source" 1
        (Cache.version_of b "y");
      Cache.wipe b;
      Alcotest.(check int) "wipe stays in the copy" 2 (Cache.size a))

(* Past 1,024 entries a copy duplicates the buckets instead of
   rebuilding the table; it must be just as independent. *)
let test_large_copy_independent () =
  run_sim (fun () ->
      let entries =
        List.init 2000 (fun i -> (Printf.sprintf "k%d" i, Dval.int i, 1))
      in
      let a = Cache.of_list entries in
      let b = Cache.copy a in
      let sorted c = List.sort compare (Cache.snapshot c) in
      Alcotest.(check bool) "same entries" true (sorted a = sorted b);
      Cache.update b "k7" Dval.Unit ~version:2;
      Alcotest.(check int) "update stays in the copy" 1 (Cache.version_of a "k7");
      Cache.wipe a;
      Alcotest.(check int) "wipe stays in the source" 2000 (Cache.size b))

let test_wipe () =
  run_sim (fun () ->
      let c = Cache.create () in
      Cache.update c "x" Dval.Unit ~version:1;
      Cache.update c "y" Dval.Unit ~version:1;
      Alcotest.(check int) "populated" 2 (Cache.size c);
      Cache.wipe c;
      Alcotest.(check int) "wiped" 0 (Cache.size c);
      Alcotest.(check int) "back to miss marker" (-1) (Cache.version_of c "x"))

let () =
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "miss marker" `Quick test_miss_marker;
          Alcotest.test_case "update and get" `Quick test_update_and_get;
          Alcotest.test_case "stale update ignored" `Quick
            test_stale_update_ignored;
          Alcotest.test_case "get latency" `Quick test_get_latency;
          Alcotest.test_case "wipe" `Quick test_wipe;
          Alcotest.test_case "invalidate version guard" `Quick test_invalidate;
          Alcotest.test_case "copy is independent" `Quick test_copy_independent;
          Alcotest.test_case "large copy is independent" `Quick
            test_large_copy_independent;
        ] );
    ]
