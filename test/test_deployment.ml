(* The named deployments: every preset string must yield exactly the
   Framework.config that callers used to assemble field by field, so
   the expectations below are written out as literals rather than
   through the presets they check. *)

module Deployment = Radical.Deployment
module Framework = Radical.Framework
module Server = Radical.Server

let no_batching =
  {
    Server.group_commit = false;
    request_flush = false;
    persist_window = 0.0;
    admission = false;
    append_cost = 0.0;
  }

let no_propagation =
  { Server.enabled = false; prop_window = 0.0; invalidate_only = false }

let no_leases =
  {
    Server.enabled = false;
    duration = 0.0;
    revoke = true;
    revoke_timeout = 0.0;
  }

let paper =
  {
    Framework.locations = [ "VA"; "CA"; "IE"; "DE"; "JP" ];
    server =
      {
        Server.loc = "VA";
        intent_timeout = 1500.0;
        mode = Singleton;
        batching = no_batching;
        propagation = no_propagation;
        leases = no_leases;
      };
    sharding = None;
    overlap = true;
    ro_fast = true;
    fu_window = 0.0;
    fu_piggyback = false;
    warm_caches = true;
    cache_latency = 6.0;
  }

let replicated_server = { paper.server with mode = Replicated { az_rtt = 1.5 } }

let full_batching =
  {
    Server.group_commit = true;
    request_flush = true;
    persist_window = 2.0;
    admission = true;
    append_cost = 0.0;
  }

(* Every batching knob, still on a singleton server: [batched] does not
   imply [replicated]. *)
let batched =
  {
    paper with
    server = { paper.server with batching = full_batching };
    fu_window = 2.0;
    fu_piggyback = true;
  }

let expectations =
  [
    ("paper", paper);
    ("replicated", { paper with server = replicated_server });
    ("batched", batched);
    (* What the trace's batch-size histograms need: Raft to batch. *)
    ( "replicated,batched",
      {
        batched with
        server = { replicated_server with batching = full_batching };
      } );
    ( "propagating",
      {
        paper with
        server =
          {
            paper.server with
            propagation =
              { enabled = true; prop_window = 2.0; invalidate_only = false };
          };
      } );
    ( "leased",
      {
        paper with
        server =
          {
            paper.server with
            leases =
              {
                enabled = true;
                duration = 2000.0;
                revoke = true;
                revoke_timeout = 400.0;
              };
          };
      } );
    ( "sharded=4",
      { paper with sharding = Some (Shard.Directory.Hash { shards = 4 }) } );
  ]

let parse s =
  match Deployment.of_string s with
  | Ok features -> features
  | Error e -> Alcotest.failf "%S rejected: %s" s e

let test_presets () =
  List.iter
    (fun (spec, expected) ->
      Alcotest.(check bool)
        (spec ^ " builds its literal config")
        true
        (Deployment.config (parse spec) = expected))
    expectations

let test_base () =
  let base = { Framework.default_config with locations = [ "CA" ] } in
  let c = Deployment.config ~base [ Replicated ] in
  Alcotest.(check (list string)) "base fields kept" [ "CA" ] c.locations;
  Alcotest.(check bool) "feature applied" true
    (c.server.mode = Replicated { az_rtt = 1.5 })

let test_malformed () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S is an error" s)
        true
        (Result.is_error (Deployment.of_string s)))
    [ "sharded=1"; "sharded=x"; "bogus"; ""; "replicated,"; "sharded=" ]

let test_round_trip () =
  List.iter
    (fun features ->
      let s = Deployment.to_string features in
      Alcotest.(check bool) (s ^ " parses back to the same list") true
        (parse s = features))
    [
      [];
      [ Replicated ];
      [ Batched ];
      [ Replicated; Batched ];
      [ Propagating; Leased ];
      [ Sharded 2 ];
      [ Replicated; Batched; Propagating; Leased; Sharded 16 ];
    ]

let () =
  Alcotest.run "deployment"
    [
      ( "deployment",
        [
          Alcotest.test_case "presets equal their literal configs" `Quick
            test_presets;
          Alcotest.test_case "features apply over a base" `Quick test_base;
          Alcotest.test_case "malformed specs rejected" `Quick test_malformed;
          Alcotest.test_case "to_string round-trips" `Quick test_round_trip;
        ] );
    ]
