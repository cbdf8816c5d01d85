open Sim
open Fdsl.Ast
module Framework = Radical.Framework
module Server = Radical.Server
module Plan = Chaos.Plan
module Nemesis = Chaos.Nemesis
module Oracle = Chaos.Oracle

type config = {
  deployment : Framework.config;
  horizon : float;
  mutation : Server.protocol_mutation option;
}

let default_config =
  {
    deployment =
      {
        Framework.default_config with
        server = { Server.default_config with intent_timeout = 800.0 };
      };
    horizon = 5000.0;
    mutation = None;
  }

(* The workload shape, the same in every campaign. [drain] follows the
   horizon; every [charge_every]th request is a synthetic payment. *)
let clients_per_loc = 2
let requests_per_client = 3
let think_time = 400.0
let drain = 4000.0
let jitter = 0.05
let charge_every = 6

type outcome = {
  violations : Oracle.violation list;
  fingerprint : string;
  requests : int;
  client_errors : int;
  faults_applied : int;
  faults_skipped : int;
}

(* The synthetic payment: one external call whose receipt lands under a
   per-invocation key. Each sweep invocation passes a unique "user", so
   every charge is an independent idempotency scope and the
   exactly-once oracle can count handler runs against issued requests. *)
let charge_fn =
  {
    fn_name = "chaos_charge";
    params = [ "user" ];
    body =
      Let
        ( "r",
          External ("chaos-pay", Input "user"),
          Seq
            [
              Write (Concat [ Str "charge:"; Input "user" ], Var "r"); Var "r";
            ] );
  }

let charge_service = "chaos-pay"

let fingerprint_of_history ops =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (op : Lincheck.op) ->
      Buffer.add_string buf
        (Printf.sprintf "%s|%.4f|%.4f|" op.op_id op.start op.finish);
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf (k ^ "=" ^ Dval.to_string v ^ ";"))
        op.reads;
      Buffer.add_char buf '|';
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf (k ^ "=" ^ Dval.to_string v ^ ";"))
        op.writes;
      Buffer.add_char buf '\n')
    ops;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run_one ?(config = default_config) ~seed (app : Apps.Bundle.app)
    (plan : Plan.t) =
  let violations = ref [] in
  let fingerprint = ref "" in
  let requests = ref 0 in
  let client_errors = ref 0 in
  let faults = ref Nemesis.{ applied = 0; skipped = 0 } in
  let issued = ref 0 in
  let completed = ref 0 in
  let init = ref [] in
  let locations = config.deployment.locations in
  (* A protocol bug can deadlock the workload (stuck clients are not
     runnable, so the engine would quiesce with the load still
     suspended and the oracle never consulted — or, replicated, tick
     Raft timers forever). Cap virtual time far beyond any legitimate
     run and treat a load that never returned as a violation in its own
     right. *)
  let until = 100_000.0 +. Float.max config.horizon (Plan.horizon_of plan) in
  (try
     Runner.simulate ~until ~seed ~jitter ~tracer:Metrics.Tracer.noop
       ~locations (Runner.Radical_with config.deployment)
       ~funcs:(app.funcs @ [ charge_fn ])
       ~schema:[]
       ~data:(fun rng ->
         (* Unused, but every recorded history fingerprint depends on it. *)
         ignore (Rng.split rng);
         init := app.seed (Rng.split rng);
         !init)
       (fun d rng ->
         let fw = Runner.framework d in
         Framework.register_external fw ~name:charge_service (fun v ->
             Dval.Record [ ("paid", v) ]);
         List.iter
           (fun s -> Server.inject_mutation s config.mutation)
           (Framework.servers fw);
         Framework.record_history fw;
         let nemesis = Nemesis.launch fw plan in
         let gen = app.new_gen () in
         let n_locs = List.length locations in
         let n_clients = n_locs * clients_per_loc in
         let client_rngs = Array.init n_clients (fun _ -> Rng.split rng) in
         Workload.Driver.run_clients ~n:n_clients
           ~iterations:requests_per_client ~think_time (fun ~client ~iter ->
             let from = List.nth locations (client mod n_locs) in
             let crng = client_rngs.(client) in
             let seq = !requests in
             incr requests;
             let fn, args =
               if seq mod charge_every = charge_every - 1 then
                 ( charge_fn.fn_name,
                   [ Dval.Str (Printf.sprintf "u%d-%d" client iter) ] )
               else gen crng
             in
             if String.equal fn charge_fn.fn_name then incr issued;
             let o = Framework.invoke fw ~from fn args in
             match o.value with
             | Ok _ ->
                 if String.equal fn charge_fn.fn_name then incr completed
             | Error _ -> incr client_errors);
         (* Outlive every fault window plus a drain for intent timers,
            re-executions and straggler followups to settle. *)
         let target =
           Float.max (Engine.now ())
             (Float.max config.horizon (Plan.horizon_of plan))
           +. drain
         in
         Engine.sleep (Float.max 0.0 (target -. Engine.now ()));
         faults := Nemesis.stats nemesis;
         let effects =
           [
             {
               Oracle.e_service = charge_service;
               e_issued = !issued;
               e_completed = !completed;
             };
           ]
         in
         violations := Oracle.check ~init:!init ~effects fw;
         fingerprint := fingerprint_of_history (Framework.history fw))
   with
  | Runner.Unfinished ->
      violations :=
        [
          {
            Oracle.inv = "stuck";
            detail =
              Printf.sprintf
                "run never completed (%d/%d requests issued): workload \
                 deadlocked or teardown blocked"
                !requests
                (List.length locations * clients_per_loc * requests_per_client);
          };
        ]
  | exn ->
      violations :=
        { Oracle.inv = "no-crash"; detail = Printexc.to_string exn }
        :: !violations);
  {
    violations = !violations;
    fingerprint = !fingerprint;
    requests = !requests;
    client_errors = !client_errors;
    faults_applied = !faults.applied;
    faults_skipped = !faults.skipped;
  }

(* Greedy ddmin: keep removing single events while the plan still
   fails. Plans are short (a handful of events), so the quadratic worst
   case is a few dozen runs. *)
let shrink ?config ~seed app plan =
  let fails p = (run_one ?config ~seed app p).violations <> [] in
  if not (fails plan) then plan
  else
    let rec minimize plan =
      let n = List.length plan in
      let rec try_drop i =
        if i >= n then None
        else
          let candidate = List.filteri (fun j _ -> j <> i) plan in
          if fails candidate then Some candidate else try_drop (i + 1)
      in
      match try_drop 0 with Some smaller -> minimize smaller | None -> plan
    in
    minimize plan

type case = {
  c_seed : int;
  c_template : string;
  c_plan : Plan.t;
  c_outcome : outcome;
}

type summary = {
  runs : int;
  total_requests : int;
  total_client_errors : int;
  total_faults_applied : int;
  total_faults_skipped : int;
  failures : case list;
  replay_checks : int;
  replay_mismatches : case list;
}

let sweep ?(config = default_config) ?(templates = Plan.default_templates)
    ?(replay_every = 25) ?(progress = fun ~done_:_ ~total:_ -> ())
    ~seeds app =
  let templates =
    List.filter
      (fun (t : Plan.template) ->
        (match config.deployment.server.mode with
        | Server.Replicated _ -> true
        | Server.Singleton -> false)
        || not t.t_replicated_only)
      templates
  in
  let total = seeds * List.length templates in
  let runs = ref 0 in
  let total_requests = ref 0 in
  let total_client_errors = ref 0 in
  let applied = ref 0 in
  let skipped = ref 0 in
  let failures = ref [] in
  let replay_checks = ref 0 in
  let replay_mismatches = ref [] in
  for seed = 1 to seeds do
    List.iteri
      (fun i (t : Plan.template) ->
        let plan_rng = Rng.create ((seed * 8191) lxor ((i + 1) * 524287)) in
        let plan =
          t.t_gen ~rng:plan_rng ~horizon:config.horizon
            ~locations:config.deployment.locations
        in
        let o = run_one ~config ~seed app plan in
        incr runs;
        total_requests := !total_requests + o.requests;
        total_client_errors := !total_client_errors + o.client_errors;
        applied := !applied + o.faults_applied;
        skipped := !skipped + o.faults_skipped;
        let case =
          { c_seed = seed; c_template = t.t_name; c_plan = plan; c_outcome = o }
        in
        if o.violations <> [] then failures := case :: !failures;
        if !runs mod replay_every = 0 then begin
          incr replay_checks;
          let o' = run_one ~config ~seed app plan in
          if not (String.equal o.fingerprint o'.fingerprint) then
            replay_mismatches := case :: !replay_mismatches
        end;
        progress ~done_:!runs ~total)
      templates
  done;
  {
    runs = !runs;
    total_requests = !total_requests;
    total_client_errors = !total_client_errors;
    total_faults_applied = !applied;
    total_faults_skipped = !skipped;
    failures = List.rev !failures;
    replay_checks = !replay_checks;
    replay_mismatches = List.rev !replay_mismatches;
  }

let pp_case ppf c =
  Format.fprintf ppf "@[<v 2>seed %d, template %s:@,%a@,violations:@,%a@]"
    c.c_seed c.c_template Plan.pp c.c_plan
    (Format.pp_print_list Oracle.pp_violation)
    c.c_outcome.violations

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%d runs, %d requests (%d client errors under faults)@,\
     %d faults applied, %d skipped@,\
     %d replay checks, %d mismatches@,\
     %d run(s) with violations@]" s.runs s.total_requests
    s.total_client_errors s.total_faults_applied s.total_faults_skipped
    s.replay_checks
    (List.length s.replay_mismatches)
    (List.length s.failures);
  if s.failures <> [] then
    Format.fprintf ppf "@,@[<v>%a@]"
      (Format.pp_print_list pp_case)
      s.failures;
  if s.replay_mismatches <> [] then
    Format.fprintf ppf "@,@[<v 2>replay mismatches:@,%a@]"
      (Format.pp_print_list pp_case)
      s.replay_mismatches
