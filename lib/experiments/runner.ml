open Sim
module Transport = Net.Transport
module Location = Net.Location
module Framework = Radical.Framework
module Baselines = Radical.Baselines
module Stats = Metrics.Stats

type measurement = string * float

let heading title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))

type system =
  | Radical
  | Radical_with of Radical.Framework.config
  | Central
  | Local
  | Geo of Net.Location.t list
  | Naive_edge
  | Validate_per_read

(* --- the simulation skeleton ------------------------------------------ *)

type deployment = Framework of Framework.t | Baseline of Baselines.t

let deploy ~net ~tracer ~locations system ~funcs ~schema ~data =
  let radical (config : Framework.config) =
    Framework
      (Framework.create ~config:{ config with locations } ~schema ~tracer ~net
         ~funcs ~data ())
  in
  match system with
  | Radical -> radical Framework.default_config
  | Radical_with config -> radical config
  | Central -> Baseline (Baselines.centralized ~net ~funcs ~data ())
  | Local -> Baseline (Baselines.local ~locations ~funcs ~data ())
  | Geo replicas ->
      Baseline (Baselines.geo_replicated ~replicas ~funcs ~data ())
  | Naive_edge -> Baseline (Baselines.naive_edge ~funcs ~data ())
  | Validate_per_read -> Baseline (Baselines.validate_per_read ~funcs ~data ())

exception Unfinished

let simulate ?until ~seed ~jitter ~tracer ~locations system ~funcs ~schema
    ~data load =
  let engine = Engine.create ~seed () in
  let out = ref None in
  Engine.run ?until engine (fun () ->
      let rng = Engine.rng () in
      let net =
        Transport.create ~jitter_sigma:jitter ~tracer ~rng:(Rng.split rng) ()
      in
      let data = data rng in
      let d = deploy ~net ~tracer ~locations system ~funcs ~schema ~data in
      let r = load d rng in
      (match d with Framework fw -> Framework.stop fw | Baseline _ -> ());
      out := Some r);
  match !out with Some r -> r | None -> raise Unfinished

let invoke d ~from fn args =
  match d with
  | Framework fw ->
      let o = Framework.invoke fw ~from fn args in
      (o.latency, Result.is_error o.value)
  | Baseline b ->
      let o = Baselines.invoke b ~from fn args in
      (o.latency, Result.is_error o.value)

let framework = function
  | Framework fw -> fw
  | Baseline _ -> invalid_arg "Runner.framework: a baseline deployment"

(* --- closed-loop runs ------------------------------------------------- *)

type sample = { s_loc : Net.Location.t; s_fn : string; s_latency : float }

type result = {
  samples : sample list;
  validation_rate : float option;
  spec_rate : float option;
  errors : int;
}

let rates = function
  | Baseline _ -> (None, None)
  | Framework fw ->
      let ratio n d =
        if d > 0 then Some (float_of_int n /. float_of_int d) else None
      in
      let st = Radical.Server.stats (Framework.server fw) in
      let invocations, spec =
        List.fold_left
          (fun (inv, sp) loc ->
            let s = Radical.Runtime.stats (Framework.runtime fw loc) in
            (inv + s.invocations, sp + s.speculative))
          (0, 0) (Framework.locations fw)
      in
      (ratio st.validated (st.validated + st.mismatched), ratio spec invocations)

let collect ~seed ~jitter ~tracer ~locations system (app : Apps.Bundle.app)
    load =
  let samples = ref [] in
  let errors = ref 0 in
  let validation_rate, spec_rate =
    simulate ~seed ~jitter ~tracer ~locations system ~funcs:app.funcs
      ~schema:app.schema
      ~data:(fun rng -> app.seed (Rng.split rng))
      (fun d rng ->
        load rng (fun ~from fn args ->
            let latency, is_error = invoke d ~from fn args in
            if is_error then incr errors;
            samples :=
              { s_loc = from; s_fn = fn; s_latency = latency } :: !samples);
        rates d)
  in
  { samples = List.rev !samples; validation_rate; spec_rate; errors = !errors }

(* Paced load: the paper measures latency, not saturated throughput. *)
let think_time = 500.0

let run ?(seed = 42) ?(locations = Location.user_locations)
    ?(clients_per_loc = 10) ?(requests_per_client = 40) ?(jitter = 0.05)
    ?(tracer = Metrics.Tracer.noop) system (app : Apps.Bundle.app) =
  collect ~seed ~jitter ~tracer ~locations system app (fun rng invoke ->
      let gen = app.new_gen () in
      let n_locs = List.length locations in
      let client_rngs =
        Array.init (n_locs * clients_per_loc) (fun _ -> Rng.split rng)
      in
      Workload.Driver.run_clients ~n:(n_locs * clients_per_loc)
        ~iterations:requests_per_client ~think_time (fun ~client ~iter:_ ->
          let from = List.nth locations (client mod n_locs) in
          let fn, args = gen client_rngs.(client) in
          invoke ~from fn args))

let stats_of_samples samples =
  Stats.of_list (List.map (fun s -> s.s_latency) samples)

let overall r = stats_of_samples r.samples

let by_fn r =
  let fns =
    List.sort_uniq String.compare (List.map (fun s -> s.s_fn) r.samples)
  in
  List.map
    (fun fn ->
      (fn, stats_of_samples (List.filter (fun s -> s.s_fn = fn) r.samples)))
    fns

let by_loc r =
  let present = List.map (fun s -> s.s_loc) r.samples in
  List.filter_map
    (fun loc ->
      if List.mem loc present then
        Some
          (loc, stats_of_samples (List.filter (fun s -> s.s_loc = loc) r.samples))
      else None)
    Location.user_locations

let median_of r = Stats.median (overall r)

let p99_of r = Stats.p99 (overall r)

(* --- open-loop cells ---------------------------------------------------- *)

type load = {
  offered : float;
  achieved : float;
  median : float;
  p99 : float;
  requests : int;
  errors : int;
}

(* Raft warm-up: a replicated server elects its leader before the first
   arrival, so the sweep measures steady state, not the election. *)
let raft_warm_up = 800.0

let open_loop fw ~rate ~duration ~rng request =
  if Option.is_some (Radical.Server.raft_cluster (Framework.server fw)) then
    Engine.sleep raft_warm_up;
  let lat = Stats.create () in
  let errors = ref 0 in
  let t0 = Engine.now () in
  let t_last = ref t0 in
  let n =
    Workload.Driver.run_open ~rate ~duration ~rng (fun ~arrival ->
        let o : Radical.Runtime.outcome = request ~arrival in
        if Result.is_error o.value then incr errors;
        Stats.add lat o.latency;
        t_last := Float.max !t_last (Engine.now ()))
  in
  let elapsed_s = Float.max 1e-9 ((!t_last -. t0) /. 1000.0) in
  {
    offered = rate;
    achieved = float_of_int n /. elapsed_s;
    median = Stats.median lat;
    p99 = Stats.p99 lat;
    requests = n;
    errors = !errors;
  }

let rate_label r = Printf.sprintf "%.0f/s" r

(* The classic saturation criterion: queueing delay, not the raw latency
   floor, is what blows up past the knee. *)
let peak_sustainable = function
  | [] -> 0.0
  | first :: _ as cells ->
      let rec below_knee peak = function
        | c :: rest when c.median <= 2.0 *. first.median ->
            below_knee (Float.max peak c.offered) rest
        | _ -> peak
      in
      below_knee 0.0 cells

(* --- machine-readable bench output (--json) --------------------------- *)

let json_string s = "\"" ^ Metrics.Tracer.json_escape s ^ "\""

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

(* One nested object: ["name": {"k": v, ...}], each field on its own
   line; [{}] when empty. *)
let json_object name fields =
  Printf.sprintf "  %s: {%s}" (json_string name)
    (if fields = [] then ""
     else
       String.concat ","
         (List.map
            (fun (k, v) -> Printf.sprintf "\n    %s: %s" (json_string k) v)
            fields)
       ^ "\n  ")

let write_json ?(dir = ".") ~experiment ~config measurements =
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" experiment) in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\n  \"experiment\": %s,\n%s,\n%s\n}\n"
        (json_string experiment)
        (json_object "config"
           (List.map (fun (k, v) -> (k, json_string v)) config))
        (json_object "measurements"
           (List.map (fun (k, v) -> (k, json_float v)) measurements)));
  path
