(* Seed-identity trace: a canonical, fully deterministic transcript of
   the simulator's observable behaviour, diffed byte-for-byte against
   test/golden_seed_identity.expected on every `dune runtest`.

   Purpose: refactors that claim to be behaviour-preserving (the
   request-pipeline decomposition, and whatever comes after it) are
   verified mechanically instead of by eyeball. The transcript hashes
   - the fig1 / table1 measurement lists at full float precision,
   - per-sample digests of three full-stack Radical runs (seed
     singleton; every feature on over 2 shards; Raft-replicated), and
   - an open-loop burst on a Raft-replicated, batched server hot
     enough that conflict-aware admission queues requests (the waited
     count plus a digest of every latency, in completion order), and
   - the history fingerprints of a 5-seed x all-templates chaos replay
     plus a 20-seed "everything"-template campaign replay.
   Any change to protocol timing, message contents, lock or Raft
   scheduling, or workload generation shows up as a diff here.

   Regenerate (ONLY when a behaviour change is intended and understood):
     dune build @seed-identity --auto-promote *)

module Figures = Experiments.Figures
module Runner = Experiments.Runner
module Bundle = Apps.Bundle
module Campaign = Experiments.Campaign
module Plan = Chaos.Plan

let pr fmt = Printf.printf fmt

let measurements label ms =
  pr "== %s measurements ==\n" label;
  List.iter (fun (k, v) -> pr "%s %.17g\n" k v) ms

(* One line per run: sample count, error count, rates and a digest of
   every (loc, fn, latency) sample in arrival order. *)
let radical_run label system =
  let r = Runner.run ~seed:42 ~clients_per_loc:2 ~requests_per_client:5 system
      Bundle.social
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun { Runner.s_loc; s_fn; s_latency } ->
      Buffer.add_string buf (Printf.sprintf "%s|%s|%.17g;" s_loc s_fn s_latency))
    r.samples;
  let rate = function None -> "-" | Some f -> Printf.sprintf "%.17g" f in
  pr "radical.%s samples=%d errors=%d validation=%s spec=%s digest=%s\n" label
    (List.length r.samples) r.errors
    (rate r.validation_rate) (rate r.spec_rate)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let featureful =
  {
    (Radical.Deployment.config [ Batched; Propagating; Leased; Sharded 2 ]) with
    fu_window = 3.0;
  }

let replicated =
  {
    Radical.Framework.default_config with
    server =
      {
        Radical.Server.default_config with
        mode = Radical.Server.Replicated { az_rtt = 2.3 };
      };
  }

(* Admission wait path: payments between 32 accounts and posts to 8
   walls at 400 req/s leave several same-key requests in flight at
   once, so admission has to queue some of them; the order it admits
   them in shows up in the latency digest. *)
let admission_burst () =
  let accounts = 32 and walls = 8 in
  let funcs =
    [ Experiments.Synthetic.transfer "pay" ~src:"bal:" ~dst:"bal:";
      Experiments.Synthetic.post ]
  in
  let data =
    List.init accounts (fun i -> (Printf.sprintf "bal:a%d" i, Dval.int 100))
    @ List.init walls (fun i -> (Printf.sprintf "wall:w%d" i, Dval.Str ""))
  in
  let buf = Buffer.create 4096 in
  let load, waited =
    Runner.simulate ~seed:42 ~jitter:0.05 ~tracer:Metrics.Tracer.noop
      ~locations:Net.Location.user_locations
      (Runner.Radical_with (Radical.Deployment.config [ Replicated; Batched ]))
      ~funcs ~schema:[] ~data:(fun _ -> data)
      (fun d rng ->
        let fw = Runner.framework d in
        let sites = Radical.Framework.locations fw in
        let wrng = Sim.Rng.split rng in
        let load =
          Runner.open_loop fw ~rate:400.0 ~duration:500.0
            ~rng:(Sim.Rng.split rng) (fun ~arrival ->
              let from = List.nth sites (arrival mod List.length sites) in
              let pick n = Sim.Rng.int wrng n in
              let o =
                if Sim.Rng.int wrng 3 = 0 then
                  Radical.Framework.invoke fw ~from "post"
                    [ Dval.Str (Printf.sprintf "w%d" (pick walls));
                      Dval.Str "x" ]
                else
                  Radical.Framework.invoke fw ~from "pay"
                    [ Dval.Str (Printf.sprintf "a%d" (pick accounts));
                      Dval.Str (Printf.sprintf "a%d" (pick accounts)) ]
              in
              Buffer.add_string buf
                (Printf.sprintf "%d|%.17g;" arrival o.latency);
              o)
        in
        let st = Radical.Server.stats (Radical.Framework.server fw) in
        (load, st.admission_waits))
  in
  pr "admission.burst requests=%d errors=%d waited=%d digest=%s\n"
    load.requests load.errors waited
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Chaos replays: instantiate each template deterministically (the rng
   seed is a function of the sweep seed and the template index, like the
   campaign runner's) and print the history fingerprint of every run. *)
let chaos_block label ~seeds ~config templates =
  pr "== chaos %s ==\n" label;
  let app = Bundle.social in
  for seed = 1 to seeds do
    List.iteri
      (fun i (t : Plan.template) ->
        let replicated =
          match config.Campaign.deployment.server.mode with
          | Radical.Server.Replicated _ -> true
          | Radical.Server.Singleton -> false
        in
        if replicated || not t.t_replicated_only then begin
          let rng = Sim.Rng.create ((seed * 1009) + i) in
          let plan =
            t.t_gen ~rng ~horizon:config.Campaign.horizon
              ~locations:config.Campaign.deployment.locations
          in
          let o = Campaign.run_one ~config ~seed app plan in
          pr "chaos.%s seed=%d template=%s fingerprint=%s violations=%d\n"
            label seed t.t_name o.Campaign.fingerprint
            (List.length o.Campaign.violations)
        end)
      templates
  done

let campaign features =
  {
    Campaign.default_config with
    deployment =
      Radical.Deployment.config ~base:Campaign.default_config.deployment
        features;
  }

let () =
  measurements "fig1" (Figures.fig1 ~scale:0.25 ());
  measurements "table1" (Figures.table1 ());
  pr "== radical full-stack ==\n";
  radical_run "seed" Runner.Radical;
  radical_run "featureful" (Runner.Radical_with featureful);
  radical_run "replicated" (Runner.Radical_with replicated);
  admission_burst ();
  chaos_block "all-templates"
    ~seeds:5
    ~config:(campaign [ Batched; Propagating; Leased; Sharded 4 ])
    Plan.default_templates;
  (match Plan.find_template "everything" with
  | Some t ->
      chaos_block "everything-20seed" ~seeds:20
        ~config:(campaign [ Batched; Propagating; Leased; Sharded 2 ])
        [ t ]
  | None -> failwith "everything template missing")
