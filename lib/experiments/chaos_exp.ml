module Plan = Chaos.Plan

type report = { r_label : string; r_summary : Campaign.summary }

let grid = [ Apps.Bundle.social; Apps.Bundle.forum ]

(* The grid's two server modes: [features] as given (minus
   [Replicated]) and the same with a Raft-replicated server. *)
let cells features =
  let singleton = List.filter (( <> ) Radical.Deployment.Replicated) features in
  [ singleton; Radical.Deployment.Replicated :: singleton ]

let campaign ?(seeds = 50) ?(progress = true) ?(deployment = []) () =
  List.concat_map
    (fun bundle ->
      List.map
        (fun features ->
          let label =
            Printf.sprintf "%s/%s" bundle.Apps.Bundle.name
              (Radical.Deployment.to_string features)
          in
          let config =
            {
              Campaign.default_config with
              deployment =
                Radical.Deployment.config
                  ~base:Campaign.default_config.deployment features;
            }
          in
          let last = ref 0 in
          let on_progress ~done_ ~total =
            if progress && (done_ - !last >= 20 || done_ = total) then begin
              last := done_;
              Printf.printf "  %s: %d/%d runs\r%!" label done_ total;
              if done_ = total then print_newline ()
            end
          in
          let summary =
            Campaign.sweep ~config ~progress:on_progress ~seeds bundle
          in
          { r_label = label; r_summary = summary })
        (cells deployment))
    grid

(* A noisy plan for the teeth demonstration: one full-horizon followup
   blackout (the event that actually interacts with the mutation)
   buried among faults that are survivable on their own. *)
let noisy_mutation_plan =
  [
    Plan.event ~at:50.0
      (Plan.Delay_messages
         {
           filter = Plan.any_message;
           extra = 120.0;
           prob = 1.0;
           duration = 2000.0;
         });
    Plan.event ~at:200.0 (Plan.Wipe_cache Net.Location.ie);
    Plan.event ~at:300.0
      (Plan.Drop_messages
         { filter = Plan.followups (); prob = 1.0; duration = 9000.0 });
    Plan.event ~at:900.0
      (Plan.Pause_site { loc = Net.Location.jp; duration = 400.0 });
    Plan.event ~at:2500.0 (Plan.Wipe_cache Net.Location.ca);
  ]

let demo_mutation ?(seed = 7) () =
  let config =
    {
      Campaign.default_config with
      mutation = Some Radical.Server.Skip_reexecution;
      horizon = 9500.0;
    }
  in
  let app = Apps.Bundle.social in
  let original = noisy_mutation_plan in
  let o = Campaign.run_one ~config ~seed app original in
  Printf.printf
    "mutation Skip_reexecution injected; %d-event plan produced %d \
     violation(s):\n"
    (List.length original)
    (List.length o.violations);
  List.iter
    (fun v -> Format.printf "  %a@." Chaos.Oracle.pp_violation v)
    o.violations;
  let shrunk = Campaign.shrink ~config ~seed app original in
  Format.printf "shrunk to %d event(s):@.%a@." (List.length shrunk) Plan.pp
    shrunk;
  (original, shrunk)

let run ?(seeds = 50) ?(deployment = []) () =
  Runner.heading "Chaos campaign — fault-plan sweeps with invariant oracle";
  Printf.printf
    "grid: {social, forum} x {singleton, replicated} over deployment %s, %d \
     seeds each,\n\
     templates: %s\n"
    (Radical.Deployment.to_string (List.hd (cells deployment)))
    seeds
    (String.concat ", "
       (List.map (fun (t : Plan.template) -> t.t_name) Plan.default_templates));
  let reports = campaign ~seeds ~deployment () in
  let violations = ref 0 in
  List.iter
    (fun r ->
      violations := !violations + List.length r.r_summary.Campaign.failures;
      Format.printf "@.== %s ==@.%a@." r.r_label Campaign.pp_summary
        r.r_summary)
    reports;
  print_newline ();
  print_endline "-- oracle teeth: deliberate protocol mutation --";
  let _original, shrunk = demo_mutation () in
  (if List.length shrunk >= List.length noisy_mutation_plan then begin
     incr violations;
     print_endline "ERROR: shrinking failed to reduce the mutation plan"
   end);
  Printf.printf "\nchaos campaign: %d genuine violation(s)\n" !violations;
  !violations
