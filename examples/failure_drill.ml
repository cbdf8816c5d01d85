(* Failure drill: exercises Radical's fault-tolerance story end to end —
   lost write followups trigger deterministic re-execution, late
   followups are discarded (at-most-once), wiped caches rebuild
   themselves through normal protocol traffic, and a replicated LVI
   server survives a Raft leader crash.

   The faults are declared as chaos fault plans (lib/chaos) and applied
   by the nemesis on the virtual clock; test/test_chaos.ml runs the same
   scenarios with their assertions as a regression suite.

     dune exec examples/failure_drill.exe *)

open Sim
module Location = Net.Location
module Transport = Net.Transport
module Framework = Radical.Framework
module Plan = Chaos.Plan
module Nemesis = Chaos.Nemesis

let banner s = Printf.printf "\n--- %s ---\n" s

let () =
  let engine = Engine.create ~seed:21 () in
  Engine.run engine (fun () ->
      let net = Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) () in
      let config =
        {
          Framework.default_config with
          server = { Radical.Server.default_config with intent_timeout = 800.0 };
        }
      in
      let data = Apps.Forum.seed ~n_users:50 ~n_posts:50 (Rng.split (Engine.rng ())) in
      let fw =
        Framework.create ~config ~net ~funcs:Apps.Forum.functions ~data ()
      in
      let version_of k =
        match Store.Kv.peek (Framework.primary fw) k with
        | Some { version; _ } -> version
        | None -> 0
      in

      banner "1. Losing a write followup";
      Printf.printf "fpost:p3 score version before: %d\n" (version_of "fpost:p3");
      (* A short followup blackout out of DE, long enough to eat the
         upvote's followup. *)
      let blackout =
        [
          Plan.event ~at:0.0
            (Plan.Drop_messages
               {
                 filter = Plan.followups ~src:Location.de ();
                 prob = 1.0;
                 duration = 600.0;
               });
        ]
      in
      ignore (Nemesis.launch fw blackout);
      print_endline (Plan.to_string blackout);
      let o =
        Framework.invoke fw ~from:Location.de "forum-interact"
          [ Dval.Str "f1"; Dval.Str "p3" ]
      in
      Printf.printf "upvote acknowledged to the client in %.1f ms\n" o.latency;
      print_endline "waiting for the write-intent timer to fire...";
      Engine.sleep 2000.0;
      let st = Radical.Server.stats (Framework.server fw) in
      Printf.printf
        "deterministic re-execution ran %d time(s); version now %d (applied exactly once)\n"
        st.reexecutions (version_of "fpost:p3");
      assert (st.reexecutions = 1 && version_of "fpost:p3" = 2);

      banner "2. A followup that arrives after re-execution";
      (* DE's cache was repaired by its own write, so this upvote takes
         the speculative path again — and its followup crawls. *)
      let crawl =
        [
          Plan.event ~at:0.0
            (Plan.Delay_messages
               {
                 filter = Plan.followups ~src:Location.de ();
                 extra = 3000.0;
                 prob = 1.0;
                 duration = 600.0;
               });
        ]
      in
      ignore (Nemesis.launch fw crawl);
      print_endline (Plan.to_string crawl);
      let _ =
        Framework.invoke fw ~from:Location.de "forum-interact"
          [ Dval.Str "f2"; Dval.Str "p3" ]
      in
      Engine.sleep 5000.0;
      let st = Radical.Server.stats (Framework.server fw) in
      Printf.printf
        "late followup discarded (%d discarded); version %d — no double apply\n"
        st.followups_discarded (version_of "fpost:p3");
      assert (st.followups_discarded = 1);
      assert (version_of "fpost:p3" = 3);

      banner "3. Losing an entire near-user cache";
      let o1 = Framework.invoke fw ~from:Location.jp "forum-view" [ Dval.Str "f1"; Dval.Str "p9" ] in
      Printf.printf "warm read from JP: %.1f ms (%s)\n" o1.latency
        (match o1.path with Radical.Runtime.Speculative -> "speculative" | _ -> "backup");
      ignore (Nemesis.launch fw [ Plan.event ~at:0.0 (Plan.Wipe_cache Location.jp) ]);
      Engine.sleep 1.0;
      print_endline "JP cache wiped!";
      let o2 = Framework.invoke fw ~from:Location.jp "forum-view" [ Dval.Str "f1"; Dval.Str "p9" ] in
      Printf.printf "first read after wipe: %.1f ms (%s — repairs the cache)\n"
        o2.latency
        (match o2.path with Radical.Runtime.Backup -> "backup" | _ -> "speculative");
      let o3 = Framework.invoke fw ~from:Location.jp "forum-view" [ Dval.Str "f1"; Dval.Str "p9" ] in
      Printf.printf "second read: %.1f ms (%s — bootstrap complete)\n" o3.latency
        (match o3.path with Radical.Runtime.Speculative -> "speculative" | _ -> "backup");

      banner "4. Raft-backed replicated LVI server surviving a leader crash";
      Framework.stop fw;
      let config =
        Radical.Deployment.config
          ~base:{ Framework.default_config with locations = [ Location.ca ] }
          [ Replicated ]
      in
      let fw2 =
        Framework.create ~config ~net ~funcs:Apps.Forum.functions ~data ()
      in
      Engine.sleep 1000.0;
      let crash =
        [ Plan.event ~at:0.0 (Plan.Crash_raft_node { victim = `Leader; downtime = 1500.0 }) ]
      in
      let nem = Nemesis.launch fw2 crash in
      print_endline (Plan.to_string crash);
      Engine.sleep 100.0;
      let o =
        Framework.invoke fw2 ~from:Location.ca "forum-interact"
          [ Dval.Str "f3"; Dval.Str "p5" ]
      in
      Printf.printf "upvote despite a crashed leader: %.1f ms\n" o.latency;
      assert (Result.is_ok o.value);
      Engine.sleep 2000.0;
      let s = Nemesis.stats nem in
      Printf.printf
        "lock state is consensus-replicated across 3 AZs (%d fault applied).\n"
        s.applied;
      assert (s.applied = 1);
      Framework.stop fw2;
      print_endline "\nAll drills passed.")
