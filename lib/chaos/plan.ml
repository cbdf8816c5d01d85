open Sim

type msg_filter = {
  f_label : string option;
  f_src : Net.Location.t option;
  f_dst : Net.Location.t option;
}

let any_message = { f_label = None; f_src = None; f_dst = None }

let followups ?src () = { f_label = Some "followup"; f_src = src; f_dst = None }

let cache_updates ?dst () =
  { f_label = Some "cache_update"; f_src = None; f_dst = dst }

let shard_prepares () =
  { f_label = Some "shard_prepare"; f_src = None; f_dst = None }

let shard_decides () =
  { f_label = Some "shard_decide"; f_src = None; f_dst = None }

let lease_revokes ?dst () =
  { f_label = Some "lease_revoke"; f_src = None; f_dst = dst }

type action =
  | Drop_messages of { filter : msg_filter; prob : float; duration : float }
  | Duplicate_messages of {
      filter : msg_filter;
      prob : float;
      duration : float;
    }
  | Delay_messages of {
      filter : msg_filter;
      extra : float;
      prob : float;
      duration : float;
    }
  | Partition of { group : Net.Location.t list; duration : float }
  | Crash_raft_node of { victim : [ `Leader | `Node of int ]; downtime : float }
  | Restart_server
  | Restart_shard of int
  | Crash_shard_leader of { shard : int; downtime : float }
  | Wipe_cache of Net.Location.t
  | Pause_site of { loc : Net.Location.t; duration : float }

type event = { at : float; ev_seed : int; action : action }

type t = event list

let event ?(seed = 0) ~at action = { at; ev_seed = seed; action }

let duration_of = function
  | Drop_messages { duration; _ }
  | Duplicate_messages { duration; _ }
  | Delay_messages { duration; _ }
  | Partition { duration; _ }
  | Pause_site { duration; _ } ->
      duration
  | Crash_raft_node { downtime; _ } | Crash_shard_leader { downtime; _ } ->
      downtime
  | Restart_server | Restart_shard _ | Wipe_cache _ -> 0.0

let horizon_of plan =
  List.fold_left
    (fun acc e -> Float.max acc (e.at +. duration_of e.action))
    0.0 plan

let pp_filter ppf f =
  let part name = function None -> "" | Some v -> Printf.sprintf " %s=%s" name v in
  Format.fprintf ppf "%s%s%s"
    (match f.f_label with None -> "any" | Some l -> l)
    (part "src" f.f_src) (part "dst" f.f_dst)

let pp_action ppf = function
  | Drop_messages { filter; prob; duration } ->
      Format.fprintf ppf "drop %a p=%.2f for %.0f ms" pp_filter filter prob
        duration
  | Duplicate_messages { filter; prob; duration } ->
      Format.fprintf ppf "duplicate %a p=%.2f for %.0f ms" pp_filter filter
        prob duration
  | Delay_messages { filter; extra; prob; duration } ->
      Format.fprintf ppf "delay %a +%.0f ms p=%.2f for %.0f ms" pp_filter
        filter extra prob duration
  | Partition { group; duration } ->
      Format.fprintf ppf "partition {%s} for %.0f ms" (String.concat "," group)
        duration
  | Crash_raft_node { victim; downtime } ->
      Format.fprintf ppf "crash raft %s for %.0f ms"
        (match victim with `Leader -> "leader" | `Node i -> "node " ^ string_of_int i)
        downtime
  | Restart_server -> Format.fprintf ppf "restart LVI server"
  | Restart_shard i -> Format.fprintf ppf "restart shard %d's LVI server" i
  | Crash_shard_leader { shard; downtime } ->
      Format.fprintf ppf "crash shard %d's raft leader for %.0f ms" shard
        downtime
  | Wipe_cache loc -> Format.fprintf ppf "wipe cache at %s" loc
  | Pause_site { loc; duration } ->
      Format.fprintf ppf "pause site %s for %.0f ms" loc duration

let pp_event ppf e =
  Format.fprintf ppf "[%8.1f ms] %a" e.at pp_action e.action

let pp ppf plan =
  match plan with
  | [] -> Format.fprintf ppf "(empty plan)"
  | events ->
      Format.fprintf ppf "@[<v>%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_event)
        events

let to_string plan = Format.asprintf "%a" pp plan

(* --- Templates ------------------------------------------------------- *)

type template = {
  t_name : string;
  t_replicated_only : bool;
  t_gen :
    rng:Sim.Rng.t -> horizon:float -> locations:Net.Location.t list -> t;
}

(* Every generated event carries its own seed so shrinking (removing
   events) never changes the per-message decisions of the survivors. *)
let fresh_seed rng = Rng.int rng 0x3FFFFFFF

let pick rng l = List.nth l (Rng.int rng (List.length l))

(* An instant early enough that [span] more ms still fit under the
   horizon. *)
let start_at rng ~horizon span =
  Rng.uniform rng 100.0 (Float.max 200.0 (horizon -. span))

let sort_by_time events =
  List.stable_sort (fun a b -> Float.compare a.at b.at) events

let followup_storm =
  {
    t_name = "followup-storm";
    t_replicated_only = false;
    t_gen =
      (fun ~rng ~horizon ~locations ->
        let n = 1 + Rng.int rng 3 in
        sort_by_time
          (List.init n (fun _ ->
               let duration = Rng.uniform rng 400.0 1500.0 in
               let src =
                 if Rng.bool rng then Some (pick rng locations) else None
               in
               {
                 at = start_at rng ~horizon duration;
                 ev_seed = fresh_seed rng;
                 action =
                   Drop_messages
                     {
                       filter = followups ?src ();
                       prob = Rng.uniform rng 0.5 1.0;
                       duration;
                     };
               })));
  }

let message_chaos =
  {
    t_name = "message-chaos";
    t_replicated_only = false;
    t_gen =
      (fun ~rng ~horizon ~locations:_ ->
        let drops =
          List.init
            (1 + Rng.int rng 2)
            (fun _ ->
              let duration = Rng.uniform rng 300.0 1200.0 in
              {
                at = start_at rng ~horizon duration;
                ev_seed = fresh_seed rng;
                action =
                  (* Only followups drop: they are fire-and-forget and
                     recovered by intent timers. Request/response
                     traffic has no client retry, so templates never
                     drop it outright — they delay it instead. *)
                  Drop_messages
                    {
                      filter = followups ();
                      prob = Rng.uniform rng 0.1 0.4;
                      duration;
                    };
              })
        in
        let delays =
          List.init
            (1 + Rng.int rng 2)
            (fun _ ->
              let duration = Rng.uniform rng 400.0 1500.0 in
              {
                at = start_at rng ~horizon duration;
                ev_seed = fresh_seed rng;
                action =
                  Delay_messages
                    {
                      filter = any_message;
                      extra = Rng.uniform rng 50.0 500.0;
                      prob = Rng.uniform rng 0.1 0.4;
                      duration;
                    };
              })
        in
        sort_by_time (drops @ delays));
  }

let cache_loss =
  {
    t_name = "cache-loss";
    t_replicated_only = false;
    t_gen =
      (fun ~rng ~horizon ~locations ->
        let wipes =
          List.init
            (1 + Rng.int rng 3)
            (fun _ ->
              {
                at = start_at rng ~horizon 0.0;
                ev_seed = fresh_seed rng;
                action = Wipe_cache (pick rng locations);
              })
        in
        let pauses =
          if Rng.bool rng then
            let duration = Rng.uniform rng 200.0 900.0 in
            [
              {
                at = start_at rng ~horizon duration;
                ev_seed = fresh_seed rng;
                action = Pause_site { loc = pick rng locations; duration };
              };
            ]
          else []
        in
        sort_by_time (wipes @ pauses));
  }

let server_restart =
  {
    t_name = "server-restart";
    t_replicated_only = false;
    t_gen =
      (fun ~rng ~horizon ~locations ->
        (* Slow the followups down so a restart catches intents mid
           flight — the non-quiescent recovery path. *)
        let duration = Rng.uniform rng 1200.0 2500.0 in
        let at = start_at rng ~horizon (duration +. 500.0) in
        let delay =
          {
            at;
            ev_seed = fresh_seed rng;
            action =
              Delay_messages
                {
                  filter = followups ();
                  extra = Rng.uniform rng 800.0 2000.0;
                  prob = 1.0;
                  duration;
                };
          }
        in
        let restarts =
          List.init
            (1 + Rng.int rng 2)
            (fun _ ->
              {
                at = Rng.uniform rng (at +. 100.0) (at +. duration);
                ev_seed = fresh_seed rng;
                action = Restart_server;
              })
        in
        let wipe =
          if Rng.bool rng then
            [
              {
                at = start_at rng ~horizon 0.0;
                ev_seed = fresh_seed rng;
                action = Wipe_cache (pick rng locations);
              };
            ]
          else []
        in
        sort_by_time ((delay :: restarts) @ wipe));
  }

let partition_heal =
  {
    t_name = "partition-heal";
    t_replicated_only = false;
    t_gen =
      (fun ~rng ~horizon ~locations ->
        let n = 1 + Rng.int rng 2 in
        sort_by_time
          (List.init n (fun _ ->
               let duration = Rng.uniform rng 300.0 1200.0 in
               (* Cut 1-2 user sites off; never an empty or full group. *)
               let shuffled = Array.of_list locations in
               Rng.shuffle rng shuffled;
               let k =
                 1 + Rng.int rng (max 1 (Array.length shuffled - 1) |> min 2)
               in
               let group = Array.to_list (Array.sub shuffled 0 k) in
               {
                 at = start_at rng ~horizon duration;
                 ev_seed = fresh_seed rng;
                 action = Partition { group; duration };
               })));
  }

let raft_churn =
  {
    t_name = "raft-churn";
    t_replicated_only = true;
    t_gen =
      (fun ~rng ~horizon ~locations:_ ->
        let n = 1 + Rng.int rng 2 in
        sort_by_time
          (List.init n (fun _ ->
               let downtime = Rng.uniform rng 300.0 1200.0 in
               let victim =
                 if Rng.int rng 3 < 2 then `Leader else `Node (Rng.int rng 3)
               in
               {
                 at = start_at rng ~horizon downtime;
                 ev_seed = fresh_seed rng;
                 action = Crash_raft_node { victim; downtime };
               })));
  }

let everything =
  {
    t_name = "everything";
    t_replicated_only = false;
    t_gen =
      (fun ~rng ~horizon ~locations ->
        sort_by_time
          (followup_storm.t_gen ~rng ~horizon ~locations
          @ cache_loss.t_gen ~rng ~horizon ~locations
          @ message_chaos.t_gen ~rng ~horizon ~locations));
  }

let propagation_chaos =
  {
    t_name = "propagation-chaos";
    t_replicated_only = false;
    t_gen =
      (fun ~rng ~horizon ~locations ->
        (* The cache-update channel is fire-and-forget and its installs
           are version-guarded, so unlike request traffic it may be
           dropped, duplicated and delayed outright — the coherence
           oracle must hold regardless. A low-probability duplication
           of *all* traffic rides along to exercise the server's reply
           cache on LVI and direct-exec deliveries. *)
        let prop_faults kind =
          List.init
            (1 + Rng.int rng 2)
            (fun _ ->
              let duration = Rng.uniform rng 300.0 1200.0 in
              let dst =
                if Rng.bool rng then Some (pick rng locations) else None
              in
              let filter = cache_updates ?dst () in
              {
                at = start_at rng ~horizon duration;
                ev_seed = fresh_seed rng;
                action =
                  (match kind with
                  | `Drop ->
                      Drop_messages
                        { filter; prob = Rng.uniform rng 0.2 0.8; duration }
                  | `Dup ->
                      Duplicate_messages
                        { filter; prob = Rng.uniform rng 0.2 0.8; duration }
                  | `Delay ->
                      Delay_messages
                        {
                          filter;
                          extra = Rng.uniform rng 50.0 400.0;
                          prob = Rng.uniform rng 0.2 0.8;
                          duration;
                        });
              })
        in
        let dup_any =
          let duration = Rng.uniform rng 300.0 1000.0 in
          [
            {
              at = start_at rng ~horizon duration;
              ev_seed = fresh_seed rng;
              action =
                Duplicate_messages
                  {
                    filter = any_message;
                    prob = Rng.uniform rng 0.1 0.3;
                    duration;
                  };
            };
          ]
        in
        sort_by_time
          (prop_faults `Drop @ prop_faults `Dup @ prop_faults `Delay
         @ dup_any));
  }

let shard_chaos =
  {
    t_name = "shard-chaos";
    t_replicated_only = false;
    t_gen =
      (fun ~rng ~horizon ~locations:_ ->
        (* Stresses the cross-shard commit protocol. Prepares are
           delayed, never dropped: pushing one past the 50 ms
           non-blocking timeout makes the coordinator treat the shard as
           busy and fall back to the sequential blocking round, while
           the late prepare races the round's abort — the supersession
           arithmetic must hold. Decisions are retried until
           acknowledged, so those CAN be dropped outright; a window of
           lost decisions only postpones a participant's release past
           the window, never past the drain. Shard restarts hit a
           participant holding prepared slices (concluded later by
           decision retries) or a coordinator with a pending cross
           intent (re-executed on recovery); leader crashes stall one
           shard's lock persistence mid-prepare. Against a one-shard
           deployment the messages do not exist and the nemesis
           degrades the actions to shard 0 / a skip. *)
        let prepare_delays =
          List.init
            (1 + Rng.int rng 2)
            (fun _ ->
              let duration = Rng.uniform rng 300.0 1200.0 in
              {
                at = start_at rng ~horizon duration;
                ev_seed = fresh_seed rng;
                action =
                  Delay_messages
                    {
                      filter = shard_prepares ();
                      extra = Rng.uniform rng 30.0 400.0;
                      prob = Rng.uniform rng 0.3 1.0;
                      duration;
                    };
              })
        in
        let decide_drops =
          List.init
            (1 + Rng.int rng 2)
            (fun _ ->
              let duration = Rng.uniform rng 300.0 1200.0 in
              {
                at = start_at rng ~horizon duration;
                ev_seed = fresh_seed rng;
                action =
                  Drop_messages
                    {
                      filter = shard_decides ();
                      prob = Rng.uniform rng 0.3 0.9;
                      duration;
                    };
              })
        in
        let restarts =
          List.init
            (1 + Rng.int rng 2)
            (fun _ ->
              {
                at = start_at rng ~horizon 0.0;
                ev_seed = fresh_seed rng;
                action = Restart_shard (Rng.int rng 4);
              })
        in
        let leader_crash =
          if Rng.bool rng then
            let downtime = Rng.uniform rng 300.0 1000.0 in
            [
              {
                at = start_at rng ~horizon downtime;
                ev_seed = fresh_seed rng;
                action =
                  Crash_shard_leader { shard = Rng.int rng 4; downtime };
              };
            ]
          else []
        in
        sort_by_time
          (prepare_delays @ decide_drops @ restarts @ leader_crash));
  }

let lease_chaos =
  {
    t_name = "lease-chaos";
    t_replicated_only = false;
    t_gen =
      (fun ~rng ~horizon ~locations ->
        (* Stresses the read-lease settle protocol. Revocations may be
           dropped or delayed outright: the writer's revocation RPC
           times out and it falls back to waiting out the lease expiry
           plus ε, so a lost revocation only ever slows the write down
           — it must never let a stale lease-local read through.
           Duplicated revocations exercise the site-side fence (the
           second delivery finds the grants already dropped). Cache
           wipes race the version fence: a wiped site re-reads through
           the protocol and may be re-granted mid-settle — the
           [until_leq]-guarded forget must keep the fresh grant alive
           on the server. Delayed cache updates make propagation-borne
           grants arrive long after issue, when the key may have moved
           on; the version re-check at flush time and the issue-time
           fence at the site are the argument. A low-probability
           duplication of all traffic rides along as usual. *)
        let revoke_faults kind =
          List.init
            (1 + Rng.int rng 2)
            (fun _ ->
              let duration = Rng.uniform rng 300.0 1200.0 in
              let dst =
                if Rng.bool rng then Some (pick rng locations) else None
              in
              let filter = lease_revokes ?dst () in
              {
                at = start_at rng ~horizon duration;
                ev_seed = fresh_seed rng;
                action =
                  (match kind with
                  | `Drop ->
                      Drop_messages
                        { filter; prob = Rng.uniform rng 0.3 0.9; duration }
                  | `Dup ->
                      Duplicate_messages
                        { filter; prob = Rng.uniform rng 0.2 0.8; duration }
                  | `Delay ->
                      Delay_messages
                        {
                          filter;
                          extra = Rng.uniform rng 50.0 600.0;
                          prob = Rng.uniform rng 0.3 0.9;
                          duration;
                        });
              })
        in
        let wipes =
          List.init
            (1 + Rng.int rng 2)
            (fun _ ->
              {
                at = start_at rng ~horizon 0.0;
                ev_seed = fresh_seed rng;
                action = Wipe_cache (pick rng locations);
              })
        in
        let update_delays =
          if Rng.bool rng then
            let duration = Rng.uniform rng 300.0 1200.0 in
            [
              {
                at = start_at rng ~horizon duration;
                ev_seed = fresh_seed rng;
                action =
                  Delay_messages
                    {
                      filter = cache_updates ();
                      extra = Rng.uniform rng 100.0 500.0;
                      prob = Rng.uniform rng 0.3 0.9;
                      duration;
                    };
              };
            ]
          else []
        in
        let dup_any =
          let duration = Rng.uniform rng 300.0 1000.0 in
          [
            {
              at = start_at rng ~horizon duration;
              ev_seed = fresh_seed rng;
              action =
                Duplicate_messages
                  {
                    filter = any_message;
                    prob = Rng.uniform rng 0.1 0.3;
                    duration;
                  };
            };
          ]
        in
        sort_by_time
          (revoke_faults `Drop @ revoke_faults `Dup @ revoke_faults `Delay
         @ wipes @ update_delays @ dup_any));
  }

(* New templates append at the end: a template's campaign RNG seed is
   derived from its list index, so insertion in the middle would shift
   every later template's plans under existing seeds. *)
let default_templates =
  [
    followup_storm;
    message_chaos;
    cache_loss;
    server_restart;
    partition_heal;
    raft_churn;
    everything;
    propagation_chaos;
    shard_chaos;
    lease_chaos;
  ]

let find_template name =
  List.find_opt (fun t -> t.t_name = name) default_templates
