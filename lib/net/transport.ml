open Sim

type fault = Deliver | Drop | Delay of float | Duplicate

type hook_fn = src:Location.t -> dst:Location.t -> label:string -> fault

type handle = int

type t = {
  rtt : Location.t -> Location.t -> float;
  jitter_sigma : float;
  rng : Rng.t;
  fault_rng : Rng.t;
  (* Independently installed hooks ([add_fault]/[remove_fault]), so a
     nemesis driver coexists with test-local hooks. *)
  mutable hooks : (handle * hook_fn) list; (* oldest first *)
  mutable next_handle : int;
  mutable tracer : Metrics.Tracer.t;
  mutable sent : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable timed_out : int;
  mutable late : int;
}

type ('req, 'resp) service = {
  svc_loc : Location.t;
  svc_name : string;
  svc_reply : string; (* the replies' label *)
  handler : 'req -> 'resp;
}

let create ?(rtt = Location.rtt) ?(jitter_sigma = 0.05)
    ?(tracer = Metrics.Tracer.noop) ?fault_rng ~rng () =
  {
    rtt;
    jitter_sigma;
    rng;
    (* Fault decisions draw from their own stream so that installing a
       probabilistic hook never shifts the jitter multipliers sampled for
       unaffected messages. The default is a fixed-seed generator rather
       than [Rng.split rng] so that creating a transport does not perturb
       the jitter stream of pre-existing seeded runs either. *)
    fault_rng =
      (match fault_rng with Some r -> r | None -> Rng.create 0x6661756c74);
    hooks = [];
    next_handle = 0;
    tracer;
    sent = 0;
    dropped = 0;
    duplicated = 0;
    timed_out = 0;
    late = 0;
  }

let set_tracer t tracer = t.tracer <- tracer

let fault_rng t = t.fault_rng

let one_way t src dst =
  let base = t.rtt src dst /. 2.0 in
  if t.jitter_sigma <= 0.0 then base
  else
    (* mu = -sigma^2/2 keeps the multiplier's mean at 1, so medians track
       the matrix while the tail furnishes a p99. *)
    let s = t.jitter_sigma in
    base *. Rng.lognormal t.rng ~mu:(-.s *. s /. 2.0) ~sigma:s

let add_fault t hook =
  let h = t.next_handle in
  t.next_handle <- t.next_handle + 1;
  t.hooks <- t.hooks @ [ (h, hook) ];
  h

let remove_fault t handle = t.hooks <- List.remove_assoc handle t.hooks

let active_faults t = List.length t.hooks

let partition t group =
  let inside loc = List.mem loc group in
  add_fault t (fun ~src ~dst ~label:_ ->
      if inside src <> inside dst then Drop else Deliver)

(* Hooks are consulted in installation order; the first non-[Deliver]
   verdict decides the message's fate. *)
let fault_verdict t ~src ~dst ~label =
  let rec first = function
    | [] -> Deliver
    | (_, hook) :: rest -> (
        match hook ~src ~dst ~label with
        | Deliver -> first rest
        | verdict -> verdict)
  in
  first t.hooks

let serve ~loc ~name handler =
  { svc_loc = loc; svc_name = name; svc_reply = name ^ ":reply"; handler }

let service_location svc = svc.svc_loc

let max_message_age = 10_000.0

(* Schedule one copy of a message [d] virtual ms from now, unless [d]
   exceeds the maximum message lifetime: such a copy is dropped. Every
   delivered copy therefore arrives within [max_message_age] of its send,
   which is what lets receivers forget their dedup state. *)
let send_copy t ~label d k =
  if d > max_message_age then begin
    t.dropped <- t.dropped + 1;
    Metrics.Tracer.record_fault t.tracer ~label ~outcome:"expired"
  end
  else begin
    Metrics.Tracer.record_wire t.tracer ~label d;
    Engine.schedule ~at:(Engine.now () +. d) k
  end

(* Deliver [k] at [dst] after sampled latency, subject to the fault hooks. *)
let transmit t ~src ~dst ~label k =
  t.sent <- t.sent + 1;
  match fault_verdict t ~src ~dst ~label with
  | Drop ->
      t.dropped <- t.dropped + 1;
      Metrics.Tracer.record_fault t.tracer ~label ~outcome:"drop"
  | Deliver -> send_copy t ~label (one_way t src dst) k
  | Delay extra ->
      let d = one_way t src dst +. extra in
      Metrics.Tracer.record_fault t.tracer ~label ~outcome:"delay";
      send_copy t ~label d k
  | Duplicate ->
      (* At-least-once delivery: the message arrives twice, each copy
         with its own sampled latency, so the duplicate may also be
         reordered ahead of the original. [k] runs once per copy —
         receivers must dedupe. Both copies leave now, so both arrive
         within the lifetime of this send. *)
      t.duplicated <- t.duplicated + 1;
      Metrics.Tracer.record_fault t.tracer ~label ~outcome:"duplicate";
      let d1 = one_way t src dst in
      let d2 = one_way t src dst in
      send_copy t ~label d1 k;
      send_copy t ~label d2 k

let dispatch t ~from svc req ~on_reply =
  transmit t ~src:from ~dst:svc.svc_loc ~label:svc.svc_name (fun () ->
      Engine.spawn ~name:svc.svc_name (fun () ->
          let resp = svc.handler req in
          transmit t ~src:svc.svc_loc ~dst:from ~label:svc.svc_reply
            (fun () -> on_reply resp)))

let call t ~from svc req =
  let iv = Ivar.create () in
  dispatch t ~from svc req ~on_reply:(fun resp -> Ivar.try_fill iv resp |> ignore);
  Ivar.read iv

let call_timeout t ~from ~timeout svc req =
  let iv = Ivar.create () in
  (* The timer is cancelled the moment the reply wins the race, so a
     completed call leaves no live timeout behind; a reply that loses the
     race is counted as late instead of silently vanishing. *)
  let timer = ref None in
  dispatch t ~from svc req ~on_reply:(fun resp ->
      if Ivar.try_fill iv (Some resp) then Option.iter Timer.cancel !timer
      else begin
        t.late <- t.late + 1;
        Metrics.Tracer.record_fault t.tracer ~label:svc.svc_name
          ~outcome:"late_reply"
      end);
  timer :=
    Some
      (Timer.after timeout (fun () ->
           if Ivar.try_fill iv None then t.timed_out <- t.timed_out + 1));
  Ivar.read iv

let post t ~from svc req =
  dispatch t ~from svc req ~on_reply:(fun _ -> ())

let messages_sent t = t.sent

let messages_dropped t = t.dropped

let messages_duplicated t = t.duplicated

let calls_timed_out t = t.timed_out

let late_replies t = t.late
