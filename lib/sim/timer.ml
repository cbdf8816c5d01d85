(* The callback lives in the armed timer's event only: cancelling
   removes that event from the engine's queue and firing pops it, so
   afterwards nothing the callback captured is pinned. The event still
   checks the state, for a timer cancelled while its engine was not the
   one running. *)
type state = Armed of Engine.event | Fired | Cancelled

type t = { mutable state : state }

let after d f =
  (* [Fired] only until the event exists: nothing can observe it. *)
  let t = { state = Fired } in
  t.state <-
    Armed
      (Engine.arm ~at:(Engine.now () +. d) (fun () ->
           match t.state with
           | Armed _ ->
               t.state <- Fired;
               Engine.spawn ~name:"timer" f
           | Fired | Cancelled -> ()));
  t

let cancel t =
  match t.state with
  | Armed ev ->
      t.state <- Cancelled;
      Engine.cancel ev
  | Fired | Cancelled -> ()

let fired t = match t.state with Fired -> true | Armed _ | Cancelled -> false

let cancelled t =
  match t.state with Cancelled -> true | Armed _ | Fired -> false
