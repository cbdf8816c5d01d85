(* The callback lives in the [Armed] state only: cancelling or firing
   drops it, so the event still queued for the deadline pins the small
   timer record and nothing the callback captured. *)
type state = Armed of (unit -> unit) | Fired | Cancelled

type t = { mutable state : state }

let after d f =
  let t = { state = Armed f } in
  Engine.schedule ~at:(Engine.now () +. d) (fun () ->
      match t.state with
      | Armed f ->
          t.state <- Fired;
          Engine.spawn ~name:"timer" f
      | Fired | Cancelled -> ());
  t

let cancel t =
  match t.state with Armed _ -> t.state <- Cancelled | Fired | Cancelled -> ()

let fired t = match t.state with Fired -> true | Armed _ | Cancelled -> false

let cancelled t =
  match t.state with Cancelled -> true | Armed _ | Fired -> false
