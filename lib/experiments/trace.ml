open Sim
module Location = Net.Location

type event = {
  at : float;
  from : Net.Location.t;
  fn : string;
  args : Dval.t list;
}

type t = event list

let generate ?(seed = 42) ?(rate = 100.0) ?(duration = 10_000.0)
    ?(locations = Location.user_locations) (app : Apps.Bundle.app) =
  let rng = Rng.create seed in
  let gen = app.new_gen () in
  let n_locs = List.length locations in
  let rec arrivals now i acc =
    let now = now +. Rng.exponential rng ~mean:(1000.0 /. rate) in
    if now >= duration then List.rev acc
    else
      let fn, args = gen rng in
      let from = List.nth locations (i mod n_locs) in
      arrivals now (i + 1) ({ at = now; from; fn; args } :: acc)
  in
  arrivals 0.0 0 []

(* --- Persistence ------------------------------------------------------ *)

let rec expr_of_dval (d : Dval.t) : Fdsl.Ast.expr =
  match d with
  | Unit -> Fdsl.Ast.Unit
  | Bool b -> Fdsl.Ast.Bool b
  | Int i -> Fdsl.Ast.Int i
  | Str s -> Fdsl.Ast.Str s
  | List xs -> Fdsl.Ast.List_lit (List.map expr_of_dval xs)
  | Record [] ->
      (* The literal syntax cannot express an empty record. *)
      invalid_arg "Trace.save: empty record argument"
  | Record fs ->
      Fdsl.Ast.Record_lit (List.map (fun (k, v) -> (k, expr_of_dval v)) fs)

let save trace path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun e ->
          Printf.fprintf oc "%.3f\t%s\t%s\t%s\n" e.at e.from e.fn
            (Fdsl.Parse.to_source
               (Fdsl.Ast.List_lit (List.map expr_of_dval e.args))))
        trace)

let parse_args source =
  match Fdsl.Parse.expr source with
  | Error e -> Error (Format.asprintf "%a" Fdsl.Parse.pp_error e)
  | Ok expr -> (
      match Fdsl.Eval.eval_expr (Fdsl.Eval.host ()) [] expr with
      | Dval.List args -> Ok args
      | other -> Error ("expected an argument list, got " ^ Dval.to_string other)
      | exception Fdsl.Eval.Error m -> Error m)

let load path =
  try
    let lines =
      In_channel.with_open_text path In_channel.input_lines
    in
    let events =
      List.filter_map
        (fun line ->
          if String.trim line = "" then None
          else
            match String.split_on_char '\t' line with
            | [ at; from; fn; args_src ] -> (
                match (float_of_string_opt at, parse_args args_src) with
                | Some at, Ok args -> Some (Ok { at; from; fn; args })
                | None, _ -> Some (Error ("bad timestamp in: " ^ line))
                | _, Error e -> Some (Error e))
            | _ -> Some (Error ("malformed line: " ^ line)))
        lines
    in
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | Ok e :: rest -> collect (e :: acc) rest
      | Error m :: _ -> Error m
    in
    collect [] events
  with Sys_error m -> Error m

(* --- Replay ------------------------------------------------------------ *)

let replay ?(seed = 42) system app trace =
  Runner.collect ~seed ~jitter:0.05 ~tracer:Metrics.Tracer.noop
    ~locations:Location.user_locations system app (fun _ invoke ->
      let outstanding = ref 0 in
      let all_done = Ivar.create () in
      List.iter
        (fun e ->
          incr outstanding;
          Engine.schedule ~at:e.at (fun () ->
              Engine.spawn ~name:"replay" (fun () ->
                  invoke ~from:e.from e.fn e.args;
                  decr outstanding;
                  if !outstanding = 0 then Ivar.try_fill all_done () |> ignore)))
        trace;
      if !outstanding > 0 then Ivar.read all_done)
