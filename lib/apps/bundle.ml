type app = {
  name : string;
  funcs : Fdsl.Ast.func list;
  schema : Fdsl.Typecheck.schema;
  seed : Sim.Rng.t -> (string * Dval.t) list;
  new_gen : unit -> Sim.Rng.t -> string * Dval.t list;
}

let social =
  {
    name = "social";
    funcs = Social.functions;
    schema = Social.schema;
    seed = (fun rng -> Social.seed rng);
    new_gen =
      (fun () ->
        let g = Social.gen () in
        fun rng -> Social.next g rng);
  }

let hotel =
  {
    name = "hotel";
    funcs = Hotel.functions;
    schema = Hotel.schema;
    seed = (fun rng -> Hotel.seed rng);
    new_gen =
      (fun () ->
        let g = Hotel.gen () in
        fun rng -> Hotel.next g rng);
  }

let forum =
  {
    name = "forum";
    funcs = Forum.functions;
    schema = Forum.schema;
    seed = (fun rng -> Forum.seed ~n_posts:2000 rng);
    new_gen =
      (fun () ->
        let g = Forum.gen ~n_posts:2000 () in
        fun rng -> Forum.next g rng);
  }

let evaluated = [ social; hotel; forum ]

let simple =
  let open Fdsl.Ast in
  let n_keys = 200 in
  {
    name = "simple";
    schema = [ ("k:", Fdsl.Types.TStr) ];
    funcs =
      [
        {
          fn_name = "simple";
          params = [ "k" ];
          body = Compute (100.0, Read (Concat [ Str "k:"; Input "k" ]));
        };
      ];
    seed =
      (fun _ ->
        List.init n_keys (fun i ->
            (Printf.sprintf "k:%d" i, Dval.Str (Printf.sprintf "value-%d" i))));
    new_gen =
      (fun () ->
        fun rng ->
         ("simple", [ Dval.Str (string_of_int (Sim.Rng.int rng n_keys)) ]));
  }
