open Fdsl.Ast

let key prefix input = Concat [ Str prefix; Input input ]

let transfer fn_name ~src ~dst =
  {
    fn_name;
    params = [ "src"; "dst" ];
    body =
      Compute
        ( 1.0,
          Let
            ( "s",
              Read (key src "src"),
              Let
                ( "d",
                  Read (key dst "dst"),
                  Seq
                    [
                      Write (key src "src", Binop (Sub, Var "s", Int 1L));
                      Write (key dst "dst", Binop (Add, Var "d", Int 1L));
                      Var "d";
                    ] ) ) );
  }

let post =
  {
    fn_name = "post";
    params = [ "w"; "txt" ];
    body =
      Compute
        ( 1.0,
          Let
            ( "cur",
              Read (key "wall:" "w"),
              Seq
                [
                  Write
                    (key "wall:" "w", Concat [ Var "cur"; Str "|"; Input "txt" ]);
                  Var "cur";
                ] ) );
  }

let read_wall =
  {
    fn_name = "read_wall";
    params = [ "w" ];
    body = Compute (0.5, Read (key "wall:" "w"));
  }
