type error = { line : int; col : int; message : string }

let pp_error fmt e =
  Format.fprintf fmt "line %d, column %d: %s" e.line e.col e.message

type token =
  | INT of int64
  | FLOAT of float
  | STRING of string
  | IDENT of string
  | KW_FN
  | KW_LET
  | KW_IF
  | KW_ELSE
  | KW_FOREACH
  | KW_IN
  | KW_COMPUTE
  | KW_TRUE
  | KW_FALSE
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | COLON
  | DOT
  | ASSIGN
  | PLUSPLUS
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | EQEQ
  | NEQ
  | LEQ
  | GEQ
  | LT
  | GT
  | ANDAND
  | OROR
  | BANG
  | EOF

let token_name = function
  | INT _ -> "integer"
  | FLOAT _ -> "float"
  | STRING _ -> "string"
  | IDENT s -> Printf.sprintf "identifier %S" s
  | KW_FN -> "'fn'"
  | KW_LET -> "'let'"
  | KW_IF -> "'if'"
  | KW_ELSE -> "'else'"
  | KW_FOREACH -> "'foreach'"
  | KW_IN -> "'in'"
  | KW_COMPUTE -> "'compute'"
  | KW_TRUE -> "'true'"
  | KW_FALSE -> "'false'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | COMMA -> "','"
  | SEMI -> "';'"
  | COLON -> "':'"
  | DOT -> "'.'"
  | ASSIGN -> "'='"
  | PLUSPLUS -> "'++'"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | PERCENT -> "'%'"
  | EQEQ -> "'=='"
  | NEQ -> "'!='"
  | LEQ -> "'<='"
  | GEQ -> "'>='"
  | LT -> "'<'"
  | GT -> "'>'"
  | ANDAND -> "'&&'"
  | OROR -> "'||'"
  | BANG -> "'!'"
  | EOF -> "end of input"

exception Err of error

let err line col fmt =
  Format.kasprintf (fun message -> raise (Err { line; col; message })) fmt

(* --- Lexer ------------------------------------------------------------ *)

type ptok = { tok : token; t_line : int; t_col : int }

let keywords =
  [
    ("fn", KW_FN); ("let", KW_LET); ("if", KW_IF); ("else", KW_ELSE);
    ("foreach", KW_FOREACH); ("in", KW_IN); ("compute", KW_COMPUTE);
    ("true", KW_TRUE); ("false", KW_FALSE);
  ]
  [@@ocamlformat "disable"]

let lex source =
  let n = String.length source in
  let toks = ref [] in
  let line = ref 1 and col = ref 1 and pos = ref 0 in
  let emit tok t_line t_col = toks := { tok; t_line; t_col } :: !toks in
  let advance () =
    (if source.[!pos] = '\n' then begin
       incr line;
       col := 1
     end
     else incr col);
    incr pos
  in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_'
  in
  while !pos < n do
    let c = source.[!pos] in
    let l0 = !line and c0 = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '#' then
      while !pos < n && source.[!pos] <> '\n' do
        advance ()
      done
    else if c >= '0' && c <= '9' then begin
      let start = !pos in
      while !pos < n && source.[!pos] >= '0' && source.[!pos] <= '9' do
        advance ()
      done;
      if !pos < n && source.[!pos] = '.' && !pos + 1 < n
         && source.[!pos + 1] >= '0' && source.[!pos + 1] <= '9'
      then begin
        advance ();
        while !pos < n && source.[!pos] >= '0' && source.[!pos] <= '9' do
          advance ()
        done;
        emit (FLOAT (float_of_string (String.sub source start (!pos - start)))) l0 c0
      end
      else
        emit (INT (Int64.of_string (String.sub source start (!pos - start)))) l0 c0
    end
    else if is_ident_char c && not (c >= '0' && c <= '9') then begin
      let start = !pos in
      while !pos < n && is_ident_char source.[!pos] do
        advance ()
      done;
      let word = String.sub source start (!pos - start) in
      emit
        (match List.assoc_opt word keywords with
        | Some kw -> kw
        | None -> IDENT word)
        l0 c0
    end
    else if c = '"' then begin
      advance ();
      let buf = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !pos < n do
        let ch = source.[!pos] in
        if ch = '"' then begin
          advance ();
          closed := true
        end
        else if ch = '\\' && !pos + 1 < n then begin
          advance ();
          (match source.[!pos] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | other -> Buffer.add_char buf other);
          advance ()
        end
        else begin
          Buffer.add_char buf ch;
          advance ()
        end
      done;
      if not !closed then err l0 c0 "unterminated string literal";
      emit (STRING (Buffer.contents buf)) l0 c0
    end
    else begin
      let two =
        if !pos + 1 < n then Some (String.sub source !pos 2) else None
      in
      let emit2 tok =
        advance ();
        advance ();
        emit tok l0 c0
      in
      match two with
      | Some "++" -> emit2 PLUSPLUS
      | Some "==" -> emit2 EQEQ
      | Some "!=" -> emit2 NEQ
      | Some "<=" -> emit2 LEQ
      | Some ">=" -> emit2 GEQ
      | Some "&&" -> emit2 ANDAND
      | Some "||" -> emit2 OROR
      | _ -> (
          advance ();
          let one tok = emit tok l0 c0 in
          match c with
          | '(' -> one LPAREN
          | ')' -> one RPAREN
          | '{' -> one LBRACE
          | '}' -> one RBRACE
          | '[' -> one LBRACKET
          | ']' -> one RBRACKET
          | ',' -> one COMMA
          | ';' -> one SEMI
          | ':' -> one COLON
          | '.' -> one DOT
          | '=' -> one ASSIGN
          | '+' -> one PLUS
          | '-' -> one MINUS
          | '*' -> one STAR
          | '/' -> one SLASH
          | '%' -> one PERCENT
          | '<' -> one LT
          | '>' -> one GT
          | '!' -> one BANG
          | other -> err l0 c0 "unexpected character %C" other)
    end
  done;
  emit EOF !line !col;
  Array.of_list (List.rev !toks)

(* --- Parser ----------------------------------------------------------- *)

type state = { toks : ptok array; mutable i : int }

let peek st = st.toks.(st.i).tok

let peek2 st =
  if st.i + 1 < Array.length st.toks then st.toks.(st.i + 1).tok else EOF

let here st = (st.toks.(st.i).t_line, st.toks.(st.i).t_col)

let advance st = st.i <- st.i + 1

let expect st tok =
  if peek st = tok then advance st
  else
    let l, c = here st in
    err l c "expected %s, found %s" (token_name tok) (token_name (peek st))

let ident st =
  match peek st with
  | IDENT x ->
      advance st;
      x
  | other ->
      let l, c = here st in
      err l c "expected an identifier, found %s" (token_name other)

let number st =
  match peek st with
  | FLOAT f ->
      advance st;
      f
  | INT i ->
      advance st;
      Int64.to_float i
  | other ->
      let l, c = here st in
      err l c "expected a number, found %s" (token_name other)

(* Builtin call arities; [setf]'s field and [external]'s service name are
   handled specially in [primary]. *)
let rec expr st : Ast.expr = or_expr st

and or_expr st =
  let left = and_expr st in
  if peek st = OROR then begin
    advance st;
    Ast.Binop (Or, left, or_expr st)
  end
  else left

and and_expr st =
  let left = cmp_expr st in
  if peek st = ANDAND then begin
    advance st;
    Ast.Binop (And, left, and_expr st)
  end
  else left

and cmp_expr st =
  let left = concat_expr st in
  let op =
    match peek st with
    | EQEQ -> Some Ast.Eq
    | NEQ -> Some Ast.Ne
    | LT -> Some Ast.Lt
    | GT -> Some Ast.Gt
    | LEQ -> Some Ast.Le
    | GEQ -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> left
  | Some op ->
      advance st;
      Ast.Binop (op, left, concat_expr st)

and concat_expr st =
  let first = add_expr st in
  if peek st = PLUSPLUS then begin
    let parts = ref [ first ] in
    while peek st = PLUSPLUS do
      advance st;
      parts := add_expr st :: !parts
    done;
    Ast.Concat (List.rev !parts)
  end
  else first

and add_expr st =
  let left = ref (mul_expr st) in
  let continue_loop = ref true in
  while !continue_loop do
    match peek st with
    | PLUS ->
        advance st;
        left := Ast.Binop (Add, !left, mul_expr st)
    | MINUS ->
        advance st;
        left := Ast.Binop (Sub, !left, mul_expr st)
    | _ -> continue_loop := false
  done;
  !left

and mul_expr st =
  let left = ref (unary_expr st) in
  let continue_loop = ref true in
  while !continue_loop do
    match peek st with
    | STAR ->
        advance st;
        left := Ast.Binop (Mul, !left, unary_expr st)
    | SLASH ->
        advance st;
        left := Ast.Binop (Div, !left, unary_expr st)
    | PERCENT ->
        advance st;
        left := Ast.Binop (Mod, !left, unary_expr st)
    | _ -> continue_loop := false
  done;
  !left

and unary_expr st =
  if peek st = BANG then begin
    advance st;
    Ast.Not (unary_expr st)
  end
  else postfix_expr st

and postfix_expr st =
  let e = ref (primary st) in
  let continue_loop = ref true in
  while !continue_loop do
    match peek st with
    | DOT ->
        advance st;
        e := Ast.Field (!e, ident st)
    | LBRACKET ->
        advance st;
        let idx = expr st in
        expect st RBRACKET;
        e := Ast.Nth (!e, idx)
    | _ -> continue_loop := false
  done;
  !e

and call_args st =
  expect st LPAREN;
  if peek st = RPAREN then begin
    advance st;
    []
  end
  else begin
    let args = ref [ expr st ] in
    while peek st = COMMA do
      advance st;
      args := expr st :: !args
    done;
    expect st RPAREN;
    List.rev !args
  end

and builtin st name =
  let l, c = here st in
  let args n =
    let got = call_args st in
    if List.length got <> n then
      err l c "%s expects %d argument(s), got %d" name n (List.length got);
    got
  in
  match name with
  | "read" -> ( match args 1 with [ k ] -> Ast.Read k | _ -> assert false)
  | "write" -> (
      match args 2 with [ k; v ] -> Ast.Write (k, v) | _ -> assert false)
  | "take" -> (
      match args 2 with [ l; n ] -> Ast.Take (l, n) | _ -> assert false)
  | "len" -> ( match args 1 with [ l ] -> Ast.Length l | _ -> assert false)
  | "append" -> (
      match args 2 with [ l; x ] -> Ast.Append (l, x) | _ -> assert false)
  | "prepend" -> (
      match args 2 with [ l; x ] -> Ast.Prepend (l, x) | _ -> assert false)
  | "extend" -> (
      match args 2 with [ a; b ] -> Ast.Concat_list (a, b) | _ -> assert false)
  | "str" -> ( match args 1 with [ e ] -> Ast.Str_of_int e | _ -> assert false)
  | "opaque" -> ( match args 1 with [ e ] -> Ast.Opaque e | _ -> assert false)
  | "time_now" ->
      let _ = args 0 in
      Ast.Time_now
  | "random_int" -> (
      match args 1 with
      | [ Ast.Int n ] -> Ast.Random_int (Int64.to_int n)
      | _ -> err l c "random_int expects an integer literal")
  | "setf" ->
      expect st LPAREN;
      let r = expr st in
      expect st COMMA;
      let field = ident st in
      expect st COMMA;
      let v = expr st in
      expect st RPAREN;
      Ast.Set_field (r, field, v)
  | "external" -> (
      expect st LPAREN;
      match peek st with
      | STRING svc ->
          advance st;
          expect st COMMA;
          let payload = expr st in
          expect st RPAREN;
          Ast.External (svc, payload)
      | _ -> err l c "external expects a string service name")
  | _ -> err l c "unknown function %S" name

and primary st : Ast.expr =
  match peek st with
  | MINUS -> (
      advance st;
      match peek st with
      | INT i ->
          advance st;
          Ast.Int (Int64.neg i)
      | other ->
          let l, c = here st in
          err l c "expected a number after '-', found %s" (token_name other))
  | INT i ->
      advance st;
      Ast.Int i
  | STRING s ->
      advance st;
      Ast.Str s
  | KW_TRUE ->
      advance st;
      Ast.Bool true
  | KW_FALSE ->
      advance st;
      Ast.Bool false
  | KW_IF ->
      advance st;
      let c = expr st in
      let t = block st in
      let e =
        if peek st = KW_ELSE then begin
          advance st;
          block st
        end
        else Ast.Unit
      in
      Ast.If (c, t, e)
  | KW_FOREACH ->
      advance st;
      let x = ident st in
      expect st KW_IN;
      let l = expr st in
      let body = block st in
      Ast.Foreach (x, l, body)
  | KW_COMPUTE ->
      advance st;
      let ms = number st in
      let body = block st in
      Ast.Compute (ms, body)
  | IDENT name -> (
      advance st;
      if peek st = LPAREN then builtin st name else Ast.Var name)
  | LPAREN ->
      advance st;
      if peek st = RPAREN then begin
        advance st;
        Ast.Unit
      end
      else begin
        let e = expr st in
        expect st RPAREN;
        e
      end
  | LBRACKET ->
      advance st;
      if peek st = RBRACKET then begin
        advance st;
        Ast.List_lit []
      end
      else begin
        let items = ref [ expr st ] in
        while peek st = COMMA do
          advance st;
          items := expr st :: !items
        done;
        expect st RBRACKET;
        Ast.List_lit (List.rev !items)
      end
  | LBRACE -> (
      (* Record literal if it starts with [ident :], else a block. *)
      match (peek2 st, st.toks.(min (st.i + 2) (Array.length st.toks - 1)).tok) with
      | IDENT _, COLON ->
          advance st;
          let field () =
            let k = ident st in
            expect st COLON;
            (k, expr st)
          in
          let fields = ref [ field () ] in
          while peek st = COMMA do
            advance st;
            fields := field () :: !fields
          done;
          expect st RBRACE;
          Ast.Record_lit (List.rev !fields)
      | _ -> block st)
  | other ->
      let l, c = here st in
      err l c "expected an expression, found %s" (token_name other)

and block st : Ast.expr =
  expect st LBRACE;
  let rec stmts () =
    match peek st with
    | RBRACE -> Ast.Unit
    | KW_LET ->
        advance st;
        let x = ident st in
        expect st ASSIGN;
        let v = expr st in
        expect st SEMI;
        Ast.Let (x, v, stmts ())
    | _ -> (
        let e = expr st in
        match peek st with
        | SEMI ->
            advance st;
            if peek st = RBRACE then e
            else begin
              match stmts () with
              | Ast.Seq rest -> Ast.Seq (e :: rest)
              | rest -> Ast.Seq [ e; rest ]
            end
        | _ -> e)
  in
  let body = stmts () in
  expect st RBRACE;
  body

let parse_func st : Ast.func =
  expect st KW_FN;
  let fn_name = ident st in
  expect st LPAREN;
  let params =
    if peek st = RPAREN then []
    else begin
      let ps = ref [ ident st ] in
      while peek st = COMMA do
        advance st;
        ps := ident st :: !ps
      done;
      List.rev !ps
    end
  in
  expect st RPAREN;
  let body = block st in
  { Ast.fn_name; params; body }

let run source f =
  match f { toks = lex source; i = 0 } with
  | v -> Ok v
  | exception Err e -> Error e

let program source =
  run source (fun st ->
      let fns = ref [] in
      while peek st <> EOF do
        fns := parse_func st :: !fns
      done;
      List.rev !fns)

let func source =
  run source (fun st ->
      let f = parse_func st in
      expect st EOF;
      f)

let expr source =
  run source (fun st ->
      let e = expr st in
      expect st EOF;
      e)

(* --- Printing back to concrete syntax --------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let binop_symbol : Ast.binop -> string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Gt -> ">" | Le -> "<=" | Ge -> ">="
  | And -> "&&" | Or -> "||"
  [@@ocamlformat "disable"]

(* Conservatively parenthesized, so precedence never needs thought; [Let]
   and [Seq] print as blocks. [Declare] has no surface syntax (it only
   occurs in analyzer-derived functions); [Input] prints like [Var] (the
   parser cannot distinguish them -- the two are semantically identical). *)
let rec to_source (e : Ast.expr) =
  match e with
  | Unit -> "()"
  | Bool true -> "true"
  | Bool false -> "false"
  | Int i -> Int64.to_string i
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  | Input x | Var x -> x
  | Let _ | Seq _ -> block_source e
  | If (c, t, e) ->
      Printf.sprintf "if %s %s else %s" (atom c) (block_source t)
        (block_source e)
  | Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (atom a) (binop_symbol op) (atom b)
  | Not e -> Printf.sprintf "!%s" (atom e)
  | Str_of_int e -> Printf.sprintf "str(%s)" (to_source e)
  | Concat parts ->
      Printf.sprintf "(%s)" (String.concat " ++ " (List.map atom parts))
  | List_lit es ->
      Printf.sprintf "[%s]" (String.concat ", " (List.map to_source es))
  | Append (l, x) -> Printf.sprintf "append(%s, %s)" (to_source l) (to_source x)
  | Prepend (l, x) ->
      Printf.sprintf "prepend(%s, %s)" (to_source l) (to_source x)
  | Concat_list (a, b) ->
      Printf.sprintf "extend(%s, %s)" (to_source a) (to_source b)
  | Take (l, n) -> Printf.sprintf "take(%s, %s)" (to_source l) (to_source n)
  | Length l -> Printf.sprintf "len(%s)" (to_source l)
  | Nth (l, i) -> Printf.sprintf "%s[%s]" (atom l) (to_source i)
  | Record_lit [] -> invalid_arg "Parse.to_source: empty record literal"
  | Record_lit fs ->
      Printf.sprintf "{%s}"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s: %s" k (to_source v)) fs))
  | Field (e, name) -> Printf.sprintf "%s.%s" (atom e) name
  | Set_field (e, name, v) ->
      Printf.sprintf "setf(%s, %s, %s)" (to_source e) name (to_source v)
  | Read k -> Printf.sprintf "read(%s)" (to_source k)
  | Write (k, v) -> Printf.sprintf "write(%s, %s)" (to_source k) (to_source v)
  | Foreach (x, l, b) ->
      Printf.sprintf "foreach %s in %s %s" x (atom l) (block_source b)
  | Compute (ms, e) -> Printf.sprintf "compute %f %s" ms (block_source e)
  | Opaque e -> Printf.sprintf "opaque(%s)" (to_source e)
  | Time_now -> "time_now()"
  | Random_int n -> Printf.sprintf "random_int(%d)" n
  | External (svc, payload) ->
      Printf.sprintf "external(\"%s\", %s)" (escape svc) (to_source payload)
  | Declare _ -> invalid_arg "Parse.to_source: Declare has no surface syntax"

and atom e =
  match e with
  | Ast.Unit | Ast.Bool _ | Ast.Str _ | Ast.Input _ | Ast.Var _
  | Ast.Record_lit (_ :: _) | Ast.List_lit _ ->
      to_source e
  | Ast.Int i when Int64.compare i 0L >= 0 -> to_source e
  | _ -> Printf.sprintf "(%s)" (to_source e)

and block_source e =
  let rec stmts (e : Ast.expr) =
    match e with
    | Let (x, v, b) -> Printf.sprintf "let %s = %s; %s" x (to_source v) (stmts b)
    | Seq [] -> stmts Ast.Unit
    | Seq es ->
        String.concat "; " (List.map to_source es)
    | other -> to_source other
  in
  Printf.sprintf "{ %s }" (stmts e)
