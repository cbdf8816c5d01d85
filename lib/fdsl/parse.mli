(** Concrete syntax for handlers — write functions as text instead of
    building {!Ast.expr} values.

    {v
    fn upvote(post) {
      compute 16.0 {
        let p = read("post:" ++ post);
        write("post:" ++ post, setf(p, score, p.score + 1));
        p.score + 1
      }
    }
    v}

    Grammar sketch (precedence low → high):
    - a block [{ e1; e2; ... }] is a sequence whose value is the last
      expression; [let x = e;] binds for the rest of the block
    - [||], [&&], comparisons ([== != < > <= >=]), [++] (string
      concatenation), [+ -], [* / %], unary [!]
    - postfix: [.field] access, [\[index\]] list indexing
    - builtins: [read(k)], [write(k, v)], [take(l, n)], [len(l)],
      [append(l, x)], [prepend(l, x)], [extend(l1, l2)], [str(i)],
      [setf(r, field, v)], [external(name, payload)], [opaque(e)],
      [time_now()], [random_int(n)]
    - control: [if c { ... } else { ... }], [foreach x in l { ... }],
      [compute MS { ... }]
    - literals: integers, ["strings"], [true], [false], [()],
      [\[e1, e2\]], records [{ field: e, ... }]

    Function and parameter names are identifiers (letters, digits and
    underscores, not starting with a digit). [#] comments run to end of
    line. Errors carry line and column. *)

type error = { line : int; col : int; message : string }

val pp_error : Format.formatter -> error -> unit

val program : string -> (Ast.func list, error) result
(** Parse a whole source file of [fn] definitions. *)

val func : string -> (Ast.func, error) result
(** Parse exactly one [fn] definition. *)

val expr : string -> (Ast.expr, error) result
(** Parse a standalone expression (for tests and tooling). *)

val to_source : Ast.expr -> string
(** Print back to parseable concrete syntax, conservatively
    parenthesized: [expr (to_source e) = Ok e] for every expressible
    [e]. [Input] prints like [Var] (the two are semantically
    identical); [Declare] and empty record literals have no surface
    syntax and raise [Invalid_argument]. *)
