(** The synthetic handlers the feature experiments build their
    workloads from: payments between two accounts, and posts to and
    reads of a shared wall. *)

val key : string -> string -> Fdsl.Ast.expr
(** [key prefix param] is the key [prefix] followed by parameter
    [param]. *)

val transfer : string -> src:string -> dst:string -> Fdsl.Ast.func
(** [transfer name ~src ~dst] is handler [name(src, dst)]: 1 ms of
    compute that moves one unit from key [src ^ $src] to key
    [dst ^ $dst] (read-modify-write of both) and returns the
    destination's old balance. *)

val post : Fdsl.Ast.func
(** [post(w, txt)]: 1 ms of compute that appends ["|" ^ txt] to
    [wall:w] and returns the old wall. *)

val read_wall : Fdsl.Ast.func
(** [read_wall(w)]: 0.5 ms of compute and one read of [wall:w]. *)
