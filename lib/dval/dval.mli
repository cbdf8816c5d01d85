(** Structured data values shared by the storage system, the caches, the
    function DSL and the deterministic VM's host heap.

    This is the universal currency of the reproduction: application
    handlers compute over [t], storage maps keys to versioned [t], and the
    VM manipulates [t] through opaque handles (in the spirit of
    WebAssembly externrefs). *)

type t =
  | Unit
  | Bool of bool
  | Int of int64
  | Str of string
  | List of t list
  | Record of (string * t) list

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val field : t -> string -> t
(** Record field access. Raises [Invalid_argument] on missing field or
    non-record. *)

val field_opt : t -> string -> t option

val set_field : t -> string -> t -> t
(** Functional record update; adds the field if absent. *)

(* Convenience constructors and accessors; the [to_*] functions raise
   [Invalid_argument] on a shape mismatch. *)

val int : int -> t

val to_int : t -> int64

val to_int_exn : t -> int

val to_str : t -> string

val to_list : t -> t list

val take : int -> t list -> t list
(** [take n l]: the first [n] elements of [l], the DSL's [take] in both
    the evaluator and the VM. [[]] when [n <= 0], all of [l] when [n]
    is past its length; walks at most [n] elements. *)
