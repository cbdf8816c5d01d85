(** The paper's comparison deployments.

    - {b Centralized} (the "primary-datacenter baseline", §5.3): the
      application runs only in VA next to the primary data; remote users
      pay their RTT to VA on every request, but storage accesses are
      fast.
    - {b Local} (the "inconsistent lower bound" — the red lines in
      Figures 1, 4, 5): an application instance per location against a
      local, *inconsistent* copy of the data. Best possible latency; no
      consistency.
    - {b Geo-replicated} (Figure 1): application instances everywhere
      against a strongly consistent geo-replicated store. Per the PRAM
      bound (§2), every storage operation pays the RTT to the nearest
      replica plus coordination across the replica set (modelled as the
      maximum inter-replica RTT), which is why this never beats the
      centralized baseline. *)

type outcome = { value : (Dval.t, string) result; latency : float }

type t

val centralized :
  net:Net.Transport.t ->
  funcs:Fdsl.Ast.func list ->
  data:(string * Dval.t) list ->
  unit ->
  t

val local :
  locations:Net.Location.t list ->
  funcs:Fdsl.Ast.func list ->
  data:(string * Dval.t) list ->
  unit ->
  t

val geo_replicated :
  replicas:Net.Location.t list ->
  funcs:Fdsl.Ast.func list ->
  data:(string * Dval.t) list ->
  unit ->
  t

val naive_edge :
  funcs:Fdsl.Ast.func list ->
  data:(string * Dval.t) list ->
  unit ->
  t
(** §2's cautionary deployment: application instances near users with
    the datastore left centralized in VA — each storage operation pays
    the full user↔VA round trip. Used by the ablation bench. *)

val validate_per_read :
  funcs:Fdsl.Ast.func list ->
  data:(string * Dval.t) list ->
  unit ->
  t
(** §1's "late reads" strawman: the application runs near the user
    against a local replica, but every read blocks on a validation
    round trip to the primary as it occurs — nothing overlaps. Shows
    why Radical validates the predicted set in one request instead. *)

val invoke : t -> from:Net.Location.t -> string -> Dval.t list -> outcome

val primary : t -> Store.Kv.t
(** The (single or per-VA) authoritative store; for [local], the VA
    replica. *)
