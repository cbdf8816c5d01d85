(** Execution layer of the LVI server engine: the validation check and
    running a function against primary storage, shared by the
    single-server and cross-shard paths. Every write settles the key's
    outstanding leases first — the catch-all settle site for writes
    outside a request's predicted write set. *)

val execute_on_primary :
  Server_state.t ->
  exec_id:string ->
  Registry.entry ->
  Dval.t list ->
  Proto.exec_result

val stale_reads :
  Server_state.t ->
  keys:string list ->
  (string * int) list ->
  (string -> int) * string list
(** [stale_reads t ~keys reads] samples primary's current versions of
    [keys] (one charged storage access) and returns them with the keys
    of [reads] whose cached version differs — the validation step
    (§3.3). Keys primary does not hold read as version 0. *)

val backup_execute :
  Server_state.t ->
  Registry.entry ->
  Proto.lvi_request ->
  held:'held ->
  lock:(int -> Analyzer.Rwset.t -> 'held option) ->
  unlock:('held -> unit) ->
  Proto.exec_result * 'held option
(** Backup execution after a failed validation, entered holding [held].
    Static functions run under [held]. Dependent functions [unlock]
    it, re-predict against primary, [lock] the corrected set (attempt
    number first; [None] when the set could not be taken, holding
    nothing) and confirm the prediction is stable under those locks
    before executing, at most three attempts. Returns the result and
    what is still held, for the caller to release. *)
