(* Execution layer of the LVI server engine: the validation check and
   running a function against primary storage — backup execution,
   deterministic re-execution, direct execution — with every write
   settling the key's leases first. The single-server and cross-shard
   paths share each of these steps. *)

open Server_state
module Kv = Store.Kv

(* Every write an execution makes — backup execution, deterministic
   re-execution, direct execution — settles the key's leases first.
   This is the catch-all settle site: it covers writes outside the
   request's predicted write set (dependent-function backups, direct
   execs with no prediction at all), which the slow path's up-front
   settle cannot see. Keys with no outstanding grant cost one table
   lookup. *)
let execute_on_primary (t : t) ~exec_id (entry : Registry.entry) args :
    Proto.exec_result =
  Execute.run
    ~external_call:(Extsvc.dispatcher t.extsvc ~exec_id)
    entry
    ~read:(fun k ->
      match Kv.get t.kv k with
      | Some { Kv.value; _ } -> Some value
      | None -> None)
    ~write:(fun k v ->
      Server_lease_authority.settle_write_leases t [ k ];
      ignore (Kv.put t.kv k v))
    args

(* Validation (§3.3): sample primary's current versions of [keys] —
   one charged storage access, read at its return instant — and list
   the keys of [reads] whose cached version differs. Also returns the
   sampled versions. *)
let stale_reads (t : t) ~keys reads =
  let versions = Kv.versions_of t.kv keys in
  let version_of k = Option.value ~default:0 (List.assoc_opt k versions) in
  ( version_of,
    List.filter_map
      (fun (k, cached) -> if version_of k <> cached then Some k else None)
      reads )

(* Backup execution for a function whose validation failed, entered
   holding [held]. Static functions have an exact predicted set, so they
   run under [held]. Dependent functions may have mispredicted from a
   stale cache: drop [held], re-predict against the primary (now
   coherent), [lock] the corrected set, and confirm the prediction is
   stable under those locks before executing; at most three attempts.
   [lock] returns [None] when it could not take the set (and holds
   nothing then). Returns the result and whatever is still held, which
   the caller releases. *)
let backup_execute (t : t) (entry : Registry.entry) (req : Proto.lvi_request)
    ~held ~lock ~unlock =
  let exec_id = req.exec_id in
  let execute () = execute_on_primary t ~exec_id entry req.args in
  match entry.derived with
  | Some d
    when (match d.classification with
         | Analyzer.Derive.Dependent _ | Analyzer.Derive.Manual -> true
         | Analyzer.Derive.Static | Analyzer.Derive.Expensive -> false) ->
      unlock held;
      let predict_with reader =
        Analyzer.Derive.predict d ~read:reader ~compute:ignore req.args
      in
      let charged_read k =
        match Kv.get t.kv k with Some { value; _ } -> value | None -> Dval.Unit
      in
      let free_read k =
        match Kv.peek t.kv k with Some { value; _ } -> value | None -> Dval.Unit
      in
      let rec settle attempt =
        match predict_with charged_read with
        | exception Fdsl.Eval.Error _ ->
            (* The residual program faulted on current primary data
               (shape drift); fall back to an unlocked execution rather
               than stranding the client. *)
            (execute (), None)
        | rwset -> (
            match lock attempt rwset with
            | None ->
                if attempt >= 3 then (execute (), None)
                else settle (attempt + 1)
            | Some h ->
                let stable =
                  match predict_with free_read with
                  | rwset' -> Analyzer.Rwset.equal rwset rwset'
                  | exception Fdsl.Eval.Error _ -> false
                in
                if stable || attempt >= 3 then (execute (), Some h)
                else begin
                  unlock h;
                  settle (attempt + 1)
                end)
      in
      settle 1
  | Some _ | None -> (execute (), Some held)
