(** LVI request admission: the engine's front door (Figure 3, steps
    4-6). Dispatches each request to the cross-shard coordinator, the
    read-only validate-only fast path, or the locked slow path
    (admit -> lock -> settle -> validate -> reply).
    [Server_state.t.stage_hook] fires with each step's name
    (["ro_validate"], ["admit"], ["lock"], ["settle"], ["validate"])
    just before it runs, so chaos fault hooks and stage-level
    instrumentation attach per step. *)

val handle_lvi : Server_state.t -> Proto.lvi_request -> Proto.lvi_response
(** Process one LVI delivery behind the at-least-once delivery guard:
    duplicated deliveries replay the first delivery's (possibly still
    pending) response instead of re-running the protocol. *)

val handle_exec : Server_state.t -> Proto.exec_request -> Proto.exec_result
(** Direct execution against primary, behind the same reply-cache
    deduplication guard. *)
