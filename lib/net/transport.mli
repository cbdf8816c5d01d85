(** Simulated wide-area message transport.

    A [t] carries messages between locations with latency sampled from the
    RTT matrix plus multiplicative jitter, giving medians that match the
    configured matrix and a realistic p99 tail. Services are typed request
    handlers; every incoming request runs in its own fiber so a slow
    handler does not serialize the service.

    Fault injection hooks decide per message whether it is delivered,
    dropped, or delayed — used by the tests and by the chaos nemesis to
    exercise lost followups, late messages and partitions in the LVI
    protocol. Hooks compose: any number can be installed with
    {!add_fault}, so a nemesis campaign and a test-local hook can be
    active at once.

    Every message has a maximum lifetime, {!max_message_age} (TCP's
    maximum segment lifetime): a copy whose sampled delay, a fault's
    extra delay included, exceeds it is never delivered. Receivers use
    this bound to forget dedup state. *)

type t

val max_message_age : float
(** 10,000 virtual ms. A copy whose delay would exceed it is dropped,
    counted in {!messages_dropped} and traced as an ["expired"] fault.
    Every copy of a message is sent before any copy arrives, so all
    copies arrive by [send + max_message_age]; a receiver that filled a
    reply for a message at time [f] can forget it once the clock passes
    [f + max_message_age], as no copy of that message can still be in
    flight. *)

type fault = Deliver | Drop | Delay of float | Duplicate
(** [Duplicate] models at-least-once delivery: the message arrives
    twice, each copy with an independently sampled latency (so the
    duplicate may overtake the original). Receivers must dedupe — the
    LVI server keys on execution ids, and cache-update installs are
    version-guarded. *)

val create :
  ?rtt:(Location.t -> Location.t -> float) ->
  ?jitter_sigma:float ->
  ?tracer:Metrics.Tracer.t ->
  ?fault_rng:Sim.Rng.t ->
  rng:Sim.Rng.t ->
  unit ->
  t
(** [create ~rng ()] uses [Location.rtt] and a log-normal jitter with the
    given sigma (default 0.05; 0.0 disables jitter). With a [tracer]
    (default {!Metrics.Tracer.noop}), every delivered message records its
    one-way delay under the service label, and every fault-hook outcome
    is counted.

    [fault_rng] seeds the stream returned by {!fault_rng} (default: a
    fixed-seed generator). Jitter draws only from [rng]; fault decisions
    should only draw from the fault stream — this separation guarantees
    that enabling probabilistic faults does not shift the delivery jitter
    sampled for unaffected messages. *)

val set_tracer : t -> Metrics.Tracer.t -> unit

val fault_rng : t -> Sim.Rng.t
(** The transport's dedicated fault-decision stream. Probabilistic fault
    hooks must sample from this (or a private generator), never from the
    jitter stream. *)

val one_way : t -> Location.t -> Location.t -> float
(** Sample a one-way delay (RTT/2 × jitter). *)

val add_fault :
  t -> (src:Location.t -> dst:Location.t -> label:string -> fault) -> int
(** Install a fault hook and return a handle for {!remove_fault}. Each
    hook is consulted once per message (requests, responses and one-way
    posts independently). [label] is the target service's name for
    requests and ["<name>:reply"] for responses, letting tests drop,
    say, only followup messages. Hooks are consulted in installation
    order; the first non-[Deliver] verdict decides. *)

val remove_fault : t -> int -> unit
(** Uninstall a hook by handle. Idempotent. *)

val active_faults : t -> int
(** Number of installed hooks. *)

val partition : t -> Location.t list -> int
(** [partition t group] installs a hook dropping every message that
    crosses the boundary between [group] and its complement — a network
    partition. Heal it with {!remove_fault}. *)

type ('req, 'resp) service

val serve :
  loc:Location.t -> name:string -> ('req -> 'resp) -> ('req, 'resp) service
(** [serve ~loc ~name handler] is a service value: [handler] at [loc],
    named [name]. Nothing is registered with any transport; a caller
    passes the value to {!call}, {!call_timeout} or {!post} on the
    transport it sends over. The handler may block. *)

val service_location : ('req, 'resp) service -> Location.t

val call : t -> from:Location.t -> ('req, 'resp) service -> 'req -> 'resp
(** Round-trip RPC. If the request or response is dropped the caller
    blocks forever — use [call_timeout] when faults are active. *)

val call_timeout :
  t -> from:Location.t -> timeout:float -> ('req, 'resp) service -> 'req ->
  'resp option
(** Like [call] but returns [None] if no response arrived in [timeout].
    The timeout runs through {!Sim.Timer} and is cancelled as soon as
    the reply arrives; a reply that arrives after the timeout already
    fired is counted in {!late_replies} (and as a ["late_reply"] fault
    when tracing) rather than silently dropped. *)

val post : t -> from:Location.t -> ('req, 'resp) service -> 'req -> unit
(** One-way, fire-and-forget message; the response is discarded. Returns
    immediately. *)

val messages_sent : t -> int

val messages_dropped : t -> int
(** Copies dropped by a fault hook or because they would outlive
    {!max_message_age}. *)

val messages_duplicated : t -> int
(** Messages a fault hook duplicated (each delivered twice). *)

val calls_timed_out : t -> int
(** [call_timeout] invocations that returned [None]. *)

val late_replies : t -> int
(** Replies that arrived after their call had already timed out. *)
