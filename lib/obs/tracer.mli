(** Causal tracing: per-invocation trace ids with parent/child spans.

    A span names one stage of one invocation (an RPC, a DSM fault, a
    2PC round).  Context is ambient per sim process; [offer]/[accept]
    bridge it across RPC boundaries (keyed by the RaTP transaction
    id, nothing added to the wire) and [current]/[under] across
    fan-out workers.  With no tracer installed every hook costs one
    branch; an installed tracer only reads the sim clock, so it
    cannot change simulated results. *)

type span = {
  id : int;  (** creation order, unique per tracer *)
  trace : int;  (** trace (root family) id *)
  parent : int;  (** parent span id, -1 for roots *)
  name : string;
  node : int;  (** originating node address, -1 if unknown *)
  start : Sim.Time.t;
  mutable stop : Sim.Time.t;  (** = [start] until finished *)
}

type t

val create : unit -> t

val install : t -> unit
(** Make [t] the ambient tracer every instrumentation hook records
    into.  One tracer at a time. *)

val uninstall : unit -> unit

val on : unit -> bool
(** Is a tracer installed?  For guarding trace-only work. *)

type handle
(** An open span.  [No_span] when tracing is off — [finish] on it is
    free. *)

val start : ?node:int -> string -> handle
(** Open a span under the current process's innermost open span (a
    fresh trace root if there is none).  Must run inside a sim
    process. *)

val finish : handle -> unit
(** Close the span at the current sim time and restore the previous
    context.  Close spans LIFO per process. *)

val with_span : ?node:int -> string -> (unit -> 'a) -> 'a
(** [start]/[finish] around [f], exception-safe — use wherever the
    body can raise ([Unavailable], abort signals). *)

type ctx

val current : unit -> ctx
(** The calling process's innermost open span, to re-bind in workers
    running under other pids. *)

val under : ctx -> (unit -> 'a) -> 'a
(** Run [f] with the given span as the calling process's context:
    spans [f] opens become its children.  No-op context when tracing
    is off. *)

val fanout : ?label:string -> 'a list -> f:('a -> 'b) -> 'b list
(** {!Sim.Fanout.map} with every worker run {!under} the caller's
    {!current} span, so spans and RPCs the workers open stay in the
    caller's trace (workers run under fresh pids). *)

val offer : origin:int -> seq:int -> unit
(** Publish the caller's context under an RPC transaction id, before
    the request is sent. *)

val retract : origin:int -> seq:int -> unit
(** Drop a published context (pair with [offer], after the call). *)

val accept : origin:int -> seq:int -> (unit -> 'a) -> 'a
(** Run an RPC handler under the caller's published context, so
    server-side spans parent under the client's call span. *)

val span_count : t -> int
val get : t -> int -> span
val iter : t -> (span -> unit) -> unit
val spans : t -> span list

val duration_ms : span -> float

val reset : t -> unit
