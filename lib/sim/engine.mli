(** The discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of pending
    work.  Simulated activities are {e processes}: ordinary OCaml
    functions that use the direct-style operations of {!Process}
    (re-exported by {!Sim}), implemented with effect handlers.
    Events scheduled for the same instant run in scheduling order, so
    the whole simulation is deterministic.

    A process belongs to at most one {e group} (in practice, the node
    it runs on); {!kill_group} terminates every process of a group,
    modelling a machine crash. *)

type t

type pid = int
(** Process identifier, unique within an engine. *)

exception Killed
(** Raised inside a process when it is killed.  Processes must not
    swallow this exception. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] is a fresh engine with its clock at
    {!Time.zero}.  The default seed is 42. *)

val now : t -> Time.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root random stream. *)

val spawn : t -> ?group:int -> string -> (unit -> unit) -> pid
(** [spawn t name f] schedules process [f] to start at the current
    instant.  [name] appears in error reports. *)

val at : t -> Time.t -> (unit -> unit) -> unit
(** [at t time thunk] runs [thunk] in engine context at [time] (or
    now, if [time] is in the past).  The thunk must not use the
    process operations of {!Process}; it may wake suspended processes
    (fill ivars, send to mailboxes, ...). *)

type timer

val timer : t -> Time.t -> (unit -> unit) -> timer
(** Like {!at}, but {!cancel} can withdraw the thunk: it then never
    runs and does not move the clock (a no-op once it has run). *)

val cancel : timer -> unit

val kill : t -> pid -> unit
(** Terminate a process.  If it is suspended it receives {!Killed}
    immediately; if it is running it dies at its next suspension
    point.  Killing a finished or already-dead process is a no-op. *)

val kill_group : t -> int -> unit
(** Kill every live process of a group, in pid order. *)

val on_terminate : t -> pid -> (unit -> unit) -> unit
(** Run a callback (in engine context) when the process finishes,
    fails, or is killed; runs immediately if it is already gone.
    Used to observe processes that may die without producing a
    result (machine crashes). *)

val alive : t -> pid -> bool
(** [alive t pid] is true while the process has neither finished nor
    been killed. *)

val procs : t -> (pid * string) list
(** Live processes, in pid order.  For debugging and tests (e.g.
    asserting that a restart did not leak a duplicate daemon). *)

val run : ?until:Time.t -> t -> unit
(** Drain the event queue, advancing the clock, until it is empty or
    the clock would pass [until]; the clock then rests at [until],
    or where it was if [until] is already past.  Uncaught exceptions
    from processes propagate out of [run]. *)

val step : t -> bool
(** Execute the single next event.  Returns false if the queue was
    empty. *)

val pending : t -> int
(** Number of queued events (for tests). *)

(** Direct-style operations available inside a process.  Calling them
    outside a process raises [Effect.Unhandled]. *)
module Process : sig
  val engine : unit -> t
  (** The engine running the current process. *)

  val now : unit -> Time.t
  (** Current virtual time. *)

  val self : unit -> pid
  (** Pid of the current process. *)

  val sleep : Time.span -> unit
  (** Suspend for a virtual duration. *)

  val yield : unit -> unit
  (** Let every other runnable process scheduled at this instant run
      first. *)

  val suspend : string -> (('a -> bool) -> unit) -> 'a
  (** [suspend label register] parks the process and calls
      [register wake] in engine context.  The process resumes with
      [v] when [wake v] is first called and returns true; a false
      return means the process is already woken or dead and the
      caller should hand the wakeup to someone else (crash safety
      for lock handoffs).  [register] must not use process
      operations. *)

  val spawn : ?group:int -> string -> (unit -> unit) -> pid
  (** Spawn a sibling process.  It inherits no state; [group]
      defaults to the spawning process's group. *)
end
