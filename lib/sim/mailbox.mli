(** Unbounded FIFO mailboxes between processes.

    The building block for everything message-shaped in the
    simulation: NIC receive queues, server request queues, reply
    slots.  Senders never block; receivers suspend until a value is
    available (optionally bounded by a timeout). *)

type 'a t

val create : string -> 'a t
(** [create label] is an empty mailbox; [label] aids debugging. *)

val send : 'a t -> 'a -> unit
(** Enqueue a value, waking one waiting receiver if any.  Callable
    from engine context or from a process. *)

val recv : 'a t -> 'a
(** Dequeue a value, suspending while the mailbox is empty.  Multiple
    waiting receivers are served in FIFO order. *)

val recv_timeout : 'a t -> Time.span -> 'a option
(** [recv_timeout t span] is like {!recv} but returns [None] if
    nothing arrives within [span].  A timed-out waiter is purged from
    the mailbox, so repeated polling does not accumulate state; a
    value that arrives first cancels the deadline, which then never
    runs. *)

val try_recv : 'a t -> 'a option
(** Dequeue without suspending. *)

val length : 'a t -> int
(** Values currently queued. *)

val waiters : 'a t -> int
(** Receivers currently waiting (excluding waiters whose timeout
    already fired).  Exposed so tests can assert the waiter queue
    stays bounded. *)
