(** Network interfaces.

    A NIC owns the receive path of one address.  Receiving charges
    the simulated host-side cost of taking the interrupt and copying
    the frame.  The receive path is a FIFO server: each frame's cost
    starts at its arrival, or when the previous frame's cost ends if
    that is later.  When the cost is paid, one engine event hands the
    frame to the NIC's handler.  A detached NIC (crashed machine)
    drops deliveries, and a frame whose receive cost was still being
    paid at the detach is dropped too. *)

type t

val create :
  Sim.Engine.t ->
  addr:Address.t ->
  recv_cost_per_frame:Sim.Time.span ->
  recv_cost_per_byte_ns:int ->
  t

val addr : t -> Address.t

val deliver : t -> Frame.t -> unit
(** A frame arrives (engine context): if attached, queue it behind
    the frames still being received and hand it to the handler once
    its receive cost is paid; drop it otherwise. *)

val set_handler : t -> (Frame.t -> unit) -> unit
(** Replace the handler, which runs in engine context and must not
    block.  The default puts the frame in the mailbox {!recv} reads. *)

val recv : t -> Frame.t
(** Dequeue the next received frame, suspending as needed.  Its
    receive cost was paid before it was queued. *)

val try_recv : t -> Frame.t option
(** Dequeue without suspending (tests). *)

val set_attached : t -> bool -> unit
(** Detaching starts a new {!epoch} and abandons every frame still in
    the receive path. *)

val epoch : t -> int
(** Number of detaches so far. *)

val up_through : t -> epoch:int -> Sim.Time.t -> bool
(** [up_through t ~epoch time]: the NIC, seen at [epoch], was not
    detached before [time].  A frame on the wire until [time] from a
    sender that crashed before then is never delivered. *)
