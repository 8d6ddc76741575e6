(** A shared-bus 10 Mbit Ethernet.

    One segment connects every machine in the cluster, as in the
    paper's prototype.  The bus is a FIFO server (CSMA/CD modeled as
    FIFO arbitration), kept as a reservation clock: a frame that asks
    for the bus goes on the wire when every earlier frame is off it,
    occupies it for its size divided by the bandwidth plus a fixed
    gap, then arrives at the destination NIC(s) after the propagation
    delay, unless the fault model drops it.  Host-side costs are
    charged on the sender (here) and by the receiving NIC from the
    frame's arrival ({!Nic}), so bulk transfers naturally pipeline
    sender processing with wire time. *)

type config = {
  bandwidth_bps : int;  (** wire speed; 10 Mbit/s in the paper *)
  propagation : Sim.Time.span;  (** end-to-end signal delay *)
  frame_gap : Sim.Time.span;  (** preamble + interframe gap *)
  mtu_payload : int;  (** max payload bytes per frame *)
  send_cost_per_frame : Sim.Time.span;  (** host driver cost, sending *)
  recv_cost_per_frame : Sim.Time.span;  (** host driver cost, receiving *)
  cost_per_byte_ns : int;  (** host copy cost per byte, each side *)
}

val default_config : config
(** Calibrated so that a 72-byte round trip costs about 2.4 ms, as
    measured in the paper (§4.3). *)

type t

val create : Sim.Engine.t -> ?config:config -> unit -> t

val config : t -> config
val fault : t -> Fault.t
val engine : t -> Sim.Engine.t

val attach : t -> Address.t -> Nic.t
(** Join the segment.  Raises [Invalid_argument] if the address is
    taken. *)

val nic : t -> Address.t -> Nic.t option

val detach : t -> Address.t -> unit
(** Take the NIC offline (machine crash).  Frames to it are dropped,
    and so are frames it was still receiving or sending. *)

val reattach : t -> Address.t -> unit

val launch : t -> Frame.t -> Sim.Time.t
(** Ask for the bus now (engine context): reserve the frame's wire
    time after every frame that asked earlier, count it, schedule its
    delivery, and return the instant its wire time ends.  A frame
    whose sender is detached before that instant is never delivered.
    Raises [Invalid_argument] if the payload exceeds the MTU. *)

val transmit : t -> Frame.t -> unit
(** Send a frame from a process: charges the sender's host cost,
    {!launch}es the frame, and returns when its wire time ends. *)

val host_send_cost : config -> Frame.t -> Sim.Time.span
(** Sender-side driver cost {!transmit} charges for a frame; callers
    of {!launch} account for it themselves. *)

val wire_time : config -> int -> Sim.Time.span
(** [wire_time cfg bytes] is bus occupancy for a frame of that size. *)

val frames_sent : t -> int
val bytes_sent : t -> int
