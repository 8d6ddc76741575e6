(** RaTP endpoints: reliable connectionless message transactions.

    RaTP is modeled on VMTP (as in the paper): a client performs a
    {e message transaction} — a request matched by a reply — with
    at-most-once semantics.  The transport handles fragmentation to
    the MTU, retransmission with exponential backoff, duplicate
    suppression through a server-side transaction cache, and explicit
    acknowledgement of replies so servers can release state early.

    Retransmission is {e selective} by default (DESIGN.md §12): a
    retry timeout sends a one-frame probe instead of the full burst;
    the peer answers with a received-fragment bitmap ({!Packet.Nack})
    or with just the missing reply fragments, so a single lost
    fragment of a large message costs one fragment on the wire, not
    the whole burst.  The retry timer is fixed by default; with
    [adaptive_rto] it follows a per-destination Jacobson/Karels
    SRTT/RTTVAR estimate (Karn's rule: retransmitted transactions
    contribute no samples).

    Each endpoint owns the NIC of one machine.  Packets are handled
    in engine context the moment the NIC has paid their receive cost,
    and fragment bursts go on the wire from engine events, so the
    transport itself runs no process; server handlers run in their
    own processes so a slow handler never blocks reception. *)

type config = {
  retry_initial : Sim.Time.span;
      (** first retransmission delay (doubled per retry) *)
  max_attempts : int;  (** send attempts before giving up *)
  server_cache_ttl : Sim.Time.span;  (** reply retention for dedup *)
  selective_retransmit : bool;
      (** on timeout, probe for the peer's received-fragment bitmap
          and resend only what is missing (default on; loss-free
          packet streams are identical to the full-burst path) *)
  adaptive_rto : bool;
      (** derive the retry timer from the per-destination SRTT/RTTVAR
          estimate instead of [retry_initial] (default off; the
          estimator is maintained and surfaced either way; clamped
          to 2 ms .. 4 s) *)
}
(** The knobs callers set.  Fragment size (1400 bytes), per-step
    protocol processing (590 us) and the adaptive-RTO clamp are
    constants of the transport. *)

val default_config : config
(** A null transaction costs about twice the raw 72-byte Ethernet
    round trip, matching the paper's 4.8 ms vs 2.4 ms.
    [selective_retransmit] on, [adaptive_rto] off. *)

type error = Timeout
(** The transaction gave up after [max_attempts]. *)

type handler = src:Net.Address.t -> Packet.body -> Packet.body * int
(** A service: receives the request body, returns the reply body and
    its size in bytes.  Runs in a dedicated process; may block. *)

type t

val create :
  Net.Ethernet.t ->
  addr:Net.Address.t ->
  ?group:int ->
  ?config:config ->
  unit ->
  t
(** Attach to the Ethernet at [addr] and handle the NIC's frames.
    [group] tags the endpoint's handler processes for
    {!Sim.Engine.kill_group} (machine crash). *)

val addr : t -> Net.Address.t
val config : t -> config

val serve : t -> service:int -> handler -> unit
(** Register the handler for a service id.  Replaces any previous
    handler for that id. *)

val call :
  t ->
  dst:Net.Address.t ->
  service:int ->
  size:int ->
  Packet.body ->
  (Packet.body, error) result
(** Perform a message transaction from the current process: fragment
    and send the request, await the complete reply, acknowledge it.
    Returns [Error Timeout] if no reply after [max_attempts]. *)

val restart : t -> unit
(** After a machine crash ({!Sim.Engine.kill_group} plus NIC detach),
    bring the endpoint back up: discard all transaction state (client
    table and server cache).  Frames the machine was still receiving
    died with the detach.  The sequence space and RTT estimators are
    kept — reusing a tid would defeat peers' duplicate suppression.
    The NIC must be reattached by the caller. *)

val retransmissions : t -> int
(** Request retransmissions performed by this endpoint (all
    transactions; probes included). *)

val retransmitted_bytes : t -> int
(** Message payload bytes this endpoint has put on the wire more than
    once — request fragments resent by the client side plus reply
    fragments resent by the server side.  The headline metric of the
    selective-retransmission A/B ({!Experiments.Transport}). *)

val nacks_sent : t -> int
(** Selective-retransmission bitmaps ({!Packet.Nack}) sent by the
    server side of this endpoint. *)

val transactions : t -> int
(** Completed client transactions. *)

val server_cache_size : t -> int
(** Entries in the server-side transaction table (accumulating
    bursts, running handlers, cached replies).  Introspection for
    tests: abandoned bursts and acknowledged replies must not pin
    entries past [server_cache_ttl]. *)

type peer_stats = {
  peer : Net.Address.t;
  retrans : int;  (** retransmission events toward this peer *)
  nacks : int;  (** Nacks sent to this peer *)
  rto_ms : float;  (** current RTO estimate for this peer *)
}

val peer_stats : t -> peer_stats list
(** Per-destination transport counters ([ratp.retrans], [ratp.nacks],
    [ratp.rto_us] — backed by {!Sim.Stats.keyed}), sorted by peer.
    Lets an experiment attribute retransmissions to the peer that
    caused them. *)

val metrics : t -> (string * Obs.Registry.metric) list
(** Live metric handles under ["ratp/"] paths, for a per-node
    {!Obs.Registry}. *)
