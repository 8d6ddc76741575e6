(** Failure injection schedules for resilience experiments.

    Static failures exist before the computation starts; dynamic
    failures strike while it runs. *)

val crash_at : Clouds.Cluster.t -> Net.Address.t -> Sim.Time.span -> unit
(** Schedule a machine crash [span] from now.  The address is
    resolved when the callback fires; an unknown node raises
    [Invalid_argument] at that point. *)

val crash_now : Clouds.Cluster.t -> Net.Address.t -> unit
(** Raises [Invalid_argument] on an unknown node. *)

val restart_at : Clouds.Cluster.t -> Net.Address.t -> Sim.Time.span -> unit
(** Schedule the machine's restart (NIC + RaTP endpoint; a data
    server also needs {!Dsm.Dsm_server.recover}, which this performs
    when the node is one).  Like {!crash_at}, the address is resolved
    at fire time and an unknown node raises [Invalid_argument] —
    matching [crash_now] instead of silently doing nothing. *)

val alive : Clouds.Cluster.t -> Net.Address.t -> bool
