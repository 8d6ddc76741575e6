(** Replicated objects (§5.2.2).

    Critical objects are replicated on data servers with independent
    failure modes; the replication degree sets how many failures the
    data can survive.  A group is a set of instances of the same
    class, created identically, placed on distinct data servers. *)

type t = {
  class_name : string;
  members : Ra.Sysname.t array;  (** one instance per chosen data server *)
  homes : Net.Address.t array;  (** parallel: each member's data server *)
}

val create :
  Clouds.Object_manager.t ->
  class_name:string ->
  degree:int ->
  Clouds.Value.t ->
  t
(** Instantiate the class [degree] times, round robin over the data
    servers.  Raises [Invalid_argument] if [degree] exceeds the
    number of data servers (replicas must have independent failure
    modes). *)

val degree : t -> int

val pick : t -> int -> Ra.Sysname.t
(** [pick t i] is the replica thread [i] should use: spread so that
    concurrent PETs touch different replicas. *)

val copy_state :
  Clouds.Object_manager.t ->
  t ->
  from_index:int ->
  to_index:int ->
  bool
(** Copy the persistent state (data + heap segments) of one member
    onto another, page by page, through the data servers.  Returns
    false if either side is unreachable or the target's home lacks
    one of its segments. *)

val live_members : Clouds.Object_manager.t -> t -> int list
(** Indices whose data server is currently alive. *)
