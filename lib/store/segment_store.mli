(** Stable page storage for segments on a data server.

    Contents survive node crashes (they model disk-backed Unix files
    kept hot in the buffer cache).  Pages that were never written
    read back as {!Ra.Partition.Zeroed}, which is what makes the
    zero-fill fault path observable end to end. *)

type t

val create : string -> t

val create_segment : t -> Ra.Sysname.t -> size:int -> unit
(** Declare a segment of [size] bytes.  Raises [Invalid_argument] if
    it already exists. *)

val delete_segment : t -> Ra.Sysname.t -> unit

val exists : t -> Ra.Sysname.t -> bool

val size : t -> Ra.Sysname.t -> int
(** Raises {!Ra.Partition.No_segment} if absent. *)

val read_page : t -> Ra.Sysname.t -> int -> Ra.Partition.fetch_data
(** The stored image itself, not a copy: full or compact, exactly as
    it was written.  Raises {!Ra.Partition.No_segment} if the segment
    is absent. *)

val write_page : ?lsn:int -> t -> Ra.Sysname.t -> int -> Ra.Page.image -> unit
(** [write_page ?lsn t seg page img] installs a page image, a full
    page or a {!Ra.Page.compact} one, and keeps it as it is.  [lsn]
    tags the page with the commit record that produced it (the
    page-LSN recovery redo is guarded by); omitted, the existing tag
    is left in place — an unlogged write over a committed page must
    not look older than the commit it replaced, or recovery redo
    would clobber it. *)

val clear_page : t -> Ra.Sysname.t -> int -> unit
(** Forget a page: it reads back as {!Ra.Partition.Zeroed} again.
    Recovery undo uses it when a crash-window write landed on a page
    that had never been written. *)

val page_lsn : t -> Ra.Sysname.t -> int -> int
(** The page's tag; 0 for pages never written by the commit path. *)

val segments : t -> Ra.Sysname.t list

val local_partition : t -> Ra.Partition.t
(** A partition serving this store directly (same-machine access on a
    data server): no network, no disk — the calibrated fault costs in
    the MMU are the whole story, matching the paper's local fault
    measurements. *)
