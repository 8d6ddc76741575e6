(** The DSM client: the partition compute servers page through.

    Page faults on a compute server become [Get_page] transactions to
    the data server that stores the segment; the client also answers
    the server-initiated invalidation and downgrade calls that keep
    every copy coherent.  Together with {!Dsm_server} this gives each
    node the illusion that every object logically resides locally —
    the paper's distributed shared memory.

    The fast path adds three mechanisms (DESIGN.md §11): batched
    writeback of dirty pages, adaptive fault-ahead prefetch (off
    unless [prefetch_window] is set), and a location cache that
    memoises segment-to-home resolution. *)

exception Unavailable of Ra.Sysname.t
(** The segment's data server did not answer (crashed or
    partitioned). *)

type t

val create :
  Ra.Node.t ->
  locate:(Ra.Sysname.t -> Net.Address.t) ->
  ?consistency:(Ra.Sysname.t -> Ra.Partition.consistency) ->
  ?prefetch_window:int ->
  unit ->
  t
(** Install the DSM client on a node and point the node's MMU at it.
    [locate] maps a segment to its data server.

    [prefetch_window] (default [0], off) caps the fault-ahead window:
    read faults ask the server to ship up to that many adjacent
    resident pages in the same reply, installed locally as clean read
    copies.  The window adapts per segment — it doubles while faults
    land sequentially and resets on a random jump.  Off by default
    because prefetch changes fault counts and timings, which the
    calibrated experiments pin down.

    [consistency] maps a segment to its coherence mode (default: all
    [One_copy]); it is also installed as the MMU's consistency
    resolver so relaxed-mode frames keep twins.  Write faults on
    [Commutative] segments go out as reads (the home never arbitrates
    them), and {!flush_segment} ships diffs or merge deltas instead
    of page images for relaxed modes. *)

val set_consistency : t -> (Ra.Sysname.t -> Ra.Partition.consistency) -> unit
(** Replace the consistency resolver (also re-points the MMU's). *)

val consistency_of : t -> Ra.Sysname.t -> Ra.Partition.consistency

val partition : t -> Ra.Partition.t

val node : t -> Ra.Node.t

val flush_segment : t -> Ra.Sysname.t -> unit
(** Write every dirty resident page of the segment back to its data
    server and mark the frames clean (used by s-threads that want
    their updates stored, and by examples).  One RPC per segment: a
    [Put_batch] of page images, release-mode diffs or commutative
    merge deltas.  Raises [Ra.Partition.No_segment] if the home no
    longer holds the segment and {!Unavailable} if it does not
    answer; either way nothing is applied and the pages stay dirty. *)

val drop_segment : t -> Ra.Sysname.t -> unit
(** Locally invalidate all frames of a segment without writing them
    back (transaction abort), and release the matching copyset
    registrations at the home so no later write fault invalidates
    copies that are already gone. *)

val evict_where : t -> (Ra.Sysname.t -> Net.Address.t -> bool) -> int
(** Drop exactly the cached locations the predicate condemns (segment,
    cached home) and return how many were evicted — used on a
    placement-ring remap to invalidate the moved arc and nothing
    else. *)

val apply_view : t -> Membership.Monitor.view -> unit
(** Evict cached locations that point at members the view declares
    [Dead], so the next fault re-resolves against a surviving replica
    instead of waiting out the RaTP retry ladder. *)

val remote_fetches : t -> int
(** Fetch RPCs issued (prefetch hits avoid these entirely). *)

val put_rpcs : t -> int
(** Writeback RPCs issued: one per [Put_batch] (a segment flush or an
    evicted dirty frame) and per release-mode [Put_diffs]. *)

val invalidations_received : t -> int

val location_hits : t -> int
(** Faults whose home resolution was served from the location cache. *)

val location_misses : t -> int

val location_evictions : t -> int
(** Cached bindings dropped because the membership view condemned
    their home. *)

val merge_flushes : t -> int
(** [Merge_delta] RPCs sent for commutative segments. *)

val copy_releases : t -> int
(** [Release_copies] RPCs sent to keep copysets exact: only for
    copies this node truly no longer holds (budget-rejected prefetch
    installs, segment drops) — never for a decline that keeps a live
    copy resident.  Faults on a page with a release in flight wait
    for it to land, so a release can never erase a newer
    registration. *)

val metrics : t -> (string * Obs.Registry.metric) list
(** Live metric handles under ["dsmc/"] paths, for a per-node
    {!Obs.Registry}. *)
