(** DSM wire protocol.

    All coherence, locking, directory and commit traffic between
    compute servers (DSM clients) and data servers (DSM servers) uses
    these RaTP message bodies, sent with {!call} and answered through
    {!serve}, which size every request and reply with
    {!request_bytes}.  Sizes model headers plus the page data as
    carried: page traffic ships full 8K pages (a server widens a
    stored compact image to serve it), while the commit path
    ([Prepare], and the [Mirror_writes] a commit forwards) carries
    {!Ra.Page.compact} images.  One-copy pages have one write op,
    [Put_batch]: a flush sends the segment's dirty pages, an MMU
    eviction a one-page batch.  A [Put_batch], [Put_diffs],
    [Merge_delta] or [Overwrite] naming a segment the server lacks is
    refused whole with [Segment_error]. *)

(** Transactions are named by their coordinating node and a per-node
    sequence number. *)
type txn_id = { tnode : int; tseq : int }

type lock_kind = R | W

type write_set = (Ra.Sysname.t * int * Ra.Page.image) list
(** (segment, page index, page image) triples.  An image may be a
    full page or a {!Ra.Page.compact} one; the data server's store
    keeps it as it arrives. *)

type Ratp.Packet.body +=
  | Get_page of {
      seg : Ra.Sysname.t;
      page : int;
      mode : Ra.Partition.mode;
      window : int;
          (** fault-ahead hint: ship up to [window] adjacent resident
              pages in the reply (0 disables prefetch) *)
    }
  | Got_page of Ra.Partition.fetch_data
  | Got_pages of {
      main : Ra.Partition.fetch_data;
      extras : (int * Ra.Page.image) list;
          (** prefetched (page, image) pairs following the faulted
              page; the server has already registered the requester in
              each page's copyset *)
    }
  | Page_error
  | Put_batch of write_set
  | Overwrite of write_set
      (** server-side overwrite with invalidation of every cached
          copy (replica propagation) *)
  | Batch_ok
  | Invalidate of { seg : Ra.Sysname.t; page : int }
  | Invalidated of { dirty : Ra.Page.image option }
  | Downgrade of { seg : Ra.Sysname.t; page : int }
  | Downgraded of { dirty : Ra.Page.image option }
  | Create_segment of {
      seg : Ra.Sysname.t;
      size : int;
      mode : Ra.Partition.consistency;
    }
  | Delete_segment of Ra.Sysname.t
  | Segment_ok
  | Segment_error
  | Lock_segment of { seg : Ra.Sysname.t; kind : lock_kind; txn : txn_id }
  | Lock_granted
  | Lock_cancelled
  | Get_descriptor of Ra.Sysname.t
  | Descriptor of Store.Directory.descriptor option
  | Register_object of {
      obj : Ra.Sysname.t;
      descriptor : Store.Directory.descriptor;
    }
  | Unregister_object of Ra.Sysname.t
  | Registered
  | Prepare of { txn : txn_id; writes : write_set }
      (** redo images in the {!Ra.Page.compact} encoding; the
          participant logs and keeps them as they arrive *)
  | Vote of bool
  | Commit of { txn : txn_id }
  | Abort of { txn : txn_id }
  | Txn_done
  | List_objects
  | Objects of Ra.Sysname.t list
  | Read_pages of { seg : Ra.Sysname.t; from : int; count : int }
      (** bulk replica read for re-replication: up to [count] non-zero
          pages starting at [from]; no owner/copyset side effects *)
  | Pages of { size : int; pages : (int * Ra.Page.image) list }
  | Mirror_writes of write_set
      (** committed writes forwarded by a segment's primary to its
          backups; applied to the store, never re-forwarded *)
  | Backfill of write_set
      (** re-replication catch-up copy: a page is applied only if the
          receiving store still holds it zeroed, so it can never
          clobber a fresher mirrored write *)
  | Inval_batch of (Ra.Sysname.t * int) list
      (** release-mode flush: one batched invalidation RPC per copyset
          member, sent when a lock scope's dirty pages land at the
          home; the copy is dropped without returning dirty data *)
  | Put_diffs of (Ra.Sysname.t * int * (int * string) list) list
      (** release-mode writeback: per page, the (offset, bytes) spans
          changed against the twin, applied sub-page at the home *)
  | Merge_delta of (Ra.Sysname.t * int * int * Ra.Page.image) list
      (** commutative flush: per page (segment, page, twin-stamp,
          delta) — word-wise deltas against the twin, combined at the
          home under the segment's merge operator.  The twin-stamp is
          the idempotency key: a flush re-sent after a client-visible
          timeout repeats the stamp, and the home applies only the
          difference against what it already recorded for it, so Add
          deltas are never applied twice *)
  | Merged of write_set
      (** post-merge home images returned to the flushing replica *)
  | Release_copies of (Ra.Sysname.t * int) list
      (** exact copyset maintenance: the client dropped these page
          copies on its own (budget-rejected prefetch install, segment
          drop), so the home deletes it from the copysets *)

val service : int
(** RaTP service id of DSM servers. *)

val client_service : int
(** RaTP service id of DSM clients (server-initiated invalidation and
    downgrade). *)

val request_bytes : Ratp.Packet.body -> int
(** Wire size of a message body. *)

val call :
  ?service:int ->
  Ra.Node.t ->
  dst:Net.Address.t ->
  Ratp.Packet.body ->
  (Ratp.Packet.body, Ratp.Endpoint.error) result
(** One DSM message transaction from [node] to [dst] on [service]
    (default {!service}), the request sized by {!request_bytes}.  The
    one way every layer sends a DSM message. *)

val serve :
  ?service:int ->
  Ra.Node.t ->
  (src:Net.Address.t -> Ratp.Packet.body -> Ratp.Packet.body) ->
  unit
(** Register a DSM handler on [node]'s endpoint for [service]
    (default {!service}); each reply is sized by {!request_bytes}. *)

val txn_compare : txn_id -> txn_id -> int
