(** Write-ahead log for two-phase commit on data servers.

    Participants log [Prepared] with the transaction's page images
    (and, under group commit, the before-images needed to undo a
    crash-window apply) before voting yes; [Committed]/[Aborted] seal
    the outcome; [Checkpoint] records carry the in-doubt transaction
    table so the log before them can be truncated.

    {2 Physiological records}

    Redo and undo images share one encoding, {!Ra.Page.compact}: the
    page minus its trailing zeros.  The coordinator compacts redo
    images straight from its frames when it builds the [Prepare]
    message, and the participant takes each before-image from the
    store's own image ({!Ra.Page.trim}), so every record holds (and
    the disk is charged for) only what the pages really contain.
    The record, the prepared table and the store share the same
    immutable image, so commit apply, redo, undo restore and in-doubt
    re-install all pass images straight through.

    {2 Group commit}

    Created with [~group_commit], the log keeps an in-memory buffer:
    {!enqueue} puts a record in the buffer and returns its LSN;
    a log daemon forces everything pending in one sequential
    {!Disk.append} when the oldest buffered record has waited
    [window], or immediately once [max_batch] records are buffered.
    One disk positioning delay is amortized over the whole batch, and
    back-to-back flushes keep the head parked at the log tail.
    {!wait_durable} blocks until a given LSN has been forced.

    The buffer is volatile: records past the last completed flush are
    lost in a crash.  Flushes publish in LSN order, so the loss is
    always a clean suffix of the log — {!recover} discards it and
    undoes any page image it finds tagged past the durable horizon.

    Without [~group_commit], {!append} forces each record with its
    own synchronous {!Disk.write}, the historical cost model, and
    every record is durable the moment it is logged. *)

type write = Ra.Sysname.t * int * Ra.Page.image
(** (segment, page, compact redo image) *)

type undo = Ra.Sysname.t * int * Ra.Page.image option
(** (segment, page, compact before-image); [None] = the page had
    never been written (undo clears it back to zeroed). *)

type prep = {
  txn : int * int;  (** (coordinator node, sequence) *)
  writes : write list;
  undo : undo list;
}

type record =
  | Prepared of prep
  | Committed of (int * int)
  | Aborted of (int * int)
  | Checkpoint of prep list
      (** fuzzy checkpoint: the prepared-undecided transactions at the
          instant the record was cut (no quiescing — commits keep
          flowing around it) *)

type group_commit = { window : Sim.Time.span; max_batch : int }

type t

val create :
  ?group_commit:group_commit ->
  ?spawn:(string -> (unit -> unit) -> unit) ->
  Disk.t ->
  t
(** [spawn] is how the log daemon's flusher processes are started; a
    data server passes [Ra.Node.spawn] so they die with the machine.
    With [~group_commit] the WAL must be created in simulation
    context (it captures the engine for window timers). *)

val group_commit : t -> bool

val append : t -> record -> unit
(** Durably append: returns once the record is on disk.  Without a
    daemon this is a synchronous {!Disk.write} charged to the caller;
    with one it is {!enqueue} + {!wait_durable} — the caller rides
    the next group flush. *)

val enqueue : t -> record -> int
(** Put a record in the log buffer and return its LSN without waiting
    for durability (commit pipelining: locks can be released at
    commit-record-in-buffer).  Without a daemon the record is durable
    immediately and no disk time is charged. *)

val wait_durable : t -> int -> unit
(** Block until the given LSN has been forced. *)

val flushed_lsn : t -> int
(** Highest LSN the disk has seen (0 initially). *)

val append_nowait : t -> record -> unit
(** [enqueue] with the LSN ignored — for engine-context callers
    (timer-driven resolution) that cannot block. *)

val records : t -> record list
(** Non-truncated log contents in append order (tests, recovery). *)

val checkpoint : t -> active:prep list -> int
(** Cut a fuzzy checkpoint carrying the in-doubt table, wait for it
    to become durable, then truncate every record before it (the
    checkpoint's LSN is the new low-water mark).  Returns that LSN. *)

val recover :
  t ->
  Segment_store.t ->
  decide:((int * int) -> [ `Commit | `Abort | `Keep ]) ->
  applied:(int * int) list ref ->
  prep list
(** ARIES-style replay into the store.  First the volatile suffix
    (records past the last flush) is discarded.  Analysis collects
    outcomes and the freshest prepare per transaction, seeding from
    [Checkpoint] records when the original [Prepared] was truncated.
    Undecided transactions are settled by [decide] — the recovering
    participant asks the coordinator: [`Commit]/[`Abort] are logged
    and acted on; [`Keep] leaves the transaction in doubt.  Losers'
    crash-window page images (tagged past the durable horizon) are
    restored from their before-images.  Committed prepares are then
    redone in log order under the page-LSN guard, so recovering twice
    applies each write once.  [applied] reports every txn that had at
    least one write replayed; the return value is the in-doubt
    transactions the caller must re-install. *)

val truncate : t -> unit
(** Discard the whole log unconditionally (tests). *)

(** {1 Metrics} *)

val flushes : t -> int
val checkpoints : t -> int
val truncated : t -> int

val records_counter : t -> Sim.Stats.counter
val flushes_counter : t -> Sim.Stats.counter

val batch_hist : t -> Sim.Stats.hist
(** Records per group flush. *)

val checkpoints_counter : t -> Sim.Stats.counter
val truncated_counter : t -> Sim.Stats.counter
