(** Pages: the unit of residency, coherence and locking granularity
    underneath segments. *)

val size : int
(** 8192 bytes, as on the Sun-3. *)

val zero : unit -> bytes
(** A fresh zero-filled page. *)

val copy : bytes -> bytes

val compact : bytes -> bytes
(** The compact image encoding: a fresh copy of the page minus its
    trailing zeros.  Data pages are sparse (an account page holds a
    few words), so this is what a page image costs in a log record or
    a commit message.  [Store.Segment_store.write_page] is the one
    place a compact image is expanded back to a full page. *)

val index_of : int -> int
(** Page index containing a byte offset. *)

val count_for : int -> int
(** Number of pages needed to hold [n] bytes (at least 1 for empty
    segments). *)
