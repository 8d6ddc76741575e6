(** Pages: the unit of residency, coherence and locking granularity
    underneath segments. *)

val size : int
(** 8192 bytes, as on the Sun-3. *)

type image = private string
(** An immutable page image, full ({!size} bytes) or compact (minus
    its trailing zeros).  Messages, the WAL and the segment store
    share images and never copy them; only write-mode MMU frames are
    mutable, so a page is copied only when it leaves a frame
    ({!of_bytes}, {!compact}) or enters a write-mode one
    ({!to_frame}). *)

val zero : image
(** The full zero page. *)

val of_bytes : bytes -> image
(** A copy of [b]. *)

val compact : bytes -> image
(** A copy of [b] minus its trailing zeros: what a sparse page costs
    in a commit message or a log record. *)

val adopt : bytes -> image
(** [b] itself, uncopied: the caller must never write [b] again. *)

val trim : image -> image
(** The compact form; the image itself if it has no trailing zeros. *)

val widen : image -> image
(** The full-page form; the image itself if it is a full page. *)

val to_frame : image -> bytes
(** A fresh mutable frame holding the image, zero-padded to {!size}. *)

val read_frame : image -> bytes
(** The full-page image as a frame that is only ever read: the image
    itself when it is a full page.  Nothing may write to it. *)

val length : image -> int

val index_of : int -> int
(** Page index containing a byte offset. *)

val count_for : int -> int
(** Number of pages needed to hold [n] bytes (at least 1 for empty
    segments). *)
