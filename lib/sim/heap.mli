(** A polymorphic binary min-heap on a growable array.

    The engine uses it to order the far-tier buckets of its event
    queue, a heap touched once per bucket; the per-event near tier is
    a specialized heap inside [Engine]. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp]. *)

val length : 'a t -> int
(** Number of elements currently in the heap. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** [push h x] inserts [x]. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns a minimal element, or [None] if the
    heap is empty. *)

val peek : 'a t -> 'a option
(** [peek h] returns a minimal element without removing it. *)

val clear : 'a t -> unit
(** Remove every element. *)
