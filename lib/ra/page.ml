let size = 8192

type image = string

let zero = String.make size '\000'

(* Scan back a word at a time over whole zero words (pages are
   word-aligned), then byte by byte through the last non-zero word:
   a sparse page costs a few hundred word reads, not 8 K byte reads. *)
let compact_length s =
  let n = ref (String.length s) in
  if !n land 7 = 0 then
    while !n > 0 && Int64.equal (String.get_int64_le s (!n - 8)) 0L do
      n := !n - 8
    done;
  while !n > 0 && s.[!n - 1] = '\000' do
    decr n
  done;
  !n

let of_bytes = Bytes.to_string

(* the scan only reads [b], which stays the caller's *)
let compact b = Bytes.sub_string b 0 (compact_length (Bytes.unsafe_to_string b))

let adopt = Bytes.unsafe_to_string

let trim img =
  let n = compact_length img in
  if n = String.length img then img else String.sub img 0 n

let to_frame img =
  let n = min (String.length img) size in
  let b = Bytes.create size in
  Bytes.blit_string img 0 b 0 n;
  Bytes.fill b n (size - n) '\000';
  b

let widen img =
  if String.length img >= size then img
  else Bytes.unsafe_to_string (to_frame img)

let read_frame img = Bytes.unsafe_of_string (widen img)

let length = String.length

let index_of off =
  if off < 0 then invalid_arg "Page.index_of: negative offset";
  off / size

let count_for n = if n <= 0 then 1 else (n + size - 1) / size
