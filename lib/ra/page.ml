let size = 8192

let zero () = Bytes.make size '\000'

let copy b = Bytes.copy b

(* Scan back a word at a time over whole zero words (pages are
   word-aligned), then byte by byte through the last non-zero word:
   a sparse page costs a few hundred word reads, not 8 K byte reads. *)
let compact b =
  let n = ref (Bytes.length b) in
  if !n land 7 = 0 then
    while !n > 0 && Int64.equal (Bytes.get_int64_le b (!n - 8)) 0L do
      n := !n - 8
    done;
  while !n > 0 && Bytes.get b (!n - 1) = '\000' do
    decr n
  done;
  Bytes.sub b 0 !n

let index_of off =
  if off < 0 then invalid_arg "Page.index_of: negative offset";
  off / size

let count_for n = if n <= 0 then 1 else (n + size - 1) / size
