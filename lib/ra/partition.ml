type mode = Read | Write

type fetch_data = Zeroed | Data of Page.image

exception No_segment of Sysname.t

type t = {
  name : string;
  fetch : seg:Sysname.t -> page:int -> mode:mode -> fetch_data;
  writeback : seg:Sysname.t -> page:int -> Page.image -> unit;
}

type merge = Add | Max

type consistency = One_copy | Release | Commutative of merge

let pp_merge fmt = function
  | Add -> Format.pp_print_string fmt "add"
  | Max -> Format.pp_print_string fmt "max"

let pp_consistency fmt = function
  | One_copy -> Format.pp_print_string fmt "one-copy"
  | Release -> Format.pp_print_string fmt "release"
  | Commutative m -> Format.fprintf fmt "commutative(%a)" pp_merge m

(* Merge-operator contract: pages are arrays of 64-bit little-endian
   words.  A replica's delta against its base image is combined into
   the home copy word by word; [Add] deltas are differences (so
   concurrent increments sum), [Max] deltas are absolute values (so
   the largest write wins per word).  Both operators are commutative
   and associative, which is what makes the mode arbitration-free. *)

let words (img : Page.image) = Page.length img / 8

let merge_delta op ~base ~current =
  match op with
  | Max -> current
  | Add ->
      let n = min (words base) (words current) in
      let base = (base :> string) and cur = (current :> string) in
      let out = Bytes.of_string cur in
      for i = 0 to n - 1 do
        let o = i * 8 in
        Bytes.set_int64_le out o
          (Int64.sub (String.get_int64_le cur o) (String.get_int64_le base o))
      done;
      Page.adopt out

let apply_merge op ~into delta =
  let n = min (Bytes.length into / 8) (words delta) in
  let delta = (delta :> string) in
  for i = 0 to n - 1 do
    let o = i * 8 in
    let a = Bytes.get_int64_le into o and d = String.get_int64_le delta o in
    let v =
      match op with
      | Add -> Int64.add a d
      | Max -> if Int64.compare d a > 0 then d else a
    in
    Bytes.set_int64_le into o v
  done
