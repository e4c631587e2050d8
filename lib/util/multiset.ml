type t = int array

(* Every function is annotated at [int array]: left polymorphic, the
   comparisons in the merge walks and the binary search compile to
   out-of-line [caml_lessthan] / [caml_compare] calls, and these walks
   run on every candidate pair of the join's filter cascade. *)

let of_unsorted (a : int array) =
  let b = Array.copy a in
  Array.sort Int.compare b;
  b

let of_sorted (a : int array) =
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) > a.(i) then invalid_arg "Multiset.of_sorted: not sorted"
  done;
  a

let size = Array.length

let inter_size (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let rec go i j acc =
    if i >= na || j >= nb then acc
    else if a.(i) < b.(j) then go (i + 1) j acc
    else if a.(i) > b.(j) then go i (j + 1) acc
    else go (i + 1) (j + 1) (acc + 1)
  in
  go 0 0 0

let union_size a b = Array.length a + Array.length b - inter_size a b

let symmetric_difference_size a b =
  Array.length a + Array.length b - (2 * inter_size a b)

(* Standard binary search for the leftmost occurrence. *)
let lower_bound (a : int array) x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let mem (a : int array) x =
  let i = lower_bound a x in
  i < Array.length a && a.(i) = x

let count (a : int array) x =
  let i = ref (lower_bound a x) in
  let c = ref 0 in
  while !i < Array.length a && a.(!i) = x do
    incr c;
    incr i
  done;
  !c

let to_array a = Array.copy a
