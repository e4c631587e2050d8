(* Multiplicative mix, then fold the high half down: the functor's
   tables index buckets by the low bits of the hash, and keys such as
   postorder positions, tree ids or sizes are small and dense. *)
let hash x =
  let h = x * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash = hash
end)

module Triple = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((a1 : int), (b1 : int), (c1 : int)) (a2, b2, c2) =
    a1 = a2 && b1 = b2 && c1 = c2

  let hash (a, b, c) = hash ((((a * 1000003) + b) * 1000003) + c)
end)
