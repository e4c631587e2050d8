(* Reference object for [nm_guard]: calls every polymorphic primitive
   that the join's hot modules must not call, each at a polymorphic
   type, so that this module's native object references each one
   out of line.  The guard reads the exact symbol names from here
   rather than hard-coding the stdlib's internal numbering. *)

let compares (a : 'a) (b : 'a) =
  [
    compare a b;
    Bool.to_int (a = b);
    Bool.to_int (a <> b);
    Bool.to_int (a < b);
    Bool.to_int (a <= b);
    Bool.to_int (a > b);
    Bool.to_int (a >= b);
    Hashtbl.hash a;
  ]

let min_max (a : 'a) (b : 'a) = (min a b, max a b)

let tables (t : ('a, 'b) Hashtbl.t) (k : 'a) (v : 'b) =
  Hashtbl.add t k v;
  Hashtbl.replace t k v;
  (Hashtbl.find t k, Hashtbl.find_opt t k, Hashtbl.mem t k)
