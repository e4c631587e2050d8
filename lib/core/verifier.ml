module Ted = Tsj_ted.Ted
module Compiled = Tsj_ted.Bounds.Compiled
module Sweep = Tsj_join.Sweep

type form = { prep : Ted.prep; bounds : Compiled.t }

let of_prep prep = { prep; bounds = Compiled.of_prep prep }

let of_tree tree = of_prep (Ted.preprocess tree)

let tree f = Ted.tree f.prep

type stage = Size | Labels | Sed | Early | Kernel | Quarantined

module Tally = struct
  type t = int Atomic.t array

  let slot = function
    | Size -> 0
    | Labels -> 1
    | Sed -> 2
    | Early -> 3
    | Kernel -> 4
    | Quarantined -> 5

  let slots = 6

  let create () = Array.init slots (fun _ -> Atomic.make 0)

  let add t stage = Atomic.incr t.(slot stage)

  let to_array t = Array.map Atomic.get t

  let restore t counts =
    if Array.length counts <> slots then
      invalid_arg "Verifier.Tally.restore: wrong length";
    Array.iteri (fun i c -> Atomic.set t.(i) c) counts

  let cascade ?(memo_hits = 0) ?(memo_misses = 0) t =
    let get stage = Atomic.get t.(slot stage) in
    {
      Tsj_join.Types.pruned_size = get Size;
      pruned_labels = get Labels;
      pruned_degrees = 0;
      pruned_sed = get Sed;
      early_accepted = get Early;
      kernel_verified = get Kernel;
      quarantined = get Quarantined;
      memo_hits;
      memo_misses;
    }
end

type verdict = Decided of int * stage | Refused

type mode = Cascade | Seed | Unbounded

let always () = true

let verify ?metric ?(mode = Cascade) ?(admit = always) ~tau a b =
  if tau < 0 then invalid_arg "Verifier.verify: negative threshold";
  let kernel band =
    if admit () then
      Decided (Sweep.verify_bounded ?metric ~tau:band a.prep b.prep, Kernel)
    else Refused
  in
  match mode with
  | Cascade -> (
    if Ted.equal_consed a.prep b.prep then Decided (0, Early)
    else
      match Compiled.cascade ~tau a.bounds b.bounds with
      | Compiled.Pruned Compiled.Size -> Decided (tau + 1, Size)
      | Compiled.Pruned Compiled.Labels -> Decided (tau + 1, Labels)
      | Compiled.Pruned Compiled.Sed -> Decided (tau + 1, Sed)
      | Compiled.Accept d -> Decided (d, Early)
      | Compiled.Verify { band } -> kernel band)
  | Seed ->
    if Compiled.seed_prefilter ~tau a.bounds b.bounds then kernel tau
    else Decided (tau + 1, Sed)
  | Unbounded ->
    if admit () then Decided (Sweep.verify_distance ?metric a.prep b.prep, Kernel)
    else Refused

let sandwich a b = (Compiled.best a.bounds b.bounds, Compiled.upper a.bounds b.bounds)

let distance ?tally ~tau a b =
  match verify ~tau a b with
  | Decided (d, stage) ->
    Option.iter (fun t -> Tally.add t stage) tally;
    d
  | Refused -> assert false (* no [admit] gate *)
