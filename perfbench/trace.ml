(* In-memory span recorder for the traced run.

   A span is a named interval around one call into a layer, with the
   span that was open when it started as its parent and the request it
   belongs to.  Spans are recorded from the benchmark's side of each
   public call, so the program under test is not modified.  Nothing is
   written until [write] at the end of the run; [self_times] charges
   each span its duration minus the time covered by its direct
   children. *)

type span = {
  name : string;
  t0 : float;
  t1 : float;
  parent : int;  (* index of the parent span, -1 for a root *)
  req : int;  (* request id, -1 when the span belongs to no request *)
}

let enabled = ref false

let spans = ref [||]

let count = ref 0

let current = ref (-1)

let dummy = { name = ""; t0 = 0.0; t1 = 0.0; parent = -1; req = -1 }

let reset () =
  spans := [||];
  count := 0;
  current := -1

let alloc () =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 4096 (2 * !count)) dummy in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  let i = !count in
  incr count;
  i

(* A span whose duration was measured elsewhere (an accumulated
   per-call timer), nested under the currently open span. *)
let record name t0 t1 =
  if !enabled then !spans.(alloc ()) <- { name; t0; t1; parent = !current; req = -1 }

(* An asynchronous span: opened now, closed by [close] later (a request
   sent in one loop iteration and answered in a later one).  Returns -1
   when tracing is off. *)
let open_ ?(req = -1) name =
  if not !enabled then -1
  else begin
    let i = alloc () in
    !spans.(i) <- { name; t0 = Common.now (); t1 = nan; parent = -1; req };
    i
  end

let close i = if i >= 0 then !spans.(i) <- { !spans.(i) with t1 = Common.now () }

(* Run [f] inside a span nested under [parent] (default: the currently
   open one). *)
let span ?(req = -1) ?parent name f =
  if not !enabled then f ()
  else begin
    let i = alloc () in
    let parent = Option.value parent ~default:!current in
    current := i;
    let t0 = Common.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Common.now () in
        !spans.(i) <- { name; t0; t1; parent; req };
        current := parent)
      f
  end

(* Per span name: (calls, total seconds, self seconds), sorted by name. *)
let self_times () =
  let n = !count in
  let child = Array.make n 0.0 in
  let closed i = not (Float.is_nan !spans.(i).t1) in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 && closed i then child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0)
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if closed i then
    let c, tot, self = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0) in
    let d = s.t1 -. s.t0 in
    Hashtbl.replace tbl s.name (c + 1, tot +. d, self +. Float.max 0.0 (d -. child.(i)))
  done;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [] |> List.sort compare

(* Spans as JSON lines: name, start, end, parent, request. *)
let write path =
  let oc = open_out path in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc "{\"i\":%d,\"name\":%s,\"t0\":%.9f,\"t1\":%.9f,\"parent\":%d,\"req\":%d}\n" i
      (Common.json_string s.name) s.t0 s.t1 s.parent s.req
  done;
  close_out oc

(* A timer of one layer: calls and accumulated seconds. *)
type acc = { mutable n : int; mutable s : float }

let acc () = { n = 0; s = 0.0 }

let add a dt =
  a.n <- a.n + 1;
  a.s <- a.s +. dt

(* A timed call into one layer: a span when tracing, always counted in
   [a]. *)
let timed name a f =
  let t0 = Common.now () in
  let r = span name f in
  add a (Common.now () -. t0);
  r

let mean_us a = Common.us a.s a.n
