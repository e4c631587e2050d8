(* Shared helpers: clock, sample statistics, process memory, the result
   line and the metric table. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile of an unsorted sample, [p] in [0, 100]. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile xs 50.0

(* The tail figure of a latency sample: p99 when at least ten samples lie
   beyond it, otherwise the highest percentile that still has ten beyond
   it; with eleven samples or fewer, the maximum.  Returns the value and
   the percentile it stands for. *)
let tail xs =
  let n = Array.length xs in
  if n <= 11 then (percentile xs 100.0, 100.0)
  else begin
    let p = Float.min 99.0 (100.0 *. float_of_int (n - 10) /. float_of_int n) in
    (percentile xs p, p)
  end

(* Processor time of the whole process (every thread and domain), s. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Microseconds per item of [s] seconds spread over [count] items. *)
let us s count = if count = 0 then 0.0 else 1e6 *. s /. float_of_int count

(* Peak resident set of this process (VmHWM), MiB. *)
let vm_hwm_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Reset VmHWM to the current resident set, so that the next reading is
   the peak of what runs in between (Linux: write 5 to clear_refs). *)
let reset_hwm () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let nproc () = Domain.recommended_domain_count ()

(* --- metric table --- *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
           (json_number m.value) (json_string m.unit_))
       ms)

let json_fields fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* Human-readable report on stderr: stdout carries only JSON lines. *)
let report fmt = Printf.eprintf (fmt ^^ "\n%!")

let print_table title ms =
  report "-- %s" title;
  List.iter (fun m -> report "  %-34s %16s %s" m.name (json_number m.value) m.unit_) ms

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* --- inputs --- *)

(* Every workload samples its trees from a fixed corpus of its profile,
   generated from this constant: the seed picks which trees (and the
   request stream), while the corpus itself — its template trees, hence
   how much work a join or a query meets — stays the same from run to
   run, as a real corpus would. *)
let corpus_seed = 20150831

(* [n] trees of a [pool]-tree corpus of [profile], in a seeded order. *)
let sample ~seed profile ~pool ~n =
  let all = Tsj_datagen.Profiles.instantiate profile ~seed:corpus_seed ~n:pool in
  let idx = Array.init pool Fun.id in
  Tsj_util.Prng.shuffle (Tsj_util.Prng.create seed) idx;
  Array.init n (fun i -> all.(idx.(i)))
