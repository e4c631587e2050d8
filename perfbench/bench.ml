(* Entry point of the repository benchmark.

     bench.exe --workload join|serve-read|serve-ingest --seed N
               --seconds S --trace 0|1 [--rev R] [--build-profile P]
     bench.exe --selfcheck

   Prints the report on stderr, then on stdout one JSON line with the
   run's context and every detail figure, and last the result line
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  Exits 3 without a
   result when the run is invalid (the generator fell behind, or more
   domains than cores). *)

open Common

let workloads = [ "join"; "serve-read"; "serve-ingest" ]

(* Largest tolerated p99 of how late the generator sent against its
   schedule at the nominal rate.  The shared host alone delays a timer
   wake-up by up to ~20 ms at p99 when busy; beyond this the open loop
   no longer offers the scheduled load. *)
let max_lag_ms = 50.0

(* Domains the run uses: the serving workloads add the generator's. *)
let domains_used = function "join" -> 1 | _ -> 2

exception Invalid of string

type outcome = {
  metrics : metric list;
  detail : metric list;
  attempted : int;
  failed : int;
}

let check_lag lag =
  if lag > max_lag_ms then
    raise (Invalid (Printf.sprintf "generator lag p99 %.3f ms > %.1f ms" lag max_lag_ms))

let run_workload ~tiny ~seed ~seconds ~trace name =
  (* Set-ups per run (the median is reported): as many as fit in a few
     seconds. *)
  let setup_reps =
    if tiny then 1 else match name with "join" -> 9 | "serve-ingest" -> 5 | _ -> 3
  in
  let serve spec_full spec_tiny =
    let spec = if tiny then spec_tiny else spec_full in
    if trace then begin
      let layers, attempted, failed, lag = W_serve.run_traced ~seed ~seconds spec in
      check_lag lag;
      let detail = [ metric "loadgen.lag_p99_ms" "ms" lag ] in
      { metrics = Layers.complete layers; detail; attempted; failed }
    end
    else begin
      let metrics, detail, attempted, failed, lag = W_serve.run ~seed ~seconds ~setup_reps spec in
      check_lag lag;
      { metrics; detail; attempted; failed }
    end
  in
  match name with
  | "join" ->
    let spec = if tiny then W_join.tiny else W_join.full in
    if trace then begin
      let layers, attempted, failed = W_join.run_traced ~seed spec in
      { metrics = Layers.complete layers; detail = []; attempted = max 1 attempted; failed }
    end
    else begin
      let metrics, detail, attempted, failed = W_join.run ~seed ~seconds ~setup_reps spec in
      { metrics; detail; attempted = max 1 attempted; failed }
    end
  | "serve-read" -> serve W_serve.read_full W_serve.read_tiny
  | "serve-ingest" -> serve W_serve.ingest_full W_serve.ingest_tiny
  | w -> invalid_arg ("unknown workload " ^ w)

let context ~rev ~profile ~name ~seed ~seconds ~trace =
  [
    ("git_rev", json_string rev);
    ( "date",
      let t = Unix.gmtime (Unix.time ()) in
      json_string
        (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900) (t.tm_mon + 1) t.tm_mday
           t.tm_hour t.tm_min t.tm_sec) );
    ("nproc", string_of_int (nproc ()));
    ("domains_used", string_of_int (domains_used name));
    ("ocaml", json_string Sys.ocaml_version);
    ("build_profile", json_string profile);
    ("workload", json_string name);
    ("seed", string_of_int seed);
    ("seconds", json_number seconds);
    ("trace", if trace then "1" else "0");
  ]

let emit ~ctx o =
  print_endline (json_fields [ ("context", json_fields ctx); ("detail", "{" ^ json_metrics o.detail ^ "}") ]);
  print_endline
    (json_fields
       [
         ("correct", "true");
         ("attempted", string_of_int o.attempted);
         ("failed", string_of_int o.failed);
         ("metrics", "{" ^ json_metrics o.metrics ^ "}");
       ])

let selfcheck () =
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let o = run_workload ~tiny:true ~seed:1 ~seconds:1.0 ~trace name in
          report "selfcheck %s trace=%b: %d attempted, %d failed, %d metrics" name trace o.attempted o.failed
            (List.length o.metrics);
          if o.failed > 0 then raise (Check_failed (name ^ ": failed operations in the self-check")))
        [ false; true ])
    workloads;
  report "selfcheck ok"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rev = ref "unknown" and profile = ref "unknown" and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " join | serve-read | serve-ingest");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 1: traced run with per-layer metrics");
      ("--rev", Arg.Set_string rev, " source revision to record");
      ("--build-profile", Arg.Set_string profile, " dune build profile to record");
      ("--selfcheck", Arg.Set self, " tiny-scale run of every workload with all output checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  (* A reply the server writes after the generator hung up must not kill
     the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  try
    if !self then selfcheck ()
    else begin
      if not (List.mem !workload workloads) then raise (Arg.Bad ("unknown workload " ^ !workload));
      if domains_used !workload > nproc () then
        raise (Invalid (Printf.sprintf "needs %d domains, nproc is %d" (domains_used !workload) (nproc ())));
      let trace = !trace = 1 in
      let ctx = context ~rev:!rev ~profile:!profile ~name:!workload ~seed:!seed ~seconds:!seconds ~trace in
      let o = run_workload ~tiny:false ~seed:!seed ~seconds:!seconds ~trace !workload in
      if trace then Trace.write "trace.jsonl";
      print_table (!workload ^ if trace then " per-layer" else " end-to-end") o.metrics;
      if o.detail <> [] then print_table "detail" o.detail;
      emit ~ctx o
    end
  with
  | Check_failed msg ->
    report "OUTPUT CHECK FAILED: %s" msg;
    if not !self then
      print_endline
        (json_fields [ ("correct", "false"); ("attempted", "1"); ("failed", "1"); ("metrics", "{}") ]);
    exit 1
  | Invalid msg ->
    report "INVALID RUN: %s" msg;
    exit 3
  | Arg.Bad msg ->
    report "%s" msg;
    exit 2
