module Tree = Tsj_tree.Tree
module Types = Tsj_join.Types
module Timer = Tsj_util.Timer

(* A static collection is the streaming index with every tree inserted
   up front: one probe and one verifier for both. *)
type t = Incremental.t

let build ?mode ~tau trees =
  if tau < 0 then invalid_arg "Search.build: negative threshold";
  let t = Incremental.create ?mode ~tau () in
  Array.iter (Incremental.insert t) trees;
  t

let tau = Incremental.tau

let n_trees = Incremental.n_trees

let trees t = Array.init (n_trees t) (Incremental.tree t)

let check_tau t tau =
  if tau > Incremental.tau t then
    invalid_arg
      (Printf.sprintf "Search.query: tau = %d exceeds the index threshold %d" tau
         (Incremental.tau t));
  if tau < 0 then invalid_arg "Search.query: negative threshold"

let query ?tau t q =
  let tau = Option.value tau ~default:(Incremental.tau t) in
  check_tau t tau;
  (Incremental.query ~tau t q).Incremental.hits

let format_line = "tsj-search-index v1"

(* Also the snapshot format of the server store (Tsj_server.Store):
   publication is atomic (tmp + rename, directory fsynced so the rename
   survives a machine crash) so a crash mid-save leaves either the
   previous complete file or a stray .tmp, never a torn collection. *)
let save_collection ~tau trees path =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      Printf.fprintf oc "# %s\n# tau %d\n" format_line tau;
      Array.iter
        (fun tree ->
          Out_channel.output_string oc (Tsj_tree.Bracket.to_string tree);
          Out_channel.output_char oc '\n')
        trees);
  Tsj_util.Durable.rename tmp path

let save t path = save_collection ~tau:(tau t) (trees t) path

(* One record per line, parsed line by line so every diagnostic carries
   the 1-based file line (the header occupies lines 1-2).  The error
   strings match the lenient bracket parser's ["line L, column C"]
   convention. *)
let collection_of_string ?(allow_duplicates = false) contents =
  (match String.split_on_char '\n' contents with
    | header :: tau_line :: body when header = "# " ^ format_line -> (
      let located line msg = Error (Printf.sprintf "line %d: %s" line msg) in
      match String.split_on_char ' ' tau_line with
      | [ "#"; "tau"; tau_s ] -> (
        match int_of_string_opt tau_s with
        | None -> located 2 (Printf.sprintf "corrupt tau header %S" tau_s)
        | Some tau when tau < 0 ->
          located 2 (Printf.sprintf "negative threshold tau = %d in header" tau)
        | Some tau ->
          let n_body = List.length body in
          let seen = Hashtbl.create 64 in
          let is_blank s = String.trim s = "" in
          let is_comment s =
            let s = String.trim s in
            String.length s > 0 && s.[0] = '#'
          in
          let rec records k acc = function
            | [] -> Ok (tau, Array.of_list (List.rev acc))
            | line :: rest ->
              let lineno = k + 3 (* header is lines 1-2 *) in
              if is_blank line then
                if k = n_body - 1 then
                  (* the virtual segment after the final newline *)
                  records (k + 1) acc rest
                else located lineno "empty record"
              else if is_comment line then records (k + 1) acc rest
              else (
                match Tsj_tree.Bracket.of_string line with
                | Error msg ->
                  (* [of_string] saw a single line, so its location prefix
                     is always "line 1, "; splice in the file line. *)
                  let msg =
                    let prefix = "line 1, " in
                    let n = String.length prefix in
                    if String.length msg >= n && String.sub msg 0 n = prefix then
                      Printf.sprintf "line %d, %s" lineno
                        (String.sub msg n (String.length msg - n))
                    else Printf.sprintf "line %d: %s" lineno msg
                  in
                  Error msg
                | Ok tree ->
                  let key = Tsj_tree.Bracket.to_string tree in
                  (match Hashtbl.find_opt seen key with
                  | Some first when not allow_duplicates ->
                    located lineno
                      (Printf.sprintf "duplicate record (identical to line %d)" first)
                  | Some _ | None ->
                    if not (Hashtbl.mem seen key) then Hashtbl.add seen key lineno;
                    records (k + 1) (tree :: acc) rest))
          in
          records 0 [] body)
      | _ -> located 2 "corrupt tau header")
    | _ -> Error "not a tsj search index file")

let read_collection ?allow_duplicates path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> collection_of_string ?allow_duplicates contents

let load path =
  match read_collection path with
  | Error _ as e -> e
  | Ok (tau, trees) -> Ok (build ~tau trees)

let nearest ~k t q =
  if k < 0 then invalid_arg "Search.nearest: negative k";
  Incremental.nearest ~k t q

let join_with ?tau t probes =
  let tau = Option.value tau ~default:(Incremental.tau t) in
  check_tau t tau;
  let cand_timer = Timer.create () in
  let verify_timer = Timer.create () in
  let tally = Verifier.Tally.create () in
  let n_candidates = ref 0 in
  let pairs = ref [] in
  Array.iteri
    (fun j q ->
      let cands = Timer.time cand_timer (fun () -> Incremental.candidates t ~tau q) in
      let qform = Timer.time verify_timer (fun () -> Verifier.of_tree q) in
      List.iter
        (fun i ->
          incr n_candidates;
          let d =
            Timer.time verify_timer (fun () ->
                Verifier.distance ~tally ~tau qform (Incremental.form t i))
          in
          if d <= tau then pairs := { Types.i; j; distance = d } :: !pairs)
        cands)
    probes;
  let pairs = List.rev !pairs in
  (* The window statistic for a non-self join: probe-indexed pairs within
     the size band. *)
  let window =
    let sizes_indexed = Array.map Tree.size (trees t) in
    Array.fold_left
      (fun acc q ->
        let qs = Tree.size q in
        acc
        + Array.fold_left
            (fun acc s -> if abs (s - qs) <= tau then acc + 1 else acc)
            0 sizes_indexed)
      0 probes
  in
  {
    Types.pairs;
    quarantined = [];
    stats =
      {
        Types.n_trees = n_trees t + Array.length probes;
        tau;
        n_window_pairs = window;
        n_candidates = !n_candidates;
        n_results = List.length pairs;
        candidate_time_s = Timer.elapsed_s cand_timer;
        verify_time_s = Timer.elapsed_s verify_timer;
        cascade = Verifier.Tally.cascade tally;
      };
  }
