(* Fails when a hot module of the join calls a polymorphic primitive.

   The build has no flambda, so a comparison, [min]/[max] or generic
   [Hashtbl] operation whose type the compiler cannot see as [int]
   stays an out-of-line call into the runtime (caml_compare,
   caml_hash, ...) — one per DP cell or per index lookup in these
   modules.  Usage:

     nm_guard PROBE.o HOT.o...

   PROBE.o is the object of [Poly_probe], which uses each forbidden
   primitive once; the forbidden set is the undefined symbols of the
   probe that fall in the families below (the stdlib's numeric symbol
   suffixes are read from there, which also tells the polymorphic
   [Hashtbl.find] apart from the one a [Hashtbl.Make] instance calls).
   Each HOT.o must reference none of them. *)

let families =
  [
    ("caml_compare", `Exact);
    ("caml_equal", `Exact);
    ("caml_notequal", `Exact);
    ("caml_lessthan", `Exact);
    ("caml_lessequal", `Exact);
    ("caml_greaterthan", `Exact);
    ("caml_greaterequal", `Exact);
    ("caml_hash", `Exact);
    ("camlStdlib.min_", `Numbered);
    ("camlStdlib.max_", `Numbered);
    ("camlStdlib__Hashtbl.find_", `Numbered);
    ("camlStdlib__Hashtbl.find_opt_", `Numbered);
    ("camlStdlib__Hashtbl.mem_", `Numbered);
    ("camlStdlib__Hashtbl.add_", `Numbered);
    ("camlStdlib__Hashtbl.replace_", `Numbered);
  ]

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let in_family sym (name, kind) =
  match kind with
  | `Exact -> sym = name
  | `Numbered ->
    let n = String.length name in
    String.length sym > n
    && String.sub sym 0 n = name
    && is_digits (String.sub sym n (String.length sym - n))

(* Undefined symbols of an object file, with the leading underscore of
   Mach-O symbol names stripped. *)
let undefined obj =
  let ic = Unix.open_process_args_in "nm" [| "nm"; "-u"; obj |] in
  let rec read acc =
    match input_line ic with
    | line -> (
      match List.rev (String.split_on_char ' ' (String.trim line)) with
      | sym :: _ when sym <> "" ->
        let sym =
          if sym.[0] = '_' && String.length sym > 1 && sym.[1] = 'c' then
            String.sub sym 1 (String.length sym - 1)
          else sym
        in
        read (sym :: acc)
      | _ -> read acc)
    | exception End_of_file -> acc
  in
  let syms = read [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> syms
  | _ ->
    Printf.eprintf "nm_guard: nm -u %s failed\n" obj;
    exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: probe :: hot when hot <> [] ->
    let probe_syms = undefined probe in
    let forbidden =
      List.filter (fun s -> List.exists (in_family s) families) probe_syms
    in
    (* A family the probe does not show would silently never match. *)
    let blind = List.filter (fun f -> not (List.exists (fun s -> in_family s f) forbidden)) families in
    if blind <> [] then begin
      List.iter
        (fun (name, _) -> Printf.eprintf "nm_guard: probe shows no %s symbol\n" name)
        blind;
      exit 2
    end;
    let failures =
      List.concat_map
        (fun obj ->
          List.filter_map
            (fun s -> if List.mem s forbidden then Some (obj, s) else None)
            (undefined obj))
        hot
    in
    if failures <> [] then begin
      List.iter
        (fun (obj, s) ->
          Printf.eprintf "nm_guard: %s calls polymorphic %s\n" (Filename.basename obj) s)
        failures;
      exit 1
    end;
    Printf.printf "nm_guard: %d hot modules call none of %d polymorphic primitives\n"
      (List.length hot) (List.length forbidden)
  | _ ->
    prerr_endline "usage: nm_guard PROBE.o HOT.o...";
    exit 2
