module Tree = Tsj_tree.Tree
module Bracket = Tsj_tree.Bracket

(* --- addresses --- *)

type addr = Unix_path of string | Tcp of string * int

let addr_of_string s =
  let s = String.trim s in
  if s = "" then Error "empty address"
  else if String.contains s '/' || not (String.contains s ':') then Ok (Unix_path s)
  else begin
    let i = String.rindex s ':' in
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 ->
      Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
    | _ -> Error (Printf.sprintf "bad port %S in address %S" port s)
  end

let addr_to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

(* --- requests --- *)

type request =
  | Query of { tau : int; tree : Tree.t }
  | Knn of { k : int; tree : Tree.t }
  | Add of { seq : int option; tree : Tree.t }
  | Stats
  | Health
  | Drain
  | Sync of { epoch : int; from_seq : int }
  | Ack of int
  | Get of int
  | Digest of { epoch : int; lo : int; hi : int }
  | Promote

let split_first_word s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
    (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))

(* Largest remaining-budget value the wire can carry: one below the
   binary frames' "absent" sentinel, so every clamped deadline encodes
   as a non-sentinel u32. *)
let max_deadline_ms = 0xFFFF_FFFE

(* An optional remaining-budget token "@<ms>" may precede the tree on
   QUERY/KNN/ADD (a bracket tree cannot start with '@', so the forms
   stay unambiguous).  A malformed token is a hard parse error — never
   silently treated as part of the tree — so garbage deadlines get a
   precise ERR instead of a confusing bracket diagnostic. *)
let take_deadline what raw =
  if String.length raw > 0 && raw.[0] = '@' then begin
    let arg, rest = split_first_word raw in
    let num = String.sub arg 1 (String.length arg - 1) in
    match int_of_string_opt num with
    | Some ms when ms >= 0 -> Ok (Some (min ms max_deadline_ms), rest)
    | _ ->
      Error
        (Printf.sprintf "%s: bad deadline token %S (expected @<milliseconds>)"
           what arg)
  end
  else Ok (None, raw)

(* A request whose integer argument fails to parse, whose tree is
   malformed (diagnosed by the located bracket parser) or whose verb is
   unknown yields [Error reason] — never an exception.  The server turns
   the reason into an [ERR] reply.  The second component of the result
   is the remaining-budget deadline in milliseconds, when present. *)
let parse_request_d line =
  let int_and_tree what raw k =
    let arg, rest = split_first_word raw in
    match int_of_string_opt arg with
    | None -> Error (Printf.sprintf "%s: expected an integer, found %S" what arg)
    | Some n -> (
      match take_deadline what rest with
      | Error e -> Error e
      | Ok (deadline, rest) -> (
        if rest = "" then Error (Printf.sprintf "%s: missing tree" what)
        else
          match Bracket.of_string rest with
          | Error msg -> Error (Printf.sprintf "%s: %s" what msg)
          | Ok tree -> k n deadline tree))
  in
  let verb, rest = split_first_word line in
  match String.uppercase_ascii verb with
  | "QUERY" ->
    int_and_tree "QUERY" rest (fun tau deadline tree ->
        if tau < 0 then Error "QUERY: negative threshold"
        else Ok (Query { tau; tree }, deadline))
  | "KNN" ->
    int_and_tree "KNN" rest (fun k deadline tree ->
        if k < 0 then Error "KNN: negative k" else Ok (Knn { k; tree }, deadline))
  | "ADD" -> (
    if rest = "" then Error "ADD: missing tree"
    else
      (* An optional client-chosen sequence number precedes the
         (optional) deadline token and the tree; a bracket tree cannot
         start with a digit, so the forms are unambiguous.  See the
         idempotency contract in the interface. *)
      let arg, after = split_first_word rest in
      match int_of_string_opt arg with
      | Some seq when seq < 0 -> Error "ADD: negative sequence number"
      | Some seq -> (
        match take_deadline "ADD" after with
        | Error e -> Error e
        | Ok (deadline, after) -> (
          if after = "" then Error "ADD: missing tree"
          else
            match Bracket.of_string after with
            | Error msg -> Error (Printf.sprintf "ADD: %s" msg)
            | Ok tree -> Ok (Add { seq = Some seq; tree }, deadline)))
      | None -> (
        match take_deadline "ADD" rest with
        | Error e -> Error e
        | Ok (deadline, rest) -> (
          if rest = "" then Error "ADD: missing tree"
          else
            match Bracket.of_string rest with
            | Error msg -> Error (Printf.sprintf "ADD: %s" msg)
            | Ok tree -> Ok (Add { seq = None; tree }, deadline))))
  | "SYNC" -> (
    match String.split_on_char ' ' rest with
    | [ e; s ] -> (
      match (int_of_string_opt e, int_of_string_opt s) with
      | Some epoch, Some from_seq when epoch >= 0 && from_seq >= 0 ->
        Ok (Sync { epoch; from_seq }, None)
      | _ -> Error "SYNC: expected two non-negative integers")
    | _ -> Error "SYNC: expected <epoch> <from_seq>")
  | "ACKED" -> (
    match int_of_string_opt rest with
    | Some seq when seq >= 0 -> Ok (Ack seq, None)
    | _ -> Error "ACKED: expected a non-negative integer")
  | "GET" -> (
    match int_of_string_opt rest with
    | Some seq when seq >= 0 -> Ok (Get seq, None)
    | _ -> Error "GET: expected a non-negative sequence number")
  | "DIGEST" -> (
    match String.split_on_char ' ' rest with
    | [ e; lo; hi ] -> (
      match (int_of_string_opt e, int_of_string_opt lo, int_of_string_opt hi) with
      | Some epoch, Some lo, Some hi when epoch >= 0 && 0 <= lo && lo <= hi ->
        Ok (Digest { epoch; lo; hi }, None)
      | _ -> Error "DIGEST: expected <epoch> <lo> <hi> with 0 <= lo <= hi")
    | _ -> Error "DIGEST: expected <epoch> <lo> <hi>")
  | "STATS" when rest = "" -> Ok (Stats, None)
  | "HEALTH" when rest = "" -> Ok (Health, None)
  | "DRAIN" when rest = "" -> Ok (Drain, None)
  | "PROMOTE" when rest = "" -> Ok (Promote, None)
  | ("STATS" | "HEALTH" | "DRAIN" | "PROMOTE") as v ->
    Error (Printf.sprintf "%s takes no arguments" v)
  | "" -> Error "empty request"
  | other ->
    Error
      (Printf.sprintf
         "unknown command %S (expected QUERY, KNN, ADD, GET, DIGEST, STATS, HEALTH, \
          DRAIN, SYNC, ACKED or PROMOTE)"
         other)

let parse_request line =
  match parse_request_d line with Ok (req, _) -> Ok req | Error _ as e -> e

let render_request_d ?deadline_ms req =
  let d =
    match deadline_ms with
    | None -> ""
    | Some ms -> Printf.sprintf "@%d " (max 0 (min ms max_deadline_ms))
  in
  match req with
  | Query { tau; tree } ->
    Printf.sprintf "QUERY %d %s%s" tau d (Bracket.to_string tree)
  | Knn { k; tree } -> Printf.sprintf "KNN %d %s%s" k d (Bracket.to_string tree)
  | Add { seq = None; tree } -> Printf.sprintf "ADD %s%s" d (Bracket.to_string tree)
  | Add { seq = Some seq; tree } ->
    Printf.sprintf "ADD %d %s%s" seq d (Bracket.to_string tree)
  | Stats -> "STATS"
  | Health -> "HEALTH"
  | Drain -> "DRAIN"
  | Sync { epoch; from_seq } -> Printf.sprintf "SYNC %d %d" epoch from_seq
  | Ack seq -> Printf.sprintf "ACKED %d" seq
  | Get seq -> Printf.sprintf "GET %d" seq
  | Digest { epoch; lo; hi } -> Printf.sprintf "DIGEST %d %d %d" epoch lo hi
  | Promote -> "PROMOTE"

let render_request req = render_request_d req

(* --- responses --- *)

type stats_reply = {
  trees : int;
  tau : int;
  queries : int;
  adds : int;
  shed : int;
  degraded : int;
  errors : int;
  quarantined : int;
  inflight : int;
  draining : bool;
  journal_records : int;
  epoch : int;
  primary : bool;
  dedup : int;
  scrubbed : int;  (** records re-verified by the background scrubber *)
  crc_failures : int;  (** checksum/seal findings (open + scrub) *)
  repaired : int;  (** healed records, scrub repairs, anti-entropy ranges *)
  expired : int;  (** requests dropped because their deadline had passed *)
  accept_pauses : int;  (** accept stalls after EMFILE/ENFILE *)
  reaped : int;  (** connections closed by hygiene (idle, overflow, max-conns) *)
  q_p50 : int;  (** QUERY service latency quantiles, µs (log-bucket) *)
  q_p95 : int;
  q_p99 : int;
  k_p50 : int;  (** KNN latency quantiles, µs *)
  k_p95 : int;
  k_p99 : int;
  a_p50 : int;  (** ADD latency quantiles, µs *)
  a_p95 : int;
  a_p99 : int;
}

(* The one description of STATS: every field as (text key, value) in wire
   order.  The text renderer and parser and the binary encoder and
   decoder are all driven by it and by [stats_of_fields], its inverse
   over field positions. *)
let stats_fields s =
  [
    ("trees", s.trees); ("tau", s.tau); ("queries", s.queries); ("adds", s.adds);
    ("shed", s.shed); ("degraded", s.degraded); ("errors", s.errors);
    ("quarantined", s.quarantined); ("inflight", s.inflight);
    ("draining", Bool.to_int s.draining); ("journal", s.journal_records);
    ("epoch", s.epoch); ("primary", Bool.to_int s.primary); ("dedup", s.dedup);
    ("scrubbed", s.scrubbed); ("crc_failures", s.crc_failures);
    ("repaired", s.repaired); ("expired", s.expired);
    ("accept_pauses", s.accept_pauses); ("reaped", s.reaped); ("q_p50", s.q_p50);
    ("q_p95", s.q_p95); ("q_p99", s.q_p99); ("k_p50", s.k_p50); ("k_p95", s.k_p95);
    ("k_p99", s.k_p99); ("a_p50", s.a_p50); ("a_p95", s.a_p95); ("a_p99", s.a_p99);
  ]

let stats_of_fields get =
  {
    trees = get 0; tau = get 1; queries = get 2; adds = get 3; shed = get 4;
    degraded = get 5; errors = get 6; quarantined = get 7; inflight = get 8;
    draining = get 9 = 1; journal_records = get 10; epoch = get 11;
    primary = get 12 = 1; dedup = get 13; scrubbed = get 14; crc_failures = get 15;
    repaired = get 16; expired = get 17; accept_pauses = get 18; reaped = get 19;
    q_p50 = get 20; q_p95 = get 21; q_p99 = get 22; k_p50 = get 23; k_p95 = get 24;
    k_p99 = get 25; a_p50 = get 26; a_p95 = get 27; a_p99 = get 28;
  }

let zero_stats = stats_of_fields (fun _ -> 0)

let stats_keys = Array.of_list (List.map fst (stats_fields zero_stats))

(* Pre-dedup servers sent only the first 13 fields; every later field
   was added by one server generation and reads as 0 when a peer omits
   it. *)
let stats_required = 13

type response =
  | Hits of {
      degraded : bool;
      hits : (int * int) list;  (** [(id, distance)] *)
      unverified : (int * int * int) list;  (** [(id, lower, upper)] *)
    }
  | Added of { id : int; partners : (int * int) list }
  | Tree_reply of { seq : int; tree : Tsj_tree.Tree.t }
  | Stats_reply of stats_reply
  | Health_reply of { draining : bool }
  | Drained
  | Busy of { retry_after_ms : int option }
      (** shed under overload; the hint, when present, is the earliest
          time a retry can be admitted *)
  | Err of string
  | Sync_stream of { epoch : int; base : int; high : int }
  | Record of string
  | Digest_reply of { epoch : int; lo : int; hi : int; digest : string }
  | Fenced of int
  | Promoted of int
  | Hello_reply of int
  | Redirect of string

(* Replies are single lines; strip any newline an error message smuggled
   in so the framing survives arbitrary reasons. *)
let one_line s =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let render_response r =
  let b = Buffer.create 64 in
  (match r with
  | Hits { degraded; hits; unverified } ->
    Buffer.add_string b
      (Printf.sprintf "HITS %d %d %d" (Bool.to_int degraded) (List.length hits)
         (List.length unverified));
    List.iter (fun (i, d) -> Buffer.add_string b (Printf.sprintf " %d:%d" i d)) hits;
    List.iter
      (fun (i, lo, hi) -> Buffer.add_string b (Printf.sprintf " %d:%d:%d" i lo hi))
      unverified
  | Added { id; partners } ->
    Buffer.add_string b (Printf.sprintf "ADDED %d %d" id (List.length partners));
    List.iter (fun (i, d) -> Buffer.add_string b (Printf.sprintf " %d:%d" i d)) partners
  | Tree_reply { seq; tree } ->
    Buffer.add_string b (Printf.sprintf "TREE %d %s" seq (Bracket.to_string tree))
  | Stats_reply s ->
    Buffer.add_string b "STATS";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%d" k v))
      (stats_fields s)
  | Health_reply { draining } ->
    Buffer.add_string b (if draining then "OK draining" else "OK serving")
  | Drained -> Buffer.add_string b "OK drained"
  | Busy { retry_after_ms = None } -> Buffer.add_string b "BUSY"
  | Busy { retry_after_ms = Some ms } ->
    Buffer.add_string b (Printf.sprintf "BUSY %d" (max 0 ms))
  | Err reason -> Buffer.add_string b ("ERR " ^ one_line reason)
  | Sync_stream { epoch; base; high } ->
    Buffer.add_string b (Printf.sprintf "SYNC %d %d %d" epoch base high)
  | Record line -> Buffer.add_string b ("RECORD " ^ one_line line)
  | Digest_reply { epoch; lo; hi; digest } ->
    Buffer.add_string b (Printf.sprintf "DIGEST %d %d %d %s" epoch lo hi digest)
  | Fenced epoch -> Buffer.add_string b (Printf.sprintf "FENCED %d" epoch)
  | Promoted epoch -> Buffer.add_string b (Printf.sprintf "PROMOTED %d" epoch)
  | Hello_reply version -> Buffer.add_string b (Printf.sprintf "HELLO BIN %d" version)
  | Redirect addr -> Buffer.add_string b ("REDIRECT " ^ one_line addr));
  Buffer.contents b

let parse_pair s =
  match String.split_on_char ':' s with
  | [ i; d ] -> (
    match (int_of_string_opt i, int_of_string_opt d) with
    | Some i, Some d -> Some (i, d)
    | _ -> None)
  | _ -> None

let parse_triple s =
  match String.split_on_char ':' s with
  | [ i; lo; hi ] -> (
    match (int_of_string_opt i, int_of_string_opt lo, int_of_string_opt hi) with
    | Some i, Some lo, Some hi -> Some (i, lo, hi)
    | _ -> None)
  | _ -> None

let rec take_map f n = function
  | rest when n = 0 -> Some ([], rest)
  | [] -> None
  | x :: rest -> (
    match f x with
    | None -> None
    | Some y -> (
      match take_map f (n - 1) rest with
      | None -> None
      | Some (ys, rest) -> Some (y :: ys, rest)))

let parse_response line =
  let fail () = Error (Printf.sprintf "malformed reply %S" line) in
  let raw = String.trim line in
  (* RECORD carries a raw journal line whose spacing must survive the
     round trip, so it is split off before the word-based dispatch. *)
  if String.length raw > 7 && String.uppercase_ascii (String.sub raw 0 7) = "RECORD " then
    Ok (Record (String.trim (String.sub raw 7 (String.length raw - 7))))
  else if String.length raw > 5 && String.uppercase_ascii (String.sub raw 0 5) = "TREE " then begin
    (* Like RECORD, the payload is "<seq> <bracket-tree>" where the tree
       must keep its exact bytes — split it off before the word-based
       dispatch. *)
    let rest = String.trim (String.sub raw 5 (String.length raw - 5)) in
    match String.index_opt rest ' ' with
    | None -> fail ()
    | Some i -> (
      match
        ( int_of_string_opt (String.sub rest 0 i),
          Bracket.of_string (String.sub rest (i + 1) (String.length rest - i - 1)) )
      with
      | Some seq, Ok tree when seq >= 0 -> Ok (Tree_reply { seq; tree })
      | _ -> fail ())
  end
  else
  let words =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' raw)
  in
  match words with
  | "HITS" :: deg :: nh :: nu :: rest -> (
    match (int_of_string_opt deg, int_of_string_opt nh, int_of_string_opt nu) with
    | Some deg, Some nh, Some nu when (deg = 0 || deg = 1) && nh >= 0 && nu >= 0 -> (
      match take_map parse_pair nh rest with
      | None -> fail ()
      | Some (hits, rest) -> (
        match take_map parse_triple nu rest with
        | Some (unverified, []) -> Ok (Hits { degraded = deg = 1; hits; unverified })
        | _ -> fail ()))
    | _ -> fail ())
  | "ADDED" :: id :: np :: rest -> (
    match (int_of_string_opt id, int_of_string_opt np) with
    | Some id, Some np when np >= 0 -> (
      match take_map parse_pair np rest with
      | Some (partners, []) -> Ok (Added { id; partners })
      | _ -> fail ())
    | _ -> fail ())
  | "STATS" :: fields -> (
    let tbl = Hashtbl.create 16 in
    let ok =
      List.for_all
        (fun f ->
          match String.index_opt f '=' with
          | None -> false
          | Some i -> (
            match int_of_string_opt (String.sub f (i + 1) (String.length f - i - 1)) with
            | None -> false
            | Some v ->
              Hashtbl.replace tbl (String.sub f 0 i) v;
              true))
        fields
    in
    let get i = Hashtbl.find_opt tbl stats_keys.(i) in
    if ok && List.for_all (fun i -> get i <> None) (List.init stats_required Fun.id) then
      Ok (Stats_reply (stats_of_fields (fun i -> Option.value (get i) ~default:0)))
    else fail ())
  | [ "OK"; "serving" ] -> Ok (Health_reply { draining = false })
  | [ "OK"; "draining" ] -> Ok (Health_reply { draining = true })
  | [ "OK"; "drained" ] -> Ok Drained
  | [ "BUSY" ] -> Ok (Busy { retry_after_ms = None })
  | [ "BUSY"; ms ] -> (
    match int_of_string_opt ms with
    | Some ms when ms >= 0 -> Ok (Busy { retry_after_ms = Some ms })
    | _ -> fail ())
  | [ "SYNC"; e; b ] -> (
    (* Pre-binary stream header without the high-water mark: treat the
       base as the only known bound so staleness stays conservative. *)
    match (int_of_string_opt e, int_of_string_opt b) with
    | Some epoch, Some base when epoch >= 0 && base >= 0 ->
      Ok (Sync_stream { epoch; base; high = base })
    | _ -> fail ())
  | [ "SYNC"; e; b; h ] -> (
    match (int_of_string_opt e, int_of_string_opt b, int_of_string_opt h) with
    | Some epoch, Some base, Some high when epoch >= 0 && base >= 0 && high >= 0 ->
      Ok (Sync_stream { epoch; base; high = max base high })
    | _ -> fail ())
  | [ "DIGEST"; e; lo; hi; d ] -> (
    match (int_of_string_opt e, int_of_string_opt lo, int_of_string_opt hi) with
    | Some epoch, Some lo, Some hi
      when epoch >= 0 && 0 <= lo && lo <= hi && String.length d = 16 ->
      Ok (Digest_reply { epoch; lo; hi; digest = d })
    | _ -> fail ())
  | [ "HELLO"; "BIN"; v ] -> (
    match int_of_string_opt v with
    | Some version when version >= 1 -> Ok (Hello_reply version)
    | _ -> fail ())
  | [ "REDIRECT"; a ] -> Ok (Redirect a)
  | [ "FENCED"; e ] -> (
    match int_of_string_opt e with
    | Some epoch when epoch >= 0 -> Ok (Fenced epoch)
    | _ -> fail ())
  | [ "PROMOTED"; e ] -> (
    match int_of_string_opt e with
    | Some epoch when epoch >= 0 -> Ok (Promoted epoch)
    | _ -> fail ())
  | "ERR" :: _ -> Ok (Err (String.trim (String.sub raw 3 (String.length raw - 3))))
  | _ -> fail ()

(* --- binary framing --- *)

module Binary = struct
  (* v2 adds a remaining-budget deadline u32 to QUERY/KNN/ADD bodies.
     Both sides speak the min of their versions (negotiated via HELLO),
     so a v1 peer keeps the exact v1 layouts. *)
  let version = 2

  let hello v = Printf.sprintf "HELLO BIN %d" v

  let parse_hello line =
    match List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line)) with
    | [ h; b; v ]
      when String.uppercase_ascii h = "HELLO" && String.uppercase_ascii b = "BIN" -> (
      match int_of_string_opt v with Some v when v >= 1 -> Some v | _ -> None)
    | _ -> None

    (* Request opcodes. *)
  let op_query = 0x01
  let op_knn = 0x02
  let op_add = 0x03
  let op_stats = 0x04
  let op_health = 0x05
  let op_drain = 0x06
  let op_promote = 0x07

  (* Response opcodes (high bit set). *)
  let op_hits = 0x81
  let op_added = 0x82
  let op_stats_reply = 0x83
  let op_health_reply = 0x84
  let op_drained = 0x85
  let op_busy = 0x86
  let op_err = 0x87
  let op_fenced = 0x88
  let op_promoted = 0x89
  let op_redirect = 0x8A

  (* A u32 of all ones encodes "absent" for the optional fields
     (max_lag on reads, seq on ADD). *)
  let no_value = 0xFFFFFFFF

  let u32 b n = Buffer.add_int32_be b (Int32.of_int (n land no_value))

  let get_u32 s pos = Int32.to_int (String.get_int32_be s pos) land no_value

  let frame b ~id ~op body =
    u32 b (5 + String.length body);
    u32 b id;
    Buffer.add_char b (Char.chr op);
    Buffer.add_string b body

  let encode_request b ~id ?max_lag ?deadline_ms ?(version = version) req =
    let body = Buffer.create 64 in
    let lag = match max_lag with None -> no_value | Some l -> l land no_value in
    (* A v1 peer has no deadline field: the budget is silently dropped
       (the legacy server applies its own default), never mis-framed. *)
    let deadline =
      match deadline_ms with
      | None -> no_value
      | Some ms -> max 0 (min ms max_deadline_ms)
    in
    let put_deadline () = if version >= 2 then u32 body deadline in
    let op =
      match req with
      | Query { tau; tree } ->
        u32 body tau;
        u32 body lag;
        put_deadline ();
        Buffer.add_string body (Bracket.to_string tree);
        op_query
      | Knn { k; tree } ->
        u32 body k;
        u32 body lag;
        put_deadline ();
        Buffer.add_string body (Bracket.to_string tree);
        op_knn
      | Add { seq; tree } ->
        u32 body (match seq with None -> no_value | Some s -> s);
        put_deadline ();
        Buffer.add_string body (Bracket.to_string tree);
        op_add
      | Stats -> op_stats
      | Health -> op_health
      | Drain -> op_drain
      | Promote -> op_promote
      | Sync _ | Ack _ | Get _ | Digest _ ->
        invalid_arg "Binary.encode_request: replication/integrity verbs are text-only"
    in
    frame b ~id ~op (Buffer.contents body)

  (* [decode_request ~op ~body] returns the request plus the bounded-
     staleness bound and remaining-budget deadline carried by v2 frames;
     a malformed body yields [Error reason] (answered as an ERR frame),
     never an exception.  [version] is the connection's negotiated
     version: a v1 frame has no deadline field and decodes exactly as
     before. *)
  let decode_request ~version ~op ~body =
    let len = String.length body in
    let v2 = version >= 2 in
    let tree_at what pos =
      if len <= pos then Error (Printf.sprintf "%s frame: missing tree" what)
      else
        match Bracket.of_string (String.sub body pos (len - pos)) with
        | Ok tree -> Ok tree
        | Error msg -> Error (Printf.sprintf "%s: %s" what msg)
    in
    let opt_u32 pos =
      let v = get_u32 body pos in
      if v = no_value then None else Some v
    in
    let read what k =
      let header = if v2 then 12 else 8 in
      if len < header then Error (Printf.sprintf "%s frame: truncated header" what)
      else
        let n = get_u32 body 0 in
        let lag = opt_u32 4 in
        let deadline = if v2 then opt_u32 8 else None in
        match tree_at what header with
        | Error e -> Error e
        | Ok tree -> k n lag deadline tree
    in
    if op = op_query then
      read "QUERY" (fun tau lag deadline tree ->
          Ok (Query { tau; tree }, lag, deadline))
    else if op = op_knn then
      read "KNN" (fun k lag deadline tree -> Ok (Knn { k; tree }, lag, deadline))
    else if op = op_add then begin
      let header = if v2 then 8 else 4 in
      if len < header then Error "ADD frame: truncated header"
      else
        let seq = opt_u32 0 in
        let deadline = if v2 then opt_u32 4 else None in
        match tree_at "ADD" header with
        | Error e -> Error e
        | Ok tree -> Ok (Add { seq; tree }, None, deadline)
    end
    else if op = op_stats then Ok (Stats, None, None)
    else if op = op_health then Ok (Health, None, None)
    else if op = op_drain then Ok (Drain, None, None)
    else if op = op_promote then Ok (Promote, None, None)
    else Error (Printf.sprintf "unknown opcode 0x%02x" op)

  let encode_response b ~id resp =
    let body = Buffer.create 64 in
    let pairs ps = List.iter (fun (i, d) -> u32 body i; u32 body d) ps in
    let op =
      match resp with
      | Hits { degraded; hits; unverified } ->
        Buffer.add_char body (if degraded then '\001' else '\000');
        u32 body (List.length hits);
        u32 body (List.length unverified);
        pairs hits;
        List.iter (fun (i, lo, hi) -> u32 body i; u32 body lo; u32 body hi) unverified;
        op_hits
      | Added { id; partners } ->
        u32 body id;
        u32 body (List.length partners);
        pairs partners;
        op_added
      | Stats_reply s ->
        List.iter (fun (_, v) -> u32 body v) (stats_fields s);
        op_stats_reply
      | Health_reply { draining } ->
        Buffer.add_char body (if draining then '\001' else '\000');
        op_health_reply
      | Drained -> op_drained
      | Busy { retry_after_ms } ->
        (match retry_after_ms with None -> () | Some ms -> u32 body (max 0 ms));
        op_busy
      | Err reason ->
        Buffer.add_string body reason;
        op_err
      | Fenced epoch ->
        u32 body epoch;
        op_fenced
      | Promoted epoch ->
        u32 body epoch;
        op_promoted
      | Redirect addr ->
        Buffer.add_string body addr;
        op_redirect
      | Sync_stream _ | Record _ | Hello_reply _ | Tree_reply _ | Digest_reply _ ->
        invalid_arg "Binary.encode_response: text-only response"
    in
    frame b ~id ~op (Buffer.contents body)

  let decode_response ~op ~body =
    let len = String.length body in
    let fail what = Error (Printf.sprintf "malformed %s frame" what) in
    if op = op_hits then begin
      if len < 9 then fail "HITS"
      else
        let degraded = body.[0] = '\001' in
        let nh = get_u32 body 1 and nu = get_u32 body 5 in
        if len <> 9 + (8 * nh) + (12 * nu) then fail "HITS"
        else
          let hits =
            List.init nh (fun i -> (get_u32 body (9 + (8 * i)), get_u32 body (13 + (8 * i))))
          in
          let base = 9 + (8 * nh) in
          let unverified =
            List.init nu (fun i ->
                ( get_u32 body (base + (12 * i)),
                  get_u32 body (base + 4 + (12 * i)),
                  get_u32 body (base + 8 + (12 * i)) ))
          in
          Ok (Hits { degraded; hits; unverified })
    end
    else if op = op_added then begin
      if len < 8 then fail "ADDED"
      else
        let id = get_u32 body 0 and np = get_u32 body 4 in
        if len <> 8 + (8 * np) then fail "ADDED"
        else
          let partners =
            List.init np (fun i -> (get_u32 body (8 + (8 * i)), get_u32 body (12 + (8 * i))))
          in
          Ok (Added { id; partners })
    end
    else if op = op_stats_reply then begin
      (* One u32 per field: 52 bytes from pre-dedup servers (13 fields),
         56 pre-scrub (14), 68 pre-overload (17), 116 current (29). *)
      if not (List.mem len [ 52; 56; 68; 4 * Array.length stats_keys ]) then
        fail "STATS"
      else
        Ok
          (Stats_reply
             (stats_of_fields (fun i -> if 4 * i < len then get_u32 body (4 * i) else 0)))
    end
    else if op = op_health_reply then begin
      if len <> 1 then fail "HEALTH" else Ok (Health_reply { draining = body.[0] = '\001' })
    end
    else if op = op_drained then Ok Drained
    else if op = op_busy then begin
      (* Empty body: legacy BUSY.  4 bytes: the retry-after hint. *)
      if len = 0 then Ok (Busy { retry_after_ms = None })
      else if len = 4 then Ok (Busy { retry_after_ms = Some (get_u32 body 0) })
      else fail "BUSY"
    end
    else if op = op_err then Ok (Err body)
    else if op = op_fenced then begin
      if len <> 4 then fail "FENCED" else Ok (Fenced (get_u32 body 0))
    end
    else if op = op_promoted then begin
      if len <> 4 then fail "PROMOTED" else Ok (Promoted (get_u32 body 0))
    end
    else if op = op_redirect then Ok (Redirect body)
    else Error (Printf.sprintf "unknown response opcode 0x%02x" op)
end
