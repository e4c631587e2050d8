(* Open-loop load generator: one connection, its own domain.

   The schedule (due times, pre-encoded frames) is fixed before the
   phase starts.  The generator sends each request when it falls due,
   whether or not earlier replies have arrived, over a nonblocking Unix
   socket driven by [Unix.select] and the public [Protocol.Binary]
   codec ([Client.Bin.recv] blocks, so it cannot serve an open loop).
   Latency is measured from a request's due time to its reply, so a
   stall also charges the requests that queued behind it. *)

open Common
module Protocol = Tsj_server.Protocol

type kind = Query | Knn | Add

type op = {
  due : float;  (* seconds after the phase start *)
  kind : kind;
  frame : string;  (* one complete binary frame *)
}

type result = {
  ops : op array;
  latency_s : float array;  (* due to reply; infinity when unanswered *)
  lag_s : float array;  (* how late each send ran against its due time *)
  responses : Protocol.response option array;
}

(* Connect and negotiate the binary protocol (blocking), then switch the
   socket to nonblocking for the open loop. *)
let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let hello = Protocol.Binary.hello Protocol.Binary.version ^ "\n" in
  ignore (Unix.write_substring fd hello 0 (String.length hello));
  let b = Buffer.create 32 and c = Bytes.create 1 in
  let rec line () =
    if Unix.read fd c 0 1 = 0 then failwith "loadgen: connection closed during HELLO"
    else if Bytes.get c 0 = '\n' then Buffer.contents b
    else begin
      Buffer.add_bytes b c;
      line ()
    end
  in
  (match Protocol.parse_response (line ()) with
  | Ok (Protocol.Hello_reply v) when v = Protocol.Binary.version -> ()
  | _ -> failwith "loadgen: binary protocol not negotiated");
  Unix.set_nonblock fd;
  fd

(* Frame of request [id] ([id] doubles as the index into the phase's
   schedule, offset by [base]). *)
let encode ~id req =
  let b = Buffer.create 256 in
  Protocol.Binary.encode_request b ~id req;
  Buffer.contents b

(* Run one phase to completion on the calling domain.  [id_base] is the
   id of [ops.(0)]; replies with ids outside the phase are ignored (late
   answers to an abandoned earlier phase).  Unanswered requests are given
   up [give_up_s] after the last send. *)
let run_phase fd ~id_base ~give_up_s ops =
  let n = Array.length ops in
  let latency = Array.make n infinity in
  let lag = Array.make n 0.0 in
  let responses = Array.make n None in
  let spans = Array.make n (-1) in
  let out = Buffer.create 65536 in
  let out_off = ref 0 in
  let inbuf = ref (Bytes.create 65536) in
  let in_len = ref 0 in
  let next = ref 0 and answered = ref 0 in
  let t_start = now () +. 0.002 in
  let last_send = ref t_start in
  let finished = ref false in
  let parse_frames t_now =
    let pos = ref 0 in
    let continue = ref true in
    while !continue do
      if !in_len - !pos < 4 then continue := false
      else begin
        let flen = Protocol.Binary.get_u32 (Bytes.sub_string !inbuf !pos 4) 0 in
        if !in_len - !pos < 4 + flen then continue := false
        else begin
          let frame = Bytes.sub_string !inbuf (!pos + 4) flen in
          pos := !pos + 4 + flen;
          let id = Protocol.Binary.get_u32 frame 0 in
          let k = id - id_base in
          if k >= 0 && k < n && responses.(k) = None then begin
            let resp =
              Trace.span ~parent:spans.(k) ~req:id "protocol.decode_response" (fun () ->
                  Protocol.Binary.decode_response ~op:(Char.code frame.[4])
                    ~body:(String.sub frame 5 (flen - 5)))
            in
            Trace.close spans.(k);
            responses.(k) <-
              Some (match resp with Ok r -> r | Error e -> Protocol.Err ("undecodable: " ^ e));
            latency.(k) <- t_now -. (t_start +. ops.(k).due);
            incr answered
          end
        end
      end
    done;
    if !pos > 0 then begin
      Bytes.blit !inbuf !pos !inbuf 0 (!in_len - !pos);
      in_len := !in_len - !pos
    end
  in
  while not !finished do
    let t = now () in
    while !next < n && t_start +. ops.(!next).due <= t do
      let k = !next in
      lag.(k) <- t -. (t_start +. ops.(k).due);
      spans.(k) <- Trace.open_ ~req:(id_base + k) "loadgen.request";
      Buffer.add_string out ops.(k).frame;
      last_send := t;
      incr next
    done;
    let pending_out = Buffer.length out - !out_off in
    if pending_out > 0 then begin
      match
        Unix.write_substring fd (Buffer.contents out) !out_off pending_out
      with
      | w ->
        out_off := !out_off + w;
        if !out_off = Buffer.length out then begin
          Buffer.clear out;
          out_off := 0
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    end;
    let t = now () in
    let wait =
      if !next < n then Float.max 0.0 (t_start +. ops.(!next).due -. t) else 0.02
    in
    let wfds = if Buffer.length out > !out_off then [ fd ] else [] in
    let r, _, _ =
      try Unix.select [ fd ] wfds [] (Float.min wait 0.02)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if r <> [] then begin
      let rec drain () =
        if Bytes.length !inbuf - !in_len < 65536 then begin
          let bigger = Bytes.create (2 * Bytes.length !inbuf + 65536) in
          Bytes.blit !inbuf 0 bigger 0 !in_len;
          inbuf := bigger
        end;
        match Unix.read fd !inbuf !in_len (Bytes.length !inbuf - !in_len) with
        | 0 -> ()
        | got ->
          in_len := !in_len + got;
          drain ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      in
      drain ();
      parse_frames (now ())
    end;
    if !next = n && (!answered = n || now () > !last_send +. give_up_s) then finished := true
  done;
  { ops; latency_s = latency; lag_s = lag; responses }

(* The phase on a fresh domain: the server's threads keep the calling
   domain while the generator runs beside them. *)
let run fd ~id_base ~give_up_s ops =
  Domain.join (Domain.spawn (fun () -> run_phase fd ~id_base ~give_up_s ops))

(* Seeded exponential inter-arrival times at [rate] per second. *)
let schedule rng ~rate n =
  let t = ref 0.0 in
  Array.init n (fun _ ->
      let u = Tsj_util.Prng.float rng in
      t := !t -. (log (1.0 -. u) /. rate);
      !t)

let ok_response = function
  | Some (Protocol.Hits { degraded = false; _ }) | Some (Protocol.Added _) -> true
  | _ -> false

(* A request fails on ERR, BUSY, a transport error (no reply), or a
   degraded answer. *)
let failed r = Array.fold_left (fun acc x -> if ok_response x then acc else acc + 1) 0 r.responses

(* Latencies (ms) of the requests of one kind; a failed request counts
   as infinitely late, so it misses every limit. *)
let latencies_ms r kind =
  let xs = ref [] in
  Array.iteri
    (fun k op ->
      if op.kind = kind then
        xs := (if ok_response r.responses.(k) then 1000.0 *. r.latency_s.(k) else infinity) :: !xs)
    r.ops;
  Array.of_list !xs

let all_latencies_ms r =
  Array.mapi (fun k l -> if ok_response r.responses.(k) then 1000.0 *. l else infinity) r.latency_s
