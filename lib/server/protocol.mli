(** Wire protocol of the similarity-search service: line-delimited text,
    one request line in, one reply line out.

    Grammar (one request per line; a tree is bracket notation, which
    cannot contain a newline when it arrived on a line):
    {v
    request  := "QUERY" SP tau SP [deadline SP] tree    similarity search at τ' <= index τ
              | "KNN" SP k SP [deadline SP] tree        top-k within the index τ
              | "ADD" SP [seq SP] [deadline SP] tree    journal + index a tree (seq: see below)
    deadline := "@" ms                        remaining budget, milliseconds (see below)
              | "GET" SP seq                  fetch the tree bound to a sequence number
              | "DIGEST" SP epoch SP lo SP hi Merkle digest of records [lo, hi)
              | "STATS" | "HEALTH" | "DRAIN" | "PROMOTE"
              | "SYNC" SP epoch SP from_seq   replica joins: stream me from from_seq
              | "ACKED" SP seq                replica has durably applied up to seq
    reply    := "HITS" SP degraded(0|1) SP nh SP nu {SP id":"dist}*nh {SP id":"lo":"hi}*nu
              | "ADDED" SP id SP np {SP id":"dist}*np
              | "TREE" SP seq SP tree         reply to GET
              | "STATS" SP key"="int ...
              | "OK" SP ("serving"|"draining"|"drained")
              | "BUSY" [SP retry_after_ms]    shed by admission control
              | "ERR" SP reason               never a silent drop
              | "SYNC" SP epoch SP base       stream header (primary -> replica)
              | "RECORD" SP journal-line      one checksummed journal record pushed
              | "DIGEST" SP epoch SP lo SP hi SP hex   reply to DIGEST
              | "FENCED" SP epoch             refused: a higher epoch exists
              | "PROMOTED" SP epoch           this node is now primary at epoch
    v}

    {b Anti-entropy.}  [DIGEST <epoch> <lo> <hi>] asks for the Merkle
    digest of the canonical journal records [\[lo, hi)] (see
    {!Integrity.Merkle}); the answer [DIGEST <epoch> <lo> <hi> <hex>]
    echoes the range.  Two stores holding the same trees answer
    identically, so a verifier binary-searches range digests to locate
    the first diverging sequence in O(log n) round trips and repairs
    {e only} the suffix from there (via [GET]/[RECORD] regeneration) —
    no full re-sync.  A node at a different epoch answers
    [FENCED <epoch>]; a range beyond the tree count is [ERR].  Like
    the replication verbs, [DIGEST] is text-only.

    {b Replication stream.}  A replica connects and sends
    [SYNC <epoch> <from_seq>].  The primary answers with the stream
    header [SYNC <epoch> <base>] (its epoch and the first sequence
    number of that epoch); from then on the roles invert on that
    connection: the primary pushes [RECORD <journal-line>] and the
    replica answers each with [ACKED <n>] ([n] = its new tree count,
    i.e. the next sequence it needs) only {e after} the record is
    flushed to its own journal.  A node that sees evidence of a higher
    epoch answers [FENCED <epoch>] instead and the stream ends.

    {b Idempotency contract of [ADD].}  [ADD <seq> <tree>] binds [tree]
    to sequence number [seq] exactly once: if [seq] equals the store's
    next sequence the tree is journaled and indexed; if [seq] is already
    bound {e to the same tree} the reply is the original
    [ADDED <seq> ...] (recomputed, bit-identical) and nothing is
    written; if [seq] is bound to a {e different} tree or is beyond the
    next sequence, the reply is [ERR].  A client that timed out after
    the request may have been executed must therefore retry {e with the
    same seq} — the retry is then safe whether or not the original
    arrived, including across a failover to a server the record was
    replicated to.  Bare [ADD <tree>] (no seq) keeps the PR-4 semantics
    (server assigns the next sequence) and is {e not} safe to retry
    blind; {!Client} always attaches a seq.

    {b Deadline propagation.}  The optional [@<ms>] token on
    [QUERY]/[KNN]/[ADD] (and the deadline u32 of v2 binary frames) is
    the client's {e remaining budget} for the whole call, in
    milliseconds — a relative span, so no clock synchronisation is
    needed.  Every hop subtracts its own elapsed time before forwarding
    (the router additionally reserves a response margin), making the
    propagated value monotonically non-increasing.  A server drops
    queued work whose budget has already run out instead of computing an
    answer nobody is waiting for: the reply is [ERR deadline expired]
    and the drop is counted in STATS as [expired].  Requests without the
    token keep the server's own default budget (legacy clients work
    unchanged).  A BUSY shed may carry a retry-after hint in
    milliseconds: the earliest time a retry can be admitted, which
    {!Client} uses as its backoff floor.

    Parsers on both sides are lenient: any malformed input yields
    [Error reason], never an exception, and tree diagnostics carry the
    bracket parser's ["line L, column C"] location.  A malformed
    deadline token (garbage, negative, overflow) is a parse error
    answered [ERR], never silently treated as part of the tree.

    {b Version negotiation.}  Every connection starts in the newline
    protocol above, so pre-binary clients keep working unchanged.  A
    client that wants the framed protocol sends one text line
    [HELLO BIN <v>] ([v] >= 1) as its first request; the server answers
    with the text line [HELLO BIN <min v version>] and {e both} sides
    switch to binary frames immediately after their respective
    newline.  There is no downgrade path on a connection; a malformed
    hello is answered [ERR] and the connection stays in text mode.

    {b Binary frame layout} (all integers big-endian, unsigned):
    {v
    frame  := len:u32 id:u32 op:u8 body:byte[len-5]
    v}
    [len] counts everything after the length field itself, so a frame
    occupies [4 + len] bytes and [len >= 5].  [id] is a client-chosen
    request id echoed verbatim on the matching response; requests may be
    pipelined and responses to {e reads and writes} may arrive out of
    order, matched only by id.  The sentinel [0xFFFF_FFFF] encodes an
    absent optional integer field.

    Request opcodes and bodies (v2 adds the [deadline:u32]
    remaining-budget field; a connection negotiated at v1 keeps the v1
    layouts exactly):
    {v
    0x01 QUERY    tau:u32 max_lag:u32 [deadline:u32] tree-bytes
    0x02 KNN      k:u32   max_lag:u32 [deadline:u32] tree-bytes
    0x03 ADD      seq:u32 [deadline:u32] tree-bytes   (seq sentinel = server picks)
    0x04 STATS    0x05 HEALTH   0x06 DRAIN   0x07 PROMOTE   (empty body)
    v}
    Response opcodes and bodies:
    {v
    0x81 HITS     degraded:u8 nh:u32 nu:u32 (id:u32 dist:u32)*nh
                  (id:u32 lo:u32 hi:u32)*nu
    0x82 ADDED    id:u32 np:u32 (id:u32 dist:u32)*np
    0x83 STATS    29 x u32, in the text STATS field order (decoders
                  accept the 13-, 14- and 17-word frames of older builds)
    0x84 HEALTH   draining:u8
    0x85 DRAINED                                (empty body)
    0x86 BUSY     [retry_after_ms:u32]          (empty body = no hint)
    0x87 ERR      reason-bytes
    0x88 FENCED   epoch:u32
    0x89 PROMOTED epoch:u32
    0x8A REDIRECT address-bytes
    v}
    The replication verbs ([SYNC]/[ACKED]/[RECORD]) are text-only: a
    replication stream never negotiates binary.

    {b Bounded-staleness reads.}  A binary [QUERY]/[KNN] may carry
    [max_lag], the largest number of acked sequence numbers the client
    tolerates the answering node being behind the primary.  The primary
    always answers (lag 0).  A replica knows its lag from the stream
    header's high-water mark and the records it has applied; it answers
    locally iff it is synced and [primary_high - n_trees <= max_lag],
    and otherwise replies [REDIRECT <addr>] naming its upstream so the
    client can retry against the primary (or [ERR] when it has no known
    upstream).  Requests without [max_lag] keep the old semantics:
    any node answers from whatever it has. *)

(** Server address: a Unix-domain socket path or a TCP endpoint. *)
type addr = Unix_path of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["host:port"] (or [":port"], defaulting to 127.0.0.1) parses as TCP;
    anything containing a [/] or no [:] is a Unix socket path. *)

val addr_to_string : addr -> string

type request =
  | Query of { tau : int; tree : Tsj_tree.Tree.t }
  | Knn of { k : int; tree : Tsj_tree.Tree.t }
  | Add of { seq : int option; tree : Tsj_tree.Tree.t }
      (** [seq]: client-chosen sequence number enabling safe retries
          (see the idempotency contract above). *)
  | Stats
  | Health
  | Drain
  | Sync of { epoch : int; from_seq : int }
      (** Replica join: "stream me every record from [from_seq]; my
          journal header says epoch [epoch]". *)
  | Ack of int  (** [ACKED n]: the replica durably holds [n] trees. *)
  | Get of int
      (** [GET seq]: fetch the tree bound to a sequence number — the
          sharded router's ledger-recovery and migration-verification
          primitive.  Answered [TREE seq tree], or [ERR] when [seq] is
          unbound.  Text-only, like the replication verbs. *)
  | Digest of { epoch : int; lo : int; hi : int }
      (** [DIGEST epoch lo hi]: Merkle digest of the canonical records
          [\[lo, hi)] — the anti-entropy probe.  Text-only. *)
  | Promote
      (** Make this node primary: bump the epoch (persisted in the
          journal header) and start accepting writes. *)

val max_deadline_ms : int
(** Largest remaining-budget value the wire can carry (one below the
    binary "absent" sentinel); parsers clamp larger values to it. *)

val parse_request : string -> (request, string) result
(** [parse_request_d] with the deadline dropped. *)

val parse_request_d : string -> (request * int option, string) result
(** The request plus its remaining-budget deadline in milliseconds,
    when the line carried the [@<ms>] token. *)

val render_request : request -> string

val render_request_d : ?deadline_ms:int -> request -> string
(** [render_request] with the deadline token attached ([Query]/[Knn]/
    [Add] only; control verbs ignore it). *)

(** The counters of a [STATS] reply (all monotonic since server start,
    except [trees], [inflight], [draining] and [journal_records]). *)
type stats_reply = {
  trees : int;
  tau : int;
  queries : int;
  adds : int;
  shed : int;  (** requests answered [BUSY] by admission control *)
  degraded : int;  (** queries that returned a partial answer *)
  errors : int;  (** requests answered [ERR] *)
  quarantined : int;  (** connections quarantined by a fault/disconnect *)
  inflight : int;
  draining : bool;
  journal_records : int;
  epoch : int;  (** replication epoch persisted in the journal header *)
  primary : bool;  (** whether this node currently accepts writes *)
  dedup : int;
      (** duplicate ADDs suppressed by the store's dedup layer (0 when
          dedup is off; parses as 0 from pre-dedup servers) *)
  scrubbed : int;
      (** journal records re-verified by the background scrubber (parses
          as 0 from pre-scrub servers, like the two fields below) *)
  crc_failures : int;  (** checksum/seal findings, at open or by scrub *)
  repaired : int;
      (** healed journal records + scrub repairs + anti-entropy range
          repairs *)
  expired : int;
      (** requests dropped (pre- or post-compute) because their
          propagated deadline had already passed — the client was no
          longer waiting (parses as 0 from pre-overload servers, like
          every field below) *)
  accept_pauses : int;
      (** times the acceptor backed off after EMFILE/ENFILE instead of
          spinning on a hot listener *)
  reaped : int;
      (** connections closed by hygiene: idle timeout, output-buffer
          overflow, or the max-conns cap *)
  q_p50 : int;
      (** QUERY service latency quantiles in microseconds, from a
          log-bucket histogram (lower bound of the bucket holding the
          quantile — exact to within 2x); 0 until the first QUERY *)
  q_p95 : int;
  q_p99 : int;
  k_p50 : int;  (** KNN latency quantiles, µs *)
  k_p95 : int;
  k_p99 : int;
  a_p50 : int;  (** ADD latency quantiles (admission to ack), µs *)
  a_p95 : int;
  a_p99 : int;
}

val zero_stats : stats_reply
(** Every counter 0, [draining] and [primary] false. *)

type response =
  | Hits of {
      degraded : bool;
      hits : (int * int) list;  (** [(id, distance)], distance then id *)
      unverified : (int * int * int) list;
          (** [(id, lower, upper)] bound sandwiches of candidates left
              unverified when the request deadline expired *)
    }
  | Added of { id : int; partners : (int * int) list }
  | Tree_reply of { seq : int; tree : Tsj_tree.Tree.t }
      (** Reply to [GET]: the tree bound to [seq], verbatim. *)
  | Stats_reply of stats_reply
  | Health_reply of { draining : bool }
  | Drained
  | Busy of { retry_after_ms : int option }
      (** Shed by admission control.  The hint, when present, is the
          earliest time (relative, milliseconds) a retry can be
          admitted; bare [BUSY] parses with no hint. *)
  | Err of string
  | Sync_stream of { epoch : int; base : int; high : int }
      (** Stream header: the primary's epoch, that epoch's first
          sequence number (the promotion point), and the primary's tree
          count when the stream started — the replica's first high-water
          mark for bounded-staleness reads.  Rendered as
          [SYNC <epoch> <base> <high>]; the parser also accepts the
          pre-binary two-integer form ([high] defaults to [base]). *)
  | Record of string  (** One raw journal record line, pushed verbatim. *)
  | Digest_reply of { epoch : int; lo : int; hi : int; digest : string }
      (** Reply to [Digest]: the range echoed plus its 16-hex-digit
          Merkle digest. *)
  | Fenced of int
      (** Write/stream refused: a primary at the given (higher) epoch
          exists; the receiver must demote or fail over. *)
  | Promoted of int  (** Reply to [PROMOTE]: the new epoch. *)
  | Hello_reply of int
      (** [HELLO BIN <v>]: the server accepts the binary handshake at
          protocol version [v]; both sides switch to frames after this
          line. *)
  | Redirect of string
      (** A bounded-staleness read refused by a stale replica; the
          payload is its upstream's address. *)

val render_response : response -> string
(** Always a single line: newlines inside error reasons are replaced. *)

val parse_response : string -> (response, string) result

(** Codec for the length-prefixed binary framing (layout above).
    Encoders append whole frames to a [Buffer]; decoders take the [op]
    byte and the body bytes of one already-deframed frame and never
    raise on wire data — any malformed body is [Error reason]. *)
module Binary : sig
  val version : int
  (** Highest protocol version this build speaks (currently 2: v2 adds
      the remaining-budget deadline field to QUERY/KNN/ADD bodies).
      Both sides speak [min] of their versions, negotiated via HELLO. *)

  val hello : int -> string
  (** The handshake line [HELLO BIN <v>] (no trailing newline). *)

  val parse_hello : string -> int option
  (** [Some v] iff the line is a well-formed [HELLO BIN <v>], [v >= 1]. *)

  val no_value : int
  (** [0xFFFFFFFF]: the u32 encoding of "absent" for the optional
      fields (max_lag on reads, seq on ADD). *)

  val get_u32 : string -> int -> int
  (** Big-endian unsigned 32-bit read at a byte offset — for deframing
      the [len]/[id] header fields.  @raise Invalid_argument if the
      string is too short. *)

  val frame : Buffer.t -> id:int -> op:int -> string -> unit
  (** Append one raw frame ([len id op body]) with an arbitrary opcode
      and body — the escape hatch the wire fuzzer uses to craft
      malformed frames. *)

  val encode_request :
    Buffer.t ->
    id:int ->
    ?max_lag:int ->
    ?deadline_ms:int ->
    ?version:int ->
    request ->
    unit
  (** Append one request frame.  [max_lag] is carried by [Query]/[Knn]
      only; [deadline_ms] by [Query]/[Knn]/[Add] on [version >= 2]
      connections (on a v1 connection it is silently dropped — the
      legacy server applies its own default budget).  [version] defaults
      to this build's {!version}.
      @raise Invalid_argument on [Sync]/[Ack] (text-only). *)

  val decode_request :
    version:int ->
    op:int ->
    body:string ->
    (request * int option * int option, string) result
  (** The decoded request, its bounded-staleness bound (reads only) and
      its remaining-budget deadline in ms (v2 work verbs only).
      [version] is the connection's negotiated version: a v1 frame is
      decoded with the legacy body layout (no deadline word). *)

  val encode_response : Buffer.t -> id:int -> response -> unit
  (** @raise Invalid_argument on the text-only responses
      ([Sync_stream], [Record], [Hello_reply]). *)

  val decode_response : op:int -> body:string -> (response, string) result
end
