(** Incremental newline-delimited frame splitter.

    The serve protocol ([dpc-serve-v1]) frames every message as one JSON
    document per line.  A socket reader hands whatever byte chunks
    [read] produced to {!feed} and gets back the complete frames they
    closed, in order; a partial trailing line stays buffered until the
    next chunk completes it.  The splitter never inspects frame
    contents, so it works for any line-framed text protocol.

    Frames are stripped of their ['\n'] terminator; a ['\r'] immediately
    before it is dropped too, so CRLF peers work unchanged.  Empty lines
    are delivered as [""] — the protocol layer decides whether to ignore
    them.

    Frames are bounded: once the current frame grows past {!max_frame}
    bytes without a terminator, the splitter drops it, reports
    {!overflowed} and yields nothing more.  A peer that never sends a
    newline therefore costs at most [max_frame] bytes of memory; the
    caller answers with an error and closes the connection. *)

(** Longest frame accepted, terminator excluded (8 MiB: a sweep at the
    daemon's default 10 000-scenario quota is well under it). *)
let max_frame = 8 * 1024 * 1024

type t = {
  buf : Buffer.t;  (** bytes of the current, not-yet-terminated frame *)
  mutable overflowed : bool;
}

let create () = { buf = Buffer.create 256; overflowed = false }

(** Bytes buffered for the incomplete current frame. *)
let pending t = Buffer.length t.buf

let overflowed t = t.overflowed

let chop_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

(** [feed t bytes ~len] consumes [len] bytes from the front of [bytes]
    and returns the frames they completed, oldest first.  Frames
    completed before an overflow are still returned; nothing after it
    is. *)
let feed t (chunk : bytes) ~len =
  let frames = ref [] in
  let i = ref 0 in
  while !i < len && not t.overflowed do
    (match Bytes.get chunk !i with
    | '\n' ->
      frames := chop_cr (Buffer.contents t.buf) :: !frames;
      Buffer.clear t.buf
    | c ->
      if Buffer.length t.buf >= max_frame then begin
        t.overflowed <- true;
        Buffer.reset t.buf
      end
      else Buffer.add_char t.buf c);
    incr i
  done;
  List.rev !frames

(** [feed_string t s] is {!feed} over a whole string (tests, in-process
    pipes). *)
let feed_string t s = feed t (Bytes.unsafe_of_string s) ~len:(String.length s)
