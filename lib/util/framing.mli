(** Incremental newline-delimited frame splitter for line-framed text
    protocols (the serve layer's [dpc-serve-v1] framing).

    Feed raw byte chunks as they arrive from a socket; get back the
    complete frames they closed, in arrival order, with the ['\n'] (and
    an optional preceding ['\r']) stripped.  A partial trailing line
    stays buffered across calls.  A frame longer than {!max_frame}
    bytes is dropped and ends the stream ({!overflowed}). *)

type t

(** Longest frame accepted, terminator excluded. *)
val max_frame : int

val create : unit -> t

(** Bytes buffered for the incomplete current frame. *)
val pending : t -> int

(** Has the current frame grown past {!max_frame} bytes?  Once true,
    the buffered bytes are dropped, it stays true, and {!feed} returns
    no further frames: the peer must be answered and disconnected. *)
val overflowed : t -> bool

(** [feed t chunk ~len] consumes the first [len] bytes of [chunk] and
    returns the frames they completed, oldest first (those completed
    before an overflow included). *)
val feed : t -> bytes -> len:int -> string list

(** {!feed} over a whole string. *)
val feed_string : t -> string -> string list
