(** ASCII device-utilization timelines.

    Renders the timing model's resident-warp samples as a braille-free,
    log-safe chart: one column per time bucket, height proportional to
    resident warps.  Useful for eyeballing why a variant is slow — e.g.
    basic-dp shows a long, almost-empty tail of serialized tiny kernels
    where grid-level consolidation shows a few dense bursts. *)

(** Bucket step samples into [width] equal time slices; each bucket holds
    the time-weighted average of resident warps. *)
val bucketize :
  width:int -> total:float -> (float * int) list -> float array

(** Render a one-line-per-level chart: [height] rows of [width] columns,
    plus a time axis.  The device's total warp capacity fills the top
    row. *)
val render :
  ?width:int ->
  ?height:int ->
  Dpc_gpu.Config.t ->
  total_cycles:float ->
  (float * int) list ->
  string

(** Run the timing replay (processor-sharing scheduler) for a device's
    recorded session and render its utilization timeline. *)
val of_session : ?width:int -> ?height:int -> Interp.session -> string
