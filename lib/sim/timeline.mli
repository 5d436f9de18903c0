(** ASCII device-utilization timelines.

    Folds the replay's event stream ({!Device.profile}) into resident-warp
    steps and renders them as a braille-free, log-safe chart: one column
    per time bucket, height proportional to resident warps.  Useful for
    eyeballing why a variant is slow — e.g. basic-dp shows a long,
    almost-empty tail of serialized tiny kernels where grid-level
    consolidation shows a few dense bursts. *)

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

(** Render the utilization chart of one replay from its event stream;
    [total_cycles] is the replay's end (its report's [cycles]). *)
val of_events :
  ?width:int ->
  ?height:int ->
  Dpc_gpu.Config.t ->
  total_cycles:float ->
  Dpc_prof.Event.t array ->
  string
