(** ASCII device-utilization timelines.

    Renders the timing model's resident-warp samples as a braille-free,
    log-safe chart: one column per time bucket, height proportional to
    resident warps.  Useful for eyeballing why a variant is slow — e.g.
    basic-dp shows a long, almost-empty tail of serialized tiny kernels
    where grid-level consolidation shows a few dense bursts. *)

module Cfg = Dpc_gpu.Config

(** Bucket step samples into [width] equal time slices; each bucket holds
    the time-weighted average of resident warps. *)
let bucketize ~width ~(total : float) (samples : (float * int) list) :
    float array =
  let out = Array.make width 0.0 in
  if total <= 0.0 then out
  else begin
    let bucket_span = total /. Float.of_int width in
    let add_interval t0 t1 warps =
      (* distribute warps * dt over the buckets the interval covers *)
      let b0 = Float.to_int (t0 /. bucket_span) in
      let b1 = Float.to_int (t1 /. bucket_span) in
      for b = Int.max 0 b0 to Int.min (width - 1) b1 do
        let lo = Float.max t0 (Float.of_int b *. bucket_span) in
        let hi = Float.min t1 (Float.of_int (b + 1) *. bucket_span) in
        if hi > lo then
          out.(b) <- out.(b) +. (Float.of_int warps *. (hi -. lo))
      done
    in
    let rec go = function
      | (t0, w) :: ((t1, _) :: _ as rest) ->
        add_interval t0 t1 w;
        go rest
      | [ (t0, w) ] -> add_interval t0 total w
      | [] -> ()
    in
    go samples;
    Array.map (fun acc -> acc /. bucket_span) out
  end

let bars = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

(** Render a one-line-per-level chart: [height] rows of [width] columns,
    plus a time axis.  The device's total warp capacity fills the top
    row. *)
let render ?(width = 72) ?(height = 8) (cfg : Cfg.t)
    ~(total_cycles : float) (samples : (float * int) list) : string =
  let capacity = Float.of_int (cfg.Cfg.num_smx * cfg.Cfg.max_warps_per_smx) in
  let buckets = bucketize ~width ~total:total_cycles samples in
  let buf = Buffer.create ((width + 8) * (height + 2)) in
  for row = height downto 1 do
    let threshold = capacity *. Float.of_int row /. Float.of_int height in
    let label =
      if row = height then Printf.sprintf "%5.0fw |" capacity
      else if row = 1 then "    0w |"
      else "       |"
    in
    Buffer.add_string buf label;
    Array.iter
      (fun v ->
        let c =
          if v >= threshold then '#'
          else if row = 1 && v > 0.0 then
            (* sub-row utilization: shade the bottom row *)
            bars.(Int.min 9 (Float.to_int (10.0 *. v /. (capacity /. Float.of_int height))))
          else ' '
        in
        Buffer.add_char buf c)
      buckets;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "       +";
  Buffer.add_string buf (String.make width '-');
  Buffer.add_char buf '\n';
  (* Time-axis label: right-align the end-time annotation with the end of
     the axis when it fits; otherwise fall back to a single space.  (A
     computed field width must never go negative: [Printf "%*s"] treats a
     negative width as left-justification, shearing the axis.) *)
  let left = "        0 cycles" in
  let trailer =
    Printf.sprintf "%.0f cycles (resident warps over time)" total_cycles
  in
  let pad =
    Int.max 1 (8 + width - String.length left - String.length trailer)
  in
  Buffer.add_string buf left;
  Buffer.add_string buf (String.make pad ' ');
  Buffer.add_string buf trailer;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(** Run the timing replay (processor-sharing scheduler) for a device's
    recorded session and render its utilization timeline. *)
let of_session ?width ?height (s : Interp.session) : string =
  let t =
    Timing.create ~record_timeline:true s.Interp.cfg
      (Interp.grids s) (Interp.roots s)
  in
  let result = Timing.run t in
  render ?width ?height s.Interp.cfg
    ~total_cycles:result.Timing.total_cycles (Timing.timeline t)
