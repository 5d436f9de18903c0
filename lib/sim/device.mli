(** User-facing simulated device: host-side memory management, synchronous
    kernel launches, and profiler-style reports.

    {[
      let dev = Device.create ~alloc_kind:Pool program in
      let dist = Device.alloc_int dev ~name:"dist" n in
      Device.launch dev "sssp" ~grid:40 ~block:256 [ Vbuf dist.id; ... ];
      let report = Device.report dev in
    ]} *)

type t

(** [mode] pins this device's interpreter back end (default: the session
    default, see {!Interp.set_default_mode}); [ckernels] seeds the
    kernel-compilation cache table (see {!Interp.create_session} for the
    sharing contract). *)
val create :
  ?cfg:Dpc_gpu.Config.t ->
  ?alloc_kind:Dpc_alloc.Allocator.kind ->
  ?scheduler:Timing.scheduler ->
  ?mode:Interp.mode ->
  ?ckernels:(string, Bytecode.ckernel option) Hashtbl.t ->
  Dpc_kir.Kernel.Program.t ->
  t

val config : t -> Dpc_gpu.Config.t
val memory : t -> Dpc_gpu.Memory.t
val allocator : t -> Dpc_alloc.Allocator.t

(** The underlying interpreter session (traces, raw counters). *)
val session : t -> Interp.session

(** {2 Host-side memory management} *)

val alloc_int : t -> name:string -> int -> Dpc_gpu.Memory.buf
val alloc_float : t -> name:string -> int -> Dpc_gpu.Memory.buf
val of_int_array : t -> name:string -> int array -> Dpc_gpu.Memory.buf
val of_float_array : t -> name:string -> float array -> Dpc_gpu.Memory.buf
val buf : t -> int -> Dpc_gpu.Memory.buf
val read_int_array : t -> int -> int array
val read_float_array : t -> int -> float array

(** {2 Execution} *)

(** Synchronous host-side kernel launch (1-D grid of 1-D blocks). *)
val launch :
  t -> string -> grid:int -> block:int -> Dpc_kir.Value.t list -> unit

(** Full run report: functional counters plus the timing replay.  Cached
    until the next launch. *)
val report : t -> Metrics.report

(** {2 Profiling} *)

(** Run the timing replay over everything launched so far with a
    profiling sink attached and return the recorded event stream.  The
    same replay's report is cached for {!report} (the sink does not
    change the replay), so a profiled run replays once; the recorder is
    created per call (no shared state between concurrent devices). *)
val profile : t -> Dpc_prof.Event.t array
