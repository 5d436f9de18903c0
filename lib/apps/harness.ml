(** Shared plumbing for the seven benchmark applications.

    Every app exposes one entry point,

    {[ run_spec : spec -> Dpc_sim.Metrics.report ]}

    reached through {!Registry.run_spec} with a {!spec} that
    [Dpc_engine.Scenario.to_spec] builds.  The variants are the paper's
    comparison points: [Basic] (basic-dp, Fig. 1 template run as
    written), [Flat] (the no-dp flat kernel), and [Cons g] (the
    compiler-consolidated code at warp/block/grid granularity).  Each run
    checks its results against the CPU reference and raises
    {!Verification_failed} on any mismatch, so a report is also a
    correctness certificate. *)

module Pragma = Dpc_kir.Pragma
module V = Dpc_kir.Value
module Mem = Dpc_gpu.Memory
module Cfg = Dpc_gpu.Config
module Device = Dpc_sim.Device
module Alloc = Dpc_alloc.Allocator
module Transform = Dpc.Transform
module Parser = Dpc_minicu.Parser

type variant = Basic | Flat | Cons of Pragma.granularity

let variant_to_string = function
  | Basic -> "basic-dp"
  | Flat -> "no-dp"
  | Cons g -> Pragma.granularity_to_string g ^ "-level"

let variant_of_string s =
  match String.lowercase_ascii s with
  | "basic" | "basic-dp" -> Basic
  | "flat" | "no-dp" -> Flat
  | "warp" | "warp-level" -> Cons Pragma.Warp
  | "block" | "block-level" -> Cons Pragma.Block
  | "grid" | "grid-level" -> Cons Pragma.Grid
  | other ->
    invalid_arg
      (Printf.sprintf
         "bad variant %S (expected basic-dp, no-dp, warp-level, \
          block-level, or grid-level)"
         other)

let all_variants =
  [ Basic; Flat; Cons Pragma.Warp; Cons Pragma.Block; Cons Pragma.Grid ]

exception Verification_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Verification_failed s)) fmt

type prepared = {
  dev : Device.t;
  entry : string;
  trans : Transform.result option;
}

(* --- cacheable program preparation --------------------------------------- *)

(** The run-independent part of a prepared variant: the (finalized once,
    then read-only) program plus the transform metadata.  This is what the
    engine's cross-run cache stores — everything else in {!prepared}
    (device, memory, allocator) is per-run state. *)
type prep = {
  p_prog : Dpc_kir.Kernel.Program.t;
  p_entry : string;
  p_trans : Transform.result option;
}

type ckernels = (string, Dpc_sim.Bytecode.ckernel option) Hashtbl.t

(** Cache hook threaded through {!prepare}: given the variant's stable
    [key], the effective interpreter-tier tag [interp] (see
    {!Dpc_sim.Interp.mode_to_string}), the device-config digest [cfgkey]
    (see {!cfg_digest}) and a [build] thunk, return the (possibly
    memoized) {!prep} and optionally a compiled-kernel table to seed the
    device's session with (see {!Dpc_sim.Interp.create_session}).  The
    tier tag and config are already folded into [key], so tiers and
    presets never share cache entries — they are passed separately so
    persistent stores can also stamp them into their on-disk headers
    (a cache directory keyed under one preset then never serves a
    payload to another even if the key scheme changes).  The default,
    {!no_cache}, always builds fresh and seeds nothing. *)
type preparer =
  key:string -> interp:string -> cfgkey:string -> build:(unit -> prep) ->
  prep * ckernels option

let no_cache : preparer =
 fun ~key:_ ~interp:_ ~cfgkey:_ ~build -> (build (), None)

(** Stable digest of a device config — the [cfgkey] a {!preparer}
    receives, and the [cfg=] field of persistent-store headers. *)
let cfg_digest (cfg : Cfg.t) =
  Digest.to_hex (Digest.string (Marshal.to_string cfg []))

(** Stable cache key of a program build: digest of everything the cached
    artifact depends on — variant tag, full source text (which already
    encodes granularity and any dataset-derived launch constants), parent
    kernel, configuration policy, device config, and the interpreter tier
    whose compiled-kernel table the entry seeds (the tiers share a table
    slot type but never an actual table, so they must never collide on
    one key). *)
let prep_key ~tag ~(cfg : Cfg.t) ~policy ~source ~parent ~interp =
  let policy_str =
    match policy with
    | None -> "default"
    | Some p -> Dpc.Config_select.policy_to_string p
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ tag; source; parent; policy_str; interp;
            Marshal.to_string cfg [] ]))

(* --- input cache hook -------------------------------------------------------- *)

(** Cache hook for a run's inputs: the generated dataset and everything
    derived from it (CPU reference included).  [memo id ~app ~key build]
    returns [app]'s inputs under [key], calling [build] when the hook holds
    none; [id] types the stored value, so one hook serves every app.  The
    key names everything the data depends on (see {!inputs}).  Inputs a
    hook returns may be shared across runs and domains: apps treat them
    as read-only.  The default, {!build_inputs}, builds every time. *)
type input_cache = {
  memo : 'a. 'a Type.Id.t -> app:string -> key:string -> (unit -> 'a) -> 'a;
}

let build_inputs = { memo = (fun _ ~app:_ ~key:_ build -> build ()) }

(* --- run specification ---------------------------------------------------- *)

(** Everything an app run needs, as one first-class value: the engine's
    [Dpc_engine.Scenario.to_spec] builds it, and it is the only way into
    an app.  [sp_scale] / [sp_seed] are [None] for the app's documented
    default; app-specific knobs travel in [sp_extras] as string pairs,
    already checked by [Dpc_engine.Scenario.make]. *)
type spec = {
  sp_variant : variant;
  sp_policy : Dpc.Config_select.policy option;
  sp_alloc : Alloc.kind;
  sp_cfg : Cfg.t;
  sp_scale : int option;
  sp_seed : int option;
  sp_scheduler : Dpc_sim.Timing.scheduler;
  sp_interp : Dpc_sim.Interp.mode option;
  sp_preparer : preparer;
  sp_inputs : input_cache;
  sp_inspect : (Device.t -> unit) option;
  sp_extras : (string * string) list;
}

(** Lookup helpers for [sp_extras].  [Dpc_engine.Scenario.make] has
    already checked every key and value against the app's [extras_spec]
    (see {!validate_extras}), so a present [Xint] value parses. *)
let extra_str s key = List.assoc_opt key s.sp_extras

let extra_int s key = Option.map int_of_string (extra_str s key)

(** [app]'s inputs for a run at [scale] and [seed] through the spec's
    input cache; [extras] are the data-relevant knobs, already resolved to
    their effective values. *)
let inputs (s : spec) id ~app ~scale ~seed ?(extras = []) build =
  let key =
    String.concat ","
      (Printf.sprintf "scale=%d,seed=%d" scale seed
      :: List.map (fun (k, v) -> k ^ "=" ^ v) extras)
  in
  s.sp_inputs.memo id ~app ~key build

(** Declared shape of one app-specific extras value, for eager scenario
    lint: the engine refuses unknown keys and malformed values at
    scenario construction with a one-line actionable error, instead of
    silently ignoring them or failing mid-batch. *)
type extra_kind =
  | Xint  (** any decimal integer *)
  | Xenum of string list  (** one of a fixed token set *)

(** Validate [pairs] against an app's declared extras ([known] from its
    registry entry).  @raise Invalid_argument with a one-line message
    naming the offending key/value and listing the valid keys. *)
let validate_extras ~app ~(known : (string * extra_kind) list) pairs =
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k known with
      | None ->
        invalid_arg
          (Printf.sprintf "app %s: unknown extra %S%s" app k
             (match known with
             | [] -> " (this app takes none)"
             | ks ->
               Printf.sprintf " (valid keys: %s)"
                 (String.concat ", " (List.map fst ks))))
      | Some Xint ->
        if int_of_string_opt v = None then
          invalid_arg
            (Printf.sprintf "app %s: extra %s=%S: expected an integer" app k
               v)
      | Some (Xenum vals) ->
        if not (List.mem v vals) then
          invalid_arg
            (Printf.sprintf "app %s: extra %s=%S: expected one of %s" app k
               v (String.concat ", " vals)))
    pairs

(** Build a device for [s]'s variant: [Basic] runs the annotated program
    as written (the pragma is inert at runtime); [Cons g] applies the
    consolidation compiler first; [Flat] runs [flat], the no-dp program's
    source and entry kernel.  [source] receives the granularity to embed
    in the pragma text.  Every branch honors the spec's allocator (Basic
    kernels allocate from the device heap too when they launch with
    [buffer(default)] semantics), scheduler, interpreter mode and cache
    hook. *)
let prepare (s : spec) ~(source : Pragma.granularity -> string) ~parent
    ~flat:(flat_src, flat_entry) : prepared =
  let tag, src, parent, policy =
    match s.sp_variant with
    | Flat -> ("flat", flat_src, flat_entry, None)
    | Basic -> ("basic", source Pragma.Grid, parent, None)
    | Cons g -> ("cons", source g, parent, s.sp_policy)
  in
  let build () =
    let prog = Parser.parse_program src in
    match s.sp_variant with
    | Flat | Basic -> { p_prog = prog; p_entry = parent; p_trans = None }
    | Cons _ ->
      let r = Transform.apply ?policy ~cfg:s.sp_cfg ~parent prog in
      { p_prog = r.Transform.program; p_entry = r.Transform.entry;
        p_trans = Some r }
  in
  (* The tier the spec will actually run under (the session default when
     the spec leaves it open), so the cache key names the tier whose
     lowering the seeded ckernel table will hold. *)
  let interp =
    Dpc_sim.Interp.mode_to_string
      (Option.value s.sp_interp ~default:(Dpc_sim.Interp.default_mode ()))
  in
  let key = prep_key ~tag ~cfg:s.sp_cfg ~policy ~source:src ~parent ~interp in
  let prep, ckernels =
    s.sp_preparer ~key ~interp ~cfgkey:(cfg_digest s.sp_cfg) ~build
  in
  (* Per-run state around the (possibly cached) prep: a fresh device with
     the spec's allocator, scheduler and interpreter mode, seeded with the
     cache's per-domain compiled-kernel table when one is supplied. *)
  {
    dev =
      Device.create ~cfg:s.sp_cfg ~alloc_kind:s.sp_alloc
        ~scheduler:s.sp_scheduler ?mode:s.sp_interp ?ckernels prep.p_prog;
    entry = prep.p_entry;
    trans = prep.p_trans;
  }

(** Every lintable program of a DP app, labeled by variant: the annotated
    source as written ([basic-dp]), the consolidation compiler's output at
    each granularity, and — when given — the flat kernel.  This is the
    surface [dpcc --check] sweeps: both the hand-written kernels and
    everything the transform generates from them. *)
let dp_programs ?(cfg = Cfg.k20c)
    ~(source : Pragma.granularity -> string) ~parent ?flat () :
    (string * Dpc_kir.Kernel.Program.t) list =
  let cons g =
    let prog = Parser.parse_program (source g) in
    (Transform.apply ~cfg ~parent prog).Transform.program
  in
  [
    ("basic-dp", Parser.parse_program (source Pragma.Grid));
    ("warp-level", cons Pragma.Warp);
    ("block-level", cons Pragma.Block);
    ("grid-level", cons Pragma.Grid);
  ]
  @
  match flat with
  | Some src -> [ ("no-dp", Parser.parse_program src) ]
  | None -> []

(** The translation-validation surface of a DP app: for each
    consolidation granularity, the original annotated program next to
    the transform's result, so {!Dpc_check.Tv} can validate the pair.
    (The program the result holds is a fresh one; the returned original
    is the very program the transform consumed.) *)
let dp_tv_units ~(source : Pragma.granularity -> string) ~parent () :
    (string * string * Dpc_kir.Kernel.Program.t * Transform.result) list =
  List.map
    (fun g ->
      let prog = Parser.parse_program (source g) in
      let r = Transform.apply ~cfg:Cfg.k20c ~parent prog in
      (Pragma.granularity_to_string g ^ "-level", parent, prog, r))
    [ Pragma.Warp; Pragma.Block; Pragma.Grid ]

(* --- verification helpers ------------------------------------------------ *)

let check_int_arrays ~what (expect : int array) (got : int array) =
  if Array.length expect <> Array.length got then
    fail "%s: length %d vs %d" what (Array.length expect) (Array.length got);
  Array.iteri
    (fun i e ->
      if got.(i) <> e then
        fail "%s: index %d: expected %d, got %d" what i e got.(i))
    expect

let check_float_arrays ~what ?(tol = 1e-6) (expect : float array)
    (got : float array) =
  if Array.length expect <> Array.length got then
    fail "%s: length %d vs %d" what (Array.length expect) (Array.length got);
  Array.iteri
    (fun i e ->
      let d = Float.abs (got.(i) -. e) in
      let scale = Float.max 1.0 (Float.abs e) in
      if d /. scale > tol then
        fail "%s: index %d: expected %g, got %g" what i e got.(i))
    expect

(** Run the caller's inspection hook on the device (profiling capture,
    e.g. {!Device.profile}) after the app's launches, then return its
    report.  The hook must not launch. *)
let inspect_and_report ?inspect dev =
  Option.iter (fun f -> f dev) inspect;
  Device.report dev

(* --- small launch helpers ------------------------------------------------ *)

let vbuf (b : Mem.buf) = V.Vbuf b.Mem.id

let blocks_for ~threads n = Int.max 1 ((n + threads - 1) / threads)

(** Launch the consolidated entry of a recursive app with a seed work
    buffer (see {!Transform.result}'s [recursive]). *)
let launch_recursive_seed (p : prepared) ~cfg ~uniform_args ~seed_items =
  match p.trans with
  | Some r when r.Transform.recursive ->
    let seed =
      Device.of_int_array p.dev ~name:"__seed" (Array.of_list seed_items)
    in
    let seed_cnt =
      Device.of_int_array p.dev ~name:"__seed_cnt"
        [| List.length seed_items |]
    in
    let grid, block =
      Transform.launch_config cfg r ~items:(List.length seed_items)
    in
    Device.launch p.dev p.entry ~grid ~block
      (uniform_args @ [ vbuf seed; vbuf seed_cnt ])
  | _ -> invalid_arg "launch_recursive_seed: not a recursive consolidation"
