(** First-class run descriptions.

    A scenario is everything that picks one simulated run: the app, the
    variant, the configuration policy, the allocator, the device config
    (a named preset plus per-field integer overrides), the problem scale
    and seed, the SMX scheduler, the interpreter back end, and any
    app-specific extras.  It is plain immutable data with stable string /
    JSON codecs, so experiment suites are declarative scenario lists, CLI
    flags parse into it, sweep files deserialize into it, and the engine's
    compiled-kernel cache keys off it.

    The canonical string form is a comma-separated [KEY=V] list in fixed
    field order — two structurally equal scenarios always print the same
    string, which is why {!key} and {!hash} are derived from it. *)

module Harness = Dpc_apps.Harness
module Registry = Dpc_apps.Registry
module Cfg = Dpc_gpu.Config
module Alloc = Dpc_alloc.Allocator
module Cs = Dpc.Config_select
module Json = Dpc_prof.Json

type t = {
  app : string;  (** canonical registry name *)
  variant : Harness.variant;
  policy : Cs.policy option;  (** [None]: the per-granularity default *)
  alloc : Alloc.kind;
  cfg_preset : string;  (** ["k20c"] or ["test-device"] *)
  cfg_overrides : (string * int) list;  (** sorted by field name *)
  scale : int option;  (** [None]: the app's documented default *)
  seed : int option;
  scheduler : Dpc_sim.Timing.scheduler;
  interp : Dpc_sim.Interp.mode option;  (** [None]: session default *)
  extras : (string * string) list;  (** app-specific knobs, sorted *)
}

(* --- device-config presets and overrides --------------------------------- *)

(* The registry lives with the presets themselves ({!Cfg.presets}) so
   every front end — scenarios, dpcc, experiments — rejects an unknown
   preset with the same authoritative list. *)
let cfg_preset_of_string s =
  match Cfg.preset_opt s with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf "unknown device preset %S (have: %s)" s
         (String.concat ", " Cfg.preset_names))

(* Every overridable integer field of Cfg.t, by name, with its setter —
   the surface [cfg.FIELD=N] overrides address (bench ablations sweep
   these).  [name]/[clock_mhz] are deliberately not overridable. *)
let cfg_fields : (string * (Cfg.t -> int -> Cfg.t)) list =
  [
    ("num_smx", fun c v -> { c with Cfg.num_smx = v });
    ("warp_size", fun c v -> { c with Cfg.warp_size = v });
    ("max_warps_per_smx", fun c v -> { c with Cfg.max_warps_per_smx = v });
    ("max_blocks_per_smx", fun c v -> { c with Cfg.max_blocks_per_smx = v });
    ("max_threads_per_block",
     fun c v -> { c with Cfg.max_threads_per_block = v });
    ("max_grid_blocks", fun c v -> { c with Cfg.max_grid_blocks = v });
    ("issue_rate", fun c v -> { c with Cfg.issue_rate = v });
    ("max_concurrent_grids",
     fun c v -> { c with Cfg.max_concurrent_grids = v });
    ("max_nesting_depth", fun c v -> { c with Cfg.max_nesting_depth = v });
    ("fixed_pool_capacity", fun c v -> { c with Cfg.fixed_pool_capacity = v });
    ("host_launch_latency", fun c v -> { c with Cfg.host_launch_latency = v });
    ("device_launch_latency",
     fun c v -> { c with Cfg.device_launch_latency = v });
    ("launch_issue_cycles", fun c v -> { c with Cfg.launch_issue_cycles = v });
    ("launch_dram_transactions",
     fun c v -> { c with Cfg.launch_dram_transactions = v });
    ("dispatch_interval", fun c v -> { c with Cfg.dispatch_interval = v });
    ("virtual_dispatch_interval",
     fun c v -> { c with Cfg.virtual_dispatch_interval = v });
    ("virtual_pool_penalty",
     fun c v -> { c with Cfg.virtual_pool_penalty = v });
    ("virtual_pool_dram", fun c v -> { c with Cfg.virtual_pool_dram = v });
    ("sync_swap_cycles", fun c v -> { c with Cfg.sync_swap_cycles = v });
    ("sync_swap_dram", fun c v -> { c with Cfg.sync_swap_dram = v });
    ("block_start_cycles", fun c v -> { c with Cfg.block_start_cycles = v });
    ("mem_issue_cycles", fun c v -> { c with Cfg.mem_issue_cycles = v });
    ("dram_transaction_cycles",
     fun c v -> { c with Cfg.dram_transaction_cycles = v });
    ("l2_hit_cycles", fun c v -> { c with Cfg.l2_hit_cycles = v });
    ("atomic_cycles", fun c v -> { c with Cfg.atomic_cycles = v });
    ("mem_segment_bytes", fun c v -> { c with Cfg.mem_segment_bytes = v });
    ("l2_segments", fun c v -> { c with Cfg.l2_segments = v });
    ("shared_banks", fun c v -> { c with Cfg.shared_banks = v });
    ("bank_replay_cycles", fun c v -> { c with Cfg.bank_replay_cycles = v });
    ("mshr_per_warp", fun c v -> { c with Cfg.mshr_per_warp = v });
    ("mshr_retire_per_access",
     fun c v -> { c with Cfg.mshr_retire_per_access = v });
    ("mshr_stall_cycles", fun c v -> { c with Cfg.mshr_stall_cycles = v });
    ("issue_per_warp", fun c v -> { c with Cfg.issue_per_warp = v });
  ]

let cfg_field_names = List.map fst cfg_fields

let cfg_field name =
  match List.assoc_opt name cfg_fields with
  | Some set -> set
  | None ->
    invalid_arg
      (Printf.sprintf "unknown device-config field %S (have: %s)" name
         (String.concat ", " cfg_field_names))

(** The scenario's device config: preset with overrides applied.  The
    preset's [name] is kept, so a report names the preset it ran on. *)
let resolve_cfg t =
  let base = cfg_preset_of_string t.cfg_preset in
  List.fold_left
    (fun c (name, v) ->
      cfg_field name c v)
    base t.cfg_overrides

(* --- small codecs ---------------------------------------------------------- *)

let alloc_to_string = Alloc.kind_to_string

let alloc_of_string s =
  match String.lowercase_ascii s with
  | "default" -> Alloc.Default
  | "halloc" -> Alloc.Halloc
  | "pre-alloc" | "pool" -> Alloc.Pool
  | other ->
    invalid_arg
      (Printf.sprintf
         "bad allocator %S (expected default, halloc, or pre-alloc)" other)

let scheduler_to_string = function
  | Dpc_sim.Timing.Processor_sharing -> "ps"
  | Dpc_sim.Timing.Fcfs -> "fcfs"

let scheduler_of_string s =
  match String.lowercase_ascii s with
  | "ps" | "processor-sharing" -> Dpc_sim.Timing.Processor_sharing
  | "fcfs" -> Dpc_sim.Timing.Fcfs
  | other ->
    invalid_arg
      (Printf.sprintf "bad scheduler %S (expected ps or fcfs)" other)

let interp_to_string = Dpc_sim.Interp.mode_to_string

let interp_of_string s =
  match Dpc_sim.Interp.mode_of_string s with
  | Some m -> m
  | None ->
    invalid_arg
      (Printf.sprintf "bad interp mode %S (expected bytecode or ref)" s)

(* --- construction ---------------------------------------------------------- *)

let sort_pairs l =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) l

let make ?policy ?(alloc = Alloc.Pool) ?(cfg = "k20c") ?(cfg_overrides = [])
    ?scale ?seed ?(scheduler = Dpc_sim.Timing.Processor_sharing) ?interp
    ?(extras = []) ~app variant =
  (* Vet eagerly so bad scenarios fail at construction, not mid-batch. *)
  let entry = Registry.find app in
  let cfg = String.lowercase_ascii cfg in
  ignore (cfg_preset_of_string cfg : Cfg.t);
  (* A policy the codecs cannot read back (KC_0, a zero dimension) is
     refused here, so every scenario [make] returns round-trips. *)
  Option.iter
    (fun p -> ignore (Cs.policy_of_string (Cs.policy_to_key p) : Cs.policy))
    policy;
  List.iter
    (fun (n, _) -> ignore (cfg_field n : Cfg.t -> int -> Cfg.t))
    cfg_overrides;
  Harness.validate_extras ~app:entry.Registry.name
    ~known:entry.Registry.extras_spec extras;
  {
    app = entry.Registry.name;
    variant;
    policy;
    alloc;
    cfg_preset = cfg;
    cfg_overrides = sort_pairs cfg_overrides;
    scale;
    seed;
    scheduler;
    interp;
    extras = sort_pairs extras;
  }

(* --- string codec ---------------------------------------------------------- *)

let to_string t =
  let b = Buffer.create 96 in
  let add k v =
    if Buffer.length b > 0 then Buffer.add_char b ',';
    Buffer.add_string b k;
    Buffer.add_char b '=';
    Buffer.add_string b v
  in
  add "app" t.app;
  add "variant" (Harness.variant_to_string t.variant);
  Option.iter (fun p -> add "policy" (Cs.policy_to_key p)) t.policy;
  add "alloc" (alloc_to_string t.alloc);
  add "cfg" t.cfg_preset;
  List.iter (fun (n, v) -> add ("cfg." ^ n) (string_of_int v))
    t.cfg_overrides;
  Option.iter (fun s -> add "scale" (string_of_int s)) t.scale;
  Option.iter (fun s -> add "seed" (string_of_int s)) t.seed;
  add "sched" (scheduler_to_string t.scheduler);
  Option.iter (fun m -> add "interp" (interp_to_string m)) t.interp;
  List.iter (fun (k, v) -> add ("x." ^ k) v) t.extras;
  Buffer.contents b

let int_value ~key v =
  match int_of_string_opt v with
  | Some i -> i
  | None ->
    invalid_arg (Printf.sprintf "scenario %s=%S: expected an integer" key v)

(** Parse the [KEY=V,...] form ({!to_string}'s output, in any key order).
    @raise Invalid_argument on unknown keys or bad values. *)
let of_string s =
  let app = ref None and variant = ref None and policy = ref None in
  let alloc = ref None and cfg = ref None and scheduler = ref None in
  let cfg_overrides = ref [] and scale = ref None and seed = ref None in
  let interp = ref None and extras = ref [] in
  String.split_on_char ',' s
  |> List.iter (fun item ->
         let item = String.trim item in
         if item <> "" then
           match String.index_opt item '=' with
           | None ->
             invalid_arg
               (Printf.sprintf "scenario item %S: expected KEY=V" item)
           | Some i ->
             let key = String.sub item 0 i in
             let v =
               String.sub item (i + 1) (String.length item - i - 1)
             in
             (match key with
             | "app" -> app := Some v
             | "variant" -> variant := Some (Harness.variant_of_string v)
             | "policy" -> policy := Some (Cs.policy_of_string v)
             | "alloc" -> alloc := Some (alloc_of_string v)
             | "cfg" -> cfg := Some v
             | "scale" -> scale := Some (int_value ~key v)
             | "seed" -> seed := Some (int_value ~key v)
             | "sched" -> scheduler := Some (scheduler_of_string v)
             | "interp" -> interp := Some (interp_of_string v)
             | _ ->
               if String.length key > 4 && String.sub key 0 4 = "cfg."
               then
                 cfg_overrides :=
                   ( String.sub key 4 (String.length key - 4),
                     int_value ~key v )
                   :: !cfg_overrides
               else if String.length key > 2 && String.sub key 0 2 = "x."
               then
                 extras :=
                   (String.sub key 2 (String.length key - 2), v) :: !extras
               else
                 invalid_arg
                   (Printf.sprintf "unknown scenario key %S" key)))
  |> ignore;
  let app =
    match !app with
    | Some a -> a
    | None -> invalid_arg "scenario: missing app=NAME"
  in
  let variant =
    match !variant with
    | Some v -> v
    | None -> invalid_arg "scenario: missing variant=V"
  in
  make ?policy:!policy ?alloc:!alloc ?cfg:!cfg
    ~cfg_overrides:!cfg_overrides ?scale:!scale ?seed:!seed
    ?scheduler:!scheduler ?interp:!interp ~extras:!extras ~app variant

(* --- JSON codec ------------------------------------------------------------ *)

let to_json t =
  let opt k f v rest =
    match v with None -> rest | Some x -> (k, f x) :: rest
  in
  Json.Obj
    (("app", Json.String t.app)
     :: ("variant", Json.String (Harness.variant_to_string t.variant))
     :: opt "policy" (fun p -> Json.String (Cs.policy_to_key p)) t.policy
          (("alloc", Json.String (alloc_to_string t.alloc))
           :: ("cfg", Json.String t.cfg_preset)
           :: (if t.cfg_overrides = [] then []
               else
                 [ ( "cfg_overrides",
                     Json.Obj
                       (List.map
                          (fun (n, v) -> (n, Json.Int v))
                          t.cfg_overrides) ) ])
           @ opt "scale" (fun s -> Json.Int s) t.scale
               (opt "seed" (fun s -> Json.Int s) t.seed
                  (("sched", Json.String (scheduler_to_string t.scheduler))
                   :: opt "interp"
                        (fun m -> Json.String (interp_to_string m))
                        t.interp
                        (if t.extras = [] then []
                         else
                           [ ( "extras",
                               Json.Obj
                                 (List.map
                                    (fun (k, v) -> (k, Json.String v))
                                    t.extras) ) ])))))

let of_json (j : Json.t) =
  let obj =
    match j with
    | Json.Obj kvs -> kvs
    | _ -> invalid_arg "scenario JSON: expected an object"
  in
  let find k = List.assoc_opt k obj in
  let str k =
    match find k with
    | Some (Json.String s) -> Some s
    | Some _ -> invalid_arg (Printf.sprintf "scenario JSON %s: expected a string" k)
    | None -> None
  in
  let int k =
    match find k with
    | Some j -> Some (Json.to_int j)
    | None -> None
  in
  let require what = function
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "scenario JSON: missing %s" what)
  in
  let pairs k of_v =
    match find k with
    | None -> []
    | Some (Json.Obj kvs) -> List.map (fun (n, v) -> (n, of_v n v)) kvs
    | Some _ ->
      invalid_arg (Printf.sprintf "scenario JSON %s: expected an object" k)
  in
  make
    ?policy:(Option.map Cs.policy_of_string (str "policy"))
    ?alloc:(Option.map alloc_of_string (str "alloc"))
    ?cfg:(str "cfg")
    ~cfg_overrides:(pairs "cfg_overrides" (fun _ v -> Json.to_int v))
    ?scale:(int "scale") ?seed:(int "seed")
    ?scheduler:(Option.map scheduler_of_string (str "sched"))
    ?interp:(Option.map interp_of_string (str "interp"))
    ~extras:
      (pairs "extras" (fun n v ->
           match v with
           | Json.String s -> s
           | _ ->
             invalid_arg
               (Printf.sprintf "scenario JSON extras.%s: expected a string"
                  n)))
    ~app:(require "app" (str "app"))
    (Harness.variant_of_string (require "variant" (str "variant")))

(** Decode a sweep file: either a bare JSON list of scenarios or an
    object with a ["scenarios"] member.  Each element is a scenario
    object ({!of_json}) or a canonical scenario string ({!of_string}). *)
let sweep_of_json (j : Json.t) =
  let item = function
    | Json.String s -> of_string s
    | element -> of_json element
  in
  match j with
  | Json.List l -> List.map item l
  | Json.Obj kvs -> (
    match List.assoc_opt "scenarios" kvs with
    | Some (Json.List l) -> List.map item l
    | Some _ ->
      invalid_arg "sweep JSON: \"scenarios\" must be a list"
    | None -> invalid_arg "sweep JSON: missing \"scenarios\" list")
  | _ ->
    invalid_arg "sweep JSON: expected a list or {\"scenarios\": [...]}"

(* --- cost model ------------------------------------------------------------ *)

(* Per-scenario cost estimate: effective problem items x per-item app
   weight x variant weight x interpreter weight.  The weights are fit
   from the measured per-scenario wall clocks committed in
   BENCH_pr8.json (the evaluation suite under every interpreter tier
   of the time, best-of-reps, serial).  The unit is the wall of the
   since-retired closure tier: its grid-level wall over the app's
   effective item count gives the per-item app weight (in microseconds
   of closure-tier wall per item), the per-variant wall ratios'
   geometric means across the seven apps give the variant weights, and
   each tier's wall total over the closure tier's gives the interpreter
   weights.  Earlier fits used simulated cycle counts as a
   wall proxy; the direct measurement corrects that (e.g. basic-dp
   burns ~10x the simulated cycles of grid-level but slightly *less*
   interpreter wall, because its tiny grids do proportionally little
   work per charge).  The cost-ordered scheduler only needs relative
   order: mis-estimates cost balance, never correctness. *)

(* (effective items at scale, per-item weight in us of closure-tier wall).
   Scale semantics per app: node count for the citeseer-like apps,
   log2 node count for the kron-based apps, shrink divisor (larger =
   smaller tree, nominal full tree 16384 nodes) for the tree apps. *)
let app_cost_model app (scale : int option) =
  let lin default = float_of_int (Option.value scale ~default) in
  let exp2 default = Float.of_int (1 lsl Option.value scale ~default) in
  let shrink default =
    16384. /. float_of_int (Int.max 1 (Option.value scale ~default))
  in
  match app with
  | "SSSP" -> (lin 3000, 64.0)
  | "SpMV" -> (lin 8000, 18.3)
  | "PageRank" -> (lin 6000, 55.5)
  | "GC" -> (exp2 12, 525.7)
  | "BFS-Rec" -> (exp2 12, 18.6)
  | "TH" | "TD" -> (shrink 4, 57.7)
  | _ -> (lin 1000, 60.)  (* future apps: a neutral linear guess *)

let variant_weight = function
  | Harness.Basic -> 0.86
  | Harness.Flat -> 0.90
  | Harness.Cons Dpc_kir.Pragma.Warp -> 1.03
  | Harness.Cons Dpc_kir.Pragma.Block -> 1.00
  | Harness.Cons Dpc_kir.Pragma.Grid -> 1.0

(* A spec that leaves the tier open runs under the session default, so
   it is priced as that tier. *)
let interp_weight m =
  match Option.value m ~default:(Dpc_sim.Interp.default_mode ()) with
  | Dpc_sim.Interp.Reference -> 1.48
  | Dpc_sim.Interp.Bytecode -> 0.54

(* Deep-memory-model scenarios spend extra interpreter wall per memory
   instruction (bank-conflict index collection and the MSHR ledger in
   Memmodel), so a mixed sweep would otherwise claim them too late.
   The weights are per enabled feature — derived from the resolved
   config rather than the preset name so [cfg.FIELD=N] overrides are
   priced too.  Fit against the pr10 memmodel sweep: deep presets run
   ~6-9% more wall than k20c at equal scale. *)
let cfg_weight t =
  let c = resolve_cfg t in
  let w = 1.0 in
  let w = if c.Cfg.shared_banks > 0 then w +. 0.03 else w in
  let w = if c.Cfg.mshr_per_warp > 0 then w +. 0.05 else w in
  w

(** Relative wall-clock estimate of one run, in baseline-cycle units.
    Only the ordering matters: under {!Dpc_util.Pool.Steal},
    {!Session.run_all} claims scenarios longest-first by this value. *)
let cost_estimate t =
  let items, per_item = app_cost_model t.app t.scale in
  items *. per_item *. variant_weight t.variant *. interp_weight t.interp
  *. cfg_weight t

(* --- identity -------------------------------------------------------------- *)

(** Stable identity: the canonical string form. *)
let key = to_string

let hash t = Digest.to_hex (Digest.string (to_string t))

let equal a b = a = b

(** Short human label for tables and progress lines. *)
let label t =
  Printf.sprintf "%s/%s" t.app (Harness.variant_to_string t.variant)

(* --- lowering to the apps layer -------------------------------------------- *)

(** Lower to the harness-level run specification.  [preparer] threads the
    engine's compiled-program cache, [inputs] the session's input cache;
    [inspect] the session's profiling hook. *)
let to_spec ?(preparer = Harness.no_cache) ?(inputs = Harness.build_inputs)
    ?inspect t : Harness.spec =
  {
    Harness.sp_variant = t.variant;
    sp_policy = t.policy;
    sp_alloc = t.alloc;
    sp_cfg = resolve_cfg t;
    sp_scale = t.scale;
    sp_seed = t.seed;
    sp_scheduler = t.scheduler;
    sp_interp = t.interp;
    sp_preparer = preparer;
    sp_inputs = inputs;
    sp_inspect = inspect;
    sp_extras = t.extras;
  }
