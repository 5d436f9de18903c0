(** First-class run descriptions with stable codecs.

    A scenario is everything that picks one simulated run.  It replaces
    the optional-argument soup that used to thread app runners: suites
    declare scenario lists, CLI flags parse into it ([--scenario
    KEY=V,...]), sweep files deserialize into it, and the engine's
    compiled-kernel cache keys off it.

    Canonical form: {!to_string} emits [KEY=V] pairs in fixed field order
    with [None] fields omitted, so structural equality coincides with
    string equality — {!key} and {!hash} are derived from it. *)

type t = private {
  app : string;  (** canonical registry name *)
  variant : Dpc_apps.Harness.variant;
  policy : Dpc.Config_select.policy option;
      (** [None]: the per-granularity default *)
  alloc : Dpc_alloc.Allocator.kind;
  cfg_preset : string;  (** a {!Dpc_gpu.Config.presets} name *)
  cfg_overrides : (string * int) list;
      (** integer device-config field overrides, sorted by field name *)
  scale : int option;  (** [None]: the app's documented default *)
  seed : int option;
  scheduler : Dpc_sim.Timing.scheduler;
  interp : Dpc_sim.Interp.mode option;  (** [None]: session default *)
  extras : (string * string) list;  (** app-specific knobs, sorted *)
}

(** The one constructor: canonicalizes the app name via the registry,
    lowercases and vets the config preset, vets the policy and override
    field names, checks the extras against the app's [extras_spec], and
    sorts override/extra lists.  Its defaults ([alloc] [Pool], [cfg]
    ["k20c"], [scheduler] processor sharing) are the only copy: the
    codecs pass an absent key through as an absent argument.
    @raise Invalid_argument on unknown apps, presets or fields, a policy
    the codecs cannot read back, or bad extras. *)
val make :
  ?policy:Dpc.Config_select.policy ->
  ?alloc:Dpc_alloc.Allocator.kind ->
  ?cfg:string ->
  ?cfg_overrides:(string * int) list ->
  ?scale:int ->
  ?seed:int ->
  ?scheduler:Dpc_sim.Timing.scheduler ->
  ?interp:Dpc_sim.Interp.mode ->
  ?extras:(string * string) list ->
  app:string ->
  Dpc_apps.Harness.variant ->
  t

(** The [cfg.FIELD] names an override may address, in declaration
    order; any other name is refused by {!make} with this list. *)
val cfg_field_names : string list

(** Device config: preset with overrides applied. *)
val resolve_cfg : t -> Dpc_gpu.Config.t

(** {2 Codecs} *)

val to_string : t -> string

(** Parse {!to_string}'s [KEY=V,...] form, any key order.  Unknown keys
    are rejected; [cfg.FIELD=N] addresses device-config overrides and
    [x.KEY=V] app extras.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val to_json : t -> Dpc_prof.Json.t
val of_json : Dpc_prof.Json.t -> t

(** Decode a sweep file: a bare JSON list of scenarios, or an object
    with a ["scenarios"] member; elements are scenario objects
    ({!of_json}) or canonical strings ({!of_string}). *)
val sweep_of_json : Dpc_prof.Json.t -> t list

val scheduler_to_string : Dpc_sim.Timing.scheduler -> string

(** {2 Cost model} *)

(** Relative wall-clock estimate of the run ([scale x app x variant]
    weights, plus the interpreter back end's measured ratio and a
    device-config weight for deep-memory-model features), fit from
    the measured per-scenario wall clocks committed in [BENCH_pr8.json]
    (the evaluation suite under every interpreter tier).
    Under {!Dpc_util.Pool.Steal}, {!Session.run_all} claims scenarios
    longest-first by this value; estimates steer scheduling only and
    never affect results. *)
val cost_estimate : t -> float

(** {2 Identity} *)

(** Stable identity: the canonical string form. *)
val key : t -> string

(** MD5 of {!key}, hex. *)
val hash : t -> string

val equal : t -> t -> bool

(** Short human label, [app/variant]. *)
val label : t -> string

(** {2 Lowering} *)

(** Lower to the harness-level run specification.  [preparer] threads the
    engine's compiled-program cache, [inputs] the session's input cache
    (default: build every time); [inspect] a profiling hook. *)
val to_spec :
  ?preparer:Dpc_apps.Harness.preparer ->
  ?inputs:Dpc_apps.Harness.input_cache ->
  ?inspect:(Dpc_sim.Device.t -> unit) ->
  t ->
  Dpc_apps.Harness.spec
