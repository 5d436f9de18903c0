(** Deterministic pseudo-random number generation (SplitMix64).

    Every synthetic dataset in this repository is generated from an
    explicit seed, so all experiments are reproducible bit-for-bit. *)

type t

(** [create seed] returns a generator whose stream is a pure function of
    [seed]. *)
val create : int -> t

(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)
val int_in : t -> int -> int -> int

(** Uniform in [\[0, 1)]. *)
val float : t -> float

val bool : t -> bool

(** Power-law sample in [\[lo, hi\]]; larger [alpha] makes small values
    more likely (heavier head). *)
val power_law : t -> lo:int -> hi:int -> alpha:float -> int

(** Fisher-Yates shuffle in place. *)
val shuffle : t -> 'a array -> unit

(** Derive an independent generator (for parallel streams). *)
val split : t -> t
