(** Deterministic pseudo-random number generation.

    All synthetic datasets in this repository are generated from explicit
    seeds so that every experiment is reproducible bit-for-bit.  We use
    SplitMix64, which is tiny, fast and has excellent statistical quality
    for non-cryptographic use. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* SplitMix64 step (Steele, Lea, Flood 2014). *)
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** [bits t] returns 62 uniformly random non-negative bits. *)
let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)
let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod n

(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)
let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(** [float t] is uniform in [\[0, 1)]. *)
let float t = Float.of_int (bits t) /. 0x1p62

let bool t = bits t land 1 = 1

(** Power-law sample in [\[lo, hi\]] with exponent [alpha > 0]: heavier
    [alpha] gives a heavier head (small values more likely). *)
let power_law t ~lo ~hi ~alpha =
  if hi < lo then invalid_arg "Rng.power_law: empty range";
  let u = float t in
  let lo_f = Float.of_int lo and hi_f = Float.of_int (hi + 1) in
  let e = 1.0 -. alpha in
  let v =
    if Float.abs e < 1e-9 then lo_f *. ((hi_f /. lo_f) ** u)
    else ((hi_f ** e -. lo_f ** e) *. u +. (lo_f ** e)) ** (1.0 /. e)
  in
  Int.max lo (Int.min hi (Float.to_int v))

(** Fisher-Yates shuffle in place. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(** [split t] derives an independent generator (for parallel streams). *)
let split t = { state = next_int64 t }
