(** Plain-text table rendering for the experiment harness.  Every figure
    and table of the paper is re-emitted as one of these. *)

type align = Left | Right

type t

(** [create ~title ~headers ?aligns ()] makes an empty table.  [aligns]
    defaults to right-aligned everywhere and must match [headers] in
    length when given. *)
val create : title:string -> headers:string list -> ?aligns:align list
  -> unit -> t

(** @raise Invalid_argument when the row arity differs from the headers. *)
val add_row : t -> string list -> unit

(** Rows in insertion order. *)
val rows : t -> string list list

val title : t -> string
val headers : t -> string list

(** Formatting helpers used across the experiment tables: a ratio to two
    decimals ([-] for NaN, no decimals from 1000 up), a fraction as a
    percentage. *)
val fmt_ratio : float -> string
val fmt_pct : float -> string

(** Render with ASCII borders (survives any log file). *)
val render : t -> string

val print : t -> unit
