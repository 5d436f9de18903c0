(** Plain-text table rendering for the experiment harness.  Every figure
    and table of the paper is re-emitted as one of these tables. *)

type align = Left | Right

type t = {
  title : string;
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reverse order *)
}

let create ~title ~headers ?aligns () =
  let aligns =
    match aligns with
    | Some a ->
      if List.length a <> List.length headers then
        invalid_arg "Table.create: aligns length mismatch";
      a
    | None -> List.map (fun _ -> Right) headers
  in
  { title; headers; aligns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- cells :: t.rows

let rows t = List.rev t.rows

let title t = t.title

let headers t = t.headers

let fmt_float ?(digits = 2) v =
  if Float.is_nan v then "-"
  else if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.*f" digits v

let fmt_ratio v = fmt_float ~digits:2 v

let fmt_pct v = Printf.sprintf "%.1f%%" (100.0 *. v)

(** Render with unicode-free ASCII borders so output survives any log. *)
let render t =
  let all = t.headers :: rows t in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i c -> widths.(i) <- Int.max widths.(i) (String.length c)) row)
    all;
  let pad align w s =
    let fill = String.make (w - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let render_row row =
    let cells =
      List.mapi
        (fun i c ->
          let align = List.nth t.aligns i in
          pad align widths.(i) c)
        row
    in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let sep =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "=== %s ===\n" t.title);
  Buffer.add_string buf (sep ^ "\n");
  Buffer.add_string buf (render_row t.headers ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render_row r ^ "\n")) (rows t);
  Buffer.add_string buf (sep ^ "\n");
  Buffer.contents buf

let print t = print_string (render t)
