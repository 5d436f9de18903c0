(** Kernels and programs.

    A kernel owns its parameter list, shared-memory declarations and body.
    [finalize] resolves every variable occurrence to a dense frame slot
    (the interpreter indexes per-lane frames by slot, never by name) and
    numbers [Malloc] sites so per-grid allocations can be memoized. *)

type t = {
  kname : string;
  params : Ast.param list;
  shared : (string * int) list;  (** shared arrays: name, element count *)
  body : Ast.stmt list;
  line : int;  (** source line of the definition; 0 when built in memory *)
  mutable nslots : int;  (** -1 until finalized *)
  mutable nsites : int;  (** number of Malloc sites; -1 until finalized *)
  mutable typing : Typing.t option;
      (** slot-type inference result, cached by [finalize]; consumed by the
          simulator's bytecode tier *)
}

exception Invalid_kernel of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_kernel s)) fmt

let make ~name ?(params = []) ?(shared = []) ?(line = 0) body =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (p : Ast.param) ->
      if Hashtbl.mem seen p.pname then
        invalid "kernel %s: duplicate parameter %s" name p.pname;
      Hashtbl.add seen p.pname ())
    params;
  { kname = name; params; shared; body; line; nslots = -1; nsites = -1;
    typing = None }

(** Resolve variable slots and number allocation sites.  Idempotent, and
    a no-op on an already-finalized kernel: finalization is the only
    mutation a kernel ever sees, so skipping it keeps finalized programs
    safe to share read-only across sessions and domains (the engine's
    compiled-kernel cache relies on this).  Must be called (via
    {!Program.finalize}) before interpretation. *)
let is_finalized k = k.nslots >= 0

let finalize (k : t) =
  if is_finalized k then ()
  else begin
    let groups = Ast.collect_vars k.params k.body in
  List.iteri
    (fun slot cells -> List.iter (fun (v : Ast.var) -> v.slot <- slot) cells)
    groups;
  k.nslots <- List.length groups;
  let site = ref 0 in
  Ast.iter_block k.body
    ~on_stmt:(fun s ->
      match s with
      | Ast.Malloc m ->
        m.site <- !site;
        incr site
      | _ -> ())
    ~on_expr:(fun _ -> ());
  k.nsites <- !site;
    k.typing <-
      Some
        (Typing.infer ~params:k.params ~shared:k.shared ~nslots:k.nslots
           k.body)
  end

type kernel = t

(** A program is a set of kernels addressable by name (device-side launches
    resolve callees here). *)
module Program = struct
  type t = { kernels : (string, kernel) Hashtbl.t }

  let create () = { kernels = Hashtbl.create 16 }

  let add p (k : kernel) =
    if Hashtbl.mem p.kernels k.kname then
      invalid "program already contains kernel %s" k.kname;
    Hashtbl.replace p.kernels k.kname k

  let find p name =
    match Hashtbl.find_opt p.kernels name with
    | Some k -> k
    | None -> invalid "no kernel named %s" name

  let find_opt p name = Hashtbl.find_opt p.kernels name

  let mem p name = Hashtbl.mem p.kernels name

  let kernels p =
    Hashtbl.fold (fun _ k acc -> k :: acc) p.kernels []
    |> List.sort (fun a b -> String.compare a.kname b.kname)

  let iter f p = Hashtbl.iter (fun _ k -> f k) p.kernels

  let finalize p = iter finalize p
end
