(** Session-level cache of app inputs: one entry per app, built under the
    app slot's lock (see the interface). *)

module Harness = Dpc_apps.Harness

type stats = { builds : int; hits : int; entries : int }

let zero_stats = { builds = 0; hits = 0; entries = 0 }

(* The entry keeps its build thunk so {!changed} can compare the shared
   value with a fresh build. *)
type entry =
  | Entry : {
      id : 'a Type.Id.t;
      key : string;
      value : 'a;
      build : unit -> 'a;
    }
      -> entry

type slot = { slot_lock : Mutex.t; mutable entry : entry option }

type t = {
  lock : Mutex.t;  (** guards [slots] *)
  slots : (string, slot) Hashtbl.t;
  builds : int Atomic.t;
  hits : int Atomic.t;
}

let create () =
  { lock = Mutex.create (); slots = Hashtbl.create 8;
    builds = Atomic.make 0; hits = Atomic.make 0 }

let slot t app =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.slots app with
      | Some s -> s
      | None ->
        let s = { slot_lock = Mutex.create (); entry = None } in
        Hashtbl.add t.slots app s;
        s)

let lookup (type a) (id : a Type.Id.t) key : entry option -> a option =
  function
  | Some (Entry e) when e.key = key -> (
    match Type.Id.provably_equal id e.id with
    | Some Type.Equal -> Some e.value
    | None -> None)
  | _ -> None

let memo t id ~app ~key build =
  let s = slot t app in
  Mutex.protect s.slot_lock (fun () ->
      match lookup id key s.entry with
      | Some v ->
        Atomic.incr t.hits;
        v
      | None ->
        let value = build () in
        s.entry <- Some (Entry { id; key; value; build });
        Atomic.incr t.builds;
        value)

let hook t =
  { Harness.memo = (fun id ~app ~key build -> memo t id ~app ~key build) }

let all_slots t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun app s acc -> (app, s) :: acc) t.slots [])

(* Entries are read without their slot locks: a slot mid-build reports
   its previous state instead of blocking a stats reader. *)
let stats t =
  let entries =
    List.length
      (List.filter (fun (_, s) -> Option.is_some s.entry) (all_slots t))
  in
  { builds = Atomic.get t.builds; hits = Atomic.get t.hits; entries }

let changed t =
  List.filter_map
    (fun (app, s) ->
      match Mutex.protect s.slot_lock (fun () -> s.entry) with
      | Some (Entry e) when e.value <> e.build () -> Some app
      | _ -> None)
    (all_slots t)
  |> List.sort compare
