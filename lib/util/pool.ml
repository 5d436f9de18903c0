(** Domain-based worker pool (see the interface for the contract).

    Implementation notes.  Tasks are indexed into an array; [results] /
    [errors] cells are written by exactly one worker each and read after
    [Domain.join], so no cell needs to be atomic.  Worker domains are
    spawned per call rather than kept resident: calls are rare and
    long-lived, and per-call spawning keeps nested/overlapping pools from
    ever exceeding the machine's domain budget between calls.

    Both schedulers share one claim loop: every worker takes the next
    position from one [Atomic] counter and runs [order.(position)].
    [order] is the identity under [Shared] and the task indices sorted by
    descending cost estimate (stable: ties keep submission order) under
    [Steal], so the expensive tasks start first (LPT). *)

type sched = Shared | Steal

let sched_to_string = function Shared -> "shared" | Steal -> "steal"

let sched_of_string s =
  match String.lowercase_ascii s with
  | "shared" -> Shared
  | "steal" -> Steal
  | other ->
    invalid_arg
      (Printf.sprintf "bad pool scheduler %S (expected shared or steal)"
         other)

type t = { jobs : int; sched : sched }

let create ?(sched = Shared) ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  { jobs; sched }

let sched t = t.sched

let default_jobs () = Int.max 1 (Domain.recommended_domain_count () - 1)

(* Deterministic failure report.  [failed] is set, so at least one error
   cell is populated.  Workers fail fast (they stop claiming once
   [failed] is set), which means a task with a {e lower} index than the
   lowest recorded failure may never have been claimed — and whether it
   was claimed depends on timing.  To make the reported error independent
   of that timing, execute every unclaimed task below the lowest recorded
   failure, in index order, in the calling domain: the first failure
   found this way (or the recorded one, if they all succeed) is the
   lowest-indexed failing task, full stop. *)
let reraise_lowest (type a b) (f : a -> b) tasks (results : b option array)
    (errors : (exn * Printexc.raw_backtrace) option array) n =
  let lowest = ref (n - 1) in
  for i = n - 1 downto 0 do
    if errors.(i) <> None then lowest := i
  done;
  let i = ref 0 in
  while !i < !lowest do
    (if results.(!i) = None && errors.(!i) = None then
       match f tasks.(!i) with
       | v -> results.(!i) <- Some v
       | exception e ->
         errors.(!i) <- Some (e, Printexc.get_raw_backtrace ());
         lowest := !i);
    incr i
  done;
  match errors.(!lowest) with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> assert false

(* Submission order, sorted by descending cost under [Steal]; the index
   tie-break keeps the sort stable, so the order is deterministic. *)
let claim_order ?cost sched tasks =
  let order = Array.init (Array.length tasks) Fun.id in
  (match (sched, cost) with
  | Steal, Some c ->
    let costs = Array.map c tasks in
    let cmp a b =
      match Float.compare costs.(b) costs.(a) with
      | 0 -> Int.compare a b
      | d -> d
    in
    Array.sort cmp order
  | _ -> ());
  order

let parallel_map (type a b) ?cost t (f : a -> b) (xs : a list) : b list =
  match xs with
  | [] -> []
  | _ when t.jobs = 1 -> List.map f xs
  | _ ->
    let tasks = Array.of_list xs in
    let n = Array.length tasks in
    let results : b option array = Array.make n None in
    let errors : (exn * Printexc.raw_backtrace) option array =
      Array.make n None
    in
    let failed = Atomic.make false in
    let order = claim_order ?cost t.sched tasks in
    let next = Atomic.make 0 in
    (* A cell is written before [failed] is raised, so the post-join
       sweep sees every claimed task's fate. *)
    let worker () =
      let continue = ref true in
      while !continue do
        let k = Atomic.fetch_and_add next 1 in
        if k >= n || Atomic.get failed then continue := false
        else
          let i = order.(k) in
          match f tasks.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
            errors.(i) <- Some (e, Printexc.get_raw_backtrace ());
            Atomic.set failed true
      done
    in
    let domains =
      Array.init (Int.min t.jobs n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join domains;
    if Atomic.get failed then reraise_lowest f tasks results errors n;
    List.init n (fun i ->
        match results.(i) with Some v -> v | None -> assert false)

let parallel_iter t f xs = ignore (parallel_map t f xs)
