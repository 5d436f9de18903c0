(** Persistent on-disk store for prepared programs.

    The in-process {!Kcache} amortizes one parse/transform/finalize per
    program family across a session; this store amortizes it across
    {e processes}: a cold CLI run or a freshly started daemon loads the
    prepared (post-transform, finalized) KIR a previous process built
    instead of rebuilding it.

    Layout: one file per prepared program, content-addressed by the
    caller's key (the {!Dpc_apps.Harness.prep_key} MD5 hex digest, which
    covers the variant tag, full source text, parent kernel, policy and
    device config — everything the build output depends on), stored as

    {v <dir>/<key>.prep v}

    Each file is a one-line header followed by an [Marshal] payload:

    {v dpc-kcache-v4 ocaml=<version> tier=<interp tier> cfg=<config digest> md5=<payload digest> len=<bytes> v}

    The header is the {b format-version guard}: a reader rejects (and a
    later write replaces) any file whose format tag, OCaml version,
    interpreter tier or device-config digest differs — [Marshal] images
    are not portable across compiler versions, and the KIR types may
    change shape across repo versions (bump {!format_version} when they
    do).  The tier tag names the interpreter back end the entry was
    prepared for, the cfg digest the device preset it was built under
    ({!Dpc_apps.Harness.cfg_digest}): both are already folded into the
    content-addressed key, so distinct tiers and presets occupy
    distinct files, but stamping them in the header as well means a
    mixed cache directory (or a key scheme change) degrades to an
    ordinary re-prepare instead of silently serving one tier's or one
    preset's artifact to another.  The digest and length reject
    truncated or corrupted payloads before unmarshalling.

    {b Writes are atomic}: the payload goes to a process-unique temp
    file in the same directory, then [Sys.rename]s over the final name.
    Concurrent writers (a daemon and a CLI run racing on the same cache
    directory) can both write; each rename publishes a complete file
    and the last one wins — readers never observe a partial file.

    Every failure mode (missing directory, unreadable file, bad header,
    short payload, digest mismatch, unmarshal error) degrades to a
    cache miss — the store is an accelerator, never a correctness
    dependency — and is counted in {!stats}. *)

module Harness = Dpc_apps.Harness

let format_version = "dpc-kcache-v4"

type stats = {
  loads : int;  (** successful loads *)
  load_failures : int;  (** missing, stale-format or corrupt files *)
  stores : int;  (** successful atomic writes *)
  store_failures : int;
  verify_rejects : int;
      (** well-formed files whose payload the verifier refused *)
}

type t = {
  dir : string;
  verify : (tier:string -> Harness.prep -> (unit, string) result) option;
  loads : int Atomic.t;
  load_failures : int Atomic.t;
  stores : int Atomic.t;
  store_failures : int Atomic.t;
  verify_rejects : int Atomic.t;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** [create dir] opens (creating it, parents included) the store rooted
    at [dir].  [verify] vets every successfully decoded payload before
    it is handed out: [Error reason] (or an exception) rejects the file
    — counted in {!stats}[.verify_rejects], reported on stderr, and
    degraded to an ordinary miss so the caller re-prepares.  The header
    digest only guards against {e accidental} corruption; the verifier
    is what stands between a hand-edited or semantically stale [.prep]
    and the interpreter.  @raise Unix.Unix_error when the directory
    cannot be created. *)
let create ?verify dir =
  mkdir_p dir;
  {
    dir;
    verify;
    loads = Atomic.make 0;
    load_failures = Atomic.make 0;
    stores = Atomic.make 0;
    store_failures = Atomic.make 0;
    verify_rejects = Atomic.make 0;
  }

let stats t =
  {
    loads = Atomic.get t.loads;
    load_failures = Atomic.get t.load_failures;
    stores = Atomic.get t.stores;
    store_failures = Atomic.get t.store_failures;
    verify_rejects = Atomic.get t.verify_rejects;
  }

(* Keys are MD5 hex digests, but never trust a path component: anything
   that could escape [dir] is refused outright. *)
let valid_key key =
  key <> ""
  && String.for_all
       (function 'a' .. 'f' | 'A' .. 'F' | '0' .. '9' -> true | _ -> false)
       key

let path_of t key = Filename.concat t.dir (key ^ ".prep")

(* Tier tags are single words from {!Dpc_sim.Interp.mode_to_string};
   anything that would break the space-separated header is refused. *)
let valid_tier tier =
  tier <> ""
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false)
       tier

(* Config digests are MD5 hex like keys; refuse anything else. *)
let valid_cfgkey = valid_key

let header ~tier ~cfgkey ~payload =
  Printf.sprintf "%s ocaml=%s tier=%s cfg=%s md5=%s len=%d\n" format_version
    Sys.ocaml_version tier cfgkey
    (Digest.to_hex (Digest.string payload))
    (String.length payload)

(** Serialize [prep] under [key] for interpreter tier [tier] built under
    device config [cfgkey].  Returns [false] (and counts a store
    failure) instead of raising on any I/O problem. *)
let store t ~key ~tier ~cfgkey (prep : Harness.prep) =
  if not (valid_key key && valid_tier tier && valid_cfgkey cfgkey) then begin
    Atomic.incr t.store_failures;
    false
  end
  else begin
    let tmp =
      Filename.concat t.dir
        (Printf.sprintf ".tmp-%d-%s" (Unix.getpid ()) key)
    in
    let ok =
      try
        let payload = Marshal.to_string prep [] in
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (header ~tier ~cfgkey ~payload);
            output_string oc payload);
        Sys.rename tmp (path_of t key);
        true
      with _ ->
        (try Sys.remove tmp with _ -> ());
        false
    in
    Atomic.incr (if ok then t.stores else t.store_failures);
    ok
  end

(* Header parse: [format_version ocaml=V tier=T cfg=HEX md5=HEX len=N].
   Any deviation means "not ours / not this version / not this tier /
   not this device config" and the load degrades to a miss. *)
let parse_header ~tier ~cfgkey line =
  match String.split_on_char ' ' line with
  | [ tag; ocaml; htier; hcfg; md5; len ] -> (
    let field prefix s =
      let p = prefix ^ "=" in
      let pl = String.length p in
      if String.length s > pl && String.sub s 0 pl = p then
        Some (String.sub s pl (String.length s - pl))
      else None
    in
    match
      (field "ocaml" ocaml, field "tier" htier, field "cfg" hcfg,
       field "md5" md5, field "len" len)
    with
    | Some ov, Some tv, Some cv, Some digest, Some len_s
      when tag = format_version -> (
      match int_of_string_opt len_s with
      | Some n
        when n >= 0 && ov = Sys.ocaml_version && tv = tier && cv = cfgkey
        ->
        Some (digest, n)
      | _ -> None)
    | _ -> None)
  | _ -> None

(** Load the prepared program stored under [key] for interpreter tier
    [tier] and device config [cfgkey], or [None] when the file is
    absent, from another format version, tier or config, truncated,
    corrupt, or unreadable.  An absent file is an ordinary miss; only a
    present but rejected file counts as a load failure. *)
let load t ~key ~tier ~cfgkey : Harness.prep option =
  if not (valid_key key && valid_tier tier && valid_cfgkey cfgkey) then None
  else
    match open_in_bin (path_of t key) with
    | exception Sys_error _ -> None
    | ic ->
      let result =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            try
              match parse_header ~tier ~cfgkey (input_line ic) with
              | None -> None
              | Some (digest, len) ->
                let payload = really_input_string ic len in
                (* A trailing-garbage write (longer file than the header
                   claims) is as corrupt as a truncated one. *)
                if
                  pos_in ic <> in_channel_length ic
                  || Digest.to_hex (Digest.string payload) <> digest
                then None
                else Some (Marshal.from_string payload 0 : Harness.prep)
            with _ -> None)
      in
      (match result with
      | None ->
        Atomic.incr t.load_failures;
        None
      | Some prep -> (
        let verdict =
          match t.verify with
          | None -> Ok ()
          | Some v -> (
            try v ~tier prep with e -> Error (Printexc.to_string e))
        in
        match verdict with
        | Ok () ->
          Atomic.incr t.loads;
          Some prep
        | Error reason ->
          Atomic.incr t.verify_rejects;
          Printf.eprintf
            "dpc: pstore: verifier rejected %s.prep (%s); re-preparing\n%!"
            key reason;
          None))
