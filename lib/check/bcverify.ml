(** Static verifier for bytecode instruction streams.

    The bytecode tier ({!Dpc_sim.Bytecode}) executes dense int-coded
    streams with unchecked register indexing — [row_i]/[row_f] use
    [unsafe_get], the FUSE dispatch trusts every quad's sub-op, and the
    region walker trusts every patched jump target.  That is sound for
    streams the lowering just produced, but nothing else: a stale or
    hand-edited persisted program, a future lowering bug, or a mutant
    stream would execute garbage (or segfault) instead of failing.

    This pass re-derives, by abstract interpretation over the stream
    alone, every property the executor assumes:

    - {b BC01} opcode validity: only the twenty documented stream ops
      may appear, with their enumerated immediates in range (ATOMIC
      buffer kind 0–1, op 0–4, old-value kind 0–1; MALLOC scope 0–2;
      LAUNCH grid/block kinds 0–1, argument kinds 0–2, a non-negative
      argument count).
    - {b BC02} instruction fit: every operand (including each FUSE
      quad) lies inside its enclosing region — a truncated stream is
      caught before the executor reads past the end.
    - {b BC03}/{b BC04} register-plane typing: every int / float
      operand resolves inside its plane — temp rows below the
      temp-plane height, warp rows below the plane row count, constants
      inside the pool — LAUNCH dimensions and arguments, an ATOMIC old
      value, a MALLOC handle and the FREE buffer included.
    - {b BC05} FUSE well-formedness: a positive quad count, documented
      sub-ops only, SPECIAL kinds 0–6, and raising quads (IDIV/IMOD) of
      at most one kind per group (the lowering's abort-ordering rule).
    - {b BC06} structured control: IF/WHILE/FOR/ANDOR region targets
      monotone and inside the enclosing region, condition kinds 0/1; a
      block-uniform condition program's value of kind 0–2 in a
      readable register.
    - {b BC07} table indices: MALLOC sites inside the kernel's site
      caches, LAUNCH callee ids inside the interned-name table.
    - {b BC08} shared-memory operands: array slot and interned name in
      range (SHLOAD, SHLOADN, SHSTORE), SHSTORE kinds 0–2.
    - {b BC09} no write destination may address the constant pool
      (rows there are shared across lanes; a write would corrupt every
      use of the constant).

    All findings are errors: a stream with any of them must not run. *)

module B = Dpc_sim.Bytecode
module K = Dpc_kir.Kernel

(* Operand planes, for the register checks. *)
type plane = Pi | Pf

let check_stream (s : B.stream) : Diag.t list =
  let diags = ref [] in
  let emit ~id fmt =
    Printf.ksprintf
      (fun m ->
        diags :=
          Diag.make ~id ~severity:Diag.Error ~kernel:s.B.s_kname "%s" m
          :: !diags)
      fmt
  in
  let code = s.B.s_code in
  let len = Array.length code in
  let plane_name = function Pi -> "int" | Pf -> "float" in
  let ntmp = function Pi -> s.B.s_ntmpi | Pf -> s.B.s_ntmpf in
  let nrows = function Pi -> s.B.s_nint | Pf -> s.B.s_nflt in
  let npool = function Pi -> s.B.s_nic | Pf -> s.B.s_nfc in
  let oob_id = function Pi -> "BC03" | Pf -> "BC04" in
  let reg_read pl ~pc ~what r =
    if r >= B.temp_base then begin
      let t = r - B.temp_base in
      if t >= ntmp pl then
        emit ~id:(oob_id pl)
          "pc %d: %s reads %s temp row %d, but the temp plane has %d rows"
          pc what (plane_name pl) t (ntmp pl)
    end
    else if r >= 0 then begin
      if r >= nrows pl then
        emit ~id:(oob_id pl)
          "pc %d: %s reads %s register row %d, but the warp plane has %d \
           rows"
          pc what (plane_name pl) r (nrows pl)
    end
    else begin
      let i = -r - 1 in
      if i >= npool pl then
        emit ~id:(oob_id pl)
          "pc %d: %s reads %s constant %d, but the pool has %d entries" pc
          what (plane_name pl) i (npool pl)
    end
  in
  let reg_write pl ~pc ~what r =
    if r < 0 then
      emit ~id:"BC09"
        "pc %d: %s writes %s constant-pool entry %d (constants are \
         read-only)"
        pc what (plane_name pl) (-r - 1)
    else reg_read pl ~pc ~what r
  in
  let cond ~pc ~what kind row =
    if kind <> 0 && kind <> 1 then
      emit ~id:"BC06" "pc %d: %s condition kind %d (expected 0=int 1=float)"
        pc what kind
    else reg_read (if kind = 0 then Pi else Pf) ~pc ~what:(what ^ " condition")
        row
  in
  (* One FUSE quad at [q]; returns the raise kind (0 none, 1 div, 2 mod). *)
  let quad ~pc q =
    let op = code.(q) and a = code.(q + 1) and b = code.(q + 2) in
    let d = code.(q + 3) in
    let what = Printf.sprintf "FUSE quad at %d (sub-op %d)" q op in
    let r2 ap bp dp =
      reg_read ap ~pc ~what a;
      reg_read bp ~pc ~what b;
      reg_write dp ~pc ~what d
    in
    let r1 ap dp =
      reg_read ap ~pc ~what a;
      reg_write dp ~pc ~what d
    in
    match op with
    | 3 -> r2 Pi Pi Pi; 1  (* IDIV raises on zero *)
    | 4 -> r2 Pi Pi Pi; 2  (* IMOD raises on zero *)
    | 0 | 1 | 2 | 5 | 6 | 7 | 8 | 9 | 10 | 11  (* int arith *)
    | 12 | 13 | 14 | 15 | 16 | 17 (* int compare *) ->
      r2 Pi Pi Pi; 0
    | 18 | 19 | 20 | 21 | 22 | 23 (* float arith *) -> r2 Pf Pf Pf; 0
    | 24 | 25 | 26 | 27 | 28 | 29 (* float compare, int truth *) ->
      r2 Pf Pf Pi; 0
    | 30 | 32 | 38 -> r1 Pi Pi; 0  (* INEG INOT MOVI *)
    | 31 | 39 -> r1 Pf Pf; 0  (* FNEG MOVF *)
    | 33 | 35 | 37 -> r1 Pf Pi; 0  (* FNOT F2I F2I_FREE *)
    | 34 | 36 -> r1 Pi Pf; 0  (* I2F I2F_FREE *)
    | 40 -> 0  (* CHARGE1: operands unused *)
    | 41 ->
      if a < 0 || a > 6 then
        emit ~id:"BC05" "pc %d: %s: SPECIAL kind %d (expected 0..6)" pc what
          a;
      reg_write Pi ~pc ~what d;
      0
    | _ ->
      emit ~id:"BC05" "pc %d: unknown FUSE sub-op %d at quad %d" pc op q;
      0
  in
  (* Walk one region [p, stop).  Malformed control targets end the walk
     of their region (the executor would jump arbitrarily from there, so
     nothing later in the region is trustworthy). *)
  let rec walk p stop =
    if p < stop then begin
      let op = code.(p) in
      let need n k =
        if p + n > stop then
          emit ~id:"BC02"
            "pc %d: opcode %d needs %d slots but its region ends at %d" p op
            n stop
        else k ()
      in
      match op with
      | 0 | 1 | 18 -> walk (p + 1) stop
      | 2 ->
        need 7 (fun () ->
            let nm = code.(p + 1) and nargs = code.(p + 6) in
            if nm < 0 || nm >= s.B.s_nnames then
              emit ~id:"BC07"
                "pc %d: LAUNCH callee id %d, but %d names are interned" p nm
                s.B.s_nnames;
            let dim what kind r =
              if kind <> 0 && kind <> 1 then
                emit ~id:"BC01"
                  "pc %d: LAUNCH %s kind %d (expected 0=int 1=float)" p what
                  kind
              else
                reg_read (if kind = 0 then Pi else Pf) ~pc:p
                  ~what:("LAUNCH " ^ what) r
            in
            dim "grid" code.(p + 2) code.(p + 3);
            dim "block" code.(p + 4) code.(p + 5);
            if nargs < 0 then
              emit ~id:"BC01" "pc %d: LAUNCH argument count %d" p nargs
            else
              need (7 + (2 * nargs)) (fun () ->
                  for j = 0 to nargs - 1 do
                    let kind = code.(p + 7 + (2 * j)) in
                    let r = code.(p + 8 + (2 * j)) in
                    let what = Printf.sprintf "LAUNCH argument %d" j in
                    match kind with
                    | 0 | 2 -> reg_read Pi ~pc:p ~what r
                    | 1 -> reg_read Pf ~pc:p ~what r
                    | _ ->
                      emit ~id:"BC01"
                        "pc %d: %s kind %d (expected 0=int 1=float \
                         2=buffer)"
                        p what kind
                  done;
                  walk (p + 7 + (2 * nargs)) stop))
      | 19 ->
        need 2 (fun () ->
            reg_read Pi ~pc:p ~what:"FREE buffer" code.(p + 1);
            walk (p + 2) stop)
      | 3 ->
        need 5 (fun () ->
            cond ~pc:p ~what:"IF" code.(p + 1) code.(p + 2);
            let elsep = code.(p + 3) and endp = code.(p + 4) in
            if not (p + 5 <= elsep && elsep <= endp && endp <= stop) then
              emit ~id:"BC06"
                "pc %d: IF targets else=%d end=%d violate %d <= else <= end \
                 <= %d"
                p elsep endp (p + 5) stop
            else begin
              walk (p + 5) elsep;
              walk elsep endp;
              walk endp stop
            end)
      | 4 ->
        need 3 (fun () ->
            let testp = code.(p + 1) and endp = code.(p + 2) in
            if not (p + 3 <= testp && testp + 2 <= endp && endp <= stop)
            then
              emit ~id:"BC06"
                "pc %d: WHILE targets test=%d end=%d violate %d <= test, \
                 test+2 <= end <= %d"
                p testp endp (p + 3) stop
            else begin
              walk (p + 3) testp;
              cond ~pc:p ~what:"WHILE" code.(testp) code.(testp + 1);
              walk (testp + 2) endp;
              walk endp stop
            end)
      | 5 ->
        need 6 (fun () ->
            let var = code.(p + 1) in
            if var < 0 || var >= s.B.s_nint then
              emit ~id:"BC03"
                "pc %d: FOR induction row %d, but the warp int plane has %d \
                 rows"
                p var s.B.s_nint;
            reg_read Pi ~pc:p ~what:"FOR lower bound" code.(p + 2);
            reg_read Pi ~pc:p ~what:"FOR upper bound" code.(p + 3);
            let testp = code.(p + 4) and endp = code.(p + 5) in
            if not (p + 6 <= testp && testp <= endp && endp <= stop) then
              emit ~id:"BC06"
                "pc %d: FOR targets test=%d end=%d violate %d <= test <= \
                 end <= %d"
                p testp endp (p + 6) stop
            else begin
              walk (p + 6) testp;
              walk testp endp;
              walk endp stop
            end)
      | 6 ->
        need 8 (fun () ->
            let isand = code.(p + 1) in
            if isand <> 0 && isand <> 1 then
              emit ~id:"BC06" "pc %d: ANDOR kind %d (expected 0=or 1=and)" p
                isand;
            reg_write Pi ~pc:p ~what:"ANDOR destination" code.(p + 2);
            cond ~pc:p ~what:"ANDOR left" code.(p + 3) code.(p + 4);
            cond ~pc:p ~what:"ANDOR right" code.(p + 5) code.(p + 6);
            let be = code.(p + 7) in
            if not (p + 8 <= be && be <= stop) then
              emit ~id:"BC06"
                "pc %d: ANDOR target b-end=%d violates %d <= b-end <= %d" p
                be (p + 8) stop
            else begin
              walk (p + 8) be;
              walk be stop
            end)
      | 7 ->
        need 3 (fun () ->
            let n = code.(p + 1) in
            if n < 1 then begin
              emit ~id:"BC05" "pc %d: FUSE group with quad count %d" p n;
              walk (p + 3) stop
            end
            else begin
              let group_end = p + 3 + (4 * n) in
              if group_end > stop then
                emit ~id:"BC02"
                  "pc %d: FUSE group of %d quads needs %d slots but its \
                   region ends at %d (truncated quad)"
                  p n (group_end - p) stop
              else begin
                let raises = ref 0 in
                for j = 0 to n - 1 do
                  let rk = quad ~pc:p (p + 3 + (4 * j)) in
                  if rk <> 0 then begin
                    if !raises <> 0 && !raises <> rk then
                      emit ~id:"BC05"
                        "pc %d: FUSE group mixes division and modulo \
                         raising quads (abort order would be unspecified)"
                        p;
                    raises := rk
                  end
                done;
                walk group_end stop
              end
            end)
      | 8 | 9 ->
        need 4 (fun () ->
            let what = if op = 8 then "LOADI" else "LOADF" in
            reg_read Pi ~pc:p ~what:(what ^ " buffer") code.(p + 1);
            reg_read Pi ~pc:p ~what:(what ^ " index") code.(p + 2);
            reg_write (if op = 8 then Pi else Pf) ~pc:p
              ~what:(what ^ " destination")
              code.(p + 3);
            walk (p + 4) stop)
      | 10 | 11 ->
        need 4 (fun () ->
            let what = if op = 10 then "STOREI" else "STOREF" in
            reg_read Pi ~pc:p ~what:(what ^ " buffer") code.(p + 1);
            reg_read Pi ~pc:p ~what:(what ^ " index") code.(p + 2);
            reg_read (if op = 10 then Pi else Pf) ~pc:p
              ~what:(what ^ " value")
              code.(p + 3);
            walk (p + 4) stop)
      | 12 ->
        need 3 (fun () ->
            reg_read Pi ~pc:p ~what:"BUFLEN buffer" code.(p + 1);
            reg_write Pi ~pc:p ~what:"BUFLEN destination" code.(p + 2);
            walk (p + 3) stop)
      | 15 ->
        need 9 (fun () ->
            let kind = code.(p + 1) and aop = code.(p + 2) in
            let dk = code.(p + 7) and d = code.(p + 8) in
            if kind <> 0 && kind <> 1 then
              emit ~id:"BC01"
                "pc %d: ATOMIC buffer kind %d (expected 0=int 1=float)" p kind;
            if aop < 0 || aop > 4 then
              emit ~id:"BC01"
                "pc %d: ATOMIC op %d (expected 0=add 1=min 2=max 3=exch \
                 4=cas)"
                p aop;
            let vpl = if kind = 1 then Pf else Pi in
            reg_read Pi ~pc:p ~what:"ATOMIC buffer" code.(p + 3);
            reg_read Pi ~pc:p ~what:"ATOMIC index" code.(p + 4);
            reg_read vpl ~pc:p ~what:"ATOMIC operand" code.(p + 5);
            if aop = 4 then
              reg_read Pi ~pc:p ~what:"ATOMIC compare" code.(p + 6);
            (match dk with
            | 0 -> ()
            | 1 -> reg_write vpl ~pc:p ~what:"ATOMIC old value" d
            | _ ->
              emit ~id:"BC01"
                "pc %d: ATOMIC old-value kind %d (expected 0=none 1=row)" p
                dk);
            walk (p + 9) stop)
      | 16 ->
        need 5 (fun () ->
            let scope = code.(p + 1) and site = code.(p + 2) in
            if scope < 0 || scope > 2 then
              emit ~id:"BC01"
                "pc %d: MALLOC scope %d (expected 0=warp 1=block 2=grid)" p
                scope;
            if site < 0 || site >= s.B.s_nsites then
              emit ~id:"BC07"
                "pc %d: MALLOC site %d, but the kernel has %d malloc sites" p
                site s.B.s_nsites;
            reg_read Pi ~pc:p ~what:"MALLOC count" code.(p + 3);
            reg_write Pi ~pc:p ~what:"MALLOC destination" code.(p + 4);
            walk (p + 5) stop)
      | 13 | 14 | 17 ->
        let shload = op <> 14 in
        let n = if shload then 5 else 6 in
        need n (fun () ->
            let what =
              match op with 13 -> "SHLOAD" | 14 -> "SHSTORE" | _ -> "SHLOADN"
            in
            let sh = code.(p + (if shload then 3 else 4)) in
            let nm = code.(p + (if shload then 4 else 5)) in
            if sh < 0 || sh >= s.B.s_nshared then
              emit ~id:"BC08"
                "pc %d: %s shared array %d, but the kernel has %d shared \
                 arrays"
                p what sh s.B.s_nshared;
            if nm < 0 || nm >= s.B.s_nnames then
              emit ~id:"BC08"
                "pc %d: %s name id %d, but %d names are interned" p what nm
                s.B.s_nnames;
            if shload then begin
              reg_read Pi ~pc:p ~what:(what ^ " index") code.(p + 1);
              reg_write
                (if op = 13 then Pi else Pf)
                ~pc:p ~what:(what ^ " destination")
                code.(p + 2)
            end
            else begin
              let kind = code.(p + 1) in
              if kind < 0 || kind > 2 then
                emit ~id:"BC08"
                  "pc %d: SHSTORE kind %d (expected 0=int 1=float 2=buf)" p
                  kind;
              reg_read Pi ~pc:p ~what:"SHSTORE index" code.(p + 2);
              reg_read
                (if kind = 1 then Pf else Pi)
                ~pc:p ~what:"SHSTORE value"
                code.(p + 3)
            end;
            walk (p + n) stop)
      | _ ->
        emit ~id:"BC01"
          "pc %d: opcode %d is not a stream op" p op
        (* Unknown width: nothing after this pc can be decoded. *)
    end
  in
  walk 0 len;
  (match s.B.s_result with
  | None -> ()
  | Some (kind, r) -> (
    match kind with
    | 0 | 2 -> reg_read Pi ~pc:len ~what:"uniform condition value" r
    | 1 -> reg_read Pf ~pc:len ~what:"uniform condition value" r
    | _ ->
      emit ~id:"BC06"
        "uniform condition value kind %d (expected 0=int 1=float 2=buffer)"
        kind));
  Diag.sort !diags

(** Verify every stream a finalized kernel lowers to.  Kernels that do
    not lower (reference-walker only) have no bytecode and verify
    vacuously. *)
let check_kernel (k : K.t) : Diag.t list =
  if k.K.typing = None then K.finalize k;
  match B.streams_of_kernel k with
  | None -> []
  | Some streams -> List.concat_map check_stream streams

(** Verify every kernel of a program. *)
let check (prog : K.Program.t) : Diag.t list =
  List.concat_map check_kernel (K.Program.kernels prog) |> Diag.sort
