(* dpcc: the directive-based workload-consolidation compiler, as a
   source-to-source command-line tool (the paper's ROSE-based compiler).

   Input: MiniCU source with a #pragma dp annotated device-side launch.
   Output: MiniCU source with the consolidated parent, the consolidated
   child kernel, and (for grid-level postwork) the consolidated postwork
   kernel.

   Other modes: --check lints a file (or, without one, every registered
   app at every variant), --mutants runs the verifier's mutation harness,
   and --help-pragma prints the directive reference.  dpcc runs no
   simulation: profiling a run is bin/experiments' --trace. *)

open Cmdliner

let pragma_help =
  {|#pragma dp clause reference (Table I of the paper):

  #pragma dp consldt(warp|block|grid)          consolidation granularity  [required]
             buffer(default|halloc|custom
                    [, perBufferSize: <int|var>]
                    [, totalSize: <int>])      buffer kind and sizing     [optional]
             work(v1, v2, ...)                 variables to buffer        [required]
             threads(<int>)                    consolidated block size    [optional]
             blocks(<int>)                     consolidated grid size     [optional]

Place the directive on the line before the device-side launch it applies to:

  #pragma dp consldt(block) buffer(custom, perBufferSize: 256) work(curr)
  launch child<<<1, 64>>>(arr, curr);

perBufferSize sizes each consolidation buffer.  The buffer kind and
totalSize are parsed and linted (LC08: one buffer must fit in totalSize)
but do not choose the allocator: a simulated run takes its allocator
from the scenario's alloc= key (default, halloc or pre-alloc; see
experiments --scenario), and the pre-allocated pool is always 500 MB.
|}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- static checking mode ------------------------------------------------ *)

let write_json path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Dpc_prof.Json.to_string_pretty json));
  Printf.eprintf "dpcc: check report -> %s\n" path

(* Exit status of a lint: errors always fail; --strict also fails on
   warnings. *)
let lint_failed ~strict diags =
  List.exists Dpc_check.Diag.is_error diags || (strict && diags <> [])

(* Lint one MiniCU file: every kernel of the program, with file:line
   locations. *)
let run_check_file ~strict ~json_out path =
  let src = read_file path in
  let prog = Dpc_minicu.Parser.parse_program src in
  let diags = Dpc_check.Check.check_program prog in
  Dpc_check.Check.print_report ~file:path stdout diags;
  Printf.printf "%s: %s\n" path (Dpc_check.Check.summary diags);
  Option.iter
    (fun p -> write_json p (Dpc_check.Check.report_json diags))
    json_out;
  if lint_failed ~strict diags then 1 else 0

(* Build every registered app at every variant (the annotated source as
   written, the consolidation output at each granularity, and the flat
   kernels) through the apps' own build path; lint each program,
   translation-validate every consolidation transform, and statically
   verify every bytecode stream the programs lower to. *)
let run_check_apps ~strict ~json_out =
  let module H = Dpc_apps.Harness in
  let module R = Dpc_apps.Registry in
  let entries = R.all in
  let built =
    List.concat_map
      (fun (e : R.entry) ->
        List.map
          (fun v ->
            ( e,
              H.variant_to_string v,
              H.build e.R.family ~cfg:Dpc_gpu.Config.k20c v ))
          H.[ Basic; Cons Warp; Cons Block; Cons Grid; Flat ])
      entries
  in
  let lint_units =
    List.map
      (fun ((e : R.entry), variant, (_, prep)) ->
        (e.R.name ^ "/" ^ variant, prep.H.p_prog))
      built
  in
  let tv_units =
    List.filter_map
      (fun ((e : R.entry), variant, (orig, prep)) ->
        Option.map
          (fun r ->
            ( e.R.name ^ "/tv/" ^ variant,
              Dpc_check.Tv.check ~parent:e.R.family.H.parent ~orig r ))
          prep.H.p_trans)
      built
  in
  let bc_units =
    List.map
      (fun (label, prog) ->
        (label ^ "/bytecode", Dpc_check.Bcverify.check prog))
      lint_units
  in
  let per_unit =
    List.map
      (fun (label, prog) -> (label, Dpc_check.Check.check_program prog))
      lint_units
    @ tv_units @ bc_units
  in
  List.iter
    (fun (label, diags) ->
      List.iter
        (fun d ->
          Printf.printf "%s: %s\n" label (Dpc_check.Diag.to_string d))
        diags)
    per_unit;
  let all = List.concat_map snd per_unit in
  Printf.printf
    "checked %d units (%d lint, %d transform-validation, %d bytecode; %d \
     apps): %s\n"
    (List.length per_unit) (List.length lint_units) (List.length tv_units)
    (List.length bc_units) (List.length entries)
    (Dpc_check.Check.summary all);
  Option.iter
    (fun p ->
      write_json p
        (Dpc_prof.Json.Obj
           [
             ("schema", Dpc_prof.Json.String "dpc-check-sweep-v1");
             ( "units",
               Dpc_prof.Json.List
                 (List.map
                    (fun (label, diags) ->
                      Dpc_prof.Json.Obj
                        [
                          ("unit", Dpc_prof.Json.String label);
                          ("report", Dpc_check.Diag.report_to_json diags);
                        ])
                    per_unit) );
           ]))
    json_out;
  if lint_failed ~strict all then 1 else 0

(* Run the seeded-bad-kernel harness: every mutant must be caught by its
   analysis, every clean twin must lint silent. *)
let run_mutants () =
  let outcomes = Dpc_check.Mutate.run_all () in
  let failures = ref 0 in
  List.iter
    (fun (o : Dpc_check.Mutate.outcome) ->
      let m = o.Dpc_check.Mutate.mutant in
      let expect =
        match m.Dpc_check.Mutate.expect with
        | Some id -> id
        | None -> "clean"
      in
      let verdict =
        if o.Dpc_check.Mutate.ok then "ok"
        else begin
          incr failures;
          match m.Dpc_check.Mutate.expect with
          | Some _ -> "MISSED"
          | None -> "FALSE POSITIVE"
        end
      in
      Printf.printf "%-28s %-10s %-6s %s\n" m.Dpc_check.Mutate.mname
        m.Dpc_check.Mutate.analysis expect verdict;
      if not o.Dpc_check.Mutate.ok then
        List.iter
          (fun d ->
            Printf.printf "    %s\n" (Dpc_check.Diag.to_string d))
          o.Dpc_check.Mutate.diags)
    outcomes;
  Printf.printf "mutants: %d/%d as expected\n"
    (List.length outcomes - !failures)
    (List.length outcomes);
  if !failures = 0 then 0 else 1

let run input parent policy output help_pragma check strict check_json mutants
    =
  if help_pragma then begin
    print_string pragma_help;
    0
  end
  else if mutants then run_mutants ()
  else if check then begin
    match input with
    | Some path -> (
      try run_check_file ~strict ~json_out:check_json path with
      | Dpc_minicu.Lexer.Lex_error { line; msg } ->
        Printf.eprintf "dpcc: %s:%d: lexical error: %s\n" path line msg;
        1
      | Dpc_minicu.Parser.Parse_error { line; msg } ->
        Printf.eprintf "dpcc: %s:%d: syntax error: %s\n" path line msg;
        1
      | Dpc_minicu.Pragma_parser.Pragma_error msg ->
        Printf.eprintf "dpcc: %s: bad #pragma dp: %s\n" path msg;
        1)
    | None -> (
      try run_check_apps ~strict ~json_out:check_json with
      | Dpc.Transform.Unsupported msg ->
        Printf.eprintf "dpcc: unsupported: %s\n" msg;
        1
      | Failure msg ->
        Printf.eprintf "dpcc: %s\n" msg;
        1)
  end
  else
    match input with
    | None ->
      prerr_endline "dpcc: missing input file (see --help)";
      2
    | Some path -> (
      try
        let src = read_file path in
        let prog = Dpc_minicu.Parser.parse_program src in
        let parent =
          match parent with
          | Some p -> p
          | None -> (
            (* Default: the unique kernel containing an annotated launch. *)
            let annotated =
              List.filter
                (fun k ->
                  List.exists
                    (fun (l : Dpc_kir.Ast.launch) -> l.Dpc_kir.Ast.pragma <> None)
                    (Dpc_kir.Ast.collect_launches k.Dpc_kir.Kernel.body))
                (Dpc_kir.Kernel.Program.kernels prog)
            in
            match annotated with
            | [ k ] -> k.Dpc_kir.Kernel.kname
            | [] -> failwith "no kernel contains a #pragma dp annotated launch"
            | ks ->
              failwith
                (Printf.sprintf
                   "multiple annotated kernels (%s); pick one with --parent"
                   (String.concat ", "
                      (List.map (fun k -> k.Dpc_kir.Kernel.kname) ks))))
        in
        let policy = Option.map Dpc.Config_select.policy_of_string policy in
        let r =
          Dpc.Transform.apply ?policy ~cfg:Dpc_gpu.Config.k20c ~parent prog
        in
        let out = Dpc_kir.Pp.program r.Dpc.Transform.program in
        (match output with
        | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc out)
        | None -> print_string out);
        Printf.eprintf
          "dpcc: %s consolidation of %s -> entry kernel %s%s\n"
          (Dpc_kir.Pragma.granularity_to_string r.Dpc.Transform.granularity)
          parent r.Dpc.Transform.entry
          (match r.Dpc.Transform.post_kernel with
          | Some p -> Printf.sprintf " (postwork kernel %s)" p
          | None -> "");
        0
      with
      | Dpc_minicu.Lexer.Lex_error { line; msg } ->
        Printf.eprintf "dpcc: %s:%d: lexical error: %s\n" path line msg;
        1
      | Dpc_minicu.Parser.Parse_error { line; msg } ->
        Printf.eprintf "dpcc: %s:%d: syntax error: %s\n" path line msg;
        1
      | Dpc_minicu.Pragma_parser.Pragma_error msg ->
        Printf.eprintf "dpcc: %s: bad #pragma dp: %s\n" path msg;
        1
      | Dpc.Transform.Unsupported msg ->
        Printf.eprintf "dpcc: %s: unsupported: %s\n" path msg;
        1
      | Failure msg | Invalid_argument msg ->
        Printf.eprintf "dpcc: %s\n" msg;
        1)

let input =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
       ~doc:"Annotated MiniCU source file.")

let parent =
  Arg.(value & opt (some string) None & info [ "parent" ] ~docv:"KERNEL"
       ~doc:"Kernel containing the annotated launch (default: unique).")

let policy =
  Arg.(value & opt (some string) None & info [ "policy" ] ~docv:"POLICY"
       ~doc:"Configuration policy: kc1, kc16, kc32, 1-1, or BxT (e.g. 26x256). \
             Default: the paper's per-granularity KC policy.")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
       ~doc:"Write generated source here (default: stdout).")

let help_pragma =
  Arg.(value & flag & info [ "help-pragma" ]
       ~doc:"Print the #pragma dp clause reference (Table I) and exit.")

let check_arg =
  Arg.(value & flag & info [ "check" ]
       ~doc:"Static-verification mode: lint kernels instead of compiling. \
             With FILE, check that source; without, sweep every \
             registered app at every variant (basic-dp, the three \
             consolidation granularities, no-dp).  Exits non-zero on \
             error-severity findings.")

let strict_arg =
  Arg.(value & flag & info [ "strict" ]
       ~doc:"With --check: treat warnings as fatal too.")

let check_json_arg =
  Arg.(value & opt (some string) None & info [ "check-json" ] ~docv:"FILE"
       ~doc:"With --check: also write the diagnostics as JSON to $(docv).")

let mutants_arg =
  Arg.(value & flag & info [ "mutants" ]
       ~doc:"Run the verifier's mutation harness: seeded-bad kernels must \
             each be caught by the analysis that owns their bug class, \
             and their repaired twins must lint silent.")

let cmd =
  let doc = "directive-based workload-consolidation compiler for MiniCU" in
  Cmd.v
    (Cmd.info "dpcc" ~doc)
    Term.(
      const run $ input $ parent $ policy $ output $ help_pragma
      $ check_arg $ strict_arg $ check_json_arg $ mutants_arg)

let () = exit (Cmd.eval' cmd)
