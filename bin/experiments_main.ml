(* Run the reproduction of every table and figure in the paper's
   evaluation and print paper-vs-measured.

   dune exec bin/experiments_main.exe            -- everything
   dune exec bin/experiments_main.exe -- t1 f3   -- a subset
   dune exec bin/experiments_main.exe -- --quick -- smaller samples *)

open Cmdliner

let all_ids =
  [
    "t1";
    "t2";
    "t3";
    "f1";
    "f2";
    "f3";
    "fanout";
    "batching";
    "transport";
    "faults";
    "membership";
    "load";
    "commit";
    "consistency";
    "ablations";
  ]

let run_one ~quick id =
  match id with
  | "t1" ->
      let samples = if quick then 20 else 100 in
      print_string (Experiments.T1_kernel.report (Experiments.T1_kernel.run ~samples ()))
  | "t2" ->
      let samples = if quick then 10 else 50 in
      print_string
        (Experiments.T2_network.report (Experiments.T2_network.run ~samples ()))
  | "t3" ->
      let invocations = if quick then 50 else 200 in
      print_string
        (Experiments.T3_invocation.report
           (Experiments.T3_invocation.run ~invocations ()))
  | "f1" ->
      let elements = if quick then 8_192 else 16_384 in
      print_string (Experiments.F1_sort.report (Experiments.F1_sort.run ~elements ()))
  | "f2" ->
      let samples = if quick then 9 else 30 in
      print_string
        (Experiments.F2_consistency.report
           (Experiments.F2_consistency.run ~samples ()))
  | "f3" ->
      let trials = if quick then 8 else 25 in
      print_string (Experiments.F3_pet.report (Experiments.F3_pet.run ~trials ()))
  | "fanout" | "wf" ->
      let sizes = if quick then [ 1; 4; 8 ] else [ 1; 4; 8; 16 ] in
      print_string
        (Experiments.Write_fault_fanout.report
           (Experiments.Write_fault_fanout.run ~sizes ()))
  | "batching" | "pb" ->
      let windows = if quick then [ 0; 8 ] else [ 0; 2; 8 ] in
      print_string
        (Experiments.Page_batching.report (Experiments.Page_batching.run ~windows ()))
  | "transport" | "tr" ->
      let losses = if quick then [ 0; 5 ] else [ 0; 1; 5; 10 ] in
      let sizes = if quick then [ 1400; 65536 ] else [ 1400; 8192; 65536 ] in
      let calls = if quick then 3 else 5 in
      let invocations = if quick then 20 else 50 in
      print_string
        (Experiments.Transport.report
           (Experiments.Transport.run ~losses ~sizes ~calls ~invocations ()))
  | "faults" ->
      let outcomes = Experiments.Faults.run_all () in
      print_string (Experiments.Faults.report outcomes);
      List.iter
        (fun o -> Printf.printf "  %s\n" (Experiments.Faults.summary o))
        outcomes
  | "membership" | "mem" ->
      let arms =
        if quick then Experiments.Membership.quick_arms
        else Experiments.Membership.full_arms
      in
      let ops = if quick then 32 else 48 in
      let outcomes = Experiments.Membership.run ~arms ~ops () in
      print_string (Experiments.Membership.report outcomes);
      List.iter
        (fun o -> Printf.printf "  %s\n" (Experiments.Membership.summary o))
        outcomes
  | "load" ->
      let cells =
        if quick then Experiments.Load.smoke_cells
        else Experiments.Load.full_cells
      in
      let points = Experiments.Load.run ~cells () in
      print_string (Experiments.Load.report points);
      List.iter
        (fun p -> Printf.printf "  %s\n" (Experiments.Load.summary p))
        points
  | "commit" ->
      let cells =
        if quick then Experiments.Commit.smoke_cells
        else Experiments.Commit.full_cells
      in
      let points = Experiments.Commit.run ~cells () in
      print_string (Experiments.Commit.report points);
      List.iter
        (fun p -> Printf.printf "  %s\n" (Experiments.Commit.summary p))
        points;
      let o = Experiments.Commit.run_crash () in
      print_string (Experiments.Commit.crash_report o);
      Printf.printf "  %s\n" (Experiments.Commit.crash_summary o)
  | "consistency" | "cons" ->
      let copysets = if quick then [ 2; 4 ] else [ 1; 2; 4; 8 ] in
      let elements = if quick then 2_048 else 4_096 in
      let increments = if quick then 16 else 32 in
      let r =
        Experiments.Consistency.run ~copysets ~elements ~increments ()
      in
      print_string (Experiments.Consistency.report r);
      List.iter
        (fun k ->
          Printf.printf
            "  release cuts invalidation RPCs %.1fx at copyset %d\n"
            (Experiments.Consistency.inval_reduction r ~copyset:k)
            k)
        copysets
  | "ablations" | "ab" -> print_string (Experiments.Ablations.report ())
  | "trace" ->
      (* traced load cell: export the Chrome trace + registry
         snapshot, validate the export, print the critical path *)
      let cell =
        if quick then List.hd Experiments.Load.smoke_cells
        else Experiments.Trace_run.default_cell
      in
      let r = Experiments.Trace_run.run ~cell () in
      Printf.printf "  %s\n" (Experiments.Load.summary r.Experiments.Trace_run.point);
      print_string r.Experiments.Trace_run.report;
      let write path s =
        let oc = open_out path in
        output_string oc s;
        output_char oc '\n';
        close_out oc
      in
      write "obs_trace.json" r.Experiments.Trace_run.chrome;
      write "obs_metrics.json" r.Experiments.Trace_run.registries_json;
      (match Obs.Export.validate_chrome r.Experiments.Trace_run.chrome with
      | Ok events ->
          Printf.printf
            "wrote obs_trace.json (%d events, Perfetto-loadable) and \
             obs_metrics.json\n"
            events
      | Error msg ->
          Printf.eprintf "obs_trace.json failed validation: %s\n" msg;
          exit 1);
      (match Obs.Export.parse r.Experiments.Trace_run.registries_json with
      | Ok _ -> ()
      | Error msg ->
          Printf.eprintf "obs_metrics.json failed validation: %s\n" msg;
          exit 1)
  | "load-xl" ->
      (* the roadmap-scale cell: 200 nodes, 1M invocations; latency
         in a streaming histogram so memory stays flat *)
      let p = Experiments.Load.run_cell Experiments.Load.xl_cell in
      Printf.printf "  %s\n" (Experiments.Load.summary p)
  | other ->
      Printf.eprintf "unknown experiment %S (know: %s trace load-xl)\n" other
        (String.concat " " all_ids)

let main quick ids =
  let ids = match ids with [] -> all_ids | ids -> List.map String.lowercase_ascii ids in
  print_endline "Clouds reproduction: paper vs simulation";
  print_endline "========================================\n";
  List.iter
    (fun id ->
      run_one ~quick id;
      print_newline ())
    ids

let cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sample counts.")
  in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT") in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Reproduce the Clouds paper's evaluation tables and figures")
    Term.(const main $ quick $ ids)

let () = exit (Cmd.eval cmd)
