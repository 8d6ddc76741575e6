(* The repository benchmark: one workload per process.

     clouds_bench --workload ns-open|gcp-commit|dsm-pages --seed N
                  --seconds S --trace 0|1 [--out-dir DIR]

   A run first replays the paper's T1-T3 cells at quick sizes, then
   repeats the workload (boot, populate, warm, measured phase, verify)
   from the same seed until its measured phases add up to S seconds of
   host time.  The simulation is deterministic, so every repetition must
   produce the same simulated metrics and counts: their digest is
   compared across repetitions and printed.  Host times are reported as
   medians across repetitions, raw and rescaled by a reference loop
   (see [reference_loop]).

   The engine is driven one event at a time with [Sim.Engine.step], so
   the benchmark itself counts events and the pending-event peak of
   the measured phase.  With --trace 1 the repetitions alternate
   untraced and traced (an [Obs.Tracer] installed for the measured
   phase, one root span per op placed by the benchmark) and the
   per-layer metrics are printed instead of the end-to-end ones.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   Any correctness violation or determinism mismatch prints
   "correct": false and exits 1. *)

type phase = Setup | Measure | Verify | Finished

type rep = {
  setup_s : float;
  wall_s : float;  (** measured phase, calibration pauses excluded *)
  setup_scaled : float;
  wall_scaled : float;
      (** the two host times rescaled to a host on which the reference
          loop takes [ref_nominal_s] *)
  ref_s : float;  (** median reference-loop time in this repetition *)
  events : int;
  peak_pending : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  outcome : Workloads.outcome;
  layer : (string * float) list;
  summary : Obs.Export.summary option;
}

let wall () = Unix.gettimeofday ()

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Host speed on a shared machine drifts by a quarter within minutes,
   and a median over repetitions does not remove that.  So the gated
   host times are rescaled by a fixed reference workload, timed before
   set-up, after it, and after every [segment_s] of the measured phase
   (with the phase's clock stopped).  Each stretch of host time is
   divided by the mean of the reference times on either side of it.
   The reference is hash-table churn with short- and medium-lived
   allocations, sharing no code with the program; it runs in a fresh
   child process (this executable with --reference), so the program's
   heap cannot slow it down. *)
let reference_loop () =
  let t0 = wall () in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 199_999 do
    let k = (i * 7919) land 0xFFFF in
    Hashtbl.replace h k (i, [ i; k ]);
    match Hashtbl.find_opt h ((k * 31) land 0xFFFF) with
    | Some (a, _) -> acc := !acc + a
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  wall () -. t0

(* The reference loop's time on a quiet host of the kind the benchmark
   was tuned on (2-core VM, OCaml 5.1). *)
let ref_nominal_s = 0.065

let segment_s = 0.3

let reference () =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--reference" |]
  in
  let line = In_channel.input_all ic in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim line)) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith "reference child failed"

let run_rep (w : Workloads.spec) ~seed ~tracer ~calibrate =
  let eng = Sim.Engine.create ~seed () in
  let phase = ref Setup in
  let env = ref None and regs = ref [] and s0 = ref None and s1 = ref None in
  let hooks =
    {
      Workloads.start =
        (fun e ->
          env := Some e;
          regs := Layers.registries e;
          s0 := Some (Layers.snap !regs e);
          Option.iter Obs.Tracer.install tracer;
          phase := Measure);
      stop =
        (fun () ->
          if tracer <> None then Obs.Tracer.uninstall ();
          s1 := Some (Layers.snap !regs (Option.get !env));
          phase := Verify);
    }
  in
  let result = ref None in
  ignore
    (Sim.Engine.spawn eng "bench-main" (fun () ->
         result := Some (w.run ~seed hooks);
         phase := Finished));
  let step () =
    if not (Sim.Engine.step eng) then
      failwith "event queue drained before the workload finished"
  in
  let refs = ref [] in
  let calibrate_now () = if calibrate then refs := reference () :: !refs in
  (* a stretch of host time, rescaled by the references on either side *)
  let scaled x =
    match !refs with
    | after :: before :: _ -> x *. ref_nominal_s /. ((after +. before) /. 2.0)
    | _ -> x
  in
  calibrate_now ();
  let t0 = wall () in
  while !phase = Setup do
    step ()
  done;
  let setup_s = wall () -. t0 in
  calibrate_now ();
  let setup_scaled = scaled setup_s in
  (* start every measured phase from an empty minor heap and a swept
     major heap, so GC counts repeat and set-up garbage is not charged
     to the phase *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let events = ref 0 and peak = ref 0 in
  let wall_s = ref 0.0 and wall_scaled = ref 0.0 in
  let seg_start = ref (wall ()) in
  while !phase = Measure do
    step ();
    incr events;
    let p = Sim.Engine.pending eng in
    if p > !peak then peak := p;
    if calibrate && !events land 4095 = 0 then begin
      let d = wall () -. !seg_start in
      if d >= segment_s then begin
        wall_s := !wall_s +. d;
        calibrate_now ();
        wall_scaled := !wall_scaled +. scaled d;
        seg_start := wall ()
      end
    end
  done;
  let d = wall () -. !seg_start in
  wall_s := !wall_s +. d;
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  calibrate_now ();
  wall_scaled := !wall_scaled +. scaled d;
  while !phase <> Finished do
    step ()
  done;
  let outcome = Option.get !result in
  {
    setup_s;
    wall_s = !wall_s;
    setup_scaled;
    wall_scaled = !wall_scaled;
    ref_s = median !refs;
    events = !events;
    peak_pending = !peak;
    minor_words = g1.minor_words -. g0.minor_words;
    promoted_words = g1.promoted_words -. g0.promoted_words;
    major_words = g1.major_words -. g0.major_words;
    outcome;
    layer =
      Layers.metrics (Option.get !env) outcome (Option.get !s0)
        (Option.get !s1);
    summary = Option.map Obs.Export.summarize tracer;
  }

(* ---- paper accuracy: T1-T3 at quick sizes ---- *)

let paper_cells () =
  let t1 = Experiments.T1_kernel.run ~samples:20 () in
  let t2 = Experiments.T2_network.run ~samples:10 () in
  let t3 = Experiments.T3_invocation.run ~invocations:50 () in
  [
    ("T1 context switch", t1.context_switch_ms, 0.14);
    ("T1 zero-fill fault", t1.fault_zero_fill_ms, 1.5);
    ("T1 data fault", t1.fault_data_ms, 0.629);
    ("T2 ethernet rtt", t2.eth_rtt_ms, 2.4);
    ("T2 ratp rtt", t2.ratp_rtt_ms, 4.8);
    ("T2 8K page ratp", t2.page_ratp_ms, 11.9);
    ("T2 8K page ftp", t2.page_ftp_ms, 70.0);
    ("T2 8K page nfs", t2.page_nfs_ms, 50.0);
    ("T3 warm invocation", t3.warm_ms, 8.0);
  ]

let err_pct (_, sim, paper) = abs_float (sim -. paper) /. paper *. 100.0

(* ---- output ---- *)

(* end-to-end metrics: (name, unit, kind) *)
let e2e_units =
  [
    ("mean_ms", "ms", "sim");
    ("p99_ms", "ms", "sim");
    ("throughput_per_s", "1/s", "sim");
    ("wall_s", "s", "host");
    ("setup_s", "s", "host");
    ("peak_heap_mb", "MB", "host");
    ("paper_err_pct", "%", "sim");
  ]

let unit_of name =
  match List.assoc_opt name (List.map (fun (n, u, _) -> (n, u)) e2e_units) with
  | Some u -> u
  | None ->
      let ends s = String.ends_with ~suffix:s name in
      if ends "_ms" || ends "_ms.p50" || ends "_ms.p99" then "ms"
      else if ends "_pct" then "%"
      else if ends "_frac" || ends "_ratio" || ends "_util"
              || String.starts_with ~prefix:"obs.other_frac" name
      then "ratio"
      else if ends "ns_per_event" then "ns"
      else if ends "bytes_per_op" then "bytes/op"
      else if ends "words_per_op" then "words/op"
      else if ends "_per_op" then "1/op"
      else if ends "_per_txn" || ends "_per_commit" then "1/txn"
      else if ends "mean_batch" then "records"
      else "count"

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (n, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
             (json_num v) (unit_of n))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

(* Every simulated number of a repetition, rendered exactly: two runs
   at one seed are identical iff their digests are. *)
let sim_metrics (w : Workloads.spec) r =
  let o = r.outcome in
  [
    ("mean_ms", Sim.Stats.mean o.lat);
    ("p50_ms", Sim.Stats.percentile o.lat 50.0);
    ("p99_ms", Sim.Stats.percentile o.lat 99.0);
    ( "throughput_per_s",
      float_of_int (Sim.Stats.n o.lat) /. (o.elapsed_ms /. 1000.0) );
  ]
  @ r.layer
  @ [
      ("samples", float_of_int (Sim.Stats.n o.lat));
      ("attempted", float_of_int o.attempted);
      ("failed", float_of_int o.failed);
      ("checks", float_of_int o.checks);
      ("violations", float_of_int o.violations);
      ("sim.events", float_of_int r.events);
      ("sim.peak_pending", float_of_int r.peak_pending);
      ("limit_ms", w.limit_ms);
      ("elapsed_ms", o.elapsed_ms);
    ]

let digest l =
  String.sub
    (Digest.to_hex
       (Digest.string
          (String.concat ";"
             (List.map (fun (n, v) -> Printf.sprintf "%s=%h" n v) l))))
    0 16

let stage_metrics (s : Obs.Export.summary) ~overhead_pct =
  let at label (t : Obs.Export.trace_sum option) =
    match t with
    | None -> []
    | Some t ->
        let st = t.st in
        [
          ("stage.transport_ms." ^ label, st.transport_ms);
          ("stage.fault_ms." ^ label, st.fault_ms);
          ("stage.commit_ms." ^ label, st.commit_ms);
          ("stage.other_ms." ^ label, st.other_ms);
          ( "obs.other_frac." ^ label,
            if t.total_ms = 0.0 then 0.0 else st.other_ms /. t.total_ms );
        ]
  in
  at "p50" s.p50 @ at "p99" s.p99 @ [ ("obs.trace_overhead_pct", overhead_pct) ]

let usage () =
  prerr_endline
    "usage: clouds_bench --workload ns-open|gcp-commit|dsm-pages --seed N \
     --seconds S --trace 0|1 [--out-dir DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 in
  let trace = ref false and out_dir = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        if !seed = None then usage ();
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s
        | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        parse rest
    | "--out-dir" :: v :: rest ->
        out_dir := v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--reference" ] then begin
    Printf.printf "%.9f\n" (reference_loop ());
    exit 0
  end;
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match
      List.find_opt
        (fun (w : Workloads.spec) -> w.name = !workload)
        Workloads.all
    with
    | Some w -> w
    | None -> usage ()
  in
  let seed = match !seed with Some s -> s | None -> usage () in
  let started = wall () in
  Printf.printf "workload %s, seed %d: %s; latency limit %.0f ms\n" w.name seed
    w.shape w.limit_ms;
  if w.name = "ns-open" then
    print_endline
      "generator lateness: 0 ms by construction (arrivals are engine-context \
       events at their scheduled instants; latency counts from them)";
  let cells = paper_cells () in
  List.iter
    (fun ((label, sim, paper) as c) ->
      Printf.printf "paper %-20s sim %9.4f ms  paper %7.3f ms  err %6.2f%%\n"
        label sim paper (err_pct c))
    cells;
  let paper_err = List.fold_left (fun a c -> max a (err_pct c)) 0.0 cells in
  (* Repeat until the measured phases fill the requested time; a
     traced repetition follows each untraced one in trace mode.  The
     150 s cap keeps a run inside its time limit on a slow host. *)
  let untraced = ref [] and traced = ref [] and last_tracer = ref None in
  let heap_words = ref 0 in
  let measured () =
    List.fold_left (fun a r -> a +. r.wall_s) 0.0 (!untraced @ !traced)
  in
  let min_reps = if !trace then 1 else 3 in
  while
    List.length !untraced < min_reps
    || (measured () < !seconds && wall () -. started < 150.0)
  do
    let r = run_rep w ~seed ~tracer:None ~calibrate:(not !trace) in
    untraced := !untraced @ [ r ];
    if !trace then begin
      let t = Obs.Tracer.create () in
      let r = run_rep w ~seed ~tracer:(Some t) ~calibrate:false in
      traced := !traced @ [ r ];
      last_tracer := Some t
    end;
    (* the heap peak of the first repetition: later ones reuse the
       heap it grew, so their count would only add noise *)
    if !heap_words = 0 then heap_words := (Gc.quick_stat ()).top_heap_words;
    Gc.compact ()
  done;
  let reps = !untraced @ !traced in
  let first = List.hd reps in
  let o = first.outcome in
  let sims = List.map (fun r -> digest (sim_metrics w r)) reps in
  let deterministic = List.for_all (String.equal (List.hd sims)) sims in
  let correct = o.violations = 0 && deterministic in
  List.iteri
    (fun i r ->
      Printf.printf
        "rep %d%s: setup %.4f s  wall %.4f s  reference %s  events %d  minor \
         %.0f  promoted %.0f  major %.0f words  digest %s\n"
        (i + 1)
        (if i >= List.length !untraced then " traced" else "")
        r.setup_s r.wall_s
        (if r.ref_s > 0.0 then Printf.sprintf "%.4f s" r.ref_s else "-")
        r.events r.minor_words r.promoted_words
        r.major_words (List.nth sims i))
    reps;
  Printf.printf
    "ops %d attempted, %d failed, %d over %.0f ms; latency samples %d; %d \
     retries; %d correctness checks, %d violations; simulated digest %s (%s \
     across %d repetitions)\n"
    o.attempted o.failed o.over_limit w.limit_ms (Sim.Stats.n o.lat)
    o.retries o.checks o.violations (List.hd sims)
    (if deterministic then "identical" else "MISMATCH")
    (List.length reps);
  List.iter (Printf.printf "note: %s\n") (List.rev o.notes);
  let heap_mb =
    float_of_int (!heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  (* host times, raw and rescaled to a host on which the reference
     loop takes [ref_nominal_s]; the rescaled medians are the gated
     metrics *)
  let host f =
    let v = List.map f !untraced in
    (median v, List.fold_left min infinity v, List.fold_left max 0.0 v)
  in
  let wall_med, wall_min, wall_max = host (fun r -> r.wall_scaled) in
  let setup_med, setup_min, setup_max = host (fun r -> r.setup_scaled) in
  let raw_wall, _, _ = host (fun r -> r.wall_s) in
  let raw_setup, _, _ = host (fun r -> r.setup_s) in
  let ref_med, ref_min, ref_max = host (fun r -> r.ref_s) in
  let sim = sim_metrics w first in
  let sv n = List.assoc n sim in
  let e2e =
    [
      ("mean_ms", sv "mean_ms");
      ("p99_ms", sv "p99_ms");
      ("throughput_per_s", sv "throughput_per_s");
      ("wall_s", wall_med);
      ("setup_s", setup_med);
      ("peak_heap_mb", heap_mb);
      ("paper_err_pct", paper_err);
    ]
  in
  if not !trace then begin
    List.iter
      (fun (n, u, kind) ->
        let v = List.assoc n e2e in
        let extra =
          match n with
          | "mean_ms" | "p99_ms" ->
              Printf.sprintf "  (n=%d)" (Sim.Stats.n o.lat)
          | "wall_s" ->
              Printf.sprintf
                "  (min %.4f max %.4f over %d reps; raw median %.4f s; %d \
                 events)"
                wall_min wall_max (List.length !untraced) raw_wall first.events
          | "setup_s" ->
              Printf.sprintf
                "  (min %.4f max %.4f over %d set-ups; raw median %.4f s)"
                setup_min setup_max (List.length !untraced) raw_setup
          | _ -> ""
        in
        Printf.printf "e2e %-18s %14.6f %-5s %s%s\n" n v u kind extra)
      e2e_units;
    Printf.printf
      "host reference loop %.4f s median (min %.4f max %.4f), nominal %.3f s\n"
      ref_med ref_min ref_max ref_nominal_s
  end;
  Printf.printf
    "e2e %-18s %14.6f ms    sim  (n=%d)\ne2e %-18s %14.6f ratio sim\ne2e \
     %-18s %14.6f ratio sim\n"
    "p50_ms" (sv "p50_ms") (Sim.Stats.n o.lat) "slo_miss_frac"
    (sv "slo_miss_frac") "failed_frac" (sv "failed_frac");
  let metrics =
    if not !trace then e2e
    else begin
      let n = float_of_int o.attempted in
      let untraced_wall = median (List.map (fun r -> r.wall_s) !untraced) in
      let traced_wall = median (List.map (fun r -> r.wall_s) !traced) in
      let host_layer =
        [
          ("sim.events_per_op", float_of_int first.events /. n);
          ( "sim.ns_per_event",
            untraced_wall *. 1e9 /. float_of_int first.events );
          ("sim.peak_pending", float_of_int first.peak_pending);
          ("host.minor_words_per_op", first.minor_words /. n);
          ("host.promoted_words_per_op", first.promoted_words /. n);
          ( "host.major_direct_words_per_op",
            (first.major_words -. first.promoted_words) /. n );
        ]
      in
      let summary = Option.get (List.hd !traced).summary in
      let stages =
        stage_metrics summary
          ~overhead_pct:((traced_wall /. untraced_wall -. 1.0) *. 100.0)
      in
      (match !last_tracer with
      | Some t when !out_dir <> "" ->
          (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
          let path = Filename.concat !out_dir (w.name ^ ".trace.json") in
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (Obs.Export.chrome_json t));
          Printf.printf "Perfetto trace: %s (%d spans, %d request traces)\n"
            path (Obs.Tracer.span_count t) summary.traces
      | _ -> ());
      let all = host_layer @ first.layer @ stages in
      List.iter
        (fun (name, v) ->
          Printf.printf "layer %-32s %16.6f %s\n" name v (unit_of name))
        all;
      all
    end
  in
  print_result ~correct ~attempted:o.attempted ~failed:o.failed metrics;
  if not correct then exit 1
