(* The three benchmark workloads.

   Each workload runs as one simulated main process: it boots its
   cluster, populates and warms it (set-up), calls [hooks.start] when
   the measured phase begins and [hooks.stop] when it ends, then
   verifies the final state.  Every input (arrival times, keys, op
   mix, think times, credit amounts) is generated here from the seed
   before the phase starts; the program only sees those inputs.
   Client sessions are simulated processes, so one OS thread drives
   the whole cluster. *)

module Cl = Clouds.Cluster
module V = Clouds.Value

type env = {
  cl : Cl.t;
  om : Clouds.Object_manager.t;
  atm : Atomicity.Manager.t option;
}

type hooks = { start : env -> unit; stop : unit -> unit }

(* What the measured phase produced, in simulated units; the
   workload fills it in as it runs. *)
type outcome = {
  lat : Sim.Stats.series;  (** per completed op, ms *)
  limit_ms : float;
  mutable calls : (string * Sim.Stats.hist) list;
      (** the benchmark's own timings of its calls into one layer *)
  mutable attempted : int;
  mutable failed : int;
  mutable over_limit : int;  (** completed ops slower than [limit_ms] *)
  mutable retries : int;
  mutable elapsed_ms : float;
  mutable checks : int;  (** correctness assertions evaluated *)
  mutable violations : int;
  mutable notes : string list;
      (** the first violations and failures, newest first *)
}

type spec = {
  name : string;
  limit_ms : float;
  shape : string;  (** one-line description printed with every run *)
  run : seed:int -> hooks -> outcome;
}

let outcome limit_ms =
  {
    lat = Sim.Stats.series "op_ms";
    limit_ms;
    calls = [];
    attempted = 0;
    failed = 0;
    over_limit = 0;
    retries = 0;
    elapsed_ms = 0.0;
    checks = 0;
    violations = 0;
    notes = [];
  }

let check r ok fmt =
  Printf.ksprintf
    (fun msg ->
      r.checks <- r.checks + 1;
      if not ok then begin
        r.violations <- r.violations + 1;
        if r.violations <= 10 then r.notes <- msg :: r.notes
      end)
    fmt

let ms_since t0 = Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0)

(* Transient unavailability and deadlock-watchdog aborts are retried
   by the client after a short backoff, as the repo's load and commit
   harnesses do; only an op that exhausts its retries fails. *)
let rec with_retry r tries f =
  match f () with
  | v -> v
  | exception (Dsm.Dsm_client.Unavailable _ | Atomicity.Manager.Aborted _)
    when tries < 400 ->
      r.retries <- r.retries + 1;
      Sim.sleep (Sim.Time.ms 5);
      with_retry r (tries + 1) f

(* One measured op: a benchmark-side root span around it (a no-op
   unless a tracer is installed), latency from [t0], failure counted
   against the ops attempted.  Returns whether the op completed. *)
let op r ~t0 f =
  r.attempted <- r.attempted + 1;
  match Obs.Tracer.with_span "request" (fun () -> with_retry r 0 f) with
  | () ->
      let ms = ms_since t0 in
      Sim.Stats.add r.lat ms;
      if ms > r.limit_ms then r.over_limit <- r.over_limit + 1;
      true
  | exception (Sim.Killed as e) -> raise e
  | exception e ->
      r.failed <- r.failed + 1;
      if r.failed <= 10 then
        r.notes <- ("op failed: " ^ Printexc.to_string e) :: r.notes;
      false

(* Retries during set-up are not the measured phase's. *)
let start hooks r env =
  r.retries <- 0;
  hooks.start env

let timed h f =
  let t0 = Sim.now () in
  let v = f () in
  Sim.Stats.hadd h (ms_since t0);
  v

let finish r ~calls ~elapsed_ms =
  r.calls <- calls;
  r.elapsed_ms <- elapsed_ms;
  r

(* Every workload runs on the same lossless 1 Gbit fabric the load
   and commit experiments use; dsm-pages adds uniform loss on top. *)
let boot ?group_commit_window ~compute ~data () =
  Clouds.boot (Sim.engine ()) ~ether_config:Experiments.Load.ether_config
    ?group_commit_window ~compute ~data ~workstations:0 ()

let exp_gap rng mean = -.log (1.0 -. Sim.Rng.float rng 1.0) *. mean

(* ---- ns-open: open-loop naming traffic ---- *)

let ns_data = 8
let ns_compute = 16
let ns_sessions = 512
let ns_keys = 256
let ns_rate = 500.0 (* aggregate arrivals per simulated second *)
let ns_bind_pct = 10
let ns_ops = 24_000
let ns_limit_ms = 100.0

(* Binding [v] of name [k] is a distinct well-known sysname, so a
   lookup's answer says which bind it observed. *)
let ns_sysname k v = Ra.Sysname.well_known (1 + k + (ns_keys * v))

let ns_decode (s : Ra.Sysname.t) =
  if s.node <> -1 || s.local < 1 then None
  else Some ((s.local - 1) mod ns_keys, (s.local - 1) / ns_keys)

let ns_open ~seed hooks =
  let rng = Sim.Rng.create ~seed in
  let name k = Printf.sprintf "obj-%04d" k in
  let at_ms = Array.make ns_ops 0.0 in
  let key = Array.init ns_ops (fun _ -> Sim.Rng.int rng ns_keys) in
  let is_bind =
    Array.init ns_ops (fun _ -> Sim.Rng.int rng 100 < ns_bind_pct)
  in
  for i = 1 to ns_ops - 1 do
    at_ms.(i) <- at_ms.(i - 1) +. exp_gap rng (1000.0 /. ns_rate)
  done;
  let sys = boot ~compute:ns_compute ~data:ns_data () in
  let cl = sys.Clouds.cluster and om = sys.Clouds.om in
  let r = outcome ns_limit_ms in
  let lookup_ms = Sim.Stats.hist "lookup" and bind_ms = Sim.Stats.hist "bind" in
  let node_of i = cl.Cl.compute_nodes.(i mod ns_sessions mod ns_compute) in
  (* [issued.(k)] is the newest version any bind of k carried; [floor.(k)]
     the newest one a lookup must at least see: a bind that ran with no
     other bind of k in flight at any point of its life. *)
  let issued = Array.make ns_keys 0 and floor = Array.make ns_keys 0 in
  let inflight = Array.make ns_keys 0 and starts = Array.make ns_keys 0 in
  let check_lookup k ~floor_at_start res =
    match Option.bind res ns_decode with
    | Some (k', v) ->
        check r
          (k' = k && v >= floor_at_start && v <= issued.(k))
          "lookup %s returned version %d of name %d (allowed %d..%d)" (name k)
          v k' floor_at_start issued.(k)
    | None -> check r false "lookup %s returned no binding" (name k)
  in
  for k = 0 to ns_keys - 1 do
    Clouds.Name_server.bind om ~name:(name k) (ns_sysname k 0)
  done;
  (* warm pass: every name resolved once, so shard objects are active
     and their pages cached before timing starts *)
  for k = 0 to ns_keys - 1 do
    check_lookup k ~floor_at_start:0
      (Clouds.Name_server.lookup ~on:(node_of k) om (name k))
  done;
  start hooks r { cl; om; atm = None };
  let t_start = Sim.now () in
  let finished = ref 0 in
  let all_done = Sim.Ivar.create () in
  let request i () =
    let k = key.(i) in
    let t0 = Sim.Time.add t_start (Sim.Time.of_ms_f at_ms.(i)) in
    (if is_bind.(i) then begin
       issued.(k) <- issued.(k) + 1;
       let v = issued.(k) in
       let clean = inflight.(k) = 0 in
       starts.(k) <- starts.(k) + 1;
       let my_start = starts.(k) in
       inflight.(k) <- inflight.(k) + 1;
       let ok =
         op r ~t0 (fun () ->
             timed bind_ms (fun () ->
                 Clouds.Name_server.bind om ~name:(name k) (ns_sysname k v)))
       in
       inflight.(k) <- inflight.(k) - 1;
       if ok && clean && starts.(k) = my_start then floor.(k) <- v
     end
     else
       let floor_at_start = floor.(k) in
       ignore @@ op r ~t0 (fun () ->
           check_lookup k ~floor_at_start
             (timed lookup_ms (fun () ->
                  Clouds.Name_server.lookup ~on:(node_of i) om (name k)))));
    incr finished;
    if !finished = ns_ops then Sim.Ivar.fill all_done ()
  in
  (* The generator is an engine-context thunk chain, not a process:
     each arrival fires exactly at its scheduled instant and spawns its
     request, so the generator can never run late. *)
  let eng = Sim.engine () in
  let rec arm i =
    Sim.Engine.at eng
      (Sim.Time.add t_start (Sim.Time.of_ms_f at_ms.(i)))
      (fun () ->
        ignore (Sim.Engine.spawn eng "bench-req" (request i));
        if i + 1 < ns_ops then arm (i + 1))
  in
  arm 0;
  Sim.Ivar.read all_done;
  let elapsed_ms = ms_since t_start in
  hooks.stop ();
  for k = 0 to ns_keys - 1 do
    check_lookup k ~floor_at_start:floor.(k)
      (Clouds.Name_server.lookup ~on:(node_of k) om (name k))
  done;
  finish r ~elapsed_ms
    ~calls:[ ("core.lookup_ms", lookup_ms); ("core.bind_ms", bind_ms) ]

(* ---- gcp-commit: closed-loop durable 2PC ---- *)

let gcp_sessions = 64
let gcp_data = 4
let gcp_txns = 24 (* measured transactions per session *)
let gcp_limit_ms = 300.0

(* One gcp entry crediting each listed (account, amount): a real
   multi-participant two-phase commit when the accounts live on
   different data servers. *)
let crediter_cls =
  Clouds.Obj_class.define ~name:"bench-crediter"
    [
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.Gcp "credit_all"
        (fun ctx arg ->
          List.iter
            (fun p ->
              let acct, amount = V.to_pair p in
              ignore
                (ctx.Clouds.Ctx.invoke ~obj:(V.to_sysname acct)
                   ~entry:"credit_in_txn" amount))
            (V.to_list arg);
          V.Unit);
    ]

let gcp_commit ~seed hooks =
  let rng = Sim.Rng.create ~seed in
  (* per session: start offset; per txn: think time, credit order and
     amounts *)
  let offset_us = Array.init gcp_sessions (fun _ -> Sim.Rng.int rng 200_000) in
  let plan =
    Array.init gcp_sessions (fun _ ->
        Array.init (gcp_txns + 1) (fun _ ->
            let order = Array.init gcp_data Fun.id in
            Sim.Rng.shuffle rng order;
            ( Sim.Rng.int rng 4_000,
              Array.map (fun j -> (j, 1 + Sim.Rng.int rng 9)) order )))
  in
  let sys =
    boot ~group_commit_window:(Sim.Time.ms 5) ~compute:gcp_sessions
      ~data:gcp_data ()
  in
  let cl = sys.Clouds.cluster and om = sys.Clouds.om in
  let atm = Atomicity.Manager.install om () in
  Apps.Bank.register om;
  Cl.register_class cl crediter_cls;
  let accounts =
    Array.init gcp_sessions (fun _ ->
        Array.init gcp_data (fun j ->
            Apps.Bank.open_account om ~home:(1 + j) ~balance:0 ()))
  in
  let crediters =
    Array.init gcp_sessions (fun _ ->
        Clouds.Object_manager.create_object om ~class_name:"bench-crediter"
          V.Unit)
  in
  let acked = Array.make_matrix gcp_sessions gcp_data 0 in
  let r = outcome gcp_limit_ms in
  let eng = Sim.engine () in
  let warmed = ref 0 and finished = ref 0 in
  let go = Sim.Ivar.create () and all_done = Sim.Ivar.create () in
  let t_start = ref Sim.Time.zero in
  let run i n () =
    let credits = snd plan.(i).(n) in
    let arg =
      V.List
        (Array.to_list
           (Array.map
              (fun (j, amt) ->
                V.Pair (V.of_sysname accounts.(i).(j), V.Int amt))
              credits))
    in
    ignore
      (Clouds.Object_manager.invoke om ~node:cl.Cl.compute_nodes.(i)
         ~thread_id:(i + 1) ~origin:None ~txn:None ~obj:crediters.(i)
         ~entry:"credit_all" arg)
  in
  let ack i n =
    Array.iter
      (fun (j, amt) -> acked.(i).(j) <- acked.(i).(j) + amt)
      (snd plan.(i).(n))
  in
  let think i n = Sim.sleep (Sim.Time.us (fst plan.(i).(n))) in
  for i = 0 to gcp_sessions - 1 do
    ignore
      (Sim.Engine.spawn eng
         (Printf.sprintf "bench-session-%d" i)
         (fun () ->
           (* one unmeasured warm transaction per session: cold segment
              reads and activation belong to set-up *)
           Sim.sleep (Sim.Time.us offset_us.(i));
           with_retry r 0 (run i 0);
           ack i 0;
           incr warmed;
           if !warmed = gcp_sessions then begin
             start hooks r { cl; om; atm = Some atm };
             t_start := Sim.now ();
             Sim.Ivar.fill go ()
           end;
           Sim.Ivar.read go;
           for n = 1 to gcp_txns do
             think i n;
             if op r ~t0:(Sim.now ()) (run i n) then ack i n
           done;
           incr finished;
           if !finished = gcp_sessions then Sim.Ivar.fill all_done ()))
  done;
  Sim.Ivar.read all_done;
  let elapsed_ms = ms_since !t_start in
  hooks.stop ();
  Array.iteri
    (fun i accts ->
      Array.iteri
        (fun j acct ->
          let bal = Apps.Bank.balance om acct in
          check r
            (bal = acked.(i).(j))
            "session %d account %d: balance %d but %d credited and acked" i
            j bal acked.(i).(j))
        accts)
    accounts;
  finish r ~elapsed_ms ~calls:[]

(* ---- dsm-pages: closed-loop page sharing under frame loss ---- *)

let dsm_data = 4
let dsm_compute = 8
let dsm_sessions = 32
let dsm_objects = 32
let dsm_pages = 16
let dsm_span = 4 (* consecutive pages per op *)
let dsm_ops = 480 (* measured ops per session *)
let dsm_loss = 0.01
let dsm_limit_ms = 250.0
let page = Ra.Page.size

(* Session [s] owns the 8-byte slot at [s * 8] of every page. *)
let pages_cls =
  Clouds.Obj_class.define ~name:"bench-pages" ~data_pages:dsm_pages
    [
      Clouds.Obj_class.entry "read" (fun ctx arg ->
          let first, n = V.to_pair arg in
          let first = V.to_int first in
          V.List
            (List.init (V.to_int n) (fun p ->
                 let b =
                   Clouds.Memory.read ctx.Clouds.Ctx.mem
                     ((first + p) * page)
                     ~len:(dsm_sessions * 8)
                 in
                 V.List
                   (List.init dsm_sessions (fun s ->
                        V.Int (Int64.to_int (Bytes.get_int64_le b (s * 8)))))))
      );
      Clouds.Obj_class.entry "write" (fun ctx arg ->
          match V.to_list arg with
          | [ s; first; n; v ] ->
              for p = V.to_int first to V.to_int first + V.to_int n - 1 do
                Clouds.Memory.set_int ctx.Clouds.Ctx.mem
                  ((p * page) + (V.to_int s * 8))
                  (V.to_int v)
              done;
              V.Unit
          | _ -> invalid_arg "bench-pages.write");
    ]

let dsm_pages_run ~seed hooks =
  let rng = Sim.Rng.create ~seed in
  let hot = dsm_objects / 8 in
  (* per op: (object, first page, is write) *)
  let plan =
    Array.init dsm_sessions (fun _ ->
        Array.init dsm_ops (fun _ ->
            let obj =
              if Sim.Rng.bool rng then Sim.Rng.int rng hot
              else hot + Sim.Rng.int rng (dsm_objects - hot)
            in
            (obj, Sim.Rng.int rng (dsm_pages - dsm_span + 1),
             Sim.Rng.int rng 100 < 20)))
  in
  let sys = boot ~compute:dsm_compute ~data:dsm_data () in
  let cl = sys.Clouds.cluster and om = sys.Clouds.om in
  Cl.register_class cl pages_cls;
  let objs =
    Array.init dsm_objects (fun _ ->
        Clouds.Object_manager.create_object om ~class_name:"bench-pages" V.Unit)
  in
  let r = outcome dsm_limit_ms in
  let read_ms = Sim.Stats.hist "read" and write_ms = Sim.Stats.hist "write" in
  (* [issued]/[acked]: newest value session s wrote / had acknowledged
     in each (object, page) slot *)
  let cell () =
    Array.init dsm_objects (fun _ ->
        Array.make_matrix dsm_pages dsm_sessions 0)
  in
  let issued = cell () and acked = cell () in
  let node_of s = cl.Cl.compute_nodes.(s mod dsm_compute) in
  let invoke s obj entry arg =
    Clouds.Object_manager.invoke om ~node:(node_of s) ~thread_id:(s + 1)
      ~origin:None ~txn:None ~obj:objs.(obj) ~entry arg
  in
  let read s obj first n =
    let floor = Array.init n (fun p -> Array.copy acked.(obj).(first + p)) in
    let pages =
      V.to_list (invoke s obj "read" (V.Pair (V.Int first, V.Int n)))
    in
    List.iteri
      (fun p slots ->
        List.iteri
          (fun w v ->
            let v = V.to_int v in
            check r
              (v >= floor.(p).(w) && v <= issued.(obj).(first + p).(w))
              "object %d page %d slot %d: read %d, allowed %d..%d" obj
              (first + p) w v floor.(p).(w) issued.(obj).(first + p).(w))
          (V.to_list slots))
      pages
  in
  let counter = Array.make dsm_sessions 0 in
  let write s obj first =
    counter.(s) <- counter.(s) + 1;
    let v = counter.(s) in
    for p = first to first + dsm_span - 1 do
      issued.(obj).(p).(s) <- v
    done;
    ignore
      (invoke s obj "write"
         (V.List [ V.Int s; V.Int first; V.Int dsm_span; V.Int v ]));
    for p = first to first + dsm_span - 1 do
      acked.(obj).(p).(s) <- v
    done
  in
  Net.Fault.set_drop_probability (Net.Ethernet.fault cl.Cl.ether) dsm_loss;
  let eng = Sim.engine () in
  let barrier n =
    let left = ref n and iv = Sim.Ivar.create () in
    ( (fun () ->
        decr left;
        if !left = 0 then Sim.Ivar.fill iv ()),
      iv )
  in
  (* warm pass: every compute node reads every page of every object
     once, so activations and first faults land in set-up *)
  let warm_done, warm_iv = barrier dsm_compute in
  for s = 0 to dsm_compute - 1 do
    ignore
      (Sim.Engine.spawn eng "bench-warm" (fun () ->
           for o = 0 to dsm_objects - 1 do
             let o = (o + (s * 4)) mod dsm_objects in
             for q = 0 to (dsm_pages / dsm_span) - 1 do
               with_retry r 0 (fun () -> read s o (q * dsm_span) dsm_span)
             done
           done;
           warm_done ()))
  done;
  Sim.Ivar.read warm_iv;
  start hooks r { cl; om; atm = None };
  let t_start = Sim.now () in
  let session_done, all_done = barrier dsm_sessions in
  for s = 0 to dsm_sessions - 1 do
    ignore
      (Sim.Engine.spawn eng "bench-session" (fun () ->
           Array.iter
             (fun (obj, first, is_write) ->
               let run () =
                 if is_write then timed write_ms (fun () -> write s obj first)
                 else timed read_ms (fun () -> read s obj first dsm_span)
               in
               ignore (op r ~t0:(Sim.now ()) run))
             plan.(s);
           session_done ()))
  done;
  Sim.Ivar.read all_done;
  let elapsed_ms = ms_since t_start in
  hooks.stop ();
  (* every slot of every page, checked against the acknowledged and
     issued values once more *)
  for o = 0 to dsm_objects - 1 do
    with_retry r 0 (fun () -> read 0 o 0 dsm_pages)
  done;
  finish r ~elapsed_ms
    ~calls:[ ("dsm.read_ms", read_ms); ("dsm.write_ms", write_ms) ]

let all =
  [
    {
      name = "ns-open";
      limit_ms = ns_limit_ms;
      shape =
        Printf.sprintf
          "open loop, Poisson %.0f/s from %d sessions, %d ops, %d data + %d \
           compute, %d names, %d%% binds, sharded, no atomicity, lossless \
           1 Gbit"
          ns_rate ns_sessions ns_ops ns_data ns_compute ns_keys ns_bind_pct;
      run = ns_open;
    };
    {
      name = "gcp-commit";
      limit_ms = gcp_limit_ms;
      shape =
        Printf.sprintf
          "closed loop, %d sessions x %d txns, each a gcp credit on %d data \
           servers (4-way 2PC), group commit 5 ms, atomicity on, lossless 1 \
           Gbit"
          gcp_sessions gcp_txns gcp_data;
      run = gcp_commit;
    };
    {
      name = "dsm-pages";
      limit_ms = dsm_limit_ms;
      shape =
        Printf.sprintf
          "closed loop, %d sessions x %d ops on %d compute + %d data, %d \
           objects x %d pages, %d-page S-thread reads 80%% / writes 20%%, half \
           on the hot eighth, %.0f%% frame loss"
          dsm_sessions dsm_ops dsm_compute dsm_data dsm_objects dsm_pages
          dsm_span (dsm_loss *. 100.0);
      run = dsm_pages_run;
    };
  ]
