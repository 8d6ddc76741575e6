(* Group-commit / WAL pipeline experiments.

   Part A is a closed-loop write-heavy grid: [clients] concurrent
   sessions each run [txns_per_client] gcp transactions, every
   transaction crediting the session's own [footprint] accounts
   (spread round-robin over the data servers, so a footprint > 1
   transaction is a real multi-participant 2PC).  The same cell runs
   with the WAL's group-commit daemon off (the historical
   force-per-record commit path: every prepare and commit record pays
   its own seek) or on with a given window (records ride batched
   sequential appends; locks release at commit-record-in-buffer and
   the ack rides the flush).  Durability is identical in both arms —
   a client is acked only once its commit record is on disk — so the
   throughput ratio is pure pipeline.

   Accounts are private to their session, so the grid measures the
   log bottleneck, not lock contention: every arm's transactions are
   conflict-free and the only shared resource is the per-server disk.

   Part B is the deterministic crash-recovery scenario the acceptance
   test replays: deposits flowing through the group-commit pipeline,
   one data server killed mid-workload after a fuzzy checkpoint, then
   restarted through ARIES recovery on the truncated log.  Every
   session owns one account on the victim and one on the survivor, so
   each acked transaction must have credited both — zero lost
   committed writes, zero ghost writes — which the outcome record
   checks exactly. *)

module Cl = Clouds.Cluster
module V = Clouds.Value

type cell = {
  label : string;
  data : int;
  compute : int;
  clients : int;
  footprint : int;  (** accounts credited per transaction *)
  txns_per_client : int;
  window : Sim.Time.span option;  (** [None] = group commit off *)
  checkpoint_every : Sim.Time.span option;
}

type point = {
  cell : cell;
  committed : int;
  retries : int;
  p50_ms : float;
  p95_ms : float;
  mean_ms : float;
  max_ms : float;
  throughput : float;  (** commits per simulated second *)
  wal_records : int;  (** log records written, all servers *)
  wal_flushes : int;  (** group flushes (0 with the daemon off) *)
  mean_batch : float;  (** records per group flush *)
  retrans : int;
      (** RaTP request retransmissions, all nodes, over the measured
          transactions (warm-up excluded) *)
  sim_ms : float;
  wall_s : float;
}

let cell ~label ?(data = 4) ?(compute = 4) ~clients ~footprint
    ~txns_per_client ?window ?checkpoint_every () =
  {
    label;
    data;
    compute;
    clients;
    footprint;
    txns_per_client;
    window;
    checkpoint_every;
  }

(* The A/B pair the acceptance test compares: the same 64-session
   write-heavy load against the force-per-record path and a 5 ms
   group-commit window, one data server so the log disk is the only
   contended stage (each session has its own compute server — at the
   default invocation costs a shared CPU saturates long before the
   disk and would mask the pipeline). *)
let smoke_cells =
  [
    cell ~label:"c64-fp1-off" ~data:1 ~compute:64 ~clients:64 ~footprint:1
      ~txns_per_client:12 ();
    cell ~label:"c64-fp1-w5" ~data:1 ~compute:64 ~clients:64 ~footprint:1
      ~txns_per_client:12 ~window:(Sim.Time.ms 5) ();
  ]

(* clients x window x footprint, CI-sized counts per cell.  One
   compute server per session keeps the CPU stage parallel;
   footprint > 1 spreads each transaction's accounts over four data
   servers, so those cells are true multi-participant 2PCs. *)
let grid_cells =
  List.concat_map
    (fun clients ->
      List.concat_map
        (fun footprint ->
          List.map
            (fun (tag, window) ->
              {
                label = Printf.sprintf "c%d-fp%d-%s" clients footprint tag;
                data = (if footprint = 1 then 1 else 4);
                compute = clients;
                clients;
                footprint;
                txns_per_client = 12;
                window;
                checkpoint_every = None;
              })
            [
              ("off", None);
              ("w1", Some (Sim.Time.ms 1));
              ("w5", Some (Sim.Time.ms 5));
            ])
        [ 1; 4; 8 ])
    [ 1; 4; 16; 64 ]

let full_cells = grid_cells

(* A gcp entry crediting every listed account in one transaction;
   each session gets its own batcher object so sessions share nothing
   but the disks. *)
let batcher_cls =
  Clouds.Obj_class.define ~name:"commit-batcher"
    [
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.Gcp "update_all"
        (fun ctx arg ->
          List.iter
            (fun acct ->
              ignore
                (ctx.Clouds.Ctx.invoke ~obj:(V.to_sysname acct)
                   ~entry:"credit_in_txn" (V.Int 1)))
            (V.to_list arg);
          V.Unit);
    ]

let run_cell ?(seed = 42) (c : cell) =
  let wall0 = Unix.gettimeofday () in
  let lat, retries, sim_ms, wal_records, wal_flushes, mean_batch, retrans =
    Sim.exec ~seed (fun () ->
        let eng = Sim.engine () in
        (* the load experiment's fast fabric, so the shared medium
           does not drown the per-disk commit pipeline under test
           (every prepare ships its page images over the wire) *)
        let sys =
          Clouds.boot eng ~ether_config:Load.ether_config
            ?group_commit_window:c.window ?checkpoint_every:c.checkpoint_every
            ~compute:c.compute ~data:c.data ~workstations:0 ()
        in
        let cl = sys.Clouds.cluster in
        let om = sys.Clouds.om in
        let (_ : Atomicity.Manager.t) = Atomicity.Manager.install om () in
        Apps.Bank.register om;
        Cl.register_class cl batcher_cls;
        let ncomp = Array.length cl.Cl.compute_nodes in
        let sessions =
          Array.init c.clients (fun i ->
              let accounts =
                List.init c.footprint (fun j ->
                    Apps.Bank.open_account om
                      ~home:(1 + (((i * c.footprint) + j) mod c.data))
                      ~balance:0 ())
              in
              let batcher =
                Clouds.Object_manager.create_object om
                  ~class_name:"commit-batcher" V.Unit
              in
              let arg = V.List (List.map V.of_sysname accounts) in
              (cl.Cl.compute_nodes.(i mod ncomp), batcher, arg))
        in
        let lat = Sim.Stats.hist "commit.latency_ms" in
        let retries = ref 0 in
        let warmed = ref 0 in
        let finished = ref 0 in
        let retransmissions () =
          Array.fold_left
            (fun acc n -> acc + Ratp.Endpoint.retransmissions n.Ra.Node.endpoint)
            0
            (Array.append cl.Cl.data_nodes cl.Cl.compute_nodes)
        in
        let retrans_at_go = ref 0 and retrans = ref 0 in
        let go_ivar = Sim.Ivar.create () in
        let done_ivar = Sim.Ivar.create () in
        let rec with_retry tries f =
          match f () with
          | v -> v
          | exception Dsm.Dsm_client.Unavailable _ when tries < 400 ->
              incr retries;
              Sim.sleep (Sim.Time.ms 5);
              with_retry (tries + 1) f
          | exception Atomicity.Manager.Aborted _ when tries < 400 ->
              incr retries;
              Sim.sleep (Sim.Time.ms 5);
              with_retry (tries + 1) f
        in
        Array.iteri
          (fun i (node, batcher, arg) ->
            ignore
              (Sim.Engine.spawn eng
                 (Printf.sprintf "commit-client-%d" i)
                 (fun () ->
                   let txn () =
                     with_retry 0 (fun () ->
                         ignore
                           (Clouds.Object_manager.invoke om ~node ~thread_id:0
                              ~origin:None ~txn:None ~obj:batcher
                              ~entry:"update_all" arg))
                   in
                   (* unmeasured warm transaction: first touches pay
                      cold-segment disk reads, activation setup and
                      code-page faults that belong to boot, not to the
                      commit pipeline under test; stagger the starts
                      so the warm faults do not convoy either *)
                   Sim.sleep (Sim.Time.us (i * 3100));
                   txn ();
                   incr warmed;
                   if !warmed = c.clients then begin
                     retrans_at_go := retransmissions ();
                     Sim.Ivar.fill go_ivar (Sim.now ())
                   end;
                   let t_start = Sim.Ivar.read go_ivar in
                   for _ = 1 to c.txns_per_client do
                     let t0 = Sim.now () in
                     txn ();
                     Sim.Stats.hadd_span lat (Sim.Time.diff (Sim.now ()) t0)
                   done;
                   incr finished;
                   if !finished = c.clients then begin
                     retrans := retransmissions () - !retrans_at_go;
                     Sim.Ivar.fill done_ivar
                       (Sim.Time.to_ms_f
                          (Sim.Time.diff (Sim.now ()) t_start))
                   end)))
          sessions;
        let sim_ms = Sim.Ivar.read done_ivar in
        let sum f =
          Array.fold_left (fun acc s -> acc + f (Dsm.Dsm_server.wal s)) 0
            cl.Cl.servers
        in
        let records =
          sum (fun w -> Sim.Stats.value (Store.Wal.records_counter w))
        in
        let flushes = sum Store.Wal.flushes in
        let batched =
          Array.fold_left
            (fun acc s ->
              acc
              +. Sim.Stats.hist_total
                   (Store.Wal.batch_hist (Dsm.Dsm_server.wal s)))
            0.0 cl.Cl.servers
        in
        let mean_batch =
          if flushes = 0 then 0.0 else batched /. float_of_int flushes
        in
        (lat, !retries, sim_ms, records, flushes, mean_batch, !retrans))
  in
  let wall_s = Unix.gettimeofday () -. wall0 in
  {
    cell = c;
    committed = Sim.Stats.hist_n lat;
    retries;
    p50_ms = Sim.Stats.hist_percentile lat 50.0;
    p95_ms = Sim.Stats.hist_percentile lat 95.0;
    mean_ms = Sim.Stats.hist_mean lat;
    max_ms = Sim.Stats.hist_max lat;
    throughput = float_of_int (Sim.Stats.hist_n lat) /. (sim_ms /. 1000.0);
    wal_records;
    wal_flushes;
    mean_batch;
    retrans;
    sim_ms;
    wall_s;
  }

let run ?(seed = 42) ?(cells = smoke_cells) () =
  List.map (run_cell ~seed) cells

(* ------------------------------------------------------------------ *)
(* Part B: kill a data server mid-commit-pipeline, recover through the
   truncated log. *)

type crash_outcome = {
  seed : int;
  sessions : int;
  deposits_per_session : int;
  acked : int;  (** transactions acknowledged committed *)
  crash_retries : int;
  lost : int;  (** acked credits missing from recovered balances *)
  ghosts : int;  (** balance credits never acknowledged *)
  checkpoints : int;  (** fuzzy checkpoints cut on the victim *)
  log_truncated : int;  (** records dropped at checkpoint low-water marks *)
  recovered_records : int;  (** victim's log length at verification *)
  violations : string list;
  trace : string;  (** canonical per-session trace, determinism check *)
}

let crash_summary o =
  Printf.sprintf
    "crash-recovery seed=%d sessions=%d acked=%d lost=%d ghost=%d ckpt=%d \
     trunc=%d viol=[%s] trace=%s"
    o.seed o.sessions o.acked o.lost o.ghosts o.checkpoints o.log_truncated
    (String.concat "," o.violations)
    o.trace

let fast_ratp =
  {
    Ratp.Endpoint.default_config with
    retry_initial = Sim.Time.ms 20;
    max_attempts = 4;
  }

let run_crash ?(seed = 42) () =
  let sessions = 4 and deposits = 40 in
  Sim.exec ~seed (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng ~ratp_config:fast_ratp
          ~group_commit_window:(Sim.Time.ms 2)
          ~checkpoint_every:(Sim.Time.ms 25) ~compute:3 ~data:2 ~workstations:0
          ()
      in
      let cl = sys.Clouds.cluster in
      let om = sys.Clouds.om in
      let (_ : Atomicity.Manager.t) =
        Atomicity.Manager.install om ~deadlock_timeout:(Sim.Time.ms 300)
          ~max_retries:8 ()
      in
      Apps.Bank.register om;
      Cl.register_class cl batcher_cls;
      let ncomp = Array.length cl.Cl.compute_nodes in
      (* each session owns one account on the victim (server 1) and
         one on the survivor (server 2): every transaction is a
         two-participant 2PC, and no account has two writers, so the
         recovered balances must equal the ack counts exactly *)
      let plans =
        Array.init sessions (fun i ->
            let a = Apps.Bank.open_account om ~home:1 ~balance:0 () in
            let b = Apps.Bank.open_account om ~home:2 ~balance:0 () in
            let batcher =
              Clouds.Object_manager.create_object om
                ~class_name:"commit-batcher" V.Unit
            in
            ( cl.Cl.compute_nodes.(i mod ncomp),
              batcher,
              V.List [ V.of_sysname a; V.of_sysname b ],
              a,
              b ))
      in
      let acked = Array.make sessions 0 in
      let retries = ref 0 in
      let finished = ref 0 in
      let done_ivar = Sim.Ivar.create () in
      let rec with_retry tries f =
        match f () with
        | v -> v
        | exception Dsm.Dsm_client.Unavailable _ when tries < 400 ->
            incr retries;
            Sim.sleep (Sim.Time.ms 5);
            with_retry (tries + 1) f
        | exception Atomicity.Manager.Aborted _ when tries < 400 ->
            incr retries;
            Sim.sleep (Sim.Time.ms 5);
            with_retry (tries + 1) f
      in
      Array.iteri
        (fun i (node, batcher, arg, _, _) ->
          ignore
            (Sim.Engine.spawn eng
               (Printf.sprintf "crash-client-%d" i)
               (fun () ->
                 for _ = 1 to deposits do
                   with_retry 0 (fun () ->
                       ignore
                         (Clouds.Object_manager.invoke om ~node ~thread_id:0
                            ~origin:None ~txn:None ~obj:batcher
                            ~entry:"update_all" arg));
                   acked.(i) <- acked.(i) + 1
                 done;
                 incr finished;
                 if !finished = sessions then Sim.Ivar.fill done_ivar ())))
        plans;
      (* the kill lands mid-workload, after the 25 ms checkpoint
         cadence has cut at least one fuzzy checkpoint; the restart
         runs Dsm_server.recover on the truncated log *)
      Pet.Failure.crash_at cl 1 (Sim.Time.ms 150);
      Pet.Failure.restart_at cl 1 (Sim.Time.ms 450);
      Sim.Ivar.read done_ivar;
      (* drain any commit still riding the last group flush *)
      Sim.sleep (Sim.Time.ms 50);
      let victim_wal = Dsm.Dsm_server.wal cl.Cl.servers.(0) in
      let checkpoints = Store.Wal.checkpoints victim_wal in
      let log_truncated = Store.Wal.truncated victim_wal in
      let recovered_records = List.length (Store.Wal.records victim_wal) in
      let lost = ref 0 and ghosts = ref 0 in
      let buf = Buffer.create 64 in
      Array.iteri
        (fun i (_, _, _, a, b) ->
          let bal_a = Apps.Bank.balance om a in
          let bal_b = Apps.Bank.balance om b in
          List.iter
            (fun bal ->
              if bal < acked.(i) then lost := !lost + (acked.(i) - bal);
              if bal > acked.(i) then ghosts := !ghosts + (bal - acked.(i)))
            [ bal_a; bal_b ];
          Buffer.add_string buf
            (Printf.sprintf "%s%d:%d/%d"
               (if i = 0 then "" else ",")
               acked.(i) bal_a bal_b))
        plans;
      let violations = ref [] in
      let violate fmt =
        Printf.ksprintf (fun s -> violations := s :: !violations) fmt
      in
      if !lost > 0 then
        violate "%d acknowledged credits lost across the crash" !lost;
      if !ghosts > 0 then
        violate "%d credits present that were never acknowledged" !ghosts;
      if Array.exists (fun a -> a < deposits) acked then
        violate "a session gave up before finishing its deposits";
      if checkpoints < 1 then
        violate "no fuzzy checkpoint was cut before the crash";
      if log_truncated < 1 then
        violate "checkpoints cut but the log was never truncated";
      {
        seed;
        sessions;
        deposits_per_session = deposits;
        acked = Array.fold_left ( + ) 0 acked;
        crash_retries = !retries;
        lost = !lost;
        ghosts = !ghosts;
        checkpoints;
        log_truncated;
        recovered_records;
        violations = List.rev !violations;
        trace = Buffer.contents buf;
      })

(* ------------------------------------------------------------------ *)

let summary p =
  Printf.sprintf
    "%s clients=%d fp=%d %s: %d commits p50=%.2fms p95=%.2fms mean=%.2fms \
     tput=%.0f/s recs=%d flushes=%d batch=%.1f retrans=%d sim=%.0fms \
     wall=%.2fs retry=%d"
    p.cell.label p.cell.clients p.cell.footprint
    (match p.cell.window with
    | None -> "force-each"
    | Some w -> Printf.sprintf "window=%.1fms" (Sim.Time.to_ms_f w))
    p.committed p.p50_ms p.p95_ms p.mean_ms p.throughput p.wal_records
    p.wal_flushes p.mean_batch p.retrans p.sim_ms p.wall_s p.retries

let report points =
  Report.table
    ~title:
      "Commit pipeline: group-commit WAL vs force-per-record (closed loop, \
       conflict-free gcp transactions)"
    (List.map
       (fun p ->
         {
           Report.label = p.cell.label;
           paper = "-";
           measured =
             Printf.sprintf "%.0f txn/s (p50 %.2f ms)" p.throughput p.p50_ms;
           note =
             Printf.sprintf
               "%d clients x %d accts, %s: %d commits, %d log recs, %d \
                flushes (%.1f recs/flush)"
               p.cell.clients p.cell.footprint
               (match p.cell.window with
               | None -> "force each record"
               | Some w ->
                   Printf.sprintf "%.0f ms window" (Sim.Time.to_ms_f w))
               p.committed p.wal_records p.wal_flushes p.mean_batch;
         })
       points)

let crash_report o =
  Report.table
    ~title:"Commit pipeline crash recovery (kill mid-commit, ARIES replay)"
    [
      {
        Report.label = "kill-mid-commit";
        paper = "-";
        measured = (if o.violations = [] then "invariants ok" else "VIOLATED");
        note =
          Printf.sprintf
            "%d acked over %d sessions: %d lost, %d ghost | %d ckpt, %d recs \
             truncated, %d live"
            o.acked o.sessions o.lost o.ghosts o.checkpoints o.log_truncated
            o.recovered_records;
      };
    ]
