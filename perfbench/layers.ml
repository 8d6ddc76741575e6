(* Per-layer counters, read from outside the program.

   A snapshot is taken inside the simulation at the first and last
   instant of the measured phase: cluster-wide registry totals (RaTP,
   DSM client and server, disk, WAL, atomicity), the bus counters, the
   fault injector's drops, every CPU's busy time and switches, and the
   buckets of the registry histograms.  Per-layer metrics are the
   differences, divided by the ops attempted where they are rates. *)

module Cl = Clouds.Cluster

type snap = {
  at : Sim.Time.t;
  totals : (string * int) list;
  frames : int;
  bytes : int;
  drops : int;
  cpu_busy : Sim.Time.span;
  switches : int;
  hists : (string * (float * int) list) list;
      (** registry histograms, buckets merged across nodes by path *)
}

let registries (env : Workloads.env) =
  let extra =
    match env.atm with Some a -> Atomicity.Manager.metrics a | None -> []
  in
  Clouds.Telemetry.registries ~om:env.om ~extra env.cl

let nodes cl = Array.append cl.Cl.data_nodes cl.Cl.compute_nodes

let snap regs (env : Workloads.env) =
  let cl = env.cl in
  let hists = Hashtbl.create 8 in
  List.iter
    (fun r ->
      List.iter
        (function
          | path, Obs.Registry.Hist h ->
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt hists path)
              in
              Hashtbl.replace hists path (Sim.Stats.hist_items h @ prev)
          | _ -> ())
        (Obs.Registry.items r))
    regs;
  let cpus = Array.map (fun n -> n.Ra.Node.cpu) (nodes cl) in
  {
    at = Sim.now ();
    totals = Obs.Registry.totals regs;
    frames = Net.Ethernet.frames_sent cl.Cl.ether;
    bytes = Net.Ethernet.bytes_sent cl.Cl.ether;
    drops = Net.Fault.drops (Net.Ethernet.fault cl.Cl.ether);
    cpu_busy = Array.fold_left (fun a c -> a + Ra.Cpu.busy c) 0 cpus;
    switches = Array.fold_left (fun a c -> a + Ra.Cpu.switches c) 0 cpus;
    hists = Hashtbl.fold (fun k v acc -> (k, v) :: acc) hists [];
  }

let total s path = Option.value ~default:0 (List.assoc_opt path s.totals)
let delta s0 s1 path = total s1 path - total s0 path
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Bucket counts of [path] gained between the two snapshots, sorted by
   bucket value. *)
let hist_delta s0 s1 path =
  let counts = Hashtbl.create 64 in
  let add sign l =
    List.iter
      (fun (v, c) ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt counts v) in
        Hashtbl.replace counts v (prev + (sign * c)))
      l
  in
  let get s = Option.value ~default:[] (List.assoc_opt path s.hists) in
  add 1 (get s1);
  add (-1) (get s0);
  Hashtbl.fold (fun v c acc -> if c > 0 then (v, c) :: acc else acc) counts []
  |> List.sort compare

(* Rank convention of [Sim.Stats.hist_percentile]: the bucket holding
   the sample at rank p/100 * (n - 1). *)
let bucket_percentile buckets p =
  let n = List.fold_left (fun a (_, c) -> a + c) 0 buckets in
  if n = 0 then 0.0
  else
    let rank = int_of_float (p /. 100.0 *. float_of_int (n - 1)) in
    let rec go seen = function
      | [] -> 0.0
      | (v, c) :: rest -> if seen + c > rank then v else go (seen + c) rest
    in
    go 0 buckets

(* Simulated per-layer metrics of one measured phase. *)
let metrics (env : Workloads.env) (o : Workloads.outcome) s0 s1 =
  let cl = env.cl in
  let per_op x = ratio (float_of_int x) (float_of_int o.attempted) in
  let d = delta s0 s1 in
  let elapsed_ns = float_of_int (Sim.Time.diff s1.at s0.at) in
  let ecfg = Net.Ethernet.config cl.Cl.ether in
  let dframes = s1.frames - s0.frames and dbytes = s1.bytes - s0.bytes in
  let bus_ns =
    (float_of_int dbytes *. 8.0 /. float_of_int ecfg.bandwidth_bps *. 1e9)
    +. float_of_int (dframes * ecfg.frame_gap)
  in
  let commits = d "atomicity/commits" and aborts = d "atomicity/aborts" in
  let call name p =
    match List.assoc_opt name o.calls with
    | Some h -> Sim.Stats.hist_percentile h p
    | None -> 0.0
  in
  let hp path p = bucket_percentile (hist_delta s0 s1 path) p in
  let ndata = Array.length cl.Cl.data_nodes in
  let hits = d "dsmc/loc_hits" and misses = d "dsmc/loc_misses" in
  [
    ("net.frames_per_op", per_op dframes);
    ("net.bytes_per_op", per_op dbytes);
    ("net.bus_util", ratio bus_ns elapsed_ns);
    ("net.drops", float_of_int (s1.drops - s0.drops));
    ("ratp.transactions_per_op", per_op (d "ratp/transactions"));
    ("ratp.retrans_per_op", per_op (d "ratp/retrans"));
    ("ratp.retrans_bytes_per_op", per_op (d "ratp/retrans_bytes"));
    ("ratp.nacks_per_op", per_op (d "ratp/nacks"));
    ( "ra.cpu_busy_frac",
      ratio
        (float_of_int (s1.cpu_busy - s0.cpu_busy))
        (elapsed_ns *. float_of_int (Array.length (nodes cl))) );
    ("ra.cpu_switches_per_op", per_op (s1.switches - s0.switches));
    ("dsm.fetches_per_op", per_op (d "dsmc/fetches"));
    ("dsm.invals_per_op", per_op (d "dsm/invalidations"));
    ("dsm.downgrades_per_op", per_op (d "dsm/downgrades"));
    ("dsm.pages_served_per_op", per_op (d "dsm/pages_served"));
    ("dsm.read_ms.p99", call "dsm.read_ms" 99.0);
    ("dsm.write_ms.p99", call "dsm.write_ms" 99.0);
    ( "dsm.loc_hit_ratio",
      ratio (float_of_int hits) (float_of_int (hits + misses)) );
    ( "store.wal_flushes_per_commit",
      ratio (float_of_int (d "wal/flushes")) (float_of_int commits) );
    ( "store.wal_mean_batch",
      ratio (float_of_int (d "wal/records")) (float_of_int (d "wal/flushes")) );
    ("store.disk_ops_per_op", per_op (d "disk/ops"));
    ("store.disk_bytes_per_op", per_op (d "disk/bytes"));
    ( "store.disk_busy_frac",
      ratio
        (float_of_int (d "disk/busy_us") *. 1000.0)
        (elapsed_ns *. float_of_int ndata) );
    ("store.disk_queue_depth.p99", hp "disk/queue_depth" 99.0);
    ( "atomicity.abort_frac",
      ratio (float_of_int aborts) (float_of_int (commits + aborts)) );
    ( "atomicity.lock_rpcs_per_txn",
      ratio (float_of_int (d "atomicity/lock_rpcs")) (float_of_int commits) );
    ("atomicity.commit_ms.p50", hp "atomicity/commit_ms" 50.0);
    ("atomicity.commit_ms.p99", hp "atomicity/commit_ms" 99.0);
    ("core.lookup_ms.p99", call "core.lookup_ms" 99.0);
    ("core.bind_ms.p99", call "core.bind_ms" 99.0);
    ("core.retries_per_op", per_op o.retries);
    ("slo_miss_frac", per_op (o.over_limit + o.failed));
    ("failed_frac", per_op o.failed);
  ]
