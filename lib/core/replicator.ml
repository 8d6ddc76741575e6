module P = Dsm.Protocol
module M = Membership.Monitor

type t = {
  cl : Cluster.t;
  node : Ra.Node.t;  (* monitor host; heal RPCs issue from here *)
  lost : Net.Address.t Ra.Sysname.Table.t;
      (* segments with no live replica, keyed to their last home so a
         rejoin can re-adopt them (the stable store survives crashes) *)
  healing : unit Ra.Sysname.Table.t;
  mutable known_dead : Net.Address.t list;
  mutable active : int;  (* heal passes in flight *)
  mutable last_heal_at : Sim.Time.t option;
  copied : Sim.Stats.counter;
  heals : Sim.Stats.counter;
}

let healthy_data t =
  Array.to_list t.cl.Cluster.data_nodes
  |> List.filter_map (fun n ->
         let id = n.Ra.Node.id in
         if
           n.Ra.Node.alive
           && (match t.cl.Cluster.membership with
              | Some m -> M.usable m id
              | None -> true)
         then Some id
         else None)
  |> List.sort Net.Address.compare

(* The segment's size as the source currently stores it (an empty
   Read_pages reply carries the size and nothing else). *)
let probe_size t ~src ~seg =
  match P.call t.node ~dst:src (P.Read_pages { seg; from = 0; count = 0 }) with
  | Ok (P.Pages { size; _ }) -> Some size
  | Ok _ | Error Ratp.Endpoint.Timeout -> None

(* Give [dst] a fresh, all-zero segment of [size] bytes; a stale copy
   left over from an earlier replica stint is deleted first. *)
let prepare_target t ~seg ~dst ~size =
  let mode = Cluster.consistency_of t.cl seg in
  match P.call t.node ~dst (P.Create_segment { seg; size; mode }) with
  | Ok P.Segment_ok -> true
  | Ok P.Segment_error -> (
      match P.call t.node ~dst (P.Delete_segment seg) with
      | Ok _ -> (
          match P.call t.node ~dst (P.Create_segment { seg; size; mode }) with
          | Ok P.Segment_ok -> true
          | Ok _ | Error Ratp.Endpoint.Timeout -> false)
      | Error Ratp.Endpoint.Timeout -> false)
  | Ok _ | Error Ratp.Endpoint.Timeout -> false

(* Ship [seg]'s pages from [src] to [dst] in Read_pages/Backfill
   rounds.  The caller has already enlisted [dst] as a mirror, so
   client writes race the copy; [Backfill] lands a page only where
   the target is still zeroed, which makes the race harmless — a
   non-zero page was filled by a fresher mirrored write.

   The batch is kept small on purpose: a batch of pages rides in one
   RaTP call, and a call that takes longer than the transport's whole
   retry ladder to deliver is indistinguishable from a dead peer.
   Four pages (~16 KB) stays well inside even the aggressive configs
   the experiments use.  Returns false if either side stops
   answering. *)
let backfill t ~seg ~src ~dst =
  let batch = 4 in
  let exception Fail in
  try
    let rec go from =
      match P.call t.node ~dst:src (P.Read_pages { seg; from; count = batch })
      with
      | Ok (P.Pages { size; pages }) ->
          (if pages <> [] then
             let writes = List.map (fun (p, b) -> (seg, p, b)) pages in
             match P.call t.node ~dst (P.Backfill writes) with
             | Ok P.Batch_ok -> Sim.Stats.incr_by t.copied (List.length pages)
             | Ok _ | Error Ratp.Endpoint.Timeout -> raise Fail);
          let total = (size + Ra.Page.size - 1) / Ra.Page.size in
          if from + batch >= total then true else go (from + batch)
      | Ok _ | Error Ratp.Endpoint.Timeout -> raise Fail
    in
    go 0
  with Fail -> false

(* Bring one fresh copy of [seg] up on [dst]: wipe/create the target,
   enlist it in the replica list (mirroring starts immediately), then
   backfill the pages.  On failure the half-copied target is taken
   back out of the replica list — a backup with holes must never be
   promoted. *)
let copy_segment t ~seg ~src ~dst =
  match probe_size t ~src ~seg with
  | None -> false
  | Some size ->
      prepare_target t ~seg ~dst ~size
      &&
      let current = Cluster.replicas_of t.cl seg in
      Cluster.set_replicas t.cl seg (current @ [ dst ]);
      backfill t ~seg ~src ~dst
      ||
      let rolled =
        List.filter
          (fun a -> not (Net.Address.equal a dst))
          (Cluster.replicas_of t.cl seg)
      in
      (match rolled with
      | [] -> ()
      | _ :: _ -> Cluster.set_replicas t.cl seg rolled);
      false

(* A fresh backup also needs the object directory entries whose
   segments it now mirrors; descriptors are tiny, so the whole
   directory of [src] is mirrored onto [dst]. *)
let copy_directory t ~src ~dst =
  match P.call t.node ~dst:src P.List_objects with
  | Ok (P.Objects objs) ->
      List.iter
        (fun obj ->
          match P.call t.node ~dst:src (P.Get_descriptor obj) with
          | Ok (P.Descriptor (Some d)) -> (
              match
                P.call t.node ~dst (P.Register_object { obj; descriptor = d })
              with
              | Ok _ | Error Ratp.Endpoint.Timeout -> ())
          | Ok _ | Error Ratp.Endpoint.Timeout -> ())
        (List.sort Ra.Sysname.compare objs)
  | Ok _ | Error Ratp.Endpoint.Timeout -> ()

(* Top up every under-replicated segment to min(factor, healthy data
   servers).  Segments are visited in sysname order and targets
   chosen by address after the primary (wrapping), so a reheal trace
   is a pure function of the seed. *)
let heal_pass t =
  let copied_any = ref false in
  let dir_pairs = ref [] in
  let segs =
    Ra.Sysname.Table.fold
      (fun seg _ acc -> seg :: acc)
      t.cl.Cluster.seg_home []
    |> List.sort Ra.Sysname.compare
  in
  List.iter
    (fun seg ->
      if
        (not (Ra.Sysname.Table.mem t.healing seg))
        && not (Ra.Sysname.Table.mem t.lost seg)
      then begin
        let healthy = healthy_data t in
        let reps =
          Cluster.replicas_of t.cl seg
          |> List.filter (fun a -> List.exists (Net.Address.equal a) healthy)
        in
        match reps with
        | [] -> ()
        | primary :: _ ->
            let want = min t.cl.Cluster.replication (List.length healthy) in
            let missing = want - List.length reps in
            if missing > 0 then begin
              Ra.Sysname.Table.replace t.healing seg ();
              Fun.protect
                ~finally:(fun () -> Ra.Sysname.Table.remove t.healing seg)
              @@ fun () ->
              let cands =
                List.filter
                  (fun a -> not (List.exists (Net.Address.equal a) reps))
                  healthy
              in
              let above, below =
                List.partition (fun a -> a > primary) cands
              in
              let rec take n = function
                | x :: tl when n > 0 -> x :: take (n - 1) tl
                | _ -> []
              in
              let targets = take missing (above @ below) in
              let added =
                List.filter
                  (fun dst -> copy_segment t ~seg ~src:primary ~dst)
                  targets
              in
              if added <> [] then begin
                (* [copy_segment] already enlisted each target in the
                   replica list (before its backfill, so mirrored
                   writes covered the copy window) *)
                copied_any := true;
                List.iter
                  (fun dst -> dir_pairs := (primary, dst) :: !dir_pairs)
                  added
              end
            end
      end)
    segs;
  List.sort_uniq compare (List.rev !dir_pairs)
  |> List.iter (fun (src, dst) -> copy_directory t ~src ~dst);
  if !copied_any then Sim.Stats.incr t.heals

(* Is any tracked segment still short of copies?  (Lost segments are
   excluded: nothing can be copied until their last home rejoins.) *)
let under_replicated t =
  let healthy = healthy_data t in
  let want_max = min t.cl.Cluster.replication (List.length healthy) in
  Ra.Sysname.Table.fold
    (fun seg _ acc ->
      acc
      ||
      if Ra.Sysname.Table.mem t.lost seg then false
      else
        let live =
          Cluster.replicas_of t.cl seg
          |> List.filter (fun a -> List.exists (Net.Address.equal a) healthy)
        in
        live <> [] && List.length live < want_max)
    t.cl.Cluster.seg_home false

(* A heal pass can fail half-way (the source of a copy can itself die,
   or a transfer can outlive the transport's patience), so one view
   change buys a bounded series of passes: keep trying while copies
   are still missing, give up after [max_rounds] so a cluster that
   cannot be healed does not loop forever. *)
let spawn_heal t =
  let max_rounds = 8 in
  t.active <- t.active + 1;
  ignore
    (Ra.Node.spawn t.node "re-replicate" (fun () ->
         Fun.protect
           ~finally:(fun () ->
             t.active <- t.active - 1;
             t.last_heal_at <-
               Some (Sim.Engine.now t.node.Ra.Node.eng))
           (fun () ->
             heal_pass t;
             let rec retry n =
               if n > 0 && under_replicated t then begin
                 Sim.sleep (Sim.Time.ms 30);
                 heal_pass t;
                 retry (n - 1)
               end
             in
             retry max_rounds)))

(* Inline metadata failover, run synchronously from the view
   transition: every client locate after this instant resolves to a
   surviving replica.  Page copies happen in the background pass. *)
let failover t dead_now =
  let is_dead a = List.exists (Net.Address.equal a) dead_now in
  let segs =
    Ra.Sysname.Table.fold
      (fun seg home acc -> (seg, home) :: acc)
      t.cl.Cluster.seg_home []
    |> List.sort (fun (a, _) (b, _) -> Ra.Sysname.compare a b)
  in
  List.iter
    (fun (seg, home) ->
      let reps = Cluster.replicas_of t.cl seg in
      let live = List.filter (fun a -> not (is_dead a)) reps in
      if List.length live < List.length reps then
        match live with
        | [] ->
            (* no survivor: remember the last primary so its rejoin
               re-adopts the segment *)
            Ra.Sysname.Table.replace t.lost seg home;
            Ra.Sysname.Table.replace t.cl.Cluster.seg_replicas seg []
        | _ -> Cluster.set_replicas t.cl seg live)
    segs;
  let doomed_objs =
    Ra.Sysname.Table.fold
      (fun obj home acc -> if is_dead home then obj :: acc else acc)
      t.cl.Cluster.obj_home []
  in
  List.iter (Ra.Sysname.Table.remove t.cl.Cluster.obj_home) doomed_objs

(* A condemned server rejoined (heartbeats resumed): its stable store
   survived, so segments that died with it come back as they were. *)
let readopt t a =
  let segs =
    Ra.Sysname.Table.fold
      (fun seg home acc -> if Net.Address.equal home a then seg :: acc else acc)
      t.lost []
    |> List.sort Ra.Sysname.compare
  in
  List.iter
    (fun seg ->
      Ra.Sysname.Table.remove t.lost seg;
      Cluster.set_replicas t.cl seg [ a ])
    segs

let on_view t (v : M.view) =
  let dead_now =
    List.filter_map
      (fun (m : M.member) ->
        match m.status with
        | M.Dead -> Some m.addr
        | M.Alive | M.Suspect -> None)
      v.M.members
  in
  let newly_dead =
    List.filter
      (fun a -> not (List.exists (Net.Address.equal a) t.known_dead))
      dead_now
  in
  let newly_alive =
    List.filter
      (fun a -> not (List.exists (Net.Address.equal a) dead_now))
      t.known_dead
  in
  t.known_dead <- dead_now;
  List.iter (readopt t) newly_alive;
  if newly_dead <> [] then failover t dead_now;
  if newly_dead <> [] || newly_alive <> [] then spawn_heal t

let install cl mon =
  let t =
    {
      cl;
      node = M.host mon;
      lost = Ra.Sysname.Table.create 16;
      healing = Ra.Sysname.Table.create 16;
      known_dead = [];
      active = 0;
      last_heal_at = None;
      copied = Sim.Stats.counter "repl.pages_copied";
      heals = Sim.Stats.counter "repl.reheals";
    }
  in
  M.subscribe mon (fun v -> on_view t v);
  t

let rec quiesce t =
  if t.active > 0 then begin
    Sim.sleep (Sim.Time.ms 5);
    quiesce t
  end

let last_heal t = t.last_heal_at
let pages_copied t = Sim.Stats.value t.copied
let reheals t = Sim.Stats.value t.heals
let lost_segments t = Ra.Sysname.Table.length t.lost
