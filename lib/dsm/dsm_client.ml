module P = Protocol

exception Unavailable of Ra.Sysname.t

(* Per-segment fault-ahead state: [next_expected] is the page a
   sequential scan would fault next (last faulted page + 1 + extras
   shipped with it); [win] is the current window, doubled on every
   fault that lands on [next_expected] and reset to zero on a random
   jump, so sparse workloads stop paying for speculation after one
   wasted reply. *)
type stream = { mutable next_expected : int; mutable win : int }

type t = {
  node : Ra.Node.t;
  locate : Ra.Sysname.t -> Net.Address.t;
  mutable mode_of : Ra.Sysname.t -> Ra.Partition.consistency;
  prefetch_window : int;
  loc_cache : Net.Address.t Ra.Sysname.Table.t;
  streams : stream Ra.Sysname.Table.t;
  mutable inval_epoch : int;
  page_epochs : (Ra.Sysname.t * int, int) Hashtbl.t;
      (* epoch of the last invalidation seen per page: a prefetched
         extra is dropped instead of installed when its page was
         invalidated while the carrying reply was in flight *)
  stale_dirty : (Ra.Sysname.t * int, unit) Hashtbl.t;
      (* release-mode pages we kept through an Inval_batch because
         they held unflushed local writes; their unmodified bytes are
         stale, so our own flush drops the frame instead of rebasing *)
  releasing : (Ra.Sysname.t * int, unit Sim.Ivar.t) Hashtbl.t;
      (* pages with a Release_copies RPC in flight: a fault on one of
         them waits for the release to land first, because the home
         keeps ONE registration per client — a release arriving after
         a re-fault re-registered would deregister the new live copy
         and it would miss every later invalidation *)
  fetches : Sim.Stats.counter;
  puts : Sim.Stats.counter;
  invals : Sim.Stats.counter;
  downs : Sim.Stats.counter;
  loc_hits : Sim.Stats.counter;
  loc_misses : Sim.Stats.counter;
  loc_evictions : Sim.Stats.counter;
  merge_rpcs : Sim.Stats.counter;
  releases : Sim.Stats.counter;
      (* Release_copies RPCs: copies this client dropped on its own
         and told the home to forget, keeping copysets exact *)
}

let node t = t.node

let set_consistency t f =
  t.mode_of <- f;
  Ra.Mmu.set_consistency t.node.Ra.Node.mmu f

let consistency_of t seg = t.mode_of seg

(* Location cache: segment-to-home bindings are stable between
   failures, so steady-state faults skip name resolution.  Entries
   are dropped when the home stops answering (it may have moved on
   restart) and never cached on failure. *)
let locate_cached t seg =
  match Ra.Sysname.Table.find_opt t.loc_cache seg with
  | Some home ->
      Sim.Stats.incr t.loc_hits;
      home
  | None ->
      let home = t.locate seg in
      Sim.Stats.incr t.loc_misses;
      Ra.Sysname.Table.replace t.loc_cache seg home;
      home

let forget_location t seg = Ra.Sysname.Table.remove t.loc_cache seg

(* Selective eviction for placement-ring remaps: only the bindings the
   predicate condemns (the moved arc) are dropped; everything else
   keeps its warm location. *)
let evict_where t pred =
  let doomed =
    Ra.Sysname.Table.fold
      (fun seg home acc -> if pred seg home then seg :: acc else acc)
      t.loc_cache []
  in
  List.iter
    (fun seg ->
      Sim.Stats.incr t.loc_evictions;
      Ra.Sysname.Table.remove t.loc_cache seg)
    doomed;
  List.length doomed

(* The stale-location fix: when the membership view condemns a node,
   drop every cached binding pointing at it immediately, so the next
   fault re-resolves through the locate path (which the cluster has
   already repointed at a surviving replica) instead of burning a full
   RaTP retry ladder against the corpse. *)
let apply_view t (v : Membership.Monitor.view) =
  let dead =
    List.filter_map
      (fun (m : Membership.Monitor.member) ->
        match m.status with
        | Membership.Monitor.Dead -> Some m.addr
        | Membership.Monitor.Alive | Membership.Monitor.Suspect -> None)
      v.Membership.Monitor.members
  in
  if dead <> [] then
    ignore
      (evict_where t (fun _ home -> List.exists (Net.Address.equal home) dead))

let stream_for t seg =
  match Ra.Sysname.Table.find_opt t.streams seg with
  | Some s -> s
  | None ->
      let s = { next_expected = -1; win = 0 } in
      Ra.Sysname.Table.replace t.streams seg s;
      s

(* Every call to a segment's home goes through here: resolve the home,
   bump [counter], send.  A home that no longer holds the segment
   raises [No_segment], one that does not answer raises [Unavailable];
   both drop the cached location so the next try re-resolves.  Returns
   the home with the reply. *)
let home_call t seg counter body =
  let home = locate_cached t seg in
  Sim.Stats.incr counter;
  match P.call t.node ~dst:home body with
  | Ok (P.Page_error | P.Segment_error) ->
      forget_location t seg;
      raise (Ra.Partition.No_segment seg)
  | Ok reply -> (home, reply)
  | Error Ratp.Endpoint.Timeout ->
      forget_location t seg;
      raise (Unavailable seg)

(* Send Release_copies for [pages], none of which this client holds a
   copy of any more, and gate later faults on the same pages until the
   home has processed it (see [releasing]).  [wait] keeps the caller
   blocked until the release lands; [false] runs it in a spawned
   fiber, off the fault's critical path. *)
let send_release t ~home ~wait pages =
  if pages <> [] then begin
    Sim.Stats.incr t.releases;
    let iv = Sim.Ivar.create () in
    List.iter (fun k -> Hashtbl.replace t.releasing k iv) pages;
    let send () =
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun k ->
              match Hashtbl.find_opt t.releasing k with
              | Some iv' when iv' == iv -> Hashtbl.remove t.releasing k
              | Some _ | None -> ())
            pages;
          Sim.Ivar.fill iv ())
        (fun () ->
          (* pure bookkeeping: a timed-out release leaves a phantom
             registration behind, which only costs the next write
             fault one redundant Invalidate *)
          try ignore (P.call t.node ~dst:home (P.Release_copies pages))
          with _ -> ())
    in
    if wait then send ()
    else ignore (Ra.Node.spawn t.node "dsm-release-copies" (fun () -> send ()))
  end

(* Install the speculative read copies that rode a demand reply.  A
   page whose invalidation epoch advanced past [epoch0] (snapshotted
   before the request went out) was written while the reply was in
   flight: its image is stale and is dropped — and needs no release,
   because the invalidation that outran it already deregistered us at
   the home.  Of the MMU's declines, only the frame-budget one leaves
   no copy on this node; a decline because the page is resident (or a
   demand fault on it is in flight) keeps a live copy whose copyset
   entry at the home is the same single registration the extra made —
   releasing it would let the next writer skip this client and leave
   it serving stale data forever.  So exactly the no-copy declines go
   out in one Release_copies RPC, keeping the membership exact. *)
let install_extras t ~home ~seg ~epoch0 extras =
  let mmu = t.node.Ra.Node.mmu in
  let no_copy =
    List.filter_map
      (fun (p, data) ->
        let stale =
          match Hashtbl.find_opt t.page_epochs (seg, p) with
          | Some e -> e > epoch0
          | None -> false
        in
        if stale then None
        else if Hashtbl.mem t.releasing (seg, p) then
          (* an older release for this page is still in flight and
             could undo an install when it lands, so decline and fold
             the reply's fresh registration into a new release *)
          Some (seg, p)
        else
          match Ra.Mmu.install_read mmu seg p data with
          | Ra.Mmu.Installed | Ra.Mmu.Retained -> None
          | Ra.Mmu.No_copy -> Some (seg, p))
      extras
  in
  send_release t ~home ~wait:false no_copy

let remote_fetch t ~seg ~page ~mode =
 Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.fetch" @@ fun () ->
  (* a Release_copies covering this page may still be in flight; let
     it land before this fetch re-registers us, or it would wipe the
     new registration when it arrives *)
  let rec drain () =
    match Hashtbl.find_opt t.releasing (seg, page) with
    | Some iv ->
        Sim.Ivar.read iv;
        drain ()
    | None -> ()
  in
  drain ();
  let mode =
    (* commutative pages are never owned: a local write upgrade
       fetches the current image like a read and the home stays
       arbitration-free (no invalidation, no recall, ever) *)
    match (mode, t.mode_of seg) with
    | Ra.Partition.Write, Ra.Partition.Commutative _ -> Ra.Partition.Read
    | m, _ -> m
  in
  let use_stream = t.prefetch_window > 0 && mode = Ra.Partition.Read in
  let window =
    if not use_stream then 0
    else begin
      let s = stream_for t seg in
      if page = s.next_expected then
        s.win <- min t.prefetch_window (max 1 (2 * s.win))
      else if s.next_expected < 0 then s.win <- 1
      else s.win <- 0;
      s.win
    end
  in
  let epoch0 = t.inval_epoch in
  match home_call t seg t.fetches (P.Get_page { seg; page; mode; window }) with
  | _, P.Got_page data ->
      if use_stream then (stream_for t seg).next_expected <- page + 1;
      data
  | home, P.Got_pages { main; extras } ->
      install_extras t ~home ~seg ~epoch0 extras;
      if use_stream then
        (stream_for t seg).next_expected <- page + 1 + List.length extras;
      main
  | _ -> raise (Unavailable seg)

(* The one one-copy write op: a flush sends the segment's dirty pages,
   an MMU eviction a one-page batch. *)
let write_batch t seg writes =
 Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.put" @@ fun () ->
  match home_call t seg t.puts (P.Put_batch writes) with
  | _, P.Batch_ok -> ()
  | _ -> raise (Unavailable seg)

let partition t =
  {
    Ra.Partition.name = Printf.sprintf "dsm-client-%d" t.node.Ra.Node.id;
    fetch = (fun ~seg ~page ~mode -> remote_fetch t ~seg ~page ~mode);
    writeback = (fun ~seg ~page img -> write_batch t seg [ (seg, page, img) ]);
  }

let create node ~locate ?(consistency = fun _ -> Ra.Partition.One_copy)
    ?(prefetch_window = 0) () =
  let t =
    {
      node;
      locate;
      mode_of = consistency;
      prefetch_window;
      loc_cache = Ra.Sysname.Table.create 32;
      streams = Ra.Sysname.Table.create 32;
      inval_epoch = 0;
      page_epochs = Hashtbl.create 64;
      stale_dirty = Hashtbl.create 16;
      releasing = Hashtbl.create 8;
      fetches = Sim.Stats.counter "dsmc.fetches";
      puts = Sim.Stats.counter "dsmc.puts";
      invals = Sim.Stats.counter "dsmc.invals";
      downs = Sim.Stats.counter "dsmc.downs";
      loc_hits = Sim.Stats.counter "dsmc.loc_hits";
      loc_misses = Sim.Stats.counter "dsmc.loc_misses";
      loc_evictions = Sim.Stats.counter "dsmc.loc_evictions";
      merge_rpcs = Sim.Stats.counter "dsmc.merge_rpcs";
      releases = Sim.Stats.counter "dsmc.copy_releases";
    }
  in
  Ra.Mmu.set_resolver node.Ra.Node.mmu (fun _seg -> partition t);
  Ra.Mmu.set_consistency node.Ra.Node.mmu consistency;
  P.serve ~service:P.client_service node (fun ~src:_ body ->
      match body with
      | P.Invalidate { seg; page } ->
          Sim.Stats.incr t.invals;
          t.inval_epoch <- t.inval_epoch + 1;
          Hashtbl.replace t.page_epochs (seg, page) t.inval_epoch;
          P.Invalidated { dirty = Ra.Mmu.invalidate node.Ra.Node.mmu seg page }
      | P.Downgrade { seg; page } ->
          Sim.Stats.incr t.downs;
          P.Downgraded { dirty = Ra.Mmu.downgrade node.Ra.Node.mmu seg page }
      | P.Inval_batch pages ->
          (* a release-mode lock scope ended: clean copies drop at
             once.  A frame holding OUR unflushed writes survives —
             its diff must still reach the home — but is marked
             stale so our own flush drops it instead of rebasing
             (its unmodified bytes predate the other scope). *)
          List.iter
            (fun (seg, page) ->
              Sim.Stats.incr t.invals;
              t.inval_epoch <- t.inval_epoch + 1;
              Hashtbl.replace t.page_epochs (seg, page) t.inval_epoch;
              if Ra.Mmu.is_dirty node.Ra.Node.mmu seg page then
                Hashtbl.replace t.stale_dirty (seg, page) ()
              else ignore (Ra.Mmu.invalidate node.Ra.Node.mmu seg page))
            pages;
          P.Batch_ok
      | _ -> P.Page_error);
  t

(* Maximal runs of bytes that differ from the twin.  Pages are
   always Page.size, so only the common length matters. *)
let diff_spans ~(base : Ra.Page.image) ~(current : Ra.Page.image) =
  let base = (base :> string) and current = (current :> string) in
  let n = min (String.length base) (String.length current) in
  let spans = ref [] in
  let i = ref 0 in
  while !i < n do
    if base.[!i] <> current.[!i] then begin
      let j = ref (!i + 1) in
      while !j < n && base.[!j] <> current.[!j] do
        incr j
      done;
      spans := (!i, String.sub current !i (!j - !i)) :: !spans;
      i := !j
    end
    else incr i
  done;
  List.rev !spans

(* Release-mode writeback: ship only the byte spans changed against
   each page's twin, in one Put_diffs RPC.  Sub-page application at
   the home means two lock scopes writing disjoint bytes of the same
   page cannot clobber each other, and the home's apply triggers the
   deferred invalidation burst that ends this scope. *)
let flush_release t seg dirty =
 Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.put" @@ fun () ->
  let mmu = t.node.Ra.Node.mmu in
  let entries =
    List.map
      (fun (page, data) ->
        match Ra.Mmu.page_base mmu seg page with
        | Some base -> (seg, page, diff_spans ~base ~current:data)
        | None -> (seg, page, [ (0, (data :> string)) ]))
      dirty
  in
  match home_call t seg t.puts (P.Put_diffs entries) with
  | _, P.Batch_ok ->
      List.iter
        (fun (page, _) ->
          if Hashtbl.mem t.stale_dirty (seg, page) then begin
            (* another scope flushed under us: our diff is home, but
               the frame's unmodified bytes are stale — refetch on
               next touch *)
            Hashtbl.remove t.stale_dirty (seg, page);
            ignore (Ra.Mmu.invalidate mmu seg page)
          end
          else begin
            Ra.Mmu.mark_clean mmu seg page;
            Ra.Mmu.rebase mmu seg page
          end)
        dirty
  | _ -> raise (Unavailable seg)

(* Commutative flush: encode the local writes as merge deltas against
   each page's twin and let the home combine them; the reply carries
   the post-merge images, so anti-entropy (pulling everyone else's
   merged counters) rides the same round trip.  Each delta carries its
   twin's stamp as an idempotency key: on a timeout the pages stay
   dirty against an unchanged twin, so the re-sent flush repeats the
   stamp and the home applies only what its first application missed
   — a lost reply cannot double-count an Add delta.  Only success
   refreshes the twin (and thus allocates a fresh stamp). *)
let flush_merges t seg op dirty =
 Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.merge" @@ fun () ->
  let mmu = t.node.Ra.Node.mmu in
  let deltas =
    List.map
      (fun (page, data) ->
        let base =
          match Ra.Mmu.page_base mmu seg page with
          | Some b -> b
          | None -> Ra.Page.zero
        in
        ( seg,
          page,
          Ra.Mmu.twin_stamp mmu seg page,
          Ra.Partition.merge_delta op ~base ~current:data ))
      dirty
  in
  match home_call t seg t.merge_rpcs (P.Merge_delta deltas) with
  | _, P.Merged images ->
      List.iter
        (fun (s, page, img) -> Ra.Mmu.merge_refresh mmu s page img)
        images
  | _ -> raise (Unavailable seg)

(* Writeback of a segment's dirty pages as one RPC (RaTP fragments
   it on the wire): a Put_batch of page images for one-copy segments,
   diffs for release mode, merge deltas for commutative. *)
let flush_segment t seg =
  let mmu = t.node.Ra.Node.mmu in
  match Ra.Mmu.dirty_pages mmu seg ~compact:false with
  | [] -> ()
  | dirty -> (
      match t.mode_of seg with
      | Ra.Partition.Release -> flush_release t seg dirty
      | Ra.Partition.Commutative op -> flush_merges t seg op dirty
      | Ra.Partition.One_copy ->
          write_batch t seg
            (List.map (fun (page, data) -> (seg, page, data)) dirty);
          List.iter (fun (page, _) -> Ra.Mmu.mark_clean mmu seg page) dirty)

(* Dropping a segment's frames also drops our copyset registrations
   at the home; telling it (one RPC, errors swallowed — this is pure
   bookkeeping) keeps the copysets exact so no later write fault pays
   a redundant Invalidate for copies we no longer hold.  The release
   completes before this returns, so a refetch cannot race it. *)
let drop_segment t seg =
  let mmu = t.node.Ra.Node.mmu in
  let pages = Ra.Mmu.segment_pages mmu seg in
  List.iter (fun p -> Hashtbl.remove t.stale_dirty (seg, p)) pages;
  Ra.Mmu.drop_segment mmu seg;
  if pages <> [] then
    try
      send_release t ~home:(locate_cached t seg) ~wait:true
        (List.map (fun p -> (seg, p)) pages)
    with _ -> ()

let remote_fetches t = Sim.Stats.value t.fetches
let put_rpcs t = Sim.Stats.value t.puts
let invalidations_received t = Sim.Stats.value t.invals
let location_hits t = Sim.Stats.value t.loc_hits
let location_misses t = Sim.Stats.value t.loc_misses
let location_evictions t = Sim.Stats.value t.loc_evictions
let merge_flushes t = Sim.Stats.value t.merge_rpcs
let copy_releases t = Sim.Stats.value t.releases

let metrics t =
  [
    ("dsmc/fetches", Obs.Registry.Counter t.fetches);
    ("dsmc/puts", Obs.Registry.Counter t.puts);
    ("dsmc/invals", Obs.Registry.Counter t.invals);
    ("dsmc/downs", Obs.Registry.Counter t.downs);
    ("dsmc/loc_hits", Obs.Registry.Counter t.loc_hits);
    ("dsmc/loc_misses", Obs.Registry.Counter t.loc_misses);
    ("dsmc/loc_evictions", Obs.Registry.Counter t.loc_evictions);
    ("dsm/mode/merge_rpcs", Obs.Registry.Counter t.merge_rpcs);
    ("dsm/mode/copy_releases", Obs.Registry.Counter t.releases);
  ]
