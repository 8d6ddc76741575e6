type write = Ra.Sysname.t * int * Ra.Page.image
type undo = Ra.Sysname.t * int * Ra.Page.image option
type prep = { txn : int * int; writes : write list; undo : undo list }

type record =
  | Prepared of prep
  | Committed of (int * int)
  | Aborted of (int * int)
  | Checkpoint of prep list

type group_commit = { window : Sim.Time.span; max_batch : int }

type entry = { lsn : int; rec_ : record }

type t = {
  disk : Disk.t;
  mutable entries : entry array;
  mutable start : int;  (* index of the first live entry *)
  mutable len : int;  (* live entries, from [start] *)
  mutable next_lsn : int;
  mutable durable : int;  (* highest LSN the disk has seen *)
  gc : group_commit option;
  eng : Sim.Engine.t option;  (* captured at create when [gc] is set *)
  spawn : string -> (unit -> unit) -> unit;
  (* --- daemon state, meaningful only with [gc] --- *)
  mutable pend_bytes : int;  (* bytes enqueued since the last flush claim *)
  mutable gen : int;  (* incarnation; bumped at crash recovery *)
  mutable armed : bool;  (* a window timer is pending *)
  mutable flushing : bool;  (* a flusher process is active *)
  mutable waiters : (int * (unit -> bool)) list;
  (* --- metrics --- *)
  appended_c : Sim.Stats.counter;
  flushes_c : Sim.Stats.counter;
  batch_h : Sim.Stats.hist;
  checkpoints_c : Sim.Stats.counter;
  truncated_c : Sim.Stats.counter;
}

let dummy_entry = { lsn = -1; rec_ = Aborted (0, 0) }

let create ?group_commit ?spawn disk =
  let eng =
    (* the daemon schedules window timers and flusher processes, so a
       group-commit WAL must be created in simulation context *)
    match group_commit with Some _ -> Some (Sim.engine ()) | None -> None
  in
  let spawn =
    match (spawn, eng) with
    | Some f, _ -> f
    | None, Some eng -> fun name f -> ignore (Sim.Engine.spawn eng name f)
    | None, None -> fun _ f -> f ()
  in
  {
    disk;
    entries = Array.make 64 dummy_entry;
    start = 0;
    len = 0;
    next_lsn = 1;
    durable = 0;
    gc = group_commit;
    eng;
    spawn;
    pend_bytes = 0;
    gen = 0;
    armed = false;
    flushing = false;
    waiters = [];
    appended_c = Sim.Stats.counter "wal.records";
    flushes_c = Sim.Stats.counter "wal.flushes";
    batch_h = Sim.Stats.hist "wal.flush_batch";
    checkpoints_c = Sim.Stats.counter "wal.checkpoints";
    truncated_c = Sim.Stats.counter "wal.truncated";
  }

let group_commit t = t.gc <> None

(* Records are charged by what they hold.  Page images on the commit
   path (redo and undo alike) arrive in the {!Ra.Page.compact}
   encoding, so a prepare of a sparse page costs a few dozen bytes,
   not 8 KB of zeros. *)
let prep_bytes p =
  64
  + List.fold_left (fun acc (_, _, img) -> acc + Ra.Page.length img) 0 p.writes
  + List.fold_left
      (fun acc (_, _, img) ->
        acc + match img with Some img -> Ra.Page.length img | None -> 0)
      0 p.undo

let record_bytes = function
  | Prepared p -> prep_bytes p
  | Committed _ | Aborted _ -> 64
  | Checkpoint active ->
      64 + List.fold_left (fun acc p -> acc + prep_bytes p) 0 active

(* --- the growable log ------------------------------------------------ *)

let push t r =
  let cap = Array.length t.entries in
  if t.start + t.len = cap then
    if t.len * 2 <= cap then begin
      (* plenty of truncated slack at the front: slide instead of grow *)
      Array.blit t.entries t.start t.entries 0 t.len;
      Array.fill t.entries t.len (cap - t.len) dummy_entry;
      t.start <- 0
    end
    else begin
      let bigger = Array.make (cap * 2) dummy_entry in
      Array.blit t.entries t.start bigger 0 t.len;
      t.entries <- bigger;
      t.start <- 0
    end;
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  t.entries.(t.start + t.len) <- { lsn; rec_ = r };
  t.len <- t.len + 1;
  Sim.Stats.incr t.appended_c;
  lsn

let records t = List.init t.len (fun i -> t.entries.(t.start + i).rec_)

(* --- the group-commit daemon ---------------------------------------- *)

let pending t = t.next_lsn - 1 - t.durable

let wake_waiters t =
  let ready, rest = List.partition (fun (l, _) -> l <= t.durable) t.waiters in
  t.waiters <- rest;
  (* reverse insertion order = arrival order: deterministic wakeups *)
  List.iter (fun (_, wake) -> ignore (wake ())) (List.rev ready)

(* One flusher at a time drains the buffer: claim everything pending,
   force it in a single sequential append (one positioning delay for
   the whole batch), publish durability, and go again if more arrived
   during the force.  Under sustained load the flushes run
   back-to-back, which also keeps the disk head parked at the log
   tail.  The incarnation check makes a flusher that survived into a
   recovered log (or whose force completed after a crash was declared)
   drop its claim instead of publishing a stale watermark. *)
let rec flush_loop t gen =
  if t.gen = gen then
    if pending t = 0 then t.flushing <- false
    else begin
      let from = t.durable in
      let upto = t.next_lsn - 1 in
      let bytes = t.pend_bytes in
      t.pend_bytes <- 0;
      Disk.append t.disk ~bytes;
      if t.gen = gen then begin
        t.durable <- upto;
        Sim.Stats.incr t.flushes_c;
        Sim.Stats.hadd t.batch_h (float_of_int (upto - from));
        wake_waiters t;
        flush_loop t gen
      end
    end

let start_flusher t =
  t.flushing <- true;
  let gen = t.gen in
  t.spawn "wal-flush" (fun () -> flush_loop t gen)

let maybe_flush t g =
  if not t.flushing then
    if pending t >= g.max_batch then start_flusher t
    else if not t.armed then begin
      t.armed <- true;
      let gen = t.gen in
      let eng = Option.get t.eng in
      Sim.Engine.at eng
        (Sim.Time.add (Sim.Engine.now eng) g.window)
        (fun () ->
          if t.gen = gen then begin
            t.armed <- false;
            if pending t > 0 && not t.flushing then start_flusher t
          end)
    end

(* --- appending ------------------------------------------------------- *)

let enqueue t r =
  let lsn = push t r in
  (match t.gc with
  | None ->
      (* no daemon: records are durable the instant they are logged
         (the caller pays the disk charge, or is an engine-context
         path that historically skipped it) *)
      t.durable <- lsn
  | Some g ->
      t.pend_bytes <- t.pend_bytes + record_bytes r;
      maybe_flush t g);
  lsn

let wait_durable t lsn =
  if t.durable < lsn then
    Sim.suspend "wal-durable" (fun wake ->
        t.waiters <- (lsn, wake) :: t.waiters)

let flushed_lsn t = t.durable

let append t r =
  match t.gc with
  | None ->
      Disk.write t.disk ~bytes:(record_bytes r);
      ignore (enqueue t r)
  | Some _ ->
      let lsn = enqueue t r in
      wait_durable t lsn

let append_nowait t r = ignore (enqueue t r)

(* --- checkpoints and truncation -------------------------------------- *)

let truncate_before t lsn =
  while t.len > 0 && t.entries.(t.start).lsn < lsn do
    t.entries.(t.start) <- dummy_entry;
    t.start <- t.start + 1;
    t.len <- t.len - 1;
    Sim.Stats.incr t.truncated_c
  done

let checkpoint t ~active =
  let lsn = enqueue t (Checkpoint active) in
  wait_durable t lsn;
  (* the checkpoint record carries everything still in doubt, so once
     it is durable the log before it is dead weight: [lsn] is the new
     low-water mark *)
  truncate_before t lsn;
  Sim.Stats.incr t.checkpoints_c;
  lsn

let truncate t =
  Sim.Stats.incr_by t.truncated_c t.len;
  Array.fill t.entries t.start t.len dummy_entry;
  t.start <- 0;
  t.len <- 0

(* --- recovery -------------------------------------------------------- *)

(* Crash semantics: the group-commit buffer is volatile memory.  Any
   record past the last completed flush died with the node, and
   because flushes publish in order the lost records are exactly a
   suffix of the log.  LSNs are never reused — a page tagged by a
   lost commit keeps a tag above the durable horizon, which is how
   the undo pass recognizes it. *)
let crash_reset t =
  match t.gc with
  | None -> ()
  | Some _ ->
      while t.len > 0 && t.entries.(t.start + t.len - 1).lsn > t.durable do
        t.entries.(t.start + t.len - 1) <- dummy_entry;
        t.len <- t.len - 1
      done;
      t.pend_bytes <- 0;
      t.gen <- t.gen + 1;
      t.armed <- false;
      t.flushing <- false;
      t.waiters <- []

let recover t store ~decide ~applied =
  crash_reset t;
  let horizon = t.durable in
  (* stable snapshot: the settle pass below appends to the live log *)
  let entries = Array.sub t.entries t.start t.len in
  (* analysis: outcomes, plus the freshest prepare image per txn —
     seeded from checkpoint records for transactions whose original
     Prepared record was truncated away *)
  let committed = Hashtbl.create 8 in
  let aborted = Hashtbl.create 8 in
  let preps = Hashtbl.create 8 in
  let order = ref [] in
  let note_prep lsn p =
    if not (Hashtbl.mem preps p.txn) then order := p.txn :: !order;
    Hashtbl.replace preps p.txn (lsn, p)
  in
  Array.iter
    (fun e ->
      match e.rec_ with
      | Committed txn ->
          if not (Hashtbl.mem committed txn) then
            Hashtbl.replace committed txn e.lsn
      | Aborted txn -> Hashtbl.replace aborted txn ()
      | Prepared p -> note_prep e.lsn p
      | Checkpoint active -> List.iter (note_prep e.lsn) active)
    entries;
  let order = List.rev !order in
  (* settle undecided prepares: ask the coordinator (decide);
     unreachable coordinators mean presumed abort *)
  List.iter
    (fun txn ->
      if (not (Hashtbl.mem committed txn)) && not (Hashtbl.mem aborted txn)
      then
        match decide txn with
        | `Commit ->
            let lsn = enqueue t (Committed txn) in
            Hashtbl.replace committed txn lsn
        | `Abort ->
            ignore (enqueue t (Aborted txn));
            Hashtbl.replace aborted txn ()
        | `Keep -> ())
    order;
  (* undo of losers: a page tagged past the durable horizon got its
     image from a commit record that never reached the disk.  The
     in-order flush makes that page's writer the only transaction
     that can be in this state (any later writer's prepare could not
     have become durable either, so it never voted, never applied),
     so restoring the loser's before-image is exact. *)
  List.iter
    (fun txn ->
      if Hashtbl.mem aborted txn then
        match Hashtbl.find_opt preps txn with
        | Some (_, p) ->
            List.iter
              (fun (seg, page, before) ->
                if
                  Segment_store.exists store seg
                  && Segment_store.page_lsn store seg page > horizon
                then
                  match before with
                  | Some b -> Segment_store.write_page store seg page b ~lsn:0
                  | None -> Segment_store.clear_page store seg page)
              p.undo
        | None -> ())
    order;
  (* redo committed prepares in log order, page-LSN guarded: a page
     already carrying the commit's tag (or a later one) is skipped,
     so replaying the log twice applies each write once *)
  List.iter
    (fun txn ->
      match (Hashtbl.find_opt committed txn, Hashtbl.find_opt preps txn) with
      | Some clsn, Some (_, p) ->
          let did = ref false in
          List.iter
            (fun (seg, page, data) ->
              if
                Segment_store.exists store seg
                && Segment_store.page_lsn store seg page < clsn
              then begin
                Segment_store.write_page store seg page data ~lsn:clsn;
                did := true
              end)
            p.writes;
          if !did then applied := txn :: !applied
      | _ -> ())
    order;
  (* survivors the caller must re-install as in-doubt *)
  List.filter_map
    (fun txn ->
      if (not (Hashtbl.mem committed txn)) && not (Hashtbl.mem aborted txn)
      then Option.map snd (Hashtbl.find_opt preps txn)
      else None)
    order

(* --- metrics --------------------------------------------------------- *)

let flushes t = Sim.Stats.value t.flushes_c
let checkpoints t = Sim.Stats.value t.checkpoints_c
let truncated t = Sim.Stats.value t.truncated_c
let records_counter t = t.appended_c
let flushes_counter t = t.flushes_c
let batch_hist t = t.batch_h
let checkpoints_counter t = t.checkpoints_c
let truncated_counter t = t.truncated_c
