(* Tests for data-server stable storage: disk timing, segment store,
   write-ahead log and directory. *)

open Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let seg_gen = Ra.Sysname.make_gen ~node:0

(* ------------------------------------------------------------------ *)
(* Disk *)

let test_disk_timing () =
  let elapsed =
    Sim.exec (fun () ->
        let cfg = { Store.Disk.seek = Time.ms 10; transfer_per_8k = Time.ms 2; rot = Time.ms 4 } in
        let d = Store.Disk.create ~config:cfg "d" in
        let t0 = Sim.now () in
        Store.Disk.write d ~bytes:8192;
        Time.diff (Sim.now ()) t0)
  in
  check_int "seek + transfer" (Time.ms 12) elapsed

let test_disk_serializes () =
  let elapsed =
    Sim.exec (fun () ->
        let cfg = { Store.Disk.seek = Time.ms 10; transfer_per_8k = Time.ms 2; rot = Time.ms 4 } in
        let d = Store.Disk.create ~config:cfg "d" in
        let done_ = Semaphore.create 0 in
        for _ = 1 to 2 do
          ignore
            (Sim.spawn "io" (fun () ->
                 Store.Disk.write d ~bytes:8192;
                 Semaphore.release done_))
        done;
        Semaphore.acquire done_;
        Semaphore.acquire done_;
        Sim.now ())
  in
  check_int "two writes serialize" (Time.ms 24) elapsed;
  ()

let test_disk_append_tail () =
  Sim.exec (fun () ->
      let cfg =
        { Store.Disk.seek = Time.ms 10; transfer_per_8k = Time.ms 2; rot = Time.ms 4 }
      in
      let d = Store.Disk.create ~config:cfg "d" in
      let time f =
        let t0 = Sim.now () in
        f ();
        Time.diff (Sim.now ()) t0
      in
      (* cold head: the first append pays a full seek to the log zone *)
      check_int "first append seeks" (Time.ms 12)
        (time (fun () -> Store.Disk.append d ~bytes:8192));
      (* head parked at the tail: the next append pays rotation only *)
      check_int "tail append skips the seek" (Time.ms 6)
        (time (fun () -> Store.Disk.append d ~bytes:8192));
      (* any read/write moves the head away again *)
      check_int "write seeks" (Time.ms 12)
        (time (fun () -> Store.Disk.write d ~bytes:8192));
      check_int "append after write seeks" (Time.ms 12)
        (time (fun () -> Store.Disk.append d ~bytes:8192));
      check_int "ops counted" 4 (Store.Disk.ops d))

(* ------------------------------------------------------------------ *)
(* Segment store *)

let test_segment_lifecycle () =
  let s = Store.Segment_store.create "s" in
  let seg = Ra.Sysname.fresh seg_gen in
  check_bool "absent" false (Store.Segment_store.exists s seg);
  Store.Segment_store.create_segment s seg ~size:(2 * Ra.Page.size);
  check_bool "present" true (Store.Segment_store.exists s seg);
  check_int "size" (2 * Ra.Page.size) (Store.Segment_store.size s seg);
  check_bool "duplicate create rejected" true
    (try
       Store.Segment_store.create_segment s seg ~size:1;
       false
     with Invalid_argument _ -> true);
  Store.Segment_store.delete_segment s seg;
  check_bool "deleted" false (Store.Segment_store.exists s seg)

let test_segment_pages () =
  let s = Store.Segment_store.create "s" in
  let seg = Ra.Sysname.fresh seg_gen in
  Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
  (match Store.Segment_store.read_page s seg 0 with
  | Ra.Partition.Zeroed -> ()
  | Ra.Partition.Data _ -> Alcotest.fail "untouched page should be zeroed");
  let page = Bytes.make Ra.Page.size 'p' in
  Store.Segment_store.write_page s seg 0 page;
  (match Store.Segment_store.read_page s seg 0 with
  | Ra.Partition.Data d ->
      check_bool "roundtrip" true (Bytes.equal d page);
      (* mutation of the returned buffer must not alias the store *)
      Bytes.set d 0 'q';
      (match Store.Segment_store.read_page s seg 0 with
      | Ra.Partition.Data d2 -> check_bool "no aliasing" true (Bytes.get d2 0 = 'p')
      | Ra.Partition.Zeroed -> Alcotest.fail "lost page")
  | Ra.Partition.Zeroed -> Alcotest.fail "wrote page");
  let missing = Ra.Sysname.fresh seg_gen in
  check_bool "missing segment raises" true
    (try
       ignore (Store.Segment_store.read_page s missing 0);
       false
     with Ra.Partition.No_segment _ -> true)

let test_local_partition () =
  Sim.exec (fun () ->
      let s = Store.Segment_store.create "s" in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      let p = Store.Segment_store.local_partition s in
      (match p.Ra.Partition.fetch ~seg ~page:0 ~mode:Ra.Partition.Read with
      | Ra.Partition.Zeroed -> ()
      | Ra.Partition.Data _ -> Alcotest.fail "expected zeroed");
      p.Ra.Partition.writeback ~seg ~page:0 (Bytes.make Ra.Page.size 'w');
      match p.Ra.Partition.fetch ~seg ~page:0 ~mode:Ra.Partition.Read with
      | Ra.Partition.Data d -> check_bool "written" true (Bytes.get d 0 = 'w')
      | Ra.Partition.Zeroed -> Alcotest.fail "expected data")

(* ------------------------------------------------------------------ *)
(* WAL *)

let page_of_char c = Bytes.make Ra.Page.size c

let test_wal_recover_committed () =
  Sim.exec (fun () ->
      let disk = Store.Disk.create "d" in
      let wal = Store.Wal.create disk in
      let s = Store.Segment_store.create "s" in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      Store.Wal.append wal
        (Store.Wal.Prepared
           { txn = (1, 1); writes = [ (seg, 0, page_of_char 'a') ]; undo = [] });
      Store.Wal.append wal (Store.Wal.Committed (1, 1));
      (* an undecided transaction, must be presumed aborted *)
      Store.Wal.append wal
        (Store.Wal.Prepared
           { txn = (1, 2); writes = [ (seg, 0, page_of_char 'b') ]; undo = [] });
      let applied = ref [] in
      let (_ : Store.Wal.prep list) =
        Store.Wal.recover wal s ~decide:(fun _ -> `Abort) ~applied
      in
      Alcotest.(check (list (pair int int))) "applied" [ (1, 1) ] !applied;
      (match Store.Segment_store.read_page s seg 0 with
      | Ra.Partition.Data d -> check_bool "committed applied" true (Bytes.get d 0 = 'a')
      | Ra.Partition.Zeroed -> Alcotest.fail "not applied");
      (* the undecided txn now has an abort marker *)
      let aborted =
        List.exists
          (function Store.Wal.Aborted (1, 2) -> true | _ -> false)
          (Store.Wal.records wal)
      in
      check_bool "presumed abort logged" true aborted)

let test_wal_costs_disk_time () =
  let elapsed =
    Sim.exec (fun () ->
        let cfg = { Store.Disk.seek = Time.ms 10; transfer_per_8k = Time.ms 2; rot = Time.ms 4 } in
        let disk = Store.Disk.create ~config:cfg "d" in
        let wal = Store.Wal.create disk in
        let t0 = Sim.now () in
        Store.Wal.append wal (Store.Wal.Committed (1, 1));
        Time.diff (Sim.now ()) t0)
  in
  check_bool "durable append costs time" true (elapsed >= Time.ms 10)

let test_wal_truncate () =
  Sim.exec (fun () ->
      let disk = Store.Disk.create "d" in
      let wal = Store.Wal.create disk in
      Store.Wal.append wal (Store.Wal.Committed (1, 1));
      Store.Wal.truncate wal;
      check_int "empty" 0 (List.length (Store.Wal.records wal)))

let test_wal_recover_twice_applies_once () =
  Sim.exec (fun () ->
      let disk = Store.Disk.create "d" in
      let wal = Store.Wal.create disk in
      let s = Store.Segment_store.create "s" in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      Store.Wal.append wal
        (Store.Wal.Prepared
           { txn = (1, 1); writes = [ (seg, 0, page_of_char 'a') ]; undo = [] });
      Store.Wal.append wal (Store.Wal.Committed (1, 1));
      let applied = ref [] in
      let (_ : Store.Wal.prep list) =
        Store.Wal.recover wal s ~decide:(fun _ -> `Abort) ~applied
      in
      Alcotest.(check (list (pair int int))) "first replay" [ (1, 1) ] !applied;
      (* the page now carries the commit's LSN, so a second replay of
         the same log must not apply (or count) anything *)
      let applied = ref [] in
      let (_ : Store.Wal.prep list) =
        Store.Wal.recover wal s ~decide:(fun _ -> `Abort) ~applied
      in
      Alcotest.(check (list (pair int int))) "second replay idle" [] !applied)

let test_wal_keep_in_doubt () =
  Sim.exec (fun () ->
      let disk = Store.Disk.create "d" in
      let wal = Store.Wal.create disk in
      let s = Store.Segment_store.create "s" in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      Store.Wal.append wal
        (Store.Wal.Prepared
           { txn = (2, 7); writes = [ (seg, 0, page_of_char 'k') ]; undo = [] });
      let applied = ref [] in
      let in_doubt =
        Store.Wal.recover wal s ~decide:(fun _ -> `Keep) ~applied
      in
      (* [`Keep]: the coordinator is alive but undecided, so the
         participant keeps its promise — nothing applied, nothing
         aborted, and the prepare comes back for re-installation *)
      Alcotest.(check (list (pair int int))) "nothing applied" [] !applied;
      (match in_doubt with
      | [ p ] ->
          check_bool "prepare survives" true (p.Store.Wal.txn = (2, 7))
      | l -> Alcotest.failf "expected one in-doubt prep, got %d" (List.length l));
      (match Store.Segment_store.read_page s seg 0 with
      | Ra.Partition.Zeroed -> ()
      | Ra.Partition.Data _ -> Alcotest.fail "in-doubt write leaked");
      check_bool "no abort marker" true
        (not
           (List.exists
              (function Store.Wal.Aborted (2, 7) -> true | _ -> false)
              (Store.Wal.records wal))))

let test_wal_group_commit_batches () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let cfg =
        { Store.Disk.seek = Time.ms 10; transfer_per_8k = Time.ms 2; rot = Time.ms 4 }
      in
      let disk = Store.Disk.create ~config:cfg "d" in
      let wal =
        Store.Wal.create
          ~group_commit:{ Store.Wal.window = Time.ms 2; max_batch = 64 }
          ~spawn:(fun name f -> ignore (Sim.Engine.spawn eng name f))
          disk
      in
      let done_ = Semaphore.create 0 in
      for i = 1 to 4 do
        ignore
          (Sim.spawn "committer" (fun () ->
               Store.Wal.append wal (Store.Wal.Committed (1, i));
               Semaphore.release done_))
      done;
      for _ = 1 to 4 do
        Semaphore.acquire done_
      done;
      (* four concurrent appends ride one group flush: a single disk
         positioning delay, all four records durable *)
      check_int "one flush" 1 (Store.Wal.flushes wal);
      check_int "one disk op" 1 (Store.Disk.ops disk);
      check_int "all durable" 4 (Store.Wal.flushed_lsn wal))

let test_wal_undo_crash_window () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let disk = Store.Disk.create "d" in
      let wal =
        Store.Wal.create
          ~group_commit:{ Store.Wal.window = Time.ms 5; max_batch = 64 }
          ~spawn:(fun name f -> ignore (Sim.Engine.spawn eng name f))
          disk
      in
      let s = Store.Segment_store.create "s" in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      (* the before-image is sparse: logged trimmed, restored padded *)
      let before = Bytes.make Ra.Page.size '\000' in
      Bytes.blit_string "old" 0 before 0 3;
      Store.Segment_store.write_page s seg 0 before;
      Store.Wal.append wal
        (Store.Wal.Prepared
           {
             txn = (1, 1);
             writes = [ (seg, 0, page_of_char 'n') ];
             undo = [ (seg, 0, Some (Ra.Page.compact before)) ];
           });
      (* pipelined commit: record in the buffer, page applied, locks
         released — then the crash beats the flush *)
      let lsn = Store.Wal.enqueue wal (Store.Wal.Committed (1, 1)) in
      Store.Segment_store.write_page s seg 0 (page_of_char 'n') ~lsn;
      let applied = ref [] in
      let (_ : Store.Wal.prep list) =
        Store.Wal.recover wal s ~decide:(fun _ -> `Abort) ~applied
      in
      (* the commit record was volatile, the coordinator says abort:
         the crash-window apply must be undone from the before-image *)
      Alcotest.(check (list (pair int int))) "nothing redone" [] !applied;
      (match Store.Segment_store.read_page s seg 0 with
      | Ra.Partition.Data d ->
          check_int "full page restored" Ra.Page.size (Bytes.length d);
          check_bool "before-image back" true
            (Bytes.sub_string d 0 3 = "old" && Bytes.get d 3 = '\000')
      | Ra.Partition.Zeroed -> Alcotest.fail "page lost");
      check_bool "abort logged" true
        (List.exists
           (function Store.Wal.Aborted (1, 1) -> true | _ -> false)
           (Store.Wal.records wal)))

let test_wal_trim_image () =
  let sparse = Bytes.make Ra.Page.size '\000' in
  Bytes.blit_string "payload" 0 sparse 0 7;
  check_int "sparse page trims to its payload" 7
    (Bytes.length (Ra.Page.compact sparse));
  check_int "all-zero page trims to nothing" 0
    (Bytes.length (Ra.Page.compact (Bytes.make Ra.Page.size '\000')));
  let full = Bytes.make Ra.Page.size 'x' in
  check_int "dense page keeps every byte" Ra.Page.size
    (Bytes.length (Ra.Page.compact full));
  let last = Bytes.make Ra.Page.size '\000' in
  Bytes.set last (Ra.Page.size - 1) 'z';
  check_int "non-zero last byte keeps the page" Ra.Page.size
    (Bytes.length (Ra.Page.compact last));
  (* a zero word between payload bytes is interior, not trailing *)
  let gap = Bytes.make Ra.Page.size '\000' in
  Bytes.set gap 0 'a';
  Bytes.set gap 21 'b';
  check_int "interior zero words stay" 22 (Bytes.length (Ra.Page.compact gap));
  check_int "ragged length, zero tail" 3
    (Bytes.length (Ra.Page.compact (Bytes.of_string "abc\000\000")));
  check_int "ragged length, dense" 11
    (Bytes.length (Ra.Page.compact (Bytes.of_string "abcdefghijk")))

(* Pages that stress the word-at-a-time scan: all-zero, a prefix of
   random bytes (about half of them zero, so whole zero words appear
   inside the payload), optionally a non-zero last byte, or dense. *)
let page_gen =
  let open QCheck.Gen in
  let sparse =
    let* len = int_bound Ra.Page.size in
    let* body = string_size ~gen:(oneof [ return '\000'; char ]) (return len) in
    let* last = bool in
    let b = Bytes.make Ra.Page.size '\000' in
    Bytes.blit_string body 0 b 0 len;
    if last then Bytes.set b (Ra.Page.size - 1) '\255';
    return b
  in
  let dense =
    map Bytes.of_string
      (string_size ~gen:(map Char.chr (int_range 1 255)) (return Ra.Page.size))
  in
  frequency
    [ (1, return (Bytes.make Ra.Page.size '\000')); (6, sparse); (1, dense) ]

let page_arb =
  QCheck.make
    ~print:(fun b ->
      Printf.sprintf "page with compact length %d"
        (Bytes.length (Ra.Page.compact b)))
    page_gen

let prop_compact_roundtrip =
  QCheck.Test.make ~name:"compact then store round-trips" ~count:200 page_arb
    (fun b ->
      let c = Ra.Page.compact b in
      let s = Store.Segment_store.create "s" in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      Store.Segment_store.write_page s seg 0 c;
      let trimmed =
        Bytes.length c = 0 || Bytes.get c (Bytes.length c - 1) <> '\000'
      in
      match Store.Segment_store.read_page s seg 0 with
      | Ra.Partition.Data d ->
          trimmed
          && Bytes.length d = Ra.Page.size
          && Bytes.equal d b
      | Ra.Partition.Zeroed -> false)

(* A loser's undo must not lose the committed image underneath it:
   the before-image the loser logged is the earlier winner's page,
   and after the undo the redo pass re-applies the winner's compact
   image, which the store expands back to exactly the page it was. *)
let test_wal_undo_then_redo_compact () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let disk = Store.Disk.create "d" in
      let wal =
        Store.Wal.create
          ~group_commit:{ Store.Wal.window = Time.ms 5; max_batch = 64 }
          ~spawn:(fun name f -> ignore (Sim.Engine.spawn eng name f))
          disk
      in
      let s = Store.Segment_store.create "s" in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      let winner = Bytes.make Ra.Page.size '\000' in
      Bytes.blit_string "acct" 0 winner 0 4;
      Bytes.set winner 1000 '\007';
      let redo = Ra.Page.compact winner in
      check_int "winner logged compact" 1001 (Bytes.length redo);
      Store.Wal.append wal
        (Store.Wal.Prepared
           { txn = (1, 1); writes = [ (seg, 0, redo) ]; undo = [] });
      let lsn = Store.Wal.enqueue wal (Store.Wal.Committed (1, 1)) in
      Store.Wal.wait_durable wal lsn;
      Store.Segment_store.write_page s seg 0 redo ~lsn;
      (* the loser prepares durably, logging the winner's page as its
         before-image; its commit record dies in the buffer *)
      let before =
        match Store.Segment_store.read_page s seg 0 with
        | Ra.Partition.Data b -> Some (Ra.Page.compact b)
        | Ra.Partition.Zeroed -> None
      in
      let loser = Ra.Page.compact (Bytes.make Ra.Page.size 'L') in
      Store.Wal.append wal
        (Store.Wal.Prepared
           {
             txn = (1, 2);
             writes = [ (seg, 0, loser) ];
             undo = [ (seg, 0, before) ];
           });
      let lsn2 = Store.Wal.enqueue wal (Store.Wal.Committed (1, 2)) in
      Store.Segment_store.write_page s seg 0 loser ~lsn:lsn2;
      let applied = ref [] in
      let (_ : Store.Wal.prep list) =
        Store.Wal.recover wal s
          ~decide:(fun txn -> if txn = (1, 2) then `Abort else `Commit)
          ~applied
      in
      Alcotest.(check (list (pair int int))) "winner redone" [ (1, 1) ] !applied;
      match Store.Segment_store.read_page s seg 0 with
      | Ra.Partition.Data d ->
          check_bool "winner's page, byte for byte" true (Bytes.equal d winner)
      | Ra.Partition.Zeroed -> Alcotest.fail "page lost")

(* A prepare record holds its images as they arrived, and the log
   disk is charged exactly that: a 64-byte header per record plus the
   compact lengths. *)
let test_wal_record_bytes_compact () =
  Sim.exec (fun () ->
      let disk = Store.Disk.create "d" in
      let wal = Store.Wal.create disk in
      let seg = Ra.Sysname.fresh seg_gen in
      let page = Bytes.make Ra.Page.size '\000' in
      Bytes.blit_string "balance" 0 page 0 7;
      let prep =
        {
          Store.Wal.txn = (1, 1);
          writes = [ (seg, 0, Ra.Page.compact page) ];
          undo = [ (seg, 0, Some (Ra.Page.compact page)); (seg, 1, None) ];
        }
      in
      let charged r =
        let c = Store.Disk.bytes_counter disk in
        let before = Sim.Stats.value c in
        Store.Wal.append wal r;
        Sim.Stats.value c - before
      in
      check_int "prepared" (64 + 7 + 7) (charged (Store.Wal.Prepared prep));
      check_int "outcome" 64 (charged (Store.Wal.Committed (1, 1)));
      check_int "checkpoint" (64 + 64 + 7 + 7)
        (charged (Store.Wal.Checkpoint [ prep ])))

(* ------------------------------------------------------------------ *)
(* Directory *)

let test_directory () =
  let d = Store.Directory.create () in
  let obj = Ra.Sysname.fresh seg_gen in
  let code = Ra.Sysname.fresh seg_gen in
  let desc =
    {
      Store.Directory.class_name = "rectangle";
      home = 1;
      entries = [ { Store.Directory.role = "code"; seg = code; size = 8192 } ];
    }
  in
  check_bool "empty" true (Store.Directory.lookup d obj = None);
  Store.Directory.register d obj desc;
  (match Store.Directory.lookup d obj with
  | Some found ->
      Alcotest.(check string) "class" "rectangle" found.Store.Directory.class_name
  | None -> Alcotest.fail "registered but not found");
  check_int "listed" 1 (List.length (Store.Directory.objects d));
  check_bool "bytes positive" true (Store.Directory.descriptor_bytes desc > 64);
  Store.Directory.remove d obj;
  check_bool "removed" true (Store.Directory.lookup d obj = None)

let () =
  Alcotest.run "store"
    [
      ( "disk",
        [
          Alcotest.test_case "timing" `Quick test_disk_timing;
          Alcotest.test_case "serializes" `Quick test_disk_serializes;
          Alcotest.test_case "append tracks the log tail" `Quick
            test_disk_append_tail;
        ] );
      ( "segments",
        [
          Alcotest.test_case "lifecycle" `Quick test_segment_lifecycle;
          Alcotest.test_case "pages" `Quick test_segment_pages;
          Alcotest.test_case "local partition" `Quick test_local_partition;
        ] );
      ( "wal",
        [
          Alcotest.test_case "recover committed only" `Quick
            test_wal_recover_committed;
          Alcotest.test_case "append costs disk time" `Quick
            test_wal_costs_disk_time;
          Alcotest.test_case "truncate" `Quick test_wal_truncate;
          Alcotest.test_case "replay is idempotent" `Quick
            test_wal_recover_twice_applies_once;
          Alcotest.test_case "keep leaves in doubt" `Quick
            test_wal_keep_in_doubt;
          Alcotest.test_case "group commit batches" `Quick
            test_wal_group_commit_batches;
          Alcotest.test_case "crash-window undo" `Quick
            test_wal_undo_crash_window;
          Alcotest.test_case "before-image trim" `Quick test_wal_trim_image;
          Alcotest.test_case "undo then compact redo" `Quick
            test_wal_undo_then_redo_compact;
          Alcotest.test_case "records charge compact bytes" `Quick
            test_wal_record_bytes_compact;
        ] );
      ( "compact",
        [
          QCheck_alcotest.to_alcotest prop_compact_roundtrip;
        ] );
      ("directory", [ Alcotest.test_case "crud" `Quick test_directory ]);
    ]
