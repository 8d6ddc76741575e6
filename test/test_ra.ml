(* Tests for the Ra kernel model: sysnames, virtual spaces, CPU
   scheduling costs, and the MMU fault paths. *)

open Sim
open Ra

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sysname *)

let test_sysname_uniqueness () =
  let g = Sysname.make_gen ~node:3 in
  let a = Sysname.fresh g and b = Sysname.fresh g in
  check_bool "distinct" false (Sysname.equal a b);
  let g7 = Sysname.make_gen ~node:7 in
  let c = Sysname.fresh g7 in
  check_bool "cross-node distinct" false (Sysname.equal a c);
  check_bool "well-known stable" true
    (Sysname.equal (Sysname.well_known 4) (Sysname.well_known 4))

let test_sysname_table () =
  let g = Sysname.make_gen ~node:1 in
  let tbl = Sysname.Table.create 4 in
  let a = Sysname.fresh g in
  Sysname.Table.replace tbl a 42;
  Alcotest.(check (option int)) "found" (Some 42) (Sysname.Table.find_opt tbl a);
  let b = Sysname.fresh g in
  Alcotest.(check (option int)) "absent" None (Sysname.Table.find_opt tbl b)

let prop_sysname_all_distinct =
  QCheck.Test.make ~name:"generated sysnames pairwise distinct" ~count:50
    QCheck.(int_range 1 200)
    (fun n ->
      let g = Sysname.make_gen ~node:9 in
      let names = List.init n (fun _ -> Sysname.fresh g) in
      let tbl = Sysname.Table.create n in
      List.for_all
        (fun s ->
          if Sysname.Table.mem tbl s then false
          else begin
            Sysname.Table.replace tbl s ();
            true
          end)
        names)

(* ------------------------------------------------------------------ *)
(* Page *)

let test_page_math () =
  check_int "size" 8192 Page.size;
  check_int "index 0" 0 (Page.index_of 100);
  check_int "index 1" 1 (Page.index_of 8192);
  check_int "count empty" 1 (Page.count_for 0);
  check_int "count exact" 1 (Page.count_for 8192);
  check_int "count spill" 2 (Page.count_for 8193)

(* The image conversions: [trim] and [widen] return the image itself
   when it already has the asked-for form, [to_frame] zero-pads into
   a fresh frame, and every copying conversion is a snapshot. *)
let test_page_images () =
  let frame = Bytes.make Page.size '\000' in
  Bytes.blit_string "abc" 0 frame 0 3;
  let full = Page.of_bytes frame and small = Page.compact frame in
  check_int "full length" Page.size (Page.length full);
  check_int "compact length" 3 (Page.length small);
  Bytes.set frame 0 'X';
  Alcotest.(check string) "compact is a snapshot" "abc" (small :> string);
  check_bool "full is a snapshot" true ((full :> string).[0] = 'a');
  check_bool "trim of a compact image is itself" true (Page.trim small == small);
  Alcotest.(check string) "trim of a full image" "abc" (Page.trim full :> string);
  check_bool "widen of a full image is itself" true (Page.widen full == full);
  check_bool "widen pads" true (Page.widen small = full);
  let f = Page.to_frame small in
  check_int "frame is a full page" Page.size (Bytes.length f);
  check_bool "frame holds the image" true (Bytes.to_string f = (full :> string));
  Bytes.set f 1 'Y';
  Alcotest.(check string) "frame writes stay in the frame" "abc" (small :> string)

(* ------------------------------------------------------------------ *)
(* Virtual space *)

let seg_gen = Sysname.make_gen ~node:0

let test_vspace_map_translate () =
  let vs = Virtual_space.create () in
  let s1 = Sysname.fresh seg_gen and s2 = Sysname.fresh seg_gen in
  Virtual_space.map vs ~base:0 ~len:(2 * Page.size) ~prot:Virtual_space.Read_only s1;
  (* a hole, then s2 *)
  Virtual_space.map vs ~base:(4 * Page.size) ~len:Page.size
    ~prot:Virtual_space.Read_write s2;
  (match Virtual_space.translate vs 100 with
  | Some (m, off) ->
      check_bool "s1" true (Sysname.equal m.Virtual_space.seg s1);
      check_int "offset" 100 off
  | None -> Alcotest.fail "unmapped");
  (match Virtual_space.translate vs ((4 * Page.size) + 7) with
  | Some (m, off) ->
      check_bool "s2" true (Sysname.equal m.Virtual_space.seg s2);
      check_int "offset in s2" 7 off
  | None -> Alcotest.fail "unmapped");
  check_bool "hole" true (Virtual_space.translate vs (3 * Page.size) = None);
  check_int "segments" 2 (List.length (Virtual_space.segments vs))

let test_vspace_seg_off () =
  let vs = Virtual_space.create () in
  let s = Sysname.fresh seg_gen in
  Virtual_space.map vs ~base:Page.size ~len:Page.size ~seg_off:(2 * Page.size)
    ~prot:Virtual_space.Read_write s;
  match Virtual_space.translate vs (Page.size + 5) with
  | Some (_, off) -> check_int "window offset" ((2 * Page.size) + 5) off
  | None -> Alcotest.fail "unmapped"

let test_vspace_overlap_rejected () =
  let vs = Virtual_space.create () in
  let s = Sysname.fresh seg_gen in
  Virtual_space.map vs ~base:0 ~len:(2 * Page.size) ~prot:Virtual_space.Read_write s;
  let raised =
    try
      Virtual_space.map vs ~base:Page.size ~len:Page.size
        ~prot:Virtual_space.Read_write s;
      false
    with Invalid_argument _ -> true
  in
  check_bool "overlap rejected" true raised;
  let misaligned =
    try
      Virtual_space.map vs ~base:(3 * Page.size) ~len:100
        ~prot:Virtual_space.Read_write s;
      false
    with Invalid_argument _ -> true
  in
  check_bool "misaligned rejected" true misaligned

let test_vspace_unmap () =
  let vs = Virtual_space.create () in
  let s = Sysname.fresh seg_gen in
  Virtual_space.map vs ~base:0 ~len:Page.size ~prot:Virtual_space.Read_write s;
  Virtual_space.unmap vs ~base:0;
  check_bool "gone" true (Virtual_space.translate vs 0 = None);
  check_bool "unmap missing raises" true
    (try
       Virtual_space.unmap vs ~base:0;
       false
     with Not_found -> true)

let prop_vspace_translate_consistent =
  QCheck.Test.make ~name:"translate agrees with mapping arithmetic" ~count:100
    QCheck.(pair (int_range 0 20) (int_range 0 200_000))
    (fun (npages_minus, probe) ->
      let vs = Virtual_space.create () in
      let s = Sysname.fresh seg_gen in
      let npages = 1 + npages_minus in
      Virtual_space.map vs ~base:Page.size ~len:(npages * Page.size)
        ~prot:Virtual_space.Read_write s;
      match Virtual_space.translate vs probe with
      | Some (_, off) ->
          probe >= Page.size
          && probe < Page.size + (npages * Page.size)
          && off = probe - Page.size
      | None -> probe < Page.size || probe >= Page.size + (npages * Page.size))

(* ------------------------------------------------------------------ *)
(* CPU *)

let test_cpu_context_switch_accounting () =
  let switches, elapsed =
    Sim.exec (fun () ->
        let cpu = Cpu.create ~context_switch:(Time.us 140) () in
        (* entity 1 runs twice in a row: one switch total (cold start);
           then entity 2: second switch *)
        Cpu.consume cpu ~key:1 (Time.us 100);
        Cpu.consume cpu ~key:1 (Time.us 100);
        Cpu.consume cpu ~key:2 (Time.us 100);
        (Cpu.switches cpu, Sim.now ()))
  in
  check_int "two switches" 2 switches;
  check_int "time = 3 work + 2 cs" (Time.us (300 + 280)) elapsed

let test_cpu_serializes () =
  let elapsed =
    Sim.exec (fun () ->
        let cpu = Cpu.create ~context_switch:0 () in
        let done_ = Semaphore.create 0 in
        for i = 1 to 3 do
          ignore
            (Sim.spawn (Printf.sprintf "w%d" i) (fun () ->
                 Cpu.consume cpu ~key:i (Time.ms 1);
                 Semaphore.release done_))
        done;
        for _ = 1 to 3 do
          Semaphore.acquire done_
        done;
        Sim.now ())
  in
  check_int "three 1ms jobs serialize" (Time.ms 3) elapsed

(* ------------------------------------------------------------------ *)
(* MMU *)

(* A fake partition over an in-memory page table, counting fetches.
   Like the segment store, it hands out its images without copying. *)
let fake_partition () =
  let pages : (Sysname.t * int, Page.image) Hashtbl.t = Hashtbl.create 16 in
  let fetches = ref 0 in
  let partition =
    {
      Partition.name = "fake";
      fetch =
        (fun ~seg ~page ~mode:_ ->
          incr fetches;
          match Hashtbl.find_opt pages (seg, page) with
          | Some img -> Partition.Data img
          | None -> Partition.Zeroed);
      writeback = (fun ~seg ~page img -> Hashtbl.replace pages (seg, page) img);
    }
  in
  (partition, pages, fetches)

let with_mmu f =
  Sim.exec (fun () ->
      let params = Params.default in
      let cpu = Cpu.create ~context_switch:params.Params.context_switch () in
      let mmu = Mmu.create ~params ~cpu () in
      let partition, pages, fetches = fake_partition () in
      Mmu.set_resolver mmu (fun _ -> partition);
      let vs = Virtual_space.create () in
      let seg = Sysname.fresh seg_gen in
      Virtual_space.map vs ~base:0 ~len:(4 * Page.size)
        ~prot:Virtual_space.Read_write seg;
      (* absorb the cold-start context switch so fault timing is pure *)
      Cpu.consume cpu ~key:(Sim.self ()) 0;
      f mmu vs seg pages fetches)

let test_mmu_zero_fill_fault_cost () =
  let elapsed =
    with_mmu (fun mmu vs _seg _pages _fetches ->
        let t0 = Sim.now () in
        let b = Mmu.read mmu vs ~addr:0 ~len:8 in
        check_bool "zeroed" true (Bytes.for_all (fun c -> c = '\000') b);
        Time.diff (Sim.now ()) t0)
  in
  (* paper: 1.5 ms for a zero-filled 8K page *)
  check_int "fault_trap + zero_fill" (Time.us 1500) elapsed

let test_mmu_data_fault_cost () =
  let elapsed =
    with_mmu (fun mmu vs seg pages _fetches ->
        Hashtbl.replace pages (seg, 0) (Page.of_bytes (Bytes.make Page.size 'x'));
        let t0 = Sim.now () in
        let b = Mmu.read mmu vs ~addr:0 ~len:4 in
        Alcotest.(check string) "data" "xxxx" (Bytes.to_string b);
        Time.diff (Sim.now ()) t0)
  in
  (* paper: 0.629 ms for a non-zero-filled 8K page *)
  check_int "fault_trap + copy" (Time.us 629) elapsed

let test_mmu_resident_access_free () =
  let second =
    with_mmu (fun mmu vs _seg _pages _fetches ->
        ignore (Mmu.read mmu vs ~addr:0 ~len:8);
        let t0 = Sim.now () in
        ignore (Mmu.read mmu vs ~addr:16 ~len:8);
        Time.diff (Sim.now ()) t0)
  in
  check_int "no cost once resident" 0 second

let test_mmu_read_your_writes () =
  with_mmu (fun mmu vs _seg _pages _fetches ->
      Mmu.write mmu vs ~addr:100 (Bytes.of_string "hello");
      let b = Mmu.read mmu vs ~addr:100 ~len:5 in
      Alcotest.(check string) "readback" "hello" (Bytes.to_string b))

let test_mmu_cross_page_access () =
  with_mmu (fun mmu vs _seg _pages fetches ->
      let data = Bytes.make 100 'z' in
      Mmu.write mmu vs ~addr:(Page.size - 50) data;
      check_int "two pages faulted" 2 !fetches;
      let b = Mmu.read mmu vs ~addr:(Page.size - 50) ~len:100 in
      Alcotest.(check string) "spans boundary" (Bytes.to_string data)
        (Bytes.to_string b))

let test_mmu_write_marks_dirty_and_upgrade () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      ignore (Mmu.read mmu vs ~addr:0 ~len:1);
      check_bool "read mode" true (Mmu.resident mmu seg 0 = Some Partition.Read);
      check_int "no dirty yet" 0 (List.length (Mmu.dirty_pages mmu seg ~compact:false));
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "a");
      check_bool "write mode" true (Mmu.resident mmu seg 0 = Some Partition.Write);
      check_int "one upgrade" 1 (Mmu.upgrades mmu);
      check_int "dirty" 1 (List.length (Mmu.dirty_pages mmu seg ~compact:false)))

let test_mmu_segv_and_protection () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      let segv =
        try
          ignore (Mmu.read mmu vs ~addr:(10 * Page.size) ~len:1);
          false
        with Mmu.Segv _ -> true
      in
      check_bool "segv on hole" true segv;
      let ro = Virtual_space.create () in
      Virtual_space.map ro ~base:0 ~len:Page.size ~prot:Virtual_space.Read_only
        seg;
      let prot =
        try
          Mmu.write mmu ro ~addr:0 (Bytes.of_string "x");
          false
        with Mmu.Write_protect _ -> true
      in
      check_bool "write protect" true prot)

let test_mmu_invalidate_returns_dirty () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "dirty!");
      (match Mmu.invalidate mmu seg 0 with
      | Some data ->
          Alcotest.(check string) "dirty data" "dirty!"
            (String.sub (data :> string) 0 6)
      | None -> Alcotest.fail "expected dirty data");
      check_bool "frame gone" true (Mmu.resident mmu seg 0 = None);
      (* clean frame invalidation returns nothing *)
      ignore (Mmu.read mmu vs ~addr:0 ~len:1);
      check_bool "clean invalidate" true (Mmu.invalidate mmu seg 0 = None))

let test_mmu_downgrade () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "w");
      (match Mmu.downgrade mmu seg 0 with
      | Some _ -> ()
      | None -> Alcotest.fail "dirty page should surface");
      check_bool "now read mode" true
        (Mmu.resident mmu seg 0 = Some Partition.Read);
      check_int "no longer dirty" 0 (List.length (Mmu.dirty_pages mmu seg ~compact:false)))

let test_mmu_concurrent_faults_single_fetch () =
  with_mmu (fun mmu vs _seg _pages fetches ->
      let done_ = Semaphore.create 0 in
      for _ = 1 to 3 do
        ignore
          (Sim.spawn "reader" (fun () ->
               ignore (Mmu.read mmu vs ~addr:0 ~len:1);
               Semaphore.release done_))
      done;
      for _ = 1 to 3 do
        Semaphore.acquire done_
      done;
      check_int "one partition fetch" 1 !fetches)

let test_mmu_clear_drops_everything () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "gone");
      Mmu.clear mmu;
      check_bool "not resident" true (Mmu.resident mmu seg 0 = None);
      check_int "dirty lost (crash semantics)" 0
        (List.length (Mmu.dirty_pages mmu seg ~compact:false)))

let with_small_mmu ~max_frames f =
  Sim.exec (fun () ->
      let params = Params.default in
      let cpu = Cpu.create ~context_switch:params.Params.context_switch () in
      let mmu = Mmu.create ~max_frames ~params ~cpu () in
      let partition, pages, fetches = fake_partition () in
      Mmu.set_resolver mmu (fun _ -> partition);
      let vs = Virtual_space.create () in
      let seg = Sysname.fresh seg_gen in
      Virtual_space.map vs ~base:0 ~len:(8 * Page.size)
        ~prot:Virtual_space.Read_write seg;
      Cpu.consume cpu ~key:(Sim.self ()) 0;
      f mmu vs seg pages fetches)

let test_mmu_eviction_lru () =
  with_small_mmu ~max_frames:3 (fun mmu vs seg _pages fetches ->
      (* fill the three frames: pages 0,1,2 *)
      for p = 0 to 2 do
        ignore (Mmu.read mmu vs ~addr:(p * Page.size) ~len:1)
      done;
      check_int "three resident" 3 (Mmu.resident_frames mmu);
      (* reuse page 0 so page 1 becomes the LRU, then fault page 3 *)
      ignore (Mmu.read mmu vs ~addr:0 ~len:1);
      ignore (Mmu.read mmu vs ~addr:(3 * Page.size) ~len:1);
      check_int "still three resident" 3 (Mmu.resident_frames mmu);
      check_int "one eviction" 1 (Mmu.evictions mmu);
      check_bool "page 1 (lru) evicted" true (Mmu.resident mmu seg 1 = None);
      check_bool "page 0 kept" true (Mmu.resident mmu seg 0 <> None);
      (* the evicted page refetches on demand *)
      let before = !fetches in
      ignore (Mmu.read mmu vs ~addr:Page.size ~len:1);
      check_int "refetched" (before + 1) !fetches)

let test_mmu_eviction_writes_back_dirty () =
  with_small_mmu ~max_frames:2 (fun mmu vs seg pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "persist-me");
      ignore (Mmu.read mmu vs ~addr:Page.size ~len:1);
      ignore (Mmu.read mmu vs ~addr:(2 * Page.size) ~len:1);
      (* page 0 was dirty and LRU: its bytes must be in the partition *)
      check_bool "dirty page written back" true
        (match Hashtbl.find_opt pages (seg, 0) with
        | Some img -> String.starts_with ~prefix:"persist-me" (img :> string)
        | None -> false);
      (* and reading it again returns the written data *)
      Alcotest.(check string)
        "roundtrip after eviction" "persist-me"
        (Bytes.to_string (Mmu.read mmu vs ~addr:0 ~len:10)))

(* Drive a node well past its frame budget with a mix of clean and
   dirty frames: every dirty victim must reach the partition, clean
   victims must not trigger writebacks, and the eviction counter must
   account for every displaced frame. *)
let test_mmu_eviction_mixed_clean_dirty () =
  with_small_mmu ~max_frames:4 (fun mmu vs seg pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "dirty-0");
      Mmu.write mmu vs ~addr:Page.size (Bytes.of_string "dirty-1");
      ignore (Mmu.read mmu vs ~addr:(2 * Page.size) ~len:1);
      ignore (Mmu.read mmu vs ~addr:(3 * Page.size) ~len:1);
      check_int "at budget, no evictions yet" 0 (Mmu.evictions mmu);
      (* pages 4..7 displace 0..3 in LRU order *)
      for p = 4 to 7 do
        ignore (Mmu.read mmu vs ~addr:(p * Page.size) ~len:1)
      done;
      check_int "every displaced frame counted" 4 (Mmu.evictions mmu);
      check_int "still at the frame budget" 4 (Mmu.resident_frames mmu);
      for p = 0 to 3 do
        check_bool
          (Printf.sprintf "page %d evicted" p)
          true
          (Mmu.resident mmu seg p = None)
      done;
      (* dirty victims were written back, not dropped *)
      let stored p want =
        match Hashtbl.find_opt pages (seg, p) with
        | Some img -> String.starts_with ~prefix:want (img :> string)
        | None -> false
      in
      check_bool "dirty page 0 written back" true (stored 0 "dirty-0");
      check_bool "dirty page 1 written back" true (stored 1 "dirty-1");
      (* clean victims never touched the partition *)
      check_bool "clean page 2 not written back" true
        (Hashtbl.find_opt pages (seg, 2) = None);
      check_bool "clean page 3 not written back" true
        (Hashtbl.find_opt pages (seg, 3) = None);
      (* the written-back data survives a refetch *)
      Alcotest.(check string)
        "roundtrip after eviction" "dirty-0"
        (Bytes.to_string (Mmu.read mmu vs ~addr:0 ~len:7)))

let test_mmu_install_read () =
  with_small_mmu ~max_frames:2 (fun mmu vs seg _pages fetches ->
      let img = Page.of_bytes (Bytes.make Page.size 'p') in
      check_bool "installs into a free frame" true
        (Mmu.install_read mmu seg 0 img = Mmu.Installed);
      check_bool "resident read-mode" true
        (Mmu.resident mmu seg 0 = Some Partition.Read);
      check_int "one prefetch" 1 (Mmu.prefetches mmu);
      (* a resident page declines as Retained: the copy (and its
         copyset registration) stays live *)
      check_bool "no second install on a resident page" true
        (Mmu.install_read mmu seg 0 img = Mmu.Retained);
      (* the installed copy serves reads without any fetch *)
      Alcotest.(check string)
        "contents visible" "pppp"
        (Bytes.to_string (Mmu.read mmu vs ~addr:0 ~len:4));
      check_int "no fetch issued" 0 !fetches;
      check_bool "clean, not dirty" true (Mmu.dirty_pages mmu seg ~compact:false = []);
      (* at the frame budget, speculation must not evict *)
      ignore (Mmu.read mmu vs ~addr:Page.size ~len:1);
      check_int "budget full" 2 (Mmu.resident_frames mmu);
      (* the budget decline keeps nothing, so the caller must release
         its registration *)
      check_bool "install refused at budget" true
        (Mmu.install_read mmu seg 2 img = Mmu.No_copy);
      check_int "nothing evicted for speculation" 0 (Mmu.evictions mmu))

(* Page images leave a frame as snapshots and enter one as copies:
   after [dirty_pages], an eviction writeback or a fetch, writing to
   the frame must not reach the image the partition holds. *)
let test_mmu_dirty_pages_snapshot () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "first");
      let full = Mmu.dirty_pages mmu seg ~compact:false in
      let small = Mmu.dirty_pages mmu seg ~compact:true in
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "later");
      (match (full, small) with
      | [ (0, f) ], [ (0, c) ] ->
          check_int "full image" Page.size (Page.length f);
          check_bool "full image unchanged" true
            (String.starts_with ~prefix:"first" (f :> string));
          Alcotest.(check string) "compact image unchanged" "first" (c :> string)
      | _ -> Alcotest.fail "expected one dirty page"))

let test_mmu_fetch_installs_copy () =
  with_mmu (fun mmu vs seg pages _fetches ->
      let stored = Page.of_bytes (Bytes.make Page.size 's') in
      Hashtbl.replace pages (seg, 0) stored;
      Hashtbl.replace pages (seg, 1) (Page.compact (Bytes.of_string "tiny"));
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "frame");
      Alcotest.(check string) "store image untouched" (String.make Page.size 's')
        (stored :> string);
      (* a compact image installs zero-padded to a full frame *)
      Alcotest.(check string) "compact image padded" "tiny\000\000"
        (Bytes.to_string (Mmu.read mmu vs ~addr:Page.size ~len:6));
      Mmu.write mmu vs ~addr:(Page.size + 4) (Bytes.of_string "!");
      match Hashtbl.find_opt pages (seg, 1) with
      | Some img -> Alcotest.(check string) "compact image untouched" "tiny" (img :> string)
      | None -> Alcotest.fail "page 1 vanished")

(* A read fault shares the image (for a never-written page, the zero
   page itself); the write that follows must fault in a private copy
   and leave the shared image alone. *)
let test_mmu_read_frames_shared () =
  with_mmu (fun mmu vs seg pages _fetches ->
      let stored = Page.of_bytes (Bytes.make Page.size 'r') in
      Hashtbl.replace pages (seg, 0) stored;
      ignore (Mmu.read mmu vs ~addr:0 ~len:1);
      ignore (Mmu.read mmu vs ~addr:Page.size ~len:1);
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "w0");
      Mmu.write mmu vs ~addr:Page.size (Bytes.of_string "w1");
      Alcotest.(check string) "read-shared image untouched"
        (String.make Page.size 'r') (stored :> string);
      check_bool "zero page untouched" true
        (String.for_all (fun c -> c = '\000') (Page.zero :> string));
      Alcotest.(check string) "another zero page reads zeros" "\000\000"
        (Bytes.to_string (Mmu.read mmu vs ~addr:(2 * Page.size) ~len:2));
      Alcotest.(check string) "writes visible" "w0w1"
        (Bytes.to_string (Mmu.read mmu vs ~addr:0 ~len:2)
        ^ Bytes.to_string (Mmu.read mmu vs ~addr:Page.size ~len:2)))

let test_mmu_writeback_handover () =
  with_small_mmu ~max_frames:1 (fun mmu vs seg pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "evicted");
      ignore (Mmu.read mmu vs ~addr:Page.size ~len:1);
      let stored () =
        match Hashtbl.find_opt pages (seg, 0) with
        | Some img -> String.sub (img :> string) 0 7
        | None -> "<none>"
      in
      Alcotest.(check string) "written back" "evicted" (stored ());
      (* fault it back and overwrite: the stored image stays put *)
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "changed");
      Alcotest.(check string) "store keeps the writeback" "evicted" (stored ());
      (* the same holds for an invalidation's hand-over *)
      match Mmu.invalidate mmu seg 0 with
      | None -> Alcotest.fail "expected dirty data"
      | Some img ->
          Mmu.write mmu vs ~addr:0 (Bytes.of_string "again!!");
          Alcotest.(check string) "invalidated image unchanged" "changed"
            (String.sub (img :> string) 0 7))

(* ------------------------------------------------------------------ *)
(* Node and isiba *)

let test_node_crash_kills_processes () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let node = Node.create ether ~id:5 ~kind:Node.Compute () in
      let ran = ref false in
      let _isiba =
        Isiba.spawn node ~stack:Isiba.User "worker" (fun () ->
            Sim.sleep (Time.ms 100);
            ran := true)
      in
      Sim.sleep (Time.ms 1);
      Node.crash node;
      Sim.sleep (Time.ms 200);
      check_bool "worker died with node" false !ran;
      check_bool "node marked dead" false node.Node.alive)

let test_isiba_compute_charges_cpu () =
  let elapsed =
    Sim.exec (fun () ->
        let eng = Sim.engine () in
        let ether = Net.Ethernet.create eng () in
        let node = Node.create ether ~id:6 ~kind:Node.Compute () in
        let t0 = Sim.now () in
        Isiba.compute node (Time.ms 2);
        Time.diff (Sim.now ()) t0)
  in
  (* 2ms work + cold context switch *)
  check_int "work plus switch" (Time.ms 2 + Time.us 140) elapsed

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ra"
    [
      ( "sysname",
        [
          Alcotest.test_case "uniqueness" `Quick test_sysname_uniqueness;
          Alcotest.test_case "table" `Quick test_sysname_table;
        ] );
      qsuite "sysname-props" [ prop_sysname_all_distinct ];
      ( "page",
        [
          Alcotest.test_case "math" `Quick test_page_math;
          Alcotest.test_case "image conversions" `Quick test_page_images;
        ] );
      ( "vspace",
        [
          Alcotest.test_case "map and translate" `Quick
            test_vspace_map_translate;
          Alcotest.test_case "segment offset windows" `Quick
            test_vspace_seg_off;
          Alcotest.test_case "overlap and alignment" `Quick
            test_vspace_overlap_rejected;
          Alcotest.test_case "unmap" `Quick test_vspace_unmap;
        ] );
      qsuite "vspace-props" [ prop_vspace_translate_consistent ];
      ( "cpu",
        [
          Alcotest.test_case "context switch accounting" `Quick
            test_cpu_context_switch_accounting;
          Alcotest.test_case "serializes" `Quick test_cpu_serializes;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "zero-fill fault cost (paper 1.5ms)" `Quick
            test_mmu_zero_fill_fault_cost;
          Alcotest.test_case "data fault cost (paper 0.629ms)" `Quick
            test_mmu_data_fault_cost;
          Alcotest.test_case "resident access free" `Quick
            test_mmu_resident_access_free;
          Alcotest.test_case "read your writes" `Quick
            test_mmu_read_your_writes;
          Alcotest.test_case "cross-page access" `Quick
            test_mmu_cross_page_access;
          Alcotest.test_case "dirty and upgrade" `Quick
            test_mmu_write_marks_dirty_and_upgrade;
          Alcotest.test_case "segv and protection" `Quick
            test_mmu_segv_and_protection;
          Alcotest.test_case "invalidate returns dirty" `Quick
            test_mmu_invalidate_returns_dirty;
          Alcotest.test_case "downgrade" `Quick test_mmu_downgrade;
          Alcotest.test_case "concurrent faults fetch once" `Quick
            test_mmu_concurrent_faults_single_fetch;
          Alcotest.test_case "clear drops everything" `Quick
            test_mmu_clear_drops_everything;
          Alcotest.test_case "lru eviction" `Quick test_mmu_eviction_lru;
          Alcotest.test_case "eviction writes back dirty" `Quick
            test_mmu_eviction_writes_back_dirty;
          Alcotest.test_case "eviction mixed clean/dirty" `Quick
            test_mmu_eviction_mixed_clean_dirty;
          Alcotest.test_case "install_read prefetch copies" `Quick
            test_mmu_install_read;
          Alcotest.test_case "dirty_pages images are snapshots" `Quick
            test_mmu_dirty_pages_snapshot;
          Alcotest.test_case "fetch installs a copy" `Quick
            test_mmu_fetch_installs_copy;
          Alcotest.test_case "writeback hands the frame over" `Quick
            test_mmu_writeback_handover;
          Alcotest.test_case "read frames share, writes copy" `Quick
            test_mmu_read_frames_shared;
        ] );
      ( "node",
        [
          Alcotest.test_case "crash kills processes" `Quick
            test_node_crash_kills_processes;
          Alcotest.test_case "isiba compute charges cpu" `Quick
            test_isiba_compute_charges_cpu;
        ] );
    ]
