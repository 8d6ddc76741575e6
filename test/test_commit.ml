(* Acceptance tests for the group-commit / ARIES WAL pipeline:
   the A/B throughput ratio, the kill-mid-commit recovery scenario,
   and seed determinism of both. *)

module C = Experiments.Commit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The headline acceptance: the same write-heavy 64-session load,
   identical durability (acks only after the commit record is on
   disk), must sustain at least 5x the commits per second with the
   group-commit daemon on. *)
let test_group_commit_speedup () =
  match C.run () with
  | [ off; on ] ->
      check_bool "off arm forces each record" true (off.C.wal_flushes = 0);
      check_bool "on arm batches" true (on.C.mean_batch > 2.0);
      check_int "same commits off" (64 * 12) off.C.committed;
      check_int "same commits on" (64 * 12) on.C.committed;
      let ratio = on.C.throughput /. off.C.throughput in
      if ratio < 5.0 then
        Alcotest.failf
          "group commit speedup %.2fx < 5x (off %.0f/s, on %.0f/s)" ratio
          off.C.throughput on.C.throughput
  | points -> Alcotest.failf "expected 2 smoke cells, got %d" (List.length points)

(* On a lossless network every RaTP retransmission is a reply that
   outlived the retry timer.  With compact page images a group flush
   moves a few KB, so no prepare or commit waits long enough at the
   log disk to draw a probe; full 8 KB redo images made the 5 ms cell
   transfer-bound and drew 1,520 of them. *)
let test_group_commit_no_retransmissions () =
  match List.filter (fun c -> c.C.window <> None) C.smoke_cells with
  | [ cell ] ->
      let p = C.run_cell cell in
      check_int "all commits measured" (64 * 12) p.C.committed;
      check_int "ratp/retrans" 0 p.C.retrans
  | cells ->
      Alcotest.failf "expected 1 windowed smoke cell, got %d"
        (List.length cells)

(* Kill a data server mid-workload (after at least one fuzzy
   checkpoint has truncated the log), restart it through ARIES
   replay: every acknowledged commit survives, nothing unacknowledged
   materializes. *)
let test_crash_recovery () =
  let o = C.run_crash () in
  if o.C.violations <> [] then
    Alcotest.failf "crash recovery violated invariants: %s"
      (String.concat "; " o.C.violations);
  check_int "no committed write lost" 0 o.C.lost;
  check_int "no ghost write" 0 o.C.ghosts;
  check_bool "a fuzzy checkpoint was cut" true (o.C.checkpoints >= 1);
  check_bool "the log was truncated" true (o.C.log_truncated >= 1);
  check_int "every session finished" (o.C.sessions * o.C.deposits_per_session)
    o.C.acked

let test_crash_recovery_deterministic () =
  let a = C.run_crash ~seed:7 () in
  let b = C.run_crash ~seed:7 () in
  Alcotest.(check string)
    "same seed, same outcome" (C.crash_summary a) (C.crash_summary b)

(* A prepare that only a checkpoint remembers: the participant votes
   yes, a fuzzy checkpoint truncates the Prepared record away, and
   the node crashes before the decision.  Recovery must re-install
   the transaction (still in doubt, still compact) from the
   checkpoint, and the late Commit must land the full page. *)
let test_in_doubt_from_checkpoint () =
  let module P = Dsm.Protocol in
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let nd = Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data () in
      let server =
        Dsm.Dsm_server.create nd ~group_commit_window:(Sim.Time.ms 1)
          ~checkpoint_every:(Sim.Time.ms 20) ()
      in
      Dsm.Dsm_server.set_outcome_oracle server (fun _ -> `Pending);
      let n1 = Ra.Node.create ether ~id:2 ~kind:Ra.Node.Compute () in
      let store = Dsm.Dsm_server.store server in
      let seg = Ra.Sysname.fresh nd.Ra.Node.names in
      Store.Segment_store.create_segment store seg ~size:Ra.Page.size;
      let rpc body =
        Ratp.Endpoint.call n1.Ra.Node.endpoint ~dst:nd.Ra.Node.id
          ~service:P.service ~size:(P.request_bytes body) body
      in
      let page = Bytes.make Ra.Page.size '\000' in
      Bytes.blit_string "in-doubt" 0 page 0 8;
      Bytes.set page 5000 '!';
      let txn = { P.tnode = 2; tseq = 1 } in
      (match
         rpc (P.Prepare { txn; writes = [ (seg, 0, Ra.Page.compact page) ] })
       with
      | Ok (P.Vote true) -> ()
      | Ok _ | Error _ -> Alcotest.fail "prepare failed");
      Sim.sleep (Sim.Time.ms 100);
      let records = Store.Wal.records (Dsm.Dsm_server.wal server) in
      check_bool "Prepared record truncated" false
        (List.exists
           (function Store.Wal.Prepared _ -> true | _ -> false)
           records);
      check_bool "checkpoint carries the compact prepare" true
        (List.exists
           (function
             | Store.Wal.Checkpoint [ { txn = 2, 1; writes = [ (_, 0, w) ]; _ } ]
               ->
                 Bytes.length w = 5001
             | _ -> false)
           records);
      Ra.Node.crash nd;
      Sim.sleep (Sim.Time.ms 100);
      Ra.Node.restart nd;
      Dsm.Dsm_server.recover server;
      (match Store.Segment_store.read_page store seg 0 with
      | Ra.Partition.Zeroed -> ()
      | Ra.Partition.Data _ -> Alcotest.fail "in-doubt write applied early");
      (match rpc (P.Commit { txn }) with
      | Ok P.Txn_done -> ()
      | Ok _ | Error _ -> Alcotest.fail "commit failed");
      match Store.Segment_store.read_page store seg 0 with
      | Ra.Partition.Data d ->
          check_int "full page" Ra.Page.size (Bytes.length d);
          check_bool "committed image, byte for byte" true (Bytes.equal d page)
      | Ra.Partition.Zeroed -> Alcotest.fail "re-installed commit lost")

let () =
  Alcotest.run "commit"
    [
      ( "pipeline",
        [
          Alcotest.test_case "group commit >= 5x" `Quick
            test_group_commit_speedup;
          Alcotest.test_case "lossless w5 cell: no retransmissions" `Quick
            test_group_commit_no_retransmissions;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "kill mid-commit" `Quick test_crash_recovery;
          Alcotest.test_case "deterministic" `Quick
            test_crash_recovery_deterministic;
          Alcotest.test_case "in-doubt prepare from a checkpoint" `Quick
            test_in_doubt_from_checkpoint;
        ] );
    ]
