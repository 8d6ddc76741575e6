(* Tests for consistency-preserving threads: automatic locking,
   commit/abort/recovery, isolation, deadlock breaking, and the
   s / lcp / gcp semantics of §5.2.1. *)

open Sim
open Clouds

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A bank account: balance in the first persistent data word. *)
let account =
  let get ctx = Memory.get_int ctx.Ctx.mem 0 in
  let set ctx v = Memory.set_int ctx.Ctx.mem 0 v in
  let deposit ctx arg =
    let v = get ctx in
    ctx.Ctx.compute (Time.us 200);
    set ctx (v + Value.to_int arg);
    Value.Int (v + Value.to_int arg)
  in
  Obj_class.define ~name:"account"
    [
      Obj_class.entry ~label:Obj_class.Gcp "deposit" deposit;
      Obj_class.entry ~label:Obj_class.Lcp "deposit_lcp" deposit;
      Obj_class.entry ~label:Obj_class.S "deposit_s" deposit;
      Obj_class.entry ~label:Obj_class.Gcp "balance_gcp" (fun ctx _ ->
          Value.Int (get ctx));
      Obj_class.entry ~label:Obj_class.S "balance" (fun ctx _ ->
          Value.Int (get ctx));
      Obj_class.entry ~label:Obj_class.Gcp "deposit_then_fail" (fun ctx arg ->
          set ctx (get ctx + Value.to_int arg);
          failwith "induced failure");
      (* join the ambient transaction when called from another entry *)
      Obj_class.entry ~label:Obj_class.S "add_in_txn" (fun ctx arg ->
          set ctx (get ctx + Value.to_int arg);
          Value.Unit);
      Obj_class.entry ~label:Obj_class.S "touch" (fun ctx _ ->
          set ctx (get ctx + 1);
          Value.Unit);
    ]

let transfer_cls =
  Obj_class.define ~name:"transfer"
    [
      Obj_class.entry ~label:Obj_class.Gcp "transfer" (fun ctx arg ->
          match Value.to_list arg with
          | [ from_v; to_v; amt ] ->
              let amount = Value.to_int amt in
              ignore
                (ctx.Ctx.invoke ~obj:(Value.to_sysname from_v)
                   ~entry:"add_in_txn"
                   (Value.Int (-amount)));
              ignore
                (ctx.Ctx.invoke ~obj:(Value.to_sysname to_v) ~entry:"add_in_txn"
                   (Value.Int amount));
              Value.Unit
          | _ -> invalid_arg "transfer");
      Obj_class.entry ~label:Obj_class.Gcp "transfer_fail" (fun ctx arg ->
          match Value.to_list arg with
          | [ from_v; to_v; amt ] ->
              let amount = Value.to_int amt in
              ignore
                (ctx.Ctx.invoke ~obj:(Value.to_sysname from_v)
                   ~entry:"add_in_txn"
                   (Value.Int (-amount)));
              ignore
                (ctx.Ctx.invoke ~obj:(Value.to_sysname to_v) ~entry:"add_in_txn"
                   (Value.Int amount));
              failwith "crash after both updates";
          | _ -> invalid_arg "transfer");
      Obj_class.entry ~label:Obj_class.Gcp "lock_two" (fun ctx arg ->
          let a, b = Value.to_pair arg in
          ignore (ctx.Ctx.invoke ~obj:(Value.to_sysname a) ~entry:"touch" Value.Unit);
          ctx.Ctx.compute (Time.ms 20);
          ignore (ctx.Ctx.invoke ~obj:(Value.to_sysname b) ~entry:"touch" Value.Unit);
          Value.Unit);
    ]

(* Three data pages, all stamped by one lcp entry: a Local commit
   that dirties several pages on one home.  The entry returns its
   node's completed RaTP transactions once every page is faulted in,
   so the caller can count the RPCs the commit itself sends. *)
let wide =
  Obj_class.define ~name:"wide" ~data_pages:3
    [
      Obj_class.entry ~label:Obj_class.Lcp "stamp" (fun ctx arg ->
          for p = 0 to 2 do
            Memory.set_int ctx.Ctx.mem (p * Ra.Page.size) (Value.to_int arg + p)
          done;
          Value.Int (Ratp.Endpoint.transactions ctx.Ctx.node.Ra.Node.endpoint));
    ]

type env = {
  sys : Clouds.system;
  mgr : Atomicity.Manager.t;
}

(* Fast transport so crash-related timeouts stay small. *)
let fast_ratp =
  {
    Ratp.Endpoint.default_config with
    retry_initial = Time.ms 20;
    max_attempts = 3;
  }

let with_env ?(compute = 2) ?(data = 2) ?(deadlock_timeout = Time.ms 300)
    ?(max_retries = 10) f =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng ~ratp_config:fast_ratp ~compute ~data ~workstations:1 ()
      in
      let mgr =
        Atomicity.Manager.install sys.om ~deadlock_timeout ~max_retries ()
      in
      Cluster.register_class sys.cluster account;
      Cluster.register_class sys.cluster transfer_cls;
      f { sys; mgr })

let direct env ?(node = env.sys.cluster.Cluster.compute_nodes.(0))
    ?(thread_id = 0) obj entry arg =
  Object_manager.invoke env.sys.om ~node ~thread_id ~origin:None ~txn:None ~obj
    ~entry arg

(* Read the account's balance (or the first word of another data
   page) straight from its data server's stable store (what survives
   crashes). *)
let data_segment env obj =
  let home = Ra.Sysname.Table.find env.sys.cluster.Cluster.obj_home obj in
  match Cluster.server_at env.sys.cluster home with
  | None -> Alcotest.fail "no server"
  | Some server -> (
      match Store.Directory.lookup (Dsm.Dsm_server.directory server) obj with
      | None -> Alcotest.fail "no descriptor"
      | Some desc ->
          let data_seg =
            List.find
              (fun e -> String.equal e.Store.Directory.role "data")
              desc.Store.Directory.entries
          in
          (server, data_seg.Store.Directory.seg))

let stored_balance ?(page = 0) env obj =
  let server, seg = data_segment env obj in
  match
    Store.Segment_store.read_page (Dsm.Dsm_server.store server) seg page
  with
  | Ra.Partition.Zeroed -> 0
  | Ra.Partition.Data b -> Int64.to_int (String.get_int64_le (Ra.Page.widen b :> string) 0)

(* ------------------------------------------------------------------ *)

let test_gcp_commit_is_durable () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      check_int "reply" 100 (Value.to_int (direct env acct "deposit" (Value.Int 100)));
      (* committed state reached stable storage *)
      check_int "stored" 100 (stored_balance env acct);
      check_int "one commit" 1 (Atomicity.Manager.commits env.mgr))

let test_s_thread_update_is_volatile () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let n0 = env.sys.cluster.Cluster.compute_nodes.(0) in
      check_int "reply" 50
        (Value.to_int (direct env ~node:n0 acct "deposit_s" (Value.Int 50)));
      (* no commit: stable store still has the old value *)
      check_int "store unchanged" 0 (stored_balance env acct);
      (* and a compute-server crash loses the update entirely *)
      Ra.Node.crash n0;
      let n1 = env.sys.cluster.Cluster.compute_nodes.(1) in
      check_int "lost after crash" 0
        (Value.to_int (direct env ~node:n1 acct "balance" Value.Unit)))

let test_gcp_survives_compute_crash () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let n0 = env.sys.cluster.Cluster.compute_nodes.(0) in
      ignore (direct env ~node:n0 acct "deposit" (Value.Int 70));
      Ra.Node.crash n0;
      let n1 = env.sys.cluster.Cluster.compute_nodes.(1) in
      check_int "survives" 70
        (Value.to_int (direct env ~node:n1 acct "balance" Value.Unit)))

let test_user_exception_rolls_back () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      ignore (direct env acct "deposit" (Value.Int 10));
      (try ignore (direct env acct "deposit_then_fail" (Value.Int 5))
       with Failure _ -> ());
      check_int "rolled back" 10
        (Value.to_int (direct env acct "balance" Value.Unit));
      check_int "stored rolled back" 10 (stored_balance env acct);
      check_bool "an abort happened" true (Atomicity.Manager.aborts env.mgr >= 1))

let test_multi_object_transfer_atomic () =
  with_env (fun env ->
      (* two accounts, placed on different data servers *)
      let a =
        Object_manager.create_object env.sys.om ~home:1 ~class_name:"account" Value.Unit
      in
      let b =
        Object_manager.create_object env.sys.om ~home:2 ~class_name:"account" Value.Unit
      in
      let xfer = Object_manager.create_object env.sys.om ~class_name:"transfer" Value.Unit in
      ignore (direct env a "deposit" (Value.Int 100));
      ignore
        (direct env xfer "transfer"
           (Value.List [ Value.of_sysname a; Value.of_sysname b; Value.Int 30 ]));
      check_int "debited" 70 (Value.to_int (direct env a "balance" Value.Unit));
      check_int "credited" 30 (Value.to_int (direct env b "balance" Value.Unit));
      check_int "stored debit" 70 (stored_balance env a);
      check_int "stored credit" 30 (stored_balance env b))

let test_failed_transfer_rolls_back_both () =
  with_env (fun env ->
      let a =
        Object_manager.create_object env.sys.om ~home:1 ~class_name:"account" Value.Unit
      in
      let b =
        Object_manager.create_object env.sys.om ~home:2 ~class_name:"account" Value.Unit
      in
      let xfer = Object_manager.create_object env.sys.om ~class_name:"transfer" Value.Unit in
      ignore (direct env a "deposit" (Value.Int 100));
      (try
         ignore
           (direct env xfer "transfer_fail"
              (Value.List [ Value.of_sysname a; Value.of_sysname b; Value.Int 30 ]))
       with Failure _ -> ());
      check_int "a unchanged" 100 (Value.to_int (direct env a "balance" Value.Unit));
      check_int "b unchanged" 0 (Value.to_int (direct env b "balance" Value.Unit));
      check_int "stored a" 100 (stored_balance env a);
      check_int "stored b" 0 (stored_balance env b))

let test_gcp_isolation_no_lost_updates () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let threads =
        List.init 5 (fun _ ->
            Thread.start env.sys.om ~obj:acct ~entry:"deposit" (Value.Int 1))
      in
      List.iter
        (fun th ->
          match Thread.try_join th with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "deposit thread failed: %s" (Printexc.to_string e))
        threads;
      check_int "serialized increments" 5
        (Value.to_int (direct env acct "balance" Value.Unit)))

let test_lcp_local_consistency () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let rpcs_before = Atomicity.Manager.lock_rpcs env.mgr in
      let n0 = env.sys.cluster.Cluster.compute_nodes.(0) in
      let node_addr = n0.Ra.Node.id in
      let threads =
        List.init 5 (fun _ ->
            Thread.start env.sys.om ~on:node_addr ~obj:acct ~entry:"deposit_lcp"
              (Value.Int 1))
      in
      List.iter (fun th -> ignore (Thread.join th)) threads;
      check_int "serialized on the node" 5
        (Value.to_int (direct env ~node:n0 acct "balance" Value.Unit));
      (* lcp commits reached the store without any global lock rpcs *)
      check_int "no lock rpcs" rpcs_before (Atomicity.Manager.lock_rpcs env.mgr);
      check_int "stored" 5 (stored_balance env acct))

let test_lcp_one_put_batch_per_home () =
  with_env (fun env ->
      Cluster.register_class env.sys.cluster wide;
      let obj = Object_manager.create_object env.sys.om ~class_name:"wide" Value.Unit in
      let n0 = env.sys.cluster.Cluster.compute_nodes.(0) in
      let before = Value.to_int (direct env ~node:n0 obj "stamp" (Value.Int 7)) in
      check_int "one Put_batch for three dirty pages" 1
        (Ratp.Endpoint.transactions n0.Ra.Node.endpoint - before);
      List.iter
        (fun p -> check_int "page stored" (7 + p) (stored_balance ~page:p env obj))
        [ 0; 1; 2 ])

(* An lcp commit whose home lost the segment must not report success:
   the home refuses the Put_batch, so the commit rolls back and the
   retry, faulting the page again, finds the segment gone. *)
let test_lcp_commit_to_deleted_segment_fails () =
  with_env (fun env ->
      let on_stamp = ref (fun () -> ()) in
      Cluster.register_class env.sys.cluster
        (Obj_class.define ~name:"doomed"
           [
             Obj_class.entry ~label:Obj_class.Lcp "stamp" (fun ctx arg ->
                 Memory.set_int ctx.Ctx.mem 0 (Value.to_int arg);
                 !on_stamp ();
                 Value.Unit);
           ]);
      let obj = Object_manager.create_object env.sys.om ~class_name:"doomed" Value.Unit in
      let server, seg = data_segment env obj in
      let store = Dsm.Dsm_server.store server in
      on_stamp :=
        (fun () ->
          if Store.Segment_store.exists store seg then
            Store.Segment_store.delete_segment store seg);
      let commits = Atomicity.Manager.commits env.mgr in
      let retries = Atomicity.Manager.retries env.mgr in
      let outcome =
        match direct env obj "stamp" (Value.Int 5) with
        | _ -> "committed"
        | exception Ra.Partition.No_segment _ -> "no segment"
      in
      Alcotest.(check string) "commit refused" "no segment" outcome;
      check_int "rolled back and retried once" (retries + 1)
        (Atomicity.Manager.retries env.mgr);
      check_int "no commit counted" commits (Atomicity.Manager.commits env.mgr);
      check_bool "nothing stored" false (Store.Segment_store.exists store seg))

let test_read_only_gcp_releases_locks () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      check_int "read only" 0
        (Value.to_int (direct env acct "balance_gcp" Value.Unit));
      (* if the read locks leaked, this write transaction would abort *)
      check_int "write after read-only txn" 5
        (Value.to_int (direct env acct "deposit" (Value.Int 5))))

let test_deadlock_broken_and_retried () =
  with_env (fun env ->
      let a = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let b = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let xfer = Object_manager.create_object env.sys.om ~class_name:"transfer" Value.Unit in
      let t1 =
        Thread.start env.sys.om ~obj:xfer ~entry:"lock_two"
          (Value.Pair (Value.of_sysname a, Value.of_sysname b))
      in
      let t2 =
        Thread.start env.sys.om ~obj:xfer ~entry:"lock_two"
          (Value.Pair (Value.of_sysname b, Value.of_sysname a))
      in
      ignore (Thread.join t1);
      ignore (Thread.join t2);
      (* every touch survived exactly once per committed transaction *)
      check_int "a touched twice" 2
        (Value.to_int (direct env a "balance" Value.Unit));
      check_int "b touched twice" 2
        (Value.to_int (direct env b "balance" Value.Unit));
      check_bool "the deadlock caused an abort+retry" true
        (Atomicity.Manager.retries env.mgr >= 1))

let test_abort_thread_releases_locks () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let slow =
        Obj_class.define ~name:"slow"
          [
            Obj_class.entry ~label:Obj_class.Gcp "hold" (fun ctx arg ->
                ignore
                  (ctx.Ctx.invoke ~obj:(Value.to_sysname arg) ~entry:"touch"
                     Value.Unit);
                ctx.Ctx.compute (Time.sec 30);
                Value.Unit);
          ]
      in
      Cluster.register_class env.sys.cluster slow;
      let holder = Object_manager.create_object env.sys.om ~class_name:"slow" Value.Unit in
      let th =
        Thread.start env.sys.om ~obj:holder ~entry:"hold" (Value.of_sysname acct)
      in
      Sim.sleep (Time.ms 200);
      (* the holder now has the account write-locked; its machine
         crashes, and the failure detector aborts its transactions *)
      (match Cluster.node_by_id env.sys.cluster (Thread.node th) with
      | Some n -> Ra.Node.crash n
      | None -> Alcotest.fail "holder node missing");
      Atomicity.Manager.abort_thread env.mgr ~thread_id:(Thread.id th);
      (* a new transaction on a surviving node can lock the account *)
      let survivor =
        if Thread.node th = env.sys.cluster.Cluster.compute_nodes.(0).Ra.Node.id
        then env.sys.cluster.Cluster.compute_nodes.(1)
        else env.sys.cluster.Cluster.compute_nodes.(0)
      in
      let t0 = Sim.now () in
      check_int "deposit proceeds" 1
        (Value.to_int (direct env ~node:survivor acct "deposit" (Value.Int 1)));
      check_bool "no deadlock wait" true
        (Time.diff (Sim.now ()) t0 < Time.sec 5))

let test_mixed_s_bypasses_locks () =
  (* an s-thread can read data a gcp transaction holds write-locked:
     the paper's "dangerous" interleaving is possible by design *)
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let slow =
        Obj_class.define ~name:"slow2"
          [
            Obj_class.entry ~label:Obj_class.Gcp "hold" (fun ctx arg ->
                ignore
                  (ctx.Ctx.invoke ~obj:(Value.to_sysname arg) ~entry:"add_in_txn"
                     (Value.Int 99));
                ctx.Ctx.compute (Time.ms 500);
                Value.Unit);
          ]
      in
      Cluster.register_class env.sys.cluster slow;
      let holder = Object_manager.create_object env.sys.om ~class_name:"slow2" Value.Unit in
      let th =
        Thread.start env.sys.om ~obj:holder ~entry:"hold" (Value.of_sysname acct)
      in
      Sim.sleep (Time.ms 100);
      (* gcp txn in progress; an s-thread read on another machine is
         not blocked by the write lock *)
      let other =
        if Thread.node th = env.sys.cluster.Cluster.compute_nodes.(0).Ra.Node.id
        then env.sys.cluster.Cluster.compute_nodes.(1)
        else env.sys.cluster.Cluster.compute_nodes.(0)
      in
      let t0 = Sim.now () in
      let v = Value.to_int (direct env ~node:other acct "balance" Value.Unit) in
      check_bool "s-read did not block on the write lock" true
        (Time.diff (Sim.now ()) t0 < Time.ms 400);
      (* it may even see the uncommitted 99 - that is the documented
         dangerous behaviour; just check it is one of the two values *)
      check_bool "saw either state" true (v = 0 || v = 99);
      ignore (Thread.join th))

let test_indoubt_participant_learns_commit () =
  (* the classic 2PC window: participant B crashes after voting yes
     but before the commit arrives; the coordinator decided COMMIT and
     applied at participant A.  At recovery, B must ask the
     coordinator and apply - presumed abort here would lose money. *)
  with_env (fun env ->
      let a = Apps.Bank.open_account env.sys.om ~home:1 ~balance:100 () in
      let b = Apps.Bank.open_account env.sys.om ~home:2 ~balance:0 () in
      let office = Apps.Bank.create_office env.sys.om in
      let server2 = Option.get (Cluster.server_at env.sys.cluster 2) in
      (* crash server 2 the moment its WAL shows a prepared txn *)
      let eng = Sim.engine () in
      let rec arm () =
        Engine.at eng
          (Time.add (Engine.now eng) (Time.ms 1))
          (fun () ->
            let prepared =
              List.exists
                (function Store.Wal.Prepared _ -> true | _ -> false)
                (Store.Wal.records (Dsm.Dsm_server.wal server2))
            in
            if prepared then
              (* let the yes-vote reach the coordinator, then die
                 before the commit decision arrives *)
              Engine.at eng
                (Time.add (Engine.now eng) (Time.ms 5))
                (fun () -> Ra.Node.crash (Dsm.Dsm_server.node server2))
            else arm ())
      in
      arm ();
      let th =
        Thread.start env.sys.om ~obj:office ~entry:"transfer"
          (Value.List [ Value.of_sysname a; Value.of_sysname b; Value.Int 30 ])
      in
      (* the coordinator treats the lost Commit ack as best-effort *)
      (match Thread.try_join th with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "transfer failed: %s" (Printexc.to_string e));
      check_int "A committed the debit" 70 (stored_balance env a);
      (* B recovers and resolves the in-doubt transaction *)
      Ra.Node.restart (Dsm.Dsm_server.node server2);
      Dsm.Dsm_server.recover server2;
      check_int "B applied the in-doubt credit at recovery" 30
        (stored_balance env b))

let test_money_conserved_under_random_server_crashes () =
  (* transfers against a data server that crashes and recovers at a
     random moment: whatever completes or aborts, no money is created
     or destroyed in stable storage *)
  for seed = 1 to 6 do
    Sim.exec ~seed (fun () ->
        let eng = Sim.engine () in
        let sys =
          Clouds.boot eng ~ratp_config:fast_ratp ~compute:2 ~data:2
            ~workstations:1 ()
        in
        let mgr =
          Atomicity.Manager.install sys.om ~deadlock_timeout:(Time.ms 300)
            ~max_retries:3 ()
        in
        ignore mgr;
        let env = { sys; mgr } in
        let a = Apps.Bank.open_account sys.om ~home:1 ~balance:500 () in
        let b = Apps.Bank.open_account sys.om ~home:2 ~balance:500 () in
        let office = Apps.Bank.create_office sys.om in
        let rng = Rng.split (Engine.rng eng) in
        let crash_at = Time.ms (20 + Rng.int rng 200) in
        let server2 = Option.get (Cluster.server_at sys.cluster 2) in
        Engine.at eng crash_at (fun () ->
            Ra.Node.crash (Dsm.Dsm_server.node server2));
        Engine.at eng (Time.add crash_at (Time.ms 300)) (fun () ->
            Ra.Node.restart (Dsm.Dsm_server.node server2);
            Dsm.Dsm_server.recover server2);
        let threads =
          List.init 6 (fun i ->
              let amount = 10 + (5 * i) in
              let src, dst = if i mod 2 = 0 then (a, b) else (b, a) in
              Thread.start sys.om ~obj:office ~entry:"transfer"
                (Value.List
                   [ Value.of_sysname src; Value.of_sysname dst;
                     Value.Int amount ]))
        in
        List.iter (fun th -> ignore (Thread.try_join th)) threads;
        Sim.sleep (Time.sec 2);
        let total = stored_balance env a + stored_balance env b in
        Alcotest.(check int)
          (Printf.sprintf "money conserved (seed %d)" seed)
          1000 total)
  done

let test_name_bindings_survive_compute_crash () =
  (* the name server is an object; with lcp binds its state commits
     to the data server, so naming survives losing every compute
     server's memory *)
  with_env (fun env ->
      let acct = Apps.Bank.open_account env.sys.om ~balance:1 () in
      Clouds.Name_server.bind env.sys.om ~name:"Payroll" acct;
      Array.iter Ra.Node.crash env.sys.cluster.Cluster.compute_nodes;
      Array.iter Ra.Node.restart env.sys.cluster.Cluster.compute_nodes;
      Sim.sleep (Time.ms 100);
      match Clouds.Name_server.lookup env.sys.om "Payroll" with
      | Some s -> check_bool "binding survived" true (Ra.Sysname.equal s acct)
      | None -> Alcotest.fail "binding lost with the compute servers")

let test_wal_records_commits () =
  with_env (fun env ->
      let acct =
        Object_manager.create_object env.sys.om ~home:1 ~class_name:"account" Value.Unit
      in
      ignore (direct env acct "deposit" (Value.Int 5));
      match Cluster.server_at env.sys.cluster 1 with
      | None -> Alcotest.fail "no server"
      | Some server ->
          let records = Store.Wal.records (Dsm.Dsm_server.wal server) in
          check_bool "prepare logged" true
            (List.exists
               (function Store.Wal.Prepared _ -> true | _ -> false)
               records);
          check_bool "commit logged" true
            (List.exists
               (function Store.Wal.Committed _ -> true | _ -> false)
               records))

let () =
  Alcotest.run "atomicity"
    [
      ( "durability",
        [
          Alcotest.test_case "gcp commit is durable" `Quick
            test_gcp_commit_is_durable;
          Alcotest.test_case "s update is volatile" `Quick
            test_s_thread_update_is_volatile;
          Alcotest.test_case "gcp survives compute crash" `Quick
            test_gcp_survives_compute_crash;
          Alcotest.test_case "wal records commits" `Quick
            test_wal_records_commits;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "user exception rolls back" `Quick
            test_user_exception_rolls_back;
          Alcotest.test_case "failed transfer rolls back both" `Quick
            test_failed_transfer_rolls_back_both;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "multi-object transfer" `Quick
            test_multi_object_transfer_atomic;
          Alcotest.test_case "gcp isolation" `Quick
            test_gcp_isolation_no_lost_updates;
          Alcotest.test_case "lcp local consistency" `Quick
            test_lcp_local_consistency;
          Alcotest.test_case "lcp commit sends one put_batch per home" `Quick
            test_lcp_one_put_batch_per_home;
          Alcotest.test_case "lcp commit to deleted segment fails" `Quick
            test_lcp_commit_to_deleted_segment_fails;
          Alcotest.test_case "read-only gcp releases locks" `Quick
            test_read_only_gcp_releases_locks;
        ] );
      ( "failures",
        [
          Alcotest.test_case "deadlock broken and retried" `Quick
            test_deadlock_broken_and_retried;
          Alcotest.test_case "abort_thread releases locks" `Quick
            test_abort_thread_releases_locks;
          Alcotest.test_case "s-threads bypass locks" `Quick
            test_mixed_s_bypasses_locks;
          Alcotest.test_case "in-doubt participant learns commit" `Quick
            test_indoubt_participant_learns_commit;
          Alcotest.test_case "money conserved under server crashes" `Slow
            test_money_conserved_under_random_server_crashes;
          Alcotest.test_case "name bindings survive compute crash" `Quick
            test_name_bindings_survive_compute_crash;
        ] );
    ]
