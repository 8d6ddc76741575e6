(* Unit and property tests for the discrete-event simulation engine. *)

open Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_units () =
  check_int "us" 1_000 (Time.us 1);
  check_int "ms" 1_000_000 (Time.ms 1);
  check_int "sec" 1_000_000_000 (Time.sec 1);
  check_int "of_ms_f" 1_500_000 (Time.of_ms_f 1.5);
  check_int "of_us_f" 2_500 (Time.of_us_f 2.5);
  Alcotest.(check (float 1e-9)) "to_ms_f" 1.5 (Time.to_ms_f (Time.of_ms_f 1.5));
  check_int "add" 30 (Time.add 10 20);
  check_int "diff" 15 (Time.diff 25 10)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_basic () =
  let h = Heap.create ~cmp:Int.compare in
  check_bool "empty" true (Heap.is_empty h);
  Heap.push h 5;
  Heap.push h 1;
  Heap.push h 3;
  check_int "length" 3 (Heap.length h);
  Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop1" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop2" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "pop3" (Some 5) (Heap.pop h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap correct under interleaved push/pop" ~count:200
    QCheck.(list (option int))
    (fun ops ->
      let h = Heap.create ~cmp:Int.compare in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
              Heap.push h x;
              model := List.sort Int.compare (x :: !model);
              true
          | None -> (
              match (Heap.pop h, !model) with
              | None, [] -> true
              | Some x, m :: rest ->
                  model := rest;
                  x = m
              | None, _ :: _ | Some _, [] -> false))
        ops)

(* Popped elements must become unreachable: the event queue holds
   closures, and a pop that leaves a stale reference in the backing
   array pins every captured value until the slot happens to be
   overwritten.  Weak pointers observe collection directly. *)
(* The pops live in [@inline never] helpers so the popped element is
   not kept reachable by a stack slot of the test function itself
   when the Gc runs. *)
let[@inline never] heap_pop_expecting h want =
  match Heap.pop h with
  | Some (k, _) when k = want -> ()
  | Some (k, _) -> Alcotest.failf "popped %d, want %d" k want
  | None -> Alcotest.fail "empty heap"

let[@inline never] heap_drain h =
  while not (Heap.is_empty h) do
    ignore (Heap.pop h)
  done

let[@inline never] heap_fill h weak n tag =
  for k = 0 to n - 1 do
    let elt = (k, Bytes.make 64 tag) in
    Weak.set weak k (Some elt);
    Heap.push h elt
  done

let test_heap_pop_releases () =
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) in
  let n = 8 in
  let weak = Weak.create n in
  heap_fill h weak n 'x';
  let alive () =
    let count = ref 0 in
    for k = 0 to n - 1 do
      if Weak.check weak k then incr count
    done;
    !count
  in
  (* pop the minimum: it must be collectable while the rest live *)
  heap_pop_expecting h 0;
  Gc.full_major ();
  check_int "only the popped element was collected" (n - 1) (alive ());
  (* drain: every element must be collectable once the heap is empty *)
  heap_drain h;
  Gc.full_major ();
  check_int "all collected after drain" 0 (alive ());
  (* same through clear *)
  heap_fill h weak n 'y';
  Heap.clear h;
  Gc.full_major ();
  check_int "all collected after clear" 0 (alive ())

(* ------------------------------------------------------------------ *)
(* Engine basics *)

let test_clock_advances () =
  let result =
    Sim.exec (fun () ->
        let t0 = Sim.now () in
        Sim.sleep (Time.ms 5);
        let t1 = Sim.now () in
        Time.diff t1 t0)
  in
  check_int "slept 5ms" (Time.ms 5) result

let test_spawn_ordering () =
  let order = ref [] in
  let eng = Engine.create () in
  let _ =
    Engine.spawn eng "a" (fun () -> order := "a" :: !order)
  in
  let _ =
    Engine.spawn eng "b" (fun () -> order := "b" :: !order)
  in
  Engine.run eng;
  Alcotest.(check (list string)) "spawn order preserved" [ "a"; "b" ]
    (List.rev !order)

let test_same_instant_fifo () =
  (* Events scheduled at the same instant run in scheduling order. *)
  let order = ref [] in
  let eng = Engine.create () in
  Engine.at eng (Time.ms 1) (fun () -> order := 1 :: !order);
  Engine.at eng (Time.ms 1) (fun () -> order := 2 :: !order);
  Engine.at eng (Time.ms 1) (fun () -> order := 3 :: !order);
  Engine.run eng;
  Alcotest.(check (list int)) "fifo at same time" [ 1; 2; 3 ] (List.rev !order)

let test_run_until () =
  let fired = ref false in
  let eng = Engine.create () in
  Engine.at eng (Time.ms 10) (fun () -> fired := true);
  Engine.run ~until:(Time.ms 5) eng;
  check_bool "not yet fired" false !fired;
  check_int "clock stopped at until" (Time.ms 5) (Engine.now eng);
  Engine.run eng;
  check_bool "fired later" true !fired

let test_determinism () =
  let trace seed =
    let log = ref [] in
    let eng = Engine.create ~seed () in
    for i = 1 to 5 do
      let delay = Time.us (Rng.int (Engine.rng eng) 1000) in
      Engine.at eng delay (fun () -> log := (i, delay) :: !log)
    done;
    Engine.run eng;
    !log
  in
  Alcotest.(check bool) "same seed, same trace" true (trace 7 = trace 7);
  Alcotest.(check bool)
    "different seed, different trace" true
    (trace 7 <> trace 8)

let test_nested_spawn_and_self () =
  let result =
    Sim.exec (fun () ->
        let child_pid = Ivar.create () in
        let p =
          Sim.spawn "child" (fun () -> Ivar.fill child_pid (Sim.self ()))
        in
        let reported = Ivar.read child_pid in
        (p, reported))
  in
  check_bool "self matches spawn pid" true (fst result = snd result)

let test_exec_deadlock_detected () =
  let deadlocks =
    try
      Sim.exec (fun () ->
          let (iv : unit Ivar.t) = Ivar.create () in
          Ivar.read iv);
      false
    with Failure _ -> true
  in
  check_bool "deadlock raises" true deadlocks

let test_run_until_never_rewinds () =
  let eng = Engine.create () in
  Engine.at eng (Time.ms 20) ignore;
  Engine.at eng (Time.ms 30) ignore;
  Engine.run ~until:(Time.ms 25) eng;
  check_int "clock at 25ms" (Time.ms 25) (Engine.now eng);
  Engine.run ~until:(Time.ms 5) eng;
  check_int "an until already passed keeps the clock" (Time.ms 25)
    (Engine.now eng);
  let ran_at = ref Time.zero in
  Engine.at eng (Time.ms 6) (fun () -> ran_at := Engine.now eng);
  Engine.run eng;
  check_int "a past instant runs now, not in the past" (Time.ms 25) !ran_at;
  check_int "then the 30ms event" (Time.ms 30) (Engine.now eng)

(* The engine keeps events more than one 2^26 ns epoch ahead in a far
   tier of per-epoch buckets; these tests cross those boundaries. *)
let epoch_ns = 1 lsl 26

let test_run_until_across_far_bucket () =
  let eng = Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now eng) :: !log in
  Engine.at eng (Time.ms 1) (note "1ms");
  Engine.at eng (Time.sec 2) (note "2s");
  Engine.at eng (Time.sec 2 + 1) (note "2s+1ns");
  Engine.at eng (Time.sec 5) (note "5s");
  Engine.run ~until:(Time.sec 1) eng;
  check_int "stopped at 1s" (Time.sec 1) (Engine.now eng);
  check_int "only the near event ran" 1 (List.length !log);
  Engine.at eng (Time.ms 1010) (note "1.01s");
  Engine.run ~until:(Time.sec 3) eng;
  check_int "stopped at 3s" (Time.sec 3) (Engine.now eng);
  Engine.at eng (Time.ms 3001) (note "3.001s");
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "resumed in time order"
    [
      ("1ms", Time.ms 1);
      ("1.01s", Time.ms 1010);
      ("2s", Time.sec 2);
      ("2s+1ns", Time.sec 2 + 1);
      ("3.001s", Time.ms 3001);
      ("5s", Time.sec 5);
    ]
    (List.rev !log)

let test_pending_counts_far () =
  let eng = Engine.create () in
  Engine.at eng (Time.ms 1) ignore;
  Engine.at eng (Time.sec 10) ignore;
  Engine.at eng (Time.sec 60) ignore;
  Engine.at eng (Time.sec 60) ignore;
  check_int "near and far" 4 (Engine.pending eng);
  check_bool "stepped" true (Engine.step eng);
  check_int "after the near event" 3 (Engine.pending eng);
  Engine.run ~until:(Time.sec 30) eng;
  check_int "the 60s bucket" 2 (Engine.pending eng);
  Engine.run eng;
  check_int "drained" 0 (Engine.pending eng)

(* [Sched (d, kids)] is an event [d] after the instant it was
   scheduled at, which schedules [kids] when it runs. *)
type sched = Sched of Time.span * sched list

let rec pp_sched fmt (Sched (d, kids)) =
  Format.fprintf fmt "%d[%a]" d
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_sched)
    kids

let gen_delay =
  QCheck.Gen.(
    frequency
      [
        (3, int_bound (Time.sec 120));
        (* ties just before, on and just after the first bucket edges *)
        ( 3,
          map2
            (fun k d -> max 0 ((k * epoch_ns) + d))
            (int_bound 3) (int_range (-1) 1) );
        (1, return 0);
      ])

let rec gen_sched depth =
  QCheck.Gen.(
    if depth = 0 then map (fun d -> Sched (d, [])) gen_delay
    else
      map2
        (fun d kids -> Sched (d, kids))
        gen_delay
        (list_size (int_bound 3) (gen_sched (depth - 1))))

type node = { id : int; delay : Time.span; kids : node list }

let number roots =
  let next = ref 0 in
  let rec go (Sched (delay, kids)) =
    incr next;
    let id = !next in
    { id; delay; kids = List.map go kids }
  in
  List.map go roots

(* The reference order: a list kept stably sorted by time, so
   same-instant events stay in the order they were scheduled. *)
let model_order roots =
  let rec insert ((t, _) as e) = function
    | ((t', _) as x) :: rest when t' <= t -> x :: insert e rest
    | q -> e :: q
  in
  let rec go q log =
    match q with
    | [] -> List.rev log
    | (t, n) :: rest ->
        let q =
          List.fold_left (fun q k -> insert (t + k.delay, k) q) rest n.kids
        in
        go q ((n.id, t) :: log)
  in
  go (List.fold_left (fun q r -> insert (r.delay, r) q) [] roots) []

let engine_order drive roots =
  let eng = Engine.create () in
  let log = ref [] in
  let rec sched base n =
    Engine.at eng (base + n.delay) (fun () ->
        let now = Engine.now eng in
        log := (n.id, now) :: !log;
        List.iter (sched now) n.kids)
  in
  List.iter (sched Time.zero) roots;
  drive eng;
  List.rev !log

let prop_engine_order =
  QCheck.Test.make ~name:"events run in stable (time, schedule) order"
    ~count:200
    (QCheck.make
       ~print:(Format.asprintf "%a" (Format.pp_print_list pp_sched))
       QCheck.Gen.(list_size (int_range 1 30) (gen_sched 2)))
    (fun roots ->
      let roots = number roots in
      let expected = model_order roots in
      let by_run = engine_order (fun eng -> Engine.run eng) roots in
      let by_step =
        engine_order
          (fun eng ->
            while Engine.step eng do
              ()
            done)
          roots
      in
      let by_slices =
        engine_order
          (fun eng ->
            for i = 1 to 50 do
              Engine.run ~until:(i * Time.ms 4900) eng
            done;
            Engine.run eng)
          roots
      in
      by_run = expected && by_step = expected && by_slices = expected)

(* ------------------------------------------------------------------ *)
(* Kill *)

let test_kill_sleeping () =
  let eng = Engine.create () in
  let woke = ref false in
  let pid =
    Engine.spawn eng "sleeper" (fun () ->
        Sim.sleep (Time.sec 10);
        woke := true)
  in
  Engine.at eng (Time.ms 1) (fun () -> Engine.kill eng pid);
  Engine.run eng;
  check_bool "never woke" false !woke;
  check_bool "not alive" false (Engine.alive eng pid);
  check_int "killed promptly, clock did not run to 10s" (Time.ms 1)
    (Engine.now eng)

let test_kill_far_sleeper_keeps_clock () =
  (* The killed sleeper's 10s timer waits in a far bucket with a live
     event; pouring that bucket drops it without moving the clock. *)
  let eng = Engine.create () in
  let pid = Engine.spawn eng "sleeper" (fun () -> Sim.sleep (Time.sec 10)) in
  Engine.at eng (Time.ms 1) (fun () -> Engine.kill eng pid);
  Engine.at eng (Time.sec 10 + 1) ignore;
  let clocks = ref [] in
  while Engine.step eng do
    clocks := Engine.now eng :: !clocks
  done;
  check_bool "clock never at the dead timer" false
    (List.mem (Time.sec 10) !clocks);
  check_int "ends at the live event" (Time.sec 10 + 1) (Engine.now eng);
  check_int "nothing left" 0 (Engine.pending eng)

let test_kill_group () =
  let eng = Engine.create () in
  let survivors = ref [] in
  let mk group name =
    Engine.spawn eng ~group name (fun () ->
        Sim.sleep (Time.ms 10);
        survivors := name :: !survivors)
  in
  let _a = mk 1 "a" and _b = mk 1 "b" and _c = mk 2 "c" in
  Engine.at eng (Time.ms 1) (fun () -> Engine.kill_group eng 1);
  Engine.run eng;
  Alcotest.(check (list string)) "only group 2 survives" [ "c" ] !survivors

let test_spawn_inherits_group () =
  let eng = Engine.create () in
  let child_ran = ref false in
  let _parent =
    Engine.spawn eng ~group:9 "parent" (fun () ->
        let _ =
          Sim.spawn "child" (fun () ->
              Sim.sleep (Time.ms 10);
              child_ran := true)
        in
        ())
  in
  Engine.at eng (Time.ms 1) (fun () -> Engine.kill_group eng 9);
  Engine.run eng;
  check_bool "child inherited group and was killed" false !child_ran

let test_killed_not_resumed_by_waker () =
  (* A waker arriving after kill must not resurrect the process. *)
  let eng = Engine.create () in
  let resumed = ref false in
  let iv = Ivar.create () in
  let pid =
    Engine.spawn eng "reader" (fun () ->
        let () = Ivar.read iv in
        resumed := true)
  in
  Engine.at eng (Time.ms 1) (fun () -> Engine.kill eng pid);
  Engine.at eng (Time.ms 2) (fun () -> Ivar.fill iv ());
  Engine.run eng;
  check_bool "not resumed" false !resumed

let test_mutex_handoff_skips_dead_waiter () =
  (* A holds the mutex; B queues then dies; when A unlocks, the lock
     must not be stranded on the dead B — C gets it. *)
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let m = Mutex.create () in
      Mutex.lock m;
      let b =
        Engine.spawn eng "b" (fun () ->
            Mutex.lock m;
            Alcotest.fail "dead waiter must not get the lock")
      in
      let c_got = ref false in
      let _c =
        Engine.spawn eng "c" (fun () ->
            Mutex.lock m;
            c_got := true;
            Mutex.unlock m)
      in
      Sim.sleep (Time.ms 1);
      Engine.kill eng b;
      Sim.sleep (Time.ms 1);
      Mutex.unlock m;
      Sim.sleep (Time.ms 1);
      check_bool "c acquired after dead b skipped" true !c_got;
      check_bool "free afterwards" false (Mutex.locked m))

let test_semaphore_release_skips_dead_waiter () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let s = Semaphore.create 0 in
      let b = Engine.spawn eng "b" (fun () -> Semaphore.acquire s) in
      Sim.sleep (Time.ms 1);
      Engine.kill eng b;
      Sim.sleep (Time.ms 1);
      Semaphore.release s;
      (* the dead waiter must not swallow the count *)
      check_int "count restored" 1 (Semaphore.count s))

let test_rwlock_grant_skips_dead_waiter () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let l = Rwlock.create () in
      Rwlock.lock_write l;
      let b = Engine.spawn eng "b" (fun () -> Rwlock.lock_write l) in
      let c_got = ref false in
      let _c =
        Engine.spawn eng "c" (fun () ->
            Rwlock.lock_read l;
            c_got := true)
      in
      Sim.sleep (Time.ms 1);
      Engine.kill eng b;
      Rwlock.unlock_write l;
      Sim.sleep (Time.ms 1);
      check_bool "reader granted past dead writer" true !c_got)

let test_on_terminate () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let log = ref [] in
      (* normal completion *)
      let a = Engine.spawn eng "a" (fun () -> Sim.sleep (Time.ms 1)) in
      Engine.on_terminate eng a (fun () -> log := "a" :: !log);
      (* killed *)
      let b = Engine.spawn eng "b" (fun () -> Sim.sleep (Time.sec 10)) in
      Engine.on_terminate eng b (fun () -> log := "b" :: !log);
      Sim.sleep (Time.ms 2);
      check_bool "a reported" true (List.mem "a" !log);
      check_bool "b not yet" false (List.mem "b" !log);
      Engine.kill eng b;
      Sim.sleep (Time.ms 1);
      check_bool "b reported after kill" true (List.mem "b" !log);
      (* already-finished process: callback runs immediately *)
      Engine.on_terminate eng a (fun () -> log := "late" :: !log);
      check_bool "late callback immediate" true (List.mem "late" !log))

(* ------------------------------------------------------------------ *)
(* Ivar *)

let test_ivar_fill_then_read () =
  let v =
    Sim.exec (fun () ->
        let iv = Ivar.create () in
        Ivar.fill iv 42;
        Ivar.read iv)
  in
  check_int "read full" 42 v

let test_ivar_read_blocks () =
  let v =
    Sim.exec (fun () ->
        let iv = Ivar.create () in
        let _ =
          Sim.spawn "filler" (fun () ->
              Sim.sleep (Time.ms 3);
              Ivar.fill iv 7)
        in
        let x = Ivar.read iv in
        (x, Sim.now ()))
  in
  check_int "value" 7 (fst v);
  check_int "waited 3ms" (Time.ms 3) (snd v)

let test_ivar_multiple_readers () =
  let total =
    Sim.exec (fun () ->
        let iv = Ivar.create () in
        let acc = ref 0 in
        let done_ = Semaphore.create 0 in
        for _ = 1 to 3 do
          ignore
            (Sim.spawn "reader" (fun () ->
                 acc := !acc + Ivar.read iv;
                 Semaphore.release done_))
        done;
        Sim.sleep (Time.ms 1);
        Ivar.fill iv 5;
        for _ = 1 to 3 do
          Semaphore.acquire done_
        done;
        !acc)
  in
  check_int "all readers woken" 15 total

let test_ivar_double_fill () =
  let raised =
    Sim.exec (fun () ->
        let iv = Ivar.create () in
        Ivar.fill iv 1;
        check_bool "try_fill on full" false (Ivar.try_fill iv 2);
        try
          Ivar.fill iv 3;
          false
        with Invalid_argument _ -> true)
  in
  check_bool "double fill raises" true raised

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let received =
    Sim.exec (fun () ->
        let mb = Mailbox.create "mb" in
        Mailbox.send mb 1;
        Mailbox.send mb 2;
        Mailbox.send mb 3;
        let a = Mailbox.recv mb in
        let b = Mailbox.recv mb in
        let c = Mailbox.recv mb in
        [ a; b; c ])
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] received

let test_mailbox_blocking_recv () =
  let v =
    Sim.exec (fun () ->
        let mb = Mailbox.create "mb" in
        let _ =
          Sim.spawn "sender" (fun () ->
              Sim.sleep (Time.ms 2);
              Mailbox.send mb 99)
        in
        Mailbox.recv mb)
  in
  check_int "received" 99 v

let test_mailbox_timeout_expires () =
  let r =
    Sim.exec (fun () ->
        let mb : int Mailbox.t = Mailbox.create "mb" in
        let v = Mailbox.recv_timeout mb (Time.ms 5) in
        (v, Sim.now ()))
  in
  Alcotest.(check (option int)) "timed out" None (fst r);
  check_int "waited exactly timeout" (Time.ms 5) (snd r)

let test_mailbox_timeout_delivers () =
  let r =
    Sim.exec (fun () ->
        let mb = Mailbox.create "mb" in
        let _ =
          Sim.spawn "sender" (fun () ->
              Sim.sleep (Time.ms 2);
              Mailbox.send mb 1)
        in
        Mailbox.recv_timeout mb (Time.ms 5))
  in
  Alcotest.(check (option int)) "delivered" (Some 1) r

let test_mailbox_answered_deadline_never_runs () =
  (* A value that beats the deadline cancels it: the run ends at the
     send, not 10 s later at a deadline that would do nothing. *)
  let eng = Engine.create () in
  let got = ref None in
  let mb = Mailbox.create "mb" in
  ignore
    (Engine.spawn eng "receiver" (fun () ->
         got := Mailbox.recv_timeout mb (Time.sec 10)));
  ignore
    (Engine.spawn eng "sender" (fun () ->
         Sim.sleep (Time.ms 1);
         Mailbox.send mb 7));
  Engine.run eng;
  Alcotest.(check (option int)) "delivered" (Some 7) !got;
  check_int "deadline never ran" (Time.ms 1) (Engine.now eng);
  check_int "nothing left queued" 0 (Engine.pending eng)

let test_mailbox_value_not_lost_on_timeout () =
  (* If the receiver times out, a later send must stay in the queue. *)
  let r =
    Sim.exec (fun () ->
        let mb = Mailbox.create "mb" in
        let first = Mailbox.recv_timeout mb (Time.ms 1) in
        Mailbox.send mb 8;
        let second = Mailbox.try_recv mb in
        (first, second))
  in
  Alcotest.(check (option int)) "timed out first" None (fst r);
  Alcotest.(check (option int)) "value kept" (Some 8) (snd r)

let test_mailbox_waiters_bounded () =
  (* Regression: a timed-out receiver used to leave its waiter queued
     forever, so a poll loop grew the queue without bound. *)
  let max_seen, after, late =
    Sim.exec (fun () ->
        let mb = Mailbox.create "mb" in
        let max_seen = ref 0 in
        for _ = 1 to 50 do
          assert (Mailbox.recv_timeout mb (Time.us 100) = None);
          max_seen := max !max_seen (Mailbox.waiters mb)
        done;
        let after = Mailbox.waiters mb in
        (* A fresh receiver must still get woken by a send: the purge
           must only discard dead waiters, never live ones. *)
        let got = ref None in
        ignore
          (Sim.spawn "late" (fun () -> got := Some (Mailbox.recv mb)));
        Sim.yield ();
        Mailbox.send mb 99;
        Sim.sleep (Time.us 1);
        (!max_seen, after, !got))
  in
  Alcotest.(check bool) "queue stays bounded" true (max_seen <= 1);
  check_int "no waiters after timeouts" 0 after;
  Alcotest.(check (option int)) "live receiver still served" (Some 99) late

let test_mailbox_receivers_fifo () =
  let order =
    Sim.exec (fun () ->
        let mb = Mailbox.create "mb" in
        let log = ref [] in
        let done_ = Semaphore.create 0 in
        let reader name =
          ignore
            (Sim.spawn name (fun () ->
                 let v = Mailbox.recv mb in
                 log := (name, v) :: !log;
                 Semaphore.release done_))
        in
        reader "r1";
        Sim.yield ();
        reader "r2";
        Sim.sleep (Time.ms 1);
        Mailbox.send mb 10;
        Mailbox.send mb 20;
        Semaphore.acquire done_;
        Semaphore.acquire done_;
        List.rev !log)
  in
  Alcotest.(check (list (pair string int)))
    "receivers served in arrival order"
    [ ("r1", 10); ("r2", 20) ]
    order

(* ------------------------------------------------------------------ *)
(* Semaphore / Mutex *)

let test_semaphore_counts () =
  Sim.exec (fun () ->
      let s = Semaphore.create 2 in
      Semaphore.acquire s;
      Semaphore.acquire s;
      check_int "exhausted" 0 (Semaphore.count s);
      check_bool "try fails at zero" false (Semaphore.try_acquire s);
      Semaphore.release s;
      check_bool "try succeeds" true (Semaphore.try_acquire s))

let test_semaphore_blocks_and_wakes () =
  let waited =
    Sim.exec (fun () ->
        let s = Semaphore.create 0 in
        let _ =
          Sim.spawn "releaser" (fun () ->
              Sim.sleep (Time.ms 4);
              Semaphore.release s)
        in
        Semaphore.acquire s;
        Sim.now ())
  in
  check_int "woken at release time" (Time.ms 4) waited

let test_mutex_mutual_exclusion () =
  let max_inside =
    Sim.exec (fun () ->
        let m = Mutex.create () in
        let inside = ref 0 in
        let peak = ref 0 in
        let done_ = Semaphore.create 0 in
        for i = 1 to 4 do
          ignore
            (Sim.spawn (Printf.sprintf "p%d" i) (fun () ->
                 Mutex.with_lock m (fun () ->
                     incr inside;
                     peak := max !peak !inside;
                     Sim.sleep (Time.ms 1);
                     decr inside);
                 Semaphore.release done_))
        done;
        for _ = 1 to 4 do
          Semaphore.acquire done_
        done;
        !peak)
  in
  check_int "never two holders" 1 max_inside

let test_mutex_exception_releases () =
  Sim.exec (fun () ->
      let m = Mutex.create () in
      (try Mutex.with_lock m (fun () -> failwith "boom")
       with Failure _ -> ());
      check_bool "released after exception" false (Mutex.locked m))

(* ------------------------------------------------------------------ *)
(* Rwlock *)

let test_rwlock_shared_readers () =
  Sim.exec (fun () ->
      let l = Rwlock.create () in
      Rwlock.lock_read l;
      Rwlock.lock_read l;
      (match Rwlock.holders l with
      | `Readers 2 -> ()
      | _ -> Alcotest.fail "expected two readers");
      check_bool "writer blocked" false (Rwlock.try_lock_write l);
      Rwlock.unlock_read l;
      Rwlock.unlock_read l;
      check_bool "writer acquires when free" true (Rwlock.try_lock_write l))

let test_rwlock_writer_excludes () =
  Sim.exec (fun () ->
      let l = Rwlock.create () in
      Rwlock.lock_write l;
      check_bool "no second writer" false (Rwlock.try_lock_write l);
      check_bool "no reader under writer" false (Rwlock.try_lock_read l);
      Rwlock.unlock_write l)

let test_rwlock_fifo_no_starvation () =
  (* reader holds; writer queues; a later reader must wait behind the
     writer (FIFO), so the writer is not starved. *)
  let order =
    Sim.exec (fun () ->
        let l = Rwlock.create () in
        let log = ref [] in
        let done_ = Semaphore.create 0 in
        Rwlock.lock_read l;
        ignore
          (Sim.spawn "writer" (fun () ->
               Rwlock.lock_write l;
               log := "w" :: !log;
               Rwlock.unlock_write l;
               Semaphore.release done_));
        Sim.yield ();
        ignore
          (Sim.spawn "late-reader" (fun () ->
               Rwlock.lock_read l;
               log := "r" :: !log;
               Rwlock.unlock_read l;
               Semaphore.release done_));
        Sim.sleep (Time.ms 1);
        Rwlock.unlock_read l;
        Semaphore.acquire done_;
        Semaphore.acquire done_;
        List.rev !log)
  in
  Alcotest.(check (list string)) "writer before late reader" [ "w"; "r" ] order

let prop_rwlock_invariant =
  (* Under random operations, never a writer with readers or two
     writers. *)
  QCheck.Test.make ~name:"rwlock safety under random schedules" ~count:60
    QCheck.(pair small_nat (small_list (pair bool small_nat)))
    (fun (seed, plan) ->
      let violation = ref false in
      let ignore_pid (_ : Engine.pid) = () in
      (try
         Sim.exec ~seed (fun () ->
             let l = Rwlock.create () in
             let readers = ref 0 in
             let writers = ref 0 in
             let live = ref (List.length plan) in
             let done_ = Semaphore.create 0 in
             let check () =
               if !writers > 1 || (!writers = 1 && !readers > 0) then
                 violation := true
             in
             List.iter
               (fun (is_writer, delay) ->
                 ignore_pid
                   (Sim.spawn "op" (fun () ->
                        Sim.sleep (Time.us delay);
                        if is_writer then begin
                          Rwlock.lock_write l;
                          incr writers;
                          check ();
                          Sim.sleep (Time.us 10);
                          decr writers;
                          Rwlock.unlock_write l
                        end
                        else begin
                          Rwlock.lock_read l;
                          incr readers;
                          check ();
                          Sim.sleep (Time.us 10);
                          decr readers;
                          Rwlock.unlock_read l
                        end;
                        Semaphore.release done_)))
               plan;
             for _ = 1 to !live do
               Semaphore.acquire done_
             done)
       with Failure _ -> ());
      not !violation)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_summary () =
  let s = Stats.series "t" in
  List.iter (Stats.add s) [ 4.0; 1.0; 3.0; 2.0 ];
  check_int "n" 4 (Stats.n s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_v s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max_v s);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "p50" 2.5 (Stats.percentile s 50.0)

let test_stats_empty_series () =
  (* An empty series must summarise to finite values: [infinity] /
     [neg_infinity] leak into reports as invalid JSON. *)
  let s = Stats.series "empty" in
  check_int "n" 0 (Stats.n s);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Stats.mean s);
  Alcotest.(check (float 0.0)) "min" 0.0 (Stats.min_v s);
  Alcotest.(check (float 0.0)) "max" 0.0 (Stats.max_v s)

let test_stats_empty_percentile () =
  (* regression: percentile on an empty series used to index into a
     zero-length array; it must return 0.0 like the other summaries *)
  let s = Stats.series "empty" in
  Alcotest.(check (float 0.0)) "p50 empty" 0.0 (Stats.percentile s 50.0);
  Alcotest.(check (float 0.0)) "p0 empty" 0.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 0.0)) "p100 empty" 0.0 (Stats.percentile s 100.0);
  Alcotest.check_raises "out of range still rejected"
    (Invalid_argument "Stats.percentile: bad percentile") (fun () ->
      ignore (Stats.percentile s 150.0))

let test_hist_exact_aggregates () =
  let h = Stats.hist "h" in
  List.iter (Stats.hadd h) [ 4.0; 1.0; 3.0; 2.0 ];
  check_int "n" 4 (Stats.hist_n h);
  Alcotest.(check (float 1e-9)) "sum exact" 10.0 (Stats.hist_total h);
  Alcotest.(check (float 1e-9)) "mean exact" 2.5 (Stats.hist_mean h);
  Alcotest.(check (float 1e-9)) "min exact" 1.0 (Stats.hist_min h);
  Alcotest.(check (float 1e-9)) "max exact" 4.0 (Stats.hist_max h);
  (* p0/p100 clamp to the exact extrema, not bucket representatives *)
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.hist_percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.hist_percentile h 100.0);
  (* empty histogram summarises to finite zeros like an empty series *)
  let e = Stats.hist "e" in
  check_int "empty n" 0 (Stats.hist_n e);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Stats.hist_mean e);
  Alcotest.(check (float 0.0)) "empty p99" 0.0 (Stats.hist_percentile e 99.0)

let test_hist_accuracy_10k () =
  (* the acceptance bound: at 10k samples of a long-tailed latency
     shape, streaming percentiles stay within 1% relative error of
     the exact sorted-array percentiles *)
  let n = 10_000 in
  let x = ref 123456789 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let u = float_of_int !x /. float_of_int 0x40000000 in
    (* inverse-CDF exponential, scaled into a ms-like range, plus a
       floor so samples sit well inside the bucket range *)
    0.05 +. (-.log (1.0 -. (u *. 0.9999)) *. 12.0)
  in
  let vals = Array.init n (fun _ -> next ()) in
  let s = Stats.series "exact" in
  let h = Stats.hist "stream" in
  Array.iter
    (fun v ->
      Stats.add s v;
      Stats.hadd h v)
    vals;
  List.iter
    (fun p ->
      let exact = Stats.percentile s p in
      let approx = Stats.hist_percentile h p in
      let rel = Float.abs (approx -. exact) /. exact in
      if rel > 0.01 then
        Alcotest.failf "p%.0f: hist %.6f vs exact %.6f (rel err %.4f > 1%%)" p
          approx exact rel)
    [ 50.0; 90.0; 95.0; 99.0; 99.9 ];
  Alcotest.(check (float 1e-9))
    "mean stays exact" (Stats.mean s) (Stats.hist_mean h)

let test_stats_counter () =
  let c = Stats.counter "c" in
  Stats.incr c;
  Stats.incr_by c 4;
  check_int "value" 5 (Stats.value c)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean within min..max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.series "p" in
      List.iter (Stats.add s) xs;
      Stats.mean s >= Stats.min_v s -. 1e-9
      && Stats.mean s <= Stats.max_v s +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Fanout *)

let test_fanout_order_and_concurrency () =
  let elapsed, results =
    Sim.exec (fun () ->
        let t0 = Sim.now () in
        let rs =
          Fanout.map [ 30; 10; 20 ] ~f:(fun d ->
              Sim.sleep (Time.ms d);
              d * 2)
        in
        (Time.diff (Sim.now ()) t0, rs))
  in
  Alcotest.(check (list int)) "results in input order" [ 60; 20; 40 ] results;
  check_int "elapsed = slowest worker, not the sum" (Time.ms 30) elapsed

let test_fanout_empty_and_singleton () =
  Alcotest.(check (list int))
    "empty" []
    (Sim.exec (fun () -> Fanout.map [] ~f:(fun x -> x)));
  let t, r =
    Sim.exec (fun () ->
        let t0 = Sim.now () in
        let r = Fanout.map [ 7 ] ~f:(fun x -> x + 1) in
        (Time.diff (Sim.now ()) t0, r))
  in
  Alcotest.(check (list int)) "singleton result" [ 8 ] r;
  check_int "singleton runs inline, no scheduling round trip" 0 t

exception Boom

let test_fanout_exception_propagates () =
  let raised =
    try
      ignore
        (Sim.exec (fun () ->
             Fanout.map [ 1; 2; 3 ] ~f:(fun d ->
                 Sim.sleep (Time.ms d);
                 if d = 2 then raise Boom;
                 d)));
      false
    with Boom -> true
  in
  check_bool "worker exception re-raised at the join" true raised

let test_fanout_iter_waits_for_all () =
  let hits =
    Sim.exec (fun () ->
        let hits = ref 0 in
        Fanout.iter [ 5; 1; 3 ] ~f:(fun d ->
            Sim.sleep (Time.ms d);
            incr hits);
        !hits)
  in
  check_int "every worker ran before iter returned" 3 hits

(* ------------------------------------------------------------------ *)
(* Stats on large series (the sorted cache must stay correct across
   interleaved adds and reads) *)

let test_stats_large_series_regression () =
  let n = 10_000 in
  (* deterministic pseudo-random samples; no global Random state *)
  let x = ref 123456789 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !x /. 1e6
  in
  let vals = Array.init n (fun _ -> next ()) in
  let s = Stats.series "big" in
  Array.iter (Stats.add s) vals;
  let sorted = Array.copy vals in
  Array.sort compare sorted;
  check_int "n" n (Stats.n s);
  Alcotest.(check (float 1e-9)) "min" sorted.(0) (Stats.min_v s);
  Alcotest.(check (float 1e-9)) "max" sorted.(n - 1) (Stats.max_v s);
  Alcotest.(check (float 1e-9)) "p0 = min" sorted.(0) (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9))
    "p100 = max"
    sorted.(n - 1)
    (Stats.percentile s 100.0);
  let p50 = Stats.percentile s 50.0 in
  check_bool "median between the two middle samples" true
    (p50 >= sorted.((n / 2) - 1) && p50 <= sorted.(n / 2));
  check_bool "percentiles monotone" true
    (Stats.percentile s 25.0 <= p50 && p50 <= Stats.percentile s 75.0);
  let mean = Array.fold_left ( +. ) 0.0 vals /. float_of_int n in
  Alcotest.(check (float 1e-6)) "mean" mean (Stats.mean s);
  (* sample standard deviation (n - 1), matching the library *)
  let var =
    Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 vals
    /. float_of_int (n - 1)
  in
  Alcotest.(check (float 1e-4)) "stddev" (sqrt var) (Stats.stddev s);
  (* the cached sorted view must be invalidated by a later add *)
  Stats.add s 1.0e9;
  Alcotest.(check (float 1e-9)) "max after add" 1.0e9 (Stats.max_v s);
  Alcotest.(check (float 1e-9))
    "p100 after add" 1.0e9 (Stats.percentile s 100.0);
  check_int "n after add" (n + 1) (Stats.n s)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [ Alcotest.test_case "units and arithmetic" `Quick test_time_units ] );
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "pop releases references" `Quick
            test_heap_pop_releases;
        ] );
      qsuite "heap-props" [ prop_heap_sorted; prop_heap_interleaved ];
      ( "engine",
        [
          Alcotest.test_case "clock advances on sleep" `Quick
            test_clock_advances;
          Alcotest.test_case "spawn order" `Quick test_spawn_ordering;
          Alcotest.test_case "same-instant fifo" `Quick test_same_instant_fifo;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "run until never rewinds" `Quick
            test_run_until_never_rewinds;
          Alcotest.test_case "run until across a far bucket" `Quick
            test_run_until_across_far_bucket;
          Alcotest.test_case "pending counts far events" `Quick
            test_pending_counts_far;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "nested spawn and self" `Quick
            test_nested_spawn_and_self;
          Alcotest.test_case "deadlock detection" `Quick
            test_exec_deadlock_detected;
        ] );
      qsuite "engine-props" [ prop_engine_order ];
      ( "kill",
        [
          Alcotest.test_case "kill sleeping process" `Quick test_kill_sleeping;
          Alcotest.test_case "kill far sleeper keeps clock" `Quick
            test_kill_far_sleeper_keeps_clock;
          Alcotest.test_case "kill group" `Quick test_kill_group;
          Alcotest.test_case "spawn inherits group" `Quick
            test_spawn_inherits_group;
          Alcotest.test_case "waker cannot resurrect" `Quick
            test_killed_not_resumed_by_waker;
          Alcotest.test_case "mutex handoff skips dead waiter" `Quick
            test_mutex_handoff_skips_dead_waiter;
          Alcotest.test_case "semaphore skips dead waiter" `Quick
            test_semaphore_release_skips_dead_waiter;
          Alcotest.test_case "rwlock skips dead waiter" `Quick
            test_rwlock_grant_skips_dead_waiter;
          Alcotest.test_case "on_terminate" `Quick test_on_terminate;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read blocks until fill" `Quick
            test_ivar_read_blocks;
          Alcotest.test_case "multiple readers" `Quick
            test_ivar_multiple_readers;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking recv" `Quick test_mailbox_blocking_recv;
          Alcotest.test_case "timeout expires" `Quick
            test_mailbox_timeout_expires;
          Alcotest.test_case "timeout delivers" `Quick
            test_mailbox_timeout_delivers;
          Alcotest.test_case "value kept after timeout" `Quick
            test_mailbox_value_not_lost_on_timeout;
          Alcotest.test_case "answered deadline never runs" `Quick
            test_mailbox_answered_deadline_never_runs;
          Alcotest.test_case "receivers fifo" `Quick
            test_mailbox_receivers_fifo;
          Alcotest.test_case "waiter queue bounded" `Quick
            test_mailbox_waiters_bounded;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "counts" `Quick test_semaphore_counts;
          Alcotest.test_case "blocks and wakes" `Quick
            test_semaphore_blocks_and_wakes;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "mutual exclusion" `Quick
            test_mutex_mutual_exclusion;
          Alcotest.test_case "exception releases" `Quick
            test_mutex_exception_releases;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "shared readers" `Quick test_rwlock_shared_readers;
          Alcotest.test_case "writer excludes" `Quick
            test_rwlock_writer_excludes;
          Alcotest.test_case "fifo prevents writer starvation" `Quick
            test_rwlock_fifo_no_starvation;
        ] );
      qsuite "rwlock-props" [ prop_rwlock_invariant ];
      ( "fanout",
        [
          Alcotest.test_case "order and concurrency" `Quick
            test_fanout_order_and_concurrency;
          Alcotest.test_case "empty and singleton" `Quick
            test_fanout_empty_and_singleton;
          Alcotest.test_case "exception propagates" `Quick
            test_fanout_exception_propagates;
          Alcotest.test_case "iter waits for all" `Quick
            test_fanout_iter_waits_for_all;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty series" `Quick test_stats_empty_series;
          Alcotest.test_case "empty percentile" `Quick
            test_stats_empty_percentile;
          Alcotest.test_case "counter" `Quick test_stats_counter;
          Alcotest.test_case "large series regression" `Quick
            test_stats_large_series_regression;
          Alcotest.test_case "hist exact aggregates" `Quick
            test_hist_exact_aggregates;
          Alcotest.test_case "hist accuracy at 10k" `Quick
            test_hist_accuracy_10k;
        ] );
      qsuite "stats-props" [ prop_stats_mean_bounds ];
    ]
