(* Tests for the RaTP transport: transactions, fragmentation,
   retransmission, duplicate suppression, and the FTP/NFS
   comparators. *)

open Sim
open Ratp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let echo_service = 7

type Packet.body += Echo of string | Blob of int

let with_pair ?(config = Endpoint.default_config) f =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let a = Endpoint.create ether ~addr:1 () in
      let b = Endpoint.create ether ~addr:2 ~config () in
      f ether a b)

let serve_echo ?(delay = 0) b =
  Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
      if delay > 0 then Sim.sleep delay;
      match body with
      | Echo s -> (Echo (s ^ "!"), String.length s + 1)
      | Blob n -> (Blob n, n)
      | _ -> (Echo "?", 1))

(* ------------------------------------------------------------------ *)
(* Packet math *)

let test_nfrags () =
  check_int "zero" 1 (Packet.nfrags_of ~frag_payload:1400 0);
  check_int "one byte" 1 (Packet.nfrags_of ~frag_payload:1400 1);
  check_int "exact" 1 (Packet.nfrags_of ~frag_payload:1400 1400);
  check_int "one more" 2 (Packet.nfrags_of ~frag_payload:1400 1401);
  check_int "8k" 6 (Packet.nfrags_of ~frag_payload:1400 8192)

let prop_frag_sizes_sum =
  QCheck.Test.make ~name:"fragment sizes sum to total" ~count:200
    QCheck.(pair (int_range 1 4000) (int_range 0 20_000))
    (fun (frag_payload, total_size) ->
      let n = Packet.nfrags_of ~frag_payload total_size in
      let sum = ref 0 in
      for i = 0 to n - 1 do
        let b = Packet.frag_bytes ~frag_payload ~total_size i in
        if b < 0 || b > frag_payload then raise Exit;
        sum := !sum + b
      done;
      !sum = max 0 total_size)

(* ------------------------------------------------------------------ *)
(* Transactions *)

let test_simple_call () =
  let reply =
    with_pair (fun _ether a b ->
        serve_echo b;
        Endpoint.call a ~dst:2 ~service:echo_service ~size:5 (Echo "hello"))
  in
  match reply with
  | Ok (Echo s) -> Alcotest.(check string) "echoed" "hello!" s
  | Ok _ -> Alcotest.fail "wrong body"
  | Error Endpoint.Timeout -> Alcotest.fail "timed out"

let test_null_rtt_calibration () =
  (* A null transaction should land near the paper's 4.8 ms. *)
  let elapsed =
    with_pair (fun _ether a b ->
        serve_echo b;
        let t0 = Sim.now () in
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:32 (Echo "x") with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "timeout");
        Time.to_ms_f (Time.diff (Sim.now ()) t0))
  in
  check_bool
    (Printf.sprintf "rtt %.2fms within [3.5, 6.5]" elapsed)
    true
    (elapsed >= 3.5 && elapsed <= 6.5)

let test_concurrent_calls () =
  let n_ok =
    with_pair (fun _ether a b ->
        serve_echo b;
        let done_ = Semaphore.create 0 in
        let oks = ref 0 in
        for i = 1 to 10 do
          ignore
            (Sim.spawn "caller" (fun () ->
                 let body = Echo (string_of_int i) in
                 (match
                    Endpoint.call a ~dst:2 ~service:echo_service ~size:8 body
                  with
                 | Ok (Echo s) when s = string_of_int i ^ "!" -> incr oks
                 | Ok _ | Error _ -> ());
                 Semaphore.release done_))
        done;
        for _ = 1 to 10 do
          Semaphore.acquire done_
        done;
        !oks)
  in
  check_int "all ten distinct transactions succeed" 10 n_ok

let test_large_message_fragments () =
  let frames =
    with_pair (fun ether a b ->
        serve_echo b;
        let before = Net.Ethernet.frames_sent ether in
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:8192 (Blob 8192) with
        | Ok (Blob 8192) -> ()
        | Ok _ -> Alcotest.fail "wrong reply"
        | Error _ -> Alcotest.fail "timeout");
        (* let the asynchronous ack reach the wire *)
        Sim.sleep (Time.ms 5);
        Net.Ethernet.frames_sent ether - before)
  in
  (* 6 request fragments + 6 reply fragments + 1 ack *)
  check_int "fragment count on the wire" 13 frames

let test_loss_recovered () =
  let retrans =
    with_pair (fun ether a b ->
        serve_echo b;
        Net.Fault.set_drop_probability (Net.Ethernet.fault ether) 0.25;
        for _ = 1 to 5 do
          match Endpoint.call a ~dst:2 ~service:echo_service ~size:64 (Echo "x") with
          | Ok (Echo "x!") -> ()
          | Ok _ -> Alcotest.fail "corrupt reply"
          | Error _ -> Alcotest.fail "gave up despite retries"
        done;
        Net.Fault.set_drop_probability (Net.Ethernet.fault ether) 0.0;
        Endpoint.retransmissions a)
  in
  check_bool "some retransmissions happened" true (retrans > 0)

let test_timeout_when_unreachable () =
  let r =
    with_pair (fun ether a _b ->
        Net.Ethernet.detach ether 2;
        let t0 = Sim.now () in
        let r = Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x") in
        (r, Time.diff (Sim.now ()) t0))
  in
  (match fst r with
  | Error Endpoint.Timeout -> ()
  | Ok _ -> Alcotest.fail "should have timed out");
  (* 8 attempts with 50ms doubling backoff = 12.75 s of waiting *)
  check_bool "waited through full backoff" true (snd r >= Time.ms 12_000)

let test_unknown_service_times_out () =
  let r =
    with_pair (fun _ether a _b ->
        Endpoint.call a ~dst:2 ~service:99 ~size:8 (Echo "x"))
  in
  match r with
  | Error Endpoint.Timeout -> ()
  | Ok _ -> Alcotest.fail "no handler should mean no reply"

let test_at_most_once_under_loss () =
  (* Drop many frames; the handler must still run exactly once per
     transaction (duplicate requests are served from the reply
     cache). *)
  let executions, calls =
    with_pair (fun ether a b ->
        let count = ref 0 in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            incr count;
            (body, 16));
        Net.Fault.set_drop_probability (Net.Ethernet.fault ether) 0.4;
        let ok = ref 0 in
        for _ = 1 to 8 do
          match Endpoint.call a ~dst:2 ~service:echo_service ~size:16 (Echo "x") with
          | Ok _ -> incr ok
          | Error _ -> ()
        done;
        Net.Fault.set_drop_probability (Net.Ethernet.fault ether) 0.0;
        (!count, !ok))
  in
  check_bool "every successful call executed exactly once" true
    (executions >= calls);
  (* executions can exceed calls only for transactions that timed out
     client-side after the handler ran; successful ones are not
     re-executed.  With the reply cache, executions never exceeds the
     number of distinct transactions. *)
  check_bool "handler never ran more than once per transaction" true
    (executions <= 8)

let test_slow_handler_single_execution () =
  (* Handler slower than the first retry interval: the client
     retransmits, the server must not start a second execution. *)
  let executions =
    with_pair (fun _ether a b ->
        let count = ref 0 in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            incr count;
            Sim.sleep (Time.ms 300);
            (body, 8));
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x") with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "slow handler should still reply");
        !count)
  in
  check_int "one execution despite retransmits" 1 executions

let test_server_crash_times_out () =
  let r =
    Sim.exec (fun () ->
        let eng = Sim.engine () in
        let ether = Net.Ethernet.create eng () in
        let a = Endpoint.create ether ~addr:1 () in
        let b = Endpoint.create ether ~addr:2 ~group:2 () in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            Sim.sleep (Time.ms 100);
            (body, 8));
        (* crash the server 10ms into the handler *)
        ignore
          (Sim.spawn "killer" (fun () ->
               Sim.sleep (Time.ms 10);
               Net.Ethernet.detach ether 2;
               Engine.kill_group eng 2));
        Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x"))
  in
  match r with
  | Error Endpoint.Timeout -> ()
  | Ok _ -> Alcotest.fail "crashed server must not reply"

let test_restart_no_rx_process () =
  (* Reception runs in engine context: no receive process exists, a
     restart spawns none, and a call after two restarts runs its
     handler exactly once. *)
  let rx_procs, runs, reply =
    with_pair (fun _ether a b ->
        let runs = ref 0 in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            incr runs;
            match body with
            | Echo s -> (Echo (s ^ "!"), String.length s + 1)
            | _ -> (Echo "?", 1));
        Endpoint.restart b;
        Endpoint.restart b;
        let rx_procs =
          Engine.procs (Sim.engine ())
          |> List.filter (fun (_, name) ->
                 String.length name >= 7 && String.sub name 0 7 = "ratp-rx")
          |> List.length
        in
        let reply =
          Endpoint.call a ~dst:2 ~service:echo_service ~size:5 (Echo "hi")
        in
        (rx_procs, !runs, reply))
  in
  check_int "no ratp-rx process" 0 rx_procs;
  check_int "handler ran once" 1 runs;
  match reply with
  | Ok (Echo "hi!") -> ()
  | Ok _ | Error _ -> Alcotest.fail "call after restart failed"

let test_no_stale_frames_after_restart () =
  (* Regression: frames a machine had received but not yet processed
     when it crashed used to survive in its NIC queue and be handled
     after the restart.  Five clients call node 2 at t=0; node 2
     crashes at 1.5 ms, while their requests are still in its receive
     path, and restarts at 2 ms.  Those requests died with it: no
     handler runs before the clients' first retry. *)
  let early, oks =
    Sim.exec (fun () ->
        let eng = Sim.engine () in
        let ether = Net.Ethernet.create eng () in
        let b = Endpoint.create ether ~addr:2 ~group:2 () in
        let runs = ref [] in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            runs := Sim.now () :: !runs;
            (body, 8));
        let clients =
          List.map (fun addr -> Endpoint.create ether ~addr ()) [ 3; 4; 5; 6; 7 ]
        in
        let oks = ref 0 and finished = Semaphore.create 0 in
        List.iter
          (fun c ->
            ignore
              (Sim.spawn "caller" (fun () ->
                   (match
                      Endpoint.call c ~dst:2 ~service:echo_service ~size:8
                        (Echo "x")
                    with
                   | Ok _ -> incr oks
                   | Error _ -> ());
                   Semaphore.release finished)))
          clients;
        ignore
          (Sim.spawn "crash" (fun () ->
               Sim.sleep (Time.us 1500);
               Net.Ethernet.detach ether 2;
               Engine.kill_group eng 2;
               Sim.sleep (Time.us 500);
               Net.Ethernet.reattach ether 2;
               Endpoint.restart b));
        List.iter (fun _ -> Semaphore.acquire finished) clients;
        let first_retry = Endpoint.default_config.retry_initial in
        (List.length (List.filter (fun t -> t < first_retry) !runs), !oks))
  in
  check_int "handler runs before the first retry" 0 early;
  check_int "every call completes on retry" 5 oks

let test_crash_abandons_burst () =
  (* Node 1 sends an 8 KB request (6 fragments) and crashes at 2 ms,
     while fragment 0 is still on the wire: that fragment never
     arrives and the other five never reach the bus. *)
  let frames, cached =
    Sim.exec (fun () ->
        let eng = Sim.engine () in
        let ether = Net.Ethernet.create eng () in
        let a = Endpoint.create ether ~addr:1 ~group:1 () in
        let b = Endpoint.create ether ~addr:2 () in
        serve_echo b;
        ignore
          (Engine.spawn eng ~group:1 "caller" (fun () ->
               ignore
                 (Endpoint.call a ~dst:2 ~service:echo_service ~size:8192
                    (Blob 8192))));
        Sim.sleep (Time.ms 2);
        Net.Ethernet.detach ether 1;
        Engine.kill_group eng 1;
        Sim.sleep (Time.ms 100);
        (Net.Ethernet.frames_sent ether, Endpoint.server_cache_size b))
  in
  check_int "only fragment 0 reached the bus" 1 frames;
  check_int "nothing arrived at the server" 0 cached

let test_frame_costs_three_steps () =
  (* A lossless unicast RaTP frame costs three engine events: asking
     for the bus, arriving, and reaching RaTP once its receive cost is
     paid.  The frame is the ack of a call whose own ack was dropped,
     so its arrival is visible as the server's cached reply going. *)
  let eng = Engine.create () in
  let ether = Net.Ethernet.create eng () in
  let a = Endpoint.create ether ~addr:1 () in
  let b = Endpoint.create ether ~addr:2 () in
  serve_echo b;
  let fault = Net.Ethernet.fault ether in
  Net.Fault.set_filter fault (fun ~src:_ ~dst:_ frame ->
      match frame.Net.Frame.payload with
      | Packet.Ratp { Packet.kind = Ack; _ } -> false
      | _ -> true);
  ignore
    (Engine.spawn eng "caller" (fun () ->
         ignore (Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x"))));
  Engine.run ~until:(Time.ms 100) eng;
  check_int "reply cached" 1 (Endpoint.server_cache_size b);
  Net.Fault.clear_filter fault;
  let ack =
    Net.Frame.make ~src:1 ~dst:(Net.Frame.Unicast 2)
      ~payload_bytes:Packet.header_bytes
      (Packet.Ratp
         {
           Packet.tid = { Packet.origin = 1; seq = 0 };
           service = echo_service;
           kind = Ack;
           frag = 0;
           nfrags = 1;
           total_size = 0;
           body = Packet.Empty;
         })
  in
  Engine.at eng (Engine.now eng) (fun () ->
      ignore (Net.Ethernet.launch ether ack));
  let steps = ref 0 in
  while Endpoint.server_cache_size b > 0 && Engine.step eng do
    incr steps
  done;
  check_int "cache released by the ack" 0 (Endpoint.server_cache_size b);
  check_int "engine steps for one frame" 3 !steps

let test_selective_fragment_loss () =
  (* A 4000-byte request fragments into three frames; the middle one
     is dropped on its first two transmissions.  The call must
     complete via retransmission, executing the handler once. *)
  let reply, retrans, executions, drops =
    with_pair (fun ether a b ->
        let count = ref 0 in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            incr count;
            (body, 16));
        let dropped = ref 0 in
        Net.Fault.set_filter (Net.Ethernet.fault ether)
          (fun ~src:_ ~dst:_ frame ->
            match frame.Net.Frame.payload with
            | Packet.Ratp { Packet.kind = Request; frag = 1; _ }
              when !dropped < 2 ->
                incr dropped;
                false
            | _ -> true);
        let r =
          Endpoint.call a ~dst:2 ~service:echo_service ~size:4000 (Blob 16)
        in
        ( r,
          Endpoint.retransmissions a,
          !count,
          Net.Fault.drops (Net.Ethernet.fault ether) ))
  in
  (match reply with
  | Ok (Blob 16) -> ()
  | Ok _ | Error _ -> Alcotest.fail "fragment loss not recovered");
  check_int "two retransmissions" 2 retrans;
  check_int "handler executed once" 1 executions;
  check_int "two frames dropped" 2 drops

let test_busy_does_not_burn_attempts () =
  (* A slow handler makes the server answer retransmissions with
     Busy.  Busy probes must not count against the give-up budget:
     with max_attempts = 3 and a 20 ms initial retry the raw budget is
     20+40+80 = 140 ms, well short of the 200 ms handler, so this call
     only succeeds if Busy resets the attempt clock. *)
  let reply, retrans, txns =
    Sim.exec (fun () ->
        let eng = Sim.engine () in
        let ether = Net.Ethernet.create eng () in
        let config =
          {
            Endpoint.default_config with
            retry_initial = Time.ms 20;
            max_attempts = 3;
          }
        in
        let a = Endpoint.create ether ~addr:1 ~config () in
        let b = Endpoint.create ether ~addr:2 () in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            Sim.sleep (Time.ms 200);
            (body, 8));
        let r = Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x") in
        (r, Endpoint.retransmissions a, Endpoint.transactions a))
  in
  (match reply with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "Busy probes must not burn attempts");
  check_bool "probes recorded as retransmissions" true (retrans >= 3);
  check_int "still a single transaction" 1 txns

(* ------------------------------------------------------------------ *)
(* Selective retransmission and adaptive RTO *)

(* The fast interconnect used by Experiments.Transport: a 64 K burst
   finishes in a few ms, well inside the 50 ms retry timer, so the
   retry path reacts to loss rather than to its own wire time. *)
let fast_ether_config =
  {
    Net.Ethernet.default_config with
    bandwidth_bps = 100_000_000;
    send_cost_per_frame = Time.us 80;
    recv_cost_per_frame = Time.us 80;
    cost_per_byte_ns = 5;
  }

let with_fast_pair ~config f =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng ~config:fast_ether_config () in
      let a = Endpoint.create ether ~addr:1 ~config () in
      let b = Endpoint.create ether ~addr:2 ~config () in
      f ether a b)

let transfer_retrans_bytes ~selective =
  let config =
    {
      Endpoint.default_config with
      selective_retransmit = selective;
      max_attempts = 12;
    }
  in
  with_fast_pair ~config (fun ether a b ->
      serve_echo b;
      Net.Fault.set_drop_probability (Net.Ethernet.fault ether) 0.05;
      (match Endpoint.call a ~dst:2 ~service:echo_service ~size:65536 (Blob 65536) with
      | Ok (Blob 65536) -> ()
      | Ok _ -> Alcotest.fail "corrupt echo"
      | Error _ -> Alcotest.fail "64K transfer gave up at 5% loss");
      Endpoint.retransmitted_bytes a + Endpoint.retransmitted_bytes b)

let test_selective_saves_bytes () =
  (* The PR's acceptance pin: at 5% loss a 64K transfer must resend
     at least 5x fewer payload bytes with selective retransmission
     than with the legacy full burst. *)
  let full = transfer_retrans_bytes ~selective:false in
  let selective = transfer_retrans_bytes ~selective:true in
  check_bool "full-burst path resends something" true (full > 0);
  check_bool
    (Printf.sprintf "selective %dB vs full %dB: >= 5x saving" selective full)
    true
    (selective * 5 <= full)

let kind_tag = function
  | Packet.Request -> "req"
  | Packet.Reply -> "rep"
  | Packet.Ack -> "ack"
  | Packet.Busy -> "busy"
  | Packet.Probe -> "probe"
  | Packet.Nack -> "nack"

(* Every RaTP frame on the wire, as "time src>dst kind frag/nfrags
   size", recorded through a pass-through fault filter. *)
let tap_frames ether log =
  (* runs at frame-delivery time, outside any process: ask the engine
     for the clock rather than the current process *)
  let eng = Net.Ethernet.engine ether in
  Net.Fault.set_filter (Net.Ethernet.fault ether) (fun ~src ~dst frame ->
      (match frame.Net.Frame.payload with
      | Packet.Ratp pkt ->
          Buffer.add_string log
            (Printf.sprintf "%d %d>%d %s %d/%d %d\n" (Engine.now eng) src dst
               (kind_tag pkt.Packet.kind) pkt.frag pkt.nfrags pkt.total_size)
      | _ -> ());
      true)

let lossfree_trace ~selective =
  let config =
    { Endpoint.default_config with selective_retransmit = selective }
  in
  with_pair ~config (fun ether a b ->
      serve_echo b;
      let log = Buffer.create 1024 in
      tap_frames ether log;
      List.iter
        (fun size ->
          match Endpoint.call a ~dst:2 ~service:echo_service ~size (Blob size) with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "loss-free call timed out")
        [ 8; 1400; 4000; 8192 ];
      Sim.sleep (Time.ms 20);
      Buffer.contents log)

let test_lossfree_trace_identical () =
  (* With no loss the selective machinery must be invisible: the
     packet stream is bit-identical whether the flag is on or off,
     which is what keeps the T1-T3 calibration untouched. *)
  let on = lossfree_trace ~selective:true in
  let off = lossfree_trace ~selective:false in
  check_bool "trace is non-trivial" true (String.length on > 100);
  Alcotest.(check string) "identical packet traces" off on

let test_busy_carries_no_payload () =
  (* Regression: Busy replies used to echo the full request body back
     at the client; they must ship an empty body and zero size. *)
  let busy_frames, bad_busy =
    with_pair (fun ether a b ->
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            Sim.sleep (Time.ms 200);
            (body, 8));
        let busy_frames = ref 0 and bad_busy = ref 0 in
        Net.Fault.set_filter (Net.Ethernet.fault ether)
          (fun ~src:_ ~dst:_ frame ->
            (match frame.Net.Frame.payload with
            | Packet.Ratp { Packet.kind = Busy; total_size; body; _ } ->
                incr busy_frames;
                if total_size <> 0 || body <> Packet.Empty then incr bad_busy
            | _ -> ());
            true);
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:4000 (Blob 4000) with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "slow handler should still reply");
        (!busy_frames, !bad_busy))
  in
  check_bool "server sent at least one Busy" true (busy_frames > 0);
  check_int "every Busy was empty" 0 bad_busy

let test_abandoned_burst_reaped () =
  (* An Accumulating entry for a burst the client stopped retrying
     must not pin the server table forever: it is reaped once it has
     been idle for server_cache_ttl. *)
  let during, after =
    let config =
      {
        Endpoint.default_config with
        max_attempts = 1;
        server_cache_ttl = Time.ms 200;
      }
    in
    with_fast_pair ~config (fun ether a b ->
        serve_echo b;
        (* the last request fragment never arrives, so the server
           accumulates forever and the client gives up after its
           single attempt *)
        Net.Fault.set_filter (Net.Ethernet.fault ether)
          (fun ~src:_ ~dst:_ frame ->
            match frame.Net.Frame.payload with
            | Packet.Ratp { Packet.kind = Request; frag = 2; _ } -> false
            | _ -> true);
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:4000 (Blob 4000) with
        | Error Endpoint.Timeout -> ()
        | Ok _ -> Alcotest.fail "truncated burst must time out");
        let during = Endpoint.server_cache_size b in
        Sim.sleep (Time.ms 700);
        (during, Endpoint.server_cache_size b))
  in
  check_int "partial burst held while fresh" 1 during;
  check_int "partial burst reaped after ttl" 0 after

let test_duplicate_reply_after_ack () =
  (* Every server-to-client frame is duplicated: the reply burst and
     its duplicates race the client's Ack.  Late duplicates must be
     ignored (the transaction is gone on both ends), not corrupt the
     next transaction or re-run the handler. *)
  let executions, oks =
    with_pair (fun ether a b ->
        let count = ref 0 in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            incr count;
            (body, 4000));
        Net.Fault.set_link (Net.Ethernet.fault ether) 2 1
          { Net.Fault.pristine with dup = 1.0 };
        let oks = ref 0 in
        for _ = 1 to 3 do
          match Endpoint.call a ~dst:2 ~service:echo_service ~size:16 (Blob 16) with
          | Ok _ -> incr oks
          | Error _ -> ()
        done;
        Sim.sleep (Time.ms 50);
        (!count, !oks))
  in
  check_int "all calls succeed through duplication" 3 oks;
  check_int "handler ran once per transaction" 3 executions

let test_restart_keeps_sequence_space () =
  (* A restarted client must not reuse transaction ids: a reused tid
     would hit the server's duplicate-suppression cache and be served
     a stale reply instead of executing.  Acks are dropped so the
     server's cached replies stay alive across the restart. *)
  let executions, oks, cached_before, cached_after =
    with_pair (fun ether a b ->
        let count = ref 0 in
        Endpoint.serve b ~service:echo_service (fun ~src:_ _ ->
            incr count;
            (Echo (string_of_int !count), 8));
        Net.Fault.set_filter (Net.Ethernet.fault ether)
          (fun ~src:_ ~dst:_ frame ->
            match frame.Net.Frame.payload with
            | Packet.Ratp { Packet.kind = Ack; _ } -> false
            | _ -> true);
        let oks = ref 0 in
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x") with
        | Ok (Echo "1") -> incr oks
        | Ok _ | Error _ -> ());
        let cached_before = Endpoint.server_cache_size b in
        Endpoint.restart a;
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x") with
        | Ok (Echo "2") -> incr oks
        | Ok (Echo _) -> Alcotest.fail "stale cached reply: tid was reused"
        | Ok _ | Error _ -> ());
        (* a restarted *server* forgets its transaction cache *)
        Endpoint.restart b;
        (!count, !oks, cached_before, Endpoint.server_cache_size b))
  in
  check_int "both calls executed" 2 executions;
  check_int "both calls succeeded" 2 oks;
  check_bool "un-acked reply was cached" true (cached_before >= 1);
  check_int "server restart clears the cache" 0 cached_after

let test_selective_under_reorder_and_dup () =
  (* Selective retransmission must stay correct when the network
     reorders and duplicates as well as drops: every call completes,
     every handler runs exactly once. *)
  let executions, oks, nacks =
    let config =
      { Endpoint.default_config with max_attempts = 12 }
    in
    with_fast_pair ~config (fun ether a b ->
        let count = ref 0 in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            incr count;
            (body, 8192));
        let profile =
          {
            Net.Fault.pristine with
            drop = 0.05;
            dup = 0.2;
            reorder = 0.3;
            reorder_by = Time.ms 5;
          }
        in
        Net.Fault.set_link_both (Net.Ethernet.fault ether) 1 2 profile;
        let oks = ref 0 in
        for _ = 1 to 10 do
          match
            Endpoint.call a ~dst:2 ~service:echo_service ~size:8192 (Blob 8192)
          with
          | Ok (Blob 8192) -> incr oks
          | Ok _ -> Alcotest.fail "corrupt reply under reorder+dup"
          | Error _ -> Alcotest.fail "call gave up under recoverable faults"
        done;
        (!count, !oks, Endpoint.nacks_sent b))
  in
  check_int "all calls completed" 10 oks;
  check_int "at-most-once held" 10 executions;
  check_bool "selective path was exercised" true (nacks > 0)

let test_adaptive_rto_and_karn () =
  let config =
    { Endpoint.default_config with adaptive_rto = true; max_attempts = 12 }
  in
  with_fast_pair ~config (fun ether a b ->
      serve_echo b;
      let rto_of e =
        match Endpoint.peer_stats e with
        | [ { Endpoint.peer = 2; rto_ms; _ } ] -> rto_ms
        | _ -> Alcotest.fail "expected stats for exactly peer 2"
      in
      for _ = 1 to 5 do
        match Endpoint.call a ~dst:2 ~service:echo_service ~size:64 (Echo "x") with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "loss-free call timed out"
      done;
      let settled = rto_of a in
      (* sub-ms RTT on the fast wire: the estimate must undercut the
         50 ms fixed timer but stay above the 2 ms clamp *)
      check_bool
        (Printf.sprintf "adapted rto %.2fms below fixed 50ms" settled)
        true
        (settled < 50.0 && settled >= 2.0);
      (* Karn's rule: a transaction that retransmitted contributes no
         sample, so the estimate is unchanged afterwards *)
      let dropped = ref false in
      Net.Fault.set_filter (Net.Ethernet.fault ether)
        (fun ~src:_ ~dst:_ frame ->
          match frame.Net.Frame.payload with
          | Packet.Ratp { Packet.kind = Request; _ } when not !dropped ->
              dropped := true;
              false
          | _ -> true);
      (match Endpoint.call a ~dst:2 ~service:echo_service ~size:64 (Echo "y") with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "retried call timed out");
      check_bool "first transmission was dropped" true !dropped;
      Alcotest.(check (float 0.0))
        "Karn: no sample from a retransmitted transaction" settled (rto_of a);
      check_bool "the retry was recorded" true (Endpoint.retransmissions a > 0))

(* ------------------------------------------------------------------ *)
(* Comparators: the paper's 8K transfer comparison *)

let measure f =
  let t0 = Sim.now () in
  f ();
  Time.to_ms_f (Time.diff (Sim.now ()) t0)

let test_transfer_comparison () =
  let ratp_ms, ftp_ms, nfs_ms =
    Sim.exec (fun () ->
        let eng = Sim.engine () in
        let ether = Net.Ethernet.create eng () in
        let a = Endpoint.create ether ~addr:1 () in
        let b = Endpoint.create ether ~addr:2 () in
        Endpoint.serve b ~service:echo_service (fun ~src:_ _ -> (Blob 8192, 8192));
        Ftp_sim.start_server ether ~addr:3 ();
        let ftp = Ftp_sim.client ether ~addr:4 () in
        Nfs_sim.start_server ether ~addr:5 ();
        let nfs = Nfs_sim.client ether ~addr:6 () in
        let ratp_ms =
          measure (fun () ->
              match
                Endpoint.call a ~dst:2 ~service:echo_service ~size:32 (Echo "get")
              with
              | Ok (Blob 8192) -> ()
              | Ok _ | Error _ -> Alcotest.fail "ratp transfer failed")
        in
        let ftp_ms = measure (fun () -> Ftp_sim.fetch ftp ~server:3 ~bytes:8192) in
        let nfs_ms = measure (fun () -> Nfs_sim.fetch nfs ~server:5 ~bytes:8192) in
        (ratp_ms, ftp_ms, nfs_ms))
  in
  (* Paper: RaTP 11.9ms, NFS 50ms, FTP 70ms.  Check the ordering and
     rough factors rather than exact values. *)
  check_bool
    (Printf.sprintf "ratp (%.1f) < nfs (%.1f)" ratp_ms nfs_ms)
    true (ratp_ms < nfs_ms);
  check_bool
    (Printf.sprintf "nfs (%.1f) < ftp (%.1f)" nfs_ms ftp_ms)
    true (nfs_ms < ftp_ms);
  check_bool
    (Printf.sprintf "ftp/ratp factor %.1f in [3, 12]" (ftp_ms /. ratp_ms))
    true
    (ftp_ms /. ratp_ms >= 3.0 && ftp_ms /. ratp_ms <= 12.0);
  check_bool
    (Printf.sprintf "ratp 8k %.1fms within [8, 16]" ratp_ms)
    true
    (ratp_ms >= 8.0 && ratp_ms <= 16.0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ratp"
    [
      ( "packet",
        [ Alcotest.test_case "nfrags" `Quick test_nfrags ] );
      qsuite "packet-props" [ prop_frag_sizes_sum ];
      ( "transaction",
        [
          Alcotest.test_case "simple call" `Quick test_simple_call;
          Alcotest.test_case "null rtt calibration" `Quick
            test_null_rtt_calibration;
          Alcotest.test_case "concurrent calls" `Quick test_concurrent_calls;
          Alcotest.test_case "large message fragments" `Quick
            test_large_message_fragments;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "loss recovered" `Quick test_loss_recovered;
          Alcotest.test_case "timeout when unreachable" `Quick
            test_timeout_when_unreachable;
          Alcotest.test_case "unknown service" `Quick
            test_unknown_service_times_out;
          Alcotest.test_case "at-most-once under loss" `Quick
            test_at_most_once_under_loss;
          Alcotest.test_case "slow handler single execution" `Quick
            test_slow_handler_single_execution;
          Alcotest.test_case "server crash times out" `Quick
            test_server_crash_times_out;
          Alcotest.test_case "restart leaves no rx process" `Quick
            test_restart_no_rx_process;
          Alcotest.test_case "no stale frames after restart" `Quick
            test_no_stale_frames_after_restart;
          Alcotest.test_case "crash abandons its burst" `Quick
            test_crash_abandons_burst;
          Alcotest.test_case "one frame, three events" `Quick
            test_frame_costs_three_steps;
          Alcotest.test_case "selective fragment loss" `Quick
            test_selective_fragment_loss;
          Alcotest.test_case "busy does not burn attempts" `Quick
            test_busy_does_not_burn_attempts;
        ] );
      ( "selective-retransmit",
        [
          Alcotest.test_case "64K at 5% loss: 5x fewer bytes resent" `Quick
            test_selective_saves_bytes;
          Alcotest.test_case "loss-free trace identical on/off" `Quick
            test_lossfree_trace_identical;
          Alcotest.test_case "busy carries no payload" `Quick
            test_busy_carries_no_payload;
          Alcotest.test_case "abandoned burst reaped" `Quick
            test_abandoned_burst_reaped;
          Alcotest.test_case "duplicate reply after ack" `Quick
            test_duplicate_reply_after_ack;
          Alcotest.test_case "restart keeps sequence space" `Quick
            test_restart_keeps_sequence_space;
          Alcotest.test_case "selective under reorder+dup" `Quick
            test_selective_under_reorder_and_dup;
          Alcotest.test_case "adaptive rto and karn's rule" `Quick
            test_adaptive_rto_and_karn;
        ] );
      ( "comparators",
        [
          Alcotest.test_case "ratp vs ftp vs nfs 8k transfer" `Quick
            test_transfer_comparison;
        ] );
    ]
