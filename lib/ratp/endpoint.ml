type config = {
  retry_initial : Sim.Time.span;
  max_attempts : int;
  server_cache_ttl : Sim.Time.span;
  selective_retransmit : bool;
  adaptive_rto : bool;
}

let default_config =
  {
    retry_initial = Sim.Time.ms 50;
    max_attempts = 8;
    server_cache_ttl = Sim.Time.sec 5;
    selective_retransmit = true;
    adaptive_rto = false;
  }

(* Protocol constants.  [proc_cost] is charged per transaction step
   (request issue, request dispatch, reply issue, reply consumption);
   590 us makes a null transaction cost about twice the raw 72-byte
   Ethernet round trip, the paper's 4.8 ms vs 2.4 ms.  [frag_payload]
   is the message bytes per fragment under the 1500-byte MTU, retries
   back off by [retry_backoff] per attempt, and the adaptive retry
   timer is clamped to [rto_min, rto_max]. *)
let frag_payload = 1400
let retry_backoff = 2.0
let proc_cost = Sim.Time.us 590
let rto_min = Sim.Time.ms 2
let rto_max = Sim.Time.sec 4

type error = Timeout

type handler = src:Net.Address.t -> Packet.body -> Packet.body * int

type client_pending = {
  complete : Packet.body Sim.Mailbox.t;
  mutable reply_got : bool array;  (* sized on first reply fragment *)
  mutable reply_missing : int;  (* -1 until sized *)
  mutable busy : bool;  (* server said it is working; be patient *)
  mutable heard : bool;
      (* any feedback (reply fragment, Nack, Busy) since the last
         retransmission: silence means control packets are dying too,
         so the next retry escalates from a probe to the full burst *)
  dst : Net.Address.t;
  service : int;
  req_body : Packet.body;
  req_size : int;
  mutable retransmitted : bool;  (* Karn: poisons the RTT sample *)
}

type server_state =
  | Accumulating of {
      got : bool array;
      mutable missing : int;
      mutable touched : Sim.Time.t;
          (* last fragment or probe seen; an abandoned partial burst
             is reaped [server_cache_ttl] after it goes quiet *)
    }
  | In_progress
  | Done of { reply : Packet.body; reply_size : int }

(* Per-destination round-trip estimator (Jacobson/Karels).  Always
   maintained — the current estimate is surfaced through the
   per-peer [ratp.rto_us] gauge either way — but only consulted for
   the retry timer when [adaptive_rto] is on. *)
type rto_state = {
  mutable srtt : float;  (* ns *)
  mutable rttvar : float;  (* ns *)
  mutable rto : Sim.Time.span;
  mutable samples : int;
}

module Tid_table = Hashtbl.Make (struct
  type t = Packet.tid

  let equal (a : t) b = a.Packet.seq = b.Packet.seq && a.origin = b.origin
  let hash (t : t) = Hashtbl.hash (t.origin, t.seq)
end)

type t = {
  ether : Net.Ethernet.t;
  nic : Net.Nic.t;
  address : Net.Address.t;
  group : int option;
  cfg : config;
  mutable next_seq : int;
  clients : client_pending Tid_table.t;
  servers : server_state Tid_table.t;
  services : (int, handler) Hashtbl.t;
  rto : (Net.Address.t, rto_state) Hashtbl.t;
  retrans : Sim.Stats.counter;
  retrans_bytes : Sim.Stats.counter;
  nacks : Sim.Stats.counter;
  completed : Sim.Stats.counter;
  retrans_by : Sim.Stats.keyed;
  nacks_by : Sim.Stats.keyed;
  rto_by : Sim.Stats.keyed;
}

let addr t = t.address
let config t = t.cfg
let retransmissions t = Sim.Stats.value t.retrans
let retransmitted_bytes t = Sim.Stats.value t.retrans_bytes
let nacks_sent t = Sim.Stats.value t.nacks
let transactions t = Sim.Stats.value t.completed
let server_cache_size t = Tid_table.length t.servers

let metrics t =
  [
    ("ratp/retrans", Obs.Registry.Counter t.retrans);
    ("ratp/retrans_bytes", Obs.Registry.Counter t.retrans_bytes);
    ("ratp/nacks", Obs.Registry.Counter t.nacks);
    ("ratp/transactions", Obs.Registry.Counter t.completed);
    ("ratp/retrans_by", Obs.Registry.Keyed t.retrans_by);
    ("ratp/nacks_by", Obs.Registry.Keyed t.nacks_by);
    ("ratp/rto_ms_by", Obs.Registry.Keyed t.rto_by);
  ]

(* --- adaptive retransmission timeout -------------------------------- *)

let rto_state_for t dst =
  match Hashtbl.find_opt t.rto dst with
  | Some st -> st
  | None ->
      let st =
        { srtt = 0.0; rttvar = 0.0; rto = t.cfg.retry_initial; samples = 0 }
      in
      Hashtbl.replace t.rto dst st;
      st

(* One clean (never-retransmitted: Karn's rule) transaction sample.
   Standard Jacobson/Karels constants: alpha 1/8, beta 1/4, RTO =
   SRTT + 4 RTTVAR, clamped to [rto_min, rto_max]. *)
let note_rtt t ~dst span =
  let st = rto_state_for t dst in
  let rtt = float_of_int span in
  if st.samples = 0 then begin
    st.srtt <- rtt;
    st.rttvar <- rtt /. 2.0
  end
  else begin
    st.rttvar <- (0.75 *. st.rttvar) +. (0.25 *. Float.abs (st.srtt -. rtt));
    st.srtt <- (0.875 *. st.srtt) +. (0.125 *. rtt)
  end;
  st.samples <- st.samples + 1;
  let rto = int_of_float (st.srtt +. (4.0 *. st.rttvar)) in
  st.rto <- max rto_min (min rto_max rto);
  Sim.Stats.kset t.rto_by dst (st.rto / 1_000)

let rto_for t dst =
  if not t.cfg.adaptive_rto then t.cfg.retry_initial
  else begin
    match Hashtbl.find_opt t.rto dst with
    | Some st when st.samples > 0 -> st.rto
    | Some _ | None -> t.cfg.retry_initial
  end

type peer_stats = {
  peer : Net.Address.t;
  retrans : int;
  nacks : int;
  rto_ms : float;
}

let peer_stats t =
  let keys = Hashtbl.create 8 in
  let note (k, _) = Hashtbl.replace keys k () in
  List.iter note (Sim.Stats.kitems t.retrans_by);
  List.iter note (Sim.Stats.kitems t.nacks_by);
  List.iter note (Sim.Stats.kitems t.rto_by);
  Hashtbl.fold (fun k () acc -> k :: acc) keys []
  |> List.sort Net.Address.compare
  |> List.map (fun peer ->
         {
           peer;
           retrans = Sim.Stats.kvalue t.retrans_by peer;
           nacks = Sim.Stats.kvalue t.nacks_by peer;
           rto_ms =
             (match Hashtbl.find_opt t.rto peer with
             | Some st when st.samples > 0 -> Sim.Time.to_ms_f st.rto
             | Some _ | None -> Sim.Time.to_ms_f t.cfg.retry_initial);
         })

(* --- transmission --------------------------------------------------- *)

(* A burst spawns no process: fragment [i] asks for the bus from an
   engine event once its own driver cost has elapsed since the start
   of the burst and fragment [i-1] is off the wire, so driver costs
   overlap the wire time of earlier fragments.  [frags] is the
   fragment indices to send — the full burst at first, only the
   missing ones on a selective retransmission.  A crash (NIC detach)
   abandons the rest of the burst. *)
let send_frag_list t ~dst ~service ~tid ~kind ~total_size body frags =
  let n = Packet.nfrags_of ~frag_payload total_size in
  let frame_for i =
    let frag_size = Packet.frag_bytes ~frag_payload ~total_size i in
    let pkt =
      { Packet.tid; service; kind; frag = i; nfrags = n; total_size; body }
    in
    Net.Frame.make ~src:t.address ~dst:(Net.Frame.Unicast dst)
      ~payload_bytes:(frag_size + Packet.header_bytes)
      (Packet.Ratp pkt)
  in
  let eng = Net.Ethernet.engine t.ether in
  let cfg = Net.Ethernet.config t.ether in
  let t0 = Sim.Engine.now eng in
  let epoch = Net.Nic.epoch t.nic in
  let rec launch_from off_wire = function
    | [] -> ()
    | i :: rest ->
        let frame = frame_for i in
        let ready = Sim.Time.add t0 (Net.Ethernet.host_send_cost cfg frame) in
        Sim.Engine.at eng (max ready off_wire) (fun () ->
            if Net.Nic.epoch t.nic = epoch then
              launch_from (Net.Ethernet.launch t.ether frame) rest)
  in
  launch_from t0 frags

let send_fragments t ~dst ~service ~tid ~kind ~total_size body =
  let n = Packet.nfrags_of ~frag_payload total_size in
  send_frag_list t ~dst ~service ~tid ~kind ~total_size body
    (List.init n Fun.id)

let send_ack t ~dst ~tid ~service =
  send_fragments t ~dst ~service ~tid ~kind:Packet.Ack ~total_size:0
    Packet.Empty

let send_control t ~dst ~tid ~service ~kind bits =
  send_frag_list t ~dst ~service ~tid ~kind
    ~total_size:(Packet.bitmap_bytes (Array.length bits))
    (Packet.Bitmap (Array.copy bits))
    [ 0 ]

(* --- server side ---------------------------------------------------- *)

let schedule_cache_expiry t tid =
  let eng = Net.Ethernet.engine t.ether in
  Sim.Engine.at eng
    (Sim.Time.add (Sim.Engine.now eng) t.cfg.server_cache_ttl)
    (fun () ->
      match Tid_table.find_opt t.servers tid with
      | Some (Done _) -> Tid_table.remove t.servers tid
      | Some (Accumulating _ | In_progress) | None -> ())

(* A request burst whose tail was lost and never retried must not pin
   its [Accumulating] entry forever: reap it once it has been quiet
   for [server_cache_ttl].  Fragments and probes refresh [touched],
   so a transaction the client is still retrying (even across long
   backoff intervals) survives. *)
let rec schedule_accumulation_expiry t tid =
  let eng = Net.Ethernet.engine t.ether in
  Sim.Engine.at eng
    (Sim.Time.add (Sim.Engine.now eng) t.cfg.server_cache_ttl)
    (fun () ->
      match Tid_table.find_opt t.servers tid with
      | Some (Accumulating acc) ->
          let idle = Sim.Time.diff (Sim.Engine.now eng) acc.touched in
          if Sim.Time.compare idle t.cfg.server_cache_ttl >= 0 then
            Tid_table.remove t.servers tid
          else schedule_accumulation_expiry t tid
      | Some (In_progress | Done _) | None -> ())

let run_handler t ~(src : Net.Address.t) ~tid ~service body =
  ignore
    (Sim.Engine.spawn
       (Net.Ethernet.engine t.ether)
       ?group:t.group "ratp-handler"
       (fun () ->
         match Hashtbl.find_opt t.services service with
         | None ->
             (* unknown service: drop; the client will time out *)
             Tid_table.remove t.servers tid
         | Some handler ->
             (* run under the caller's span so server-side spans
                join the client's trace *)
             Obs.Tracer.accept ~origin:tid.Packet.origin ~seq:tid.Packet.seq
               (fun () ->
                 Sim.sleep proc_cost;
                 let reply, reply_size = handler ~src body in
                 Tid_table.replace t.servers tid (Done { reply; reply_size });
                 schedule_cache_expiry t tid;
                 Sim.sleep proc_cost;
                 send_fragments t ~dst:src ~service ~tid ~kind:Packet.Reply
                   ~total_size:reply_size reply)))

let handle_request t ~src (pkt : Packet.t) =
  match Tid_table.find_opt t.servers pkt.tid with
  | Some (Done { reply; reply_size }) ->
      (* duplicate request: retransmit the cached reply once per
         request burst (triggered by fragment 0) *)
      if pkt.frag = 0 then begin
        Sim.Stats.incr_by t.retrans_bytes reply_size;
        Sim.Stats.kincr t.retrans_by src;
        send_fragments t ~dst:src ~service:pkt.service ~tid:pkt.tid
          ~kind:Packet.Reply ~total_size:reply_size reply
      end
  | Some In_progress ->
      (* tell the retransmitting client the handler is still running
         so it does not give up on a long operation; a Busy carries
         no payload *)
      if pkt.frag = 0 then
        send_fragments t ~dst:src ~service:pkt.service ~tid:pkt.tid
          ~kind:Packet.Busy ~total_size:0 Packet.Empty
  | Some (Accumulating acc) ->
      acc.touched <- Sim.Engine.now (Net.Ethernet.engine t.ether);
      if not acc.got.(pkt.frag) then begin
        acc.got.(pkt.frag) <- true;
        acc.missing <- acc.missing - 1;
        if acc.missing = 0 then begin
          Tid_table.replace t.servers pkt.tid In_progress;
          run_handler t ~src ~tid:pkt.tid ~service:pkt.service pkt.body
        end
      end
  | None ->
      if pkt.nfrags = 1 then begin
        Tid_table.replace t.servers pkt.tid In_progress;
        run_handler t ~src ~tid:pkt.tid ~service:pkt.service pkt.body
      end
      else begin
        let got = Array.make pkt.nfrags false in
        got.(pkt.frag) <- true;
        Tid_table.replace t.servers pkt.tid
          (Accumulating
             {
               got;
               missing = pkt.nfrags - 1;
               touched = Sim.Engine.now (Net.Ethernet.engine t.ether);
             });
        schedule_accumulation_expiry t pkt.tid
      end

(* A retransmit probe asks "what are you missing?".  The answer
   depends on where the transaction stands:
   - reply cached: resend only the reply fragments the probe's bitmap
     says the client lacks (all of them if the bitmap is absent);
   - handler running: Busy, as for a duplicate request;
   - request incomplete: Nack carrying our received-fragment bitmap;
   - no state at all (whole burst lost, or reaped): Nack with an
     empty bitmap, which the client reads as "resend everything". *)
let handle_probe t ~src (pkt : Packet.t) =
  match Tid_table.find_opt t.servers pkt.tid with
  | Some (Done { reply; reply_size }) ->
      let n = Packet.nfrags_of ~frag_payload reply_size in
      let missing =
        match pkt.body with
        | Packet.Bitmap got when Array.length got = n ->
            List.filter (fun i -> not got.(i)) (List.init n Fun.id)
        | _ -> List.init n Fun.id
      in
      if missing <> [] then begin
        List.iter
          (fun i ->
            Sim.Stats.incr_by t.retrans_bytes
              (Packet.frag_bytes ~frag_payload ~total_size:reply_size i))
          missing;
        Sim.Stats.kincr t.retrans_by src;
        send_frag_list t ~dst:src ~service:pkt.service ~tid:pkt.tid
          ~kind:Packet.Reply ~total_size:reply_size reply missing
      end
  | Some In_progress ->
      send_fragments t ~dst:src ~service:pkt.service ~tid:pkt.tid
        ~kind:Packet.Busy ~total_size:0 Packet.Empty
  | Some (Accumulating acc) ->
      acc.touched <- Sim.Engine.now (Net.Ethernet.engine t.ether);
      Sim.Stats.incr t.nacks;
      Sim.Stats.kincr t.nacks_by src;
      send_control t ~dst:src ~tid:pkt.tid ~service:pkt.service
        ~kind:Packet.Nack acc.got
  | None ->
      Sim.Stats.incr t.nacks;
      Sim.Stats.kincr t.nacks_by src;
      send_control t ~dst:src ~tid:pkt.tid ~service:pkt.service
        ~kind:Packet.Nack [||]

(* --- client side ---------------------------------------------------- *)

let handle_reply t (pkt : Packet.t) =
  match Tid_table.find_opt t.clients pkt.tid with
  | None -> () (* transaction already completed or abandoned *)
  | Some pc ->
      pc.heard <- true;
      if pc.reply_missing = -1 then begin
        pc.reply_got <- Array.make pkt.nfrags false;
        pc.reply_missing <- pkt.nfrags
      end;
      if not pc.reply_got.(pkt.frag) then begin
        pc.reply_got.(pkt.frag) <- true;
        pc.reply_missing <- pc.reply_missing - 1;
        if pc.reply_missing = 0 then Sim.Mailbox.send pc.complete pkt.body
      end

(* The server told us which request fragments it is missing; resend
   exactly those.  A bitmap of the wrong size (or none) means the
   server lost all state: resend the full burst. *)
let handle_nack t (pkt : Packet.t) =
  match Tid_table.find_opt t.clients pkt.tid with
  | None -> ()
  | Some pc ->
      pc.heard <- true;
      let n = Packet.nfrags_of ~frag_payload pc.req_size in
      let missing =
        match pkt.body with
        | Packet.Bitmap got when Array.length got = n ->
            List.filter (fun i -> not got.(i)) (List.init n Fun.id)
        | _ -> List.init n Fun.id
      in
      if missing <> [] then begin
        List.iter
          (fun i ->
            Sim.Stats.incr_by t.retrans_bytes
              (Packet.frag_bytes ~frag_payload ~total_size:pc.req_size i))
          missing;
        send_frag_list t ~dst:pc.dst ~service:pc.service ~tid:pkt.tid
          ~kind:Packet.Request ~total_size:pc.req_size pc.req_body missing
      end

let handle_packet t ~src (pkt : Packet.t) =
  match pkt.kind with
  | Packet.Request -> handle_request t ~src pkt
  | Packet.Reply -> handle_reply t pkt
  | Packet.Ack -> Tid_table.remove t.servers pkt.tid
  | Packet.Probe -> handle_probe t ~src pkt
  | Packet.Nack -> handle_nack t pkt
  | Packet.Busy -> (
      match Tid_table.find_opt t.clients pkt.tid with
      | Some pc ->
          pc.busy <- true;
          pc.heard <- true
      | None -> ())

let create ether ~addr ?group ?(config = default_config) () =
  let nic = Net.Ethernet.attach ether addr in
  let t =
    {
      ether;
      nic;
      address = addr;
      group;
      cfg = config;
      next_seq = 0;
      clients = Tid_table.create 16;
      servers = Tid_table.create 16;
      services = Hashtbl.create 8;
      rto = Hashtbl.create 8;
      retrans = Sim.Stats.counter "ratp.retrans";
      retrans_bytes = Sim.Stats.counter "ratp.retrans_bytes";
      nacks = Sim.Stats.counter "ratp.nacks";
      completed = Sim.Stats.counter "ratp.transactions";
      retrans_by = Sim.Stats.keyed "ratp.retrans";
      nacks_by = Sim.Stats.keyed "ratp.nacks";
      rto_by = Sim.Stats.keyed "ratp.rto_us";
    }
  in
  Net.Nic.set_handler nic (fun frame ->
      match frame.Net.Frame.payload with
      | Packet.Ratp pkt -> handle_packet t ~src:frame.Net.Frame.src pkt
      | _ -> ());
  t

let serve t ~service handler = Hashtbl.replace t.services service handler

let restart t =
  (* transaction state dies with the machine; the sequence space and
     the RTT estimators survive — reusing a tid would defeat the
     duplicate-suppression cache of servers that remember us, and
     path round-trip times do not change because we crashed *)
  Tid_table.reset t.clients;
  Tid_table.reset t.servers

let call t ~dst ~service ~size body =
  Sim.sleep proc_cost;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let tid = { Packet.origin = t.address; seq } in
  let pc =
    {
      complete = Sim.Mailbox.create "ratp-reply";
      reply_got = [||];
      reply_missing = -1;
      busy = false;
      heard = false;
      dst;
      service;
      req_body = body;
      req_size = size;
      retransmitted = false;
    }
  in
  Tid_table.replace t.clients tid pc;
  let req_nfrags = Packet.nfrags_of ~frag_payload size in
  (* The span covers the whole blocking exchange (send, retries,
     reply); [offer] lets the server's handler process parent its
     spans under this call via the transaction id — a side-channel
     table, nothing on the wire. *)
  let span = Obs.Tracer.start ~node:t.address "rpc" in
  Obs.Tracer.offer ~origin:t.address ~seq;
  Fun.protect
    ~finally:(fun () ->
      Obs.Tracer.retract ~origin:t.address ~seq;
      Obs.Tracer.finish span;
      Tid_table.remove t.clients tid)
    (fun () ->
      let t_start = Sim.now () in
      (* Retransmission: under [selective_retransmit] a timeout sends
         a 1-frame probe and lets the server's answer drive exactly
         the missing fragments back onto the wire.  Two exceptions
         fall back to the legacy full burst: a single-fragment
         request with no reply yet (the request fragment *is* the
         cheapest possible probe, and the retried packet stream is
         bit-identical to the full-burst path), and a request-phase
         retry round that produced no feedback at all — when probes
         and Nacks are dying too (bursty loss, dead server),
         resending data is the only move that can make progress.
         Once any reply fragment has arrived the request is known
         complete, so the escalation is pointless: a resent burst
         could only trigger the server's full cached-reply resend,
         while a probe pulls exactly the missing reply fragments. *)
      let retransmit ~sends =
        let heard = pc.heard in
        pc.heard <- false;
        pc.retransmitted <- true;
        Sim.Stats.incr t.retrans;
        Sim.Stats.kincr t.retrans_by dst;
        if
          t.cfg.selective_retransmit
          && (sends = 1 || heard || pc.reply_missing >= 0)
          && not (req_nfrags = 1 && pc.reply_missing = -1)
        then send_control t ~dst ~tid ~service ~kind:Packet.Probe pc.reply_got
        else begin
          Sim.Stats.incr_by t.retrans_bytes size;
          send_fragments t ~dst ~service ~tid ~kind:Packet.Request
            ~total_size:size body
        end
      in
      (* [n] counts attempts against the give-up budget; [sends]
         counts wire sends, so Busy-path probes register as
         retransmissions without burning attempts *)
      let rec attempt ~sends n interval =
        if n > t.cfg.max_attempts then Error Timeout
        else begin
          if sends = 0 then
            send_fragments t ~dst ~service ~tid ~kind:Packet.Request
              ~total_size:size body
          else retransmit ~sends;
          match Sim.Mailbox.recv_timeout pc.complete interval with
          | Some reply ->
              if not pc.retransmitted then
                note_rtt t ~dst (Sim.Time.diff (Sim.now ()) t_start);
              Sim.sleep proc_cost;
              send_ack t ~dst ~tid ~service;
              Sim.Stats.incr t.completed;
              Ok reply
          | None ->
              if pc.busy then begin
                (* the server is working on it: keep waiting without
                   burning attempts (deadlock breaking is the
                   caller's job, e.g. abort-after-timeout) *)
                pc.busy <- false;
                attempt ~sends:(sends + 1) n interval
              end
              else
                attempt ~sends:(sends + 1) (n + 1)
                  (int_of_float (float_of_int interval *. retry_backoff))
        end
      in
      attempt ~sends:0 1 (rto_for t dst))
