type config = {
  bandwidth_bps : int;
  propagation : Sim.Time.span;
  frame_gap : Sim.Time.span;
  mtu_payload : int;
  send_cost_per_frame : Sim.Time.span;
  recv_cost_per_frame : Sim.Time.span;
  cost_per_byte_ns : int;
}

let default_config =
  {
    bandwidth_bps = 10_000_000;
    propagation = Sim.Time.us 5;
    frame_gap = Sim.Time.us 10;
    mtu_payload = 1482;
    send_cost_per_frame = Sim.Time.us 550;
    recv_cost_per_frame = Sim.Time.us 550;
    cost_per_byte_ns = 20;
  }

type t = {
  eng : Sim.Engine.t;
  cfg : config;
  fault : Fault.t;
  nics : (Address.t, Nic.t) Hashtbl.t;
  mutable by_addr : Nic.t list;  (* ascending address: broadcast order *)
  mutable bus_free_at : Sim.Time.t;
  frames : Sim.Stats.counter;
  bytes : Sim.Stats.counter;
}

let create eng ?(config = default_config) () =
  {
    eng;
    cfg = config;
    fault = Fault.create eng (Sim.Rng.split (Sim.Engine.rng eng));
    nics = Hashtbl.create 16;
    by_addr = [];
    bus_free_at = Sim.Time.zero;
    frames = Sim.Stats.counter "ether.frames";
    bytes = Sim.Stats.counter "ether.bytes";
  }

let config t = t.cfg
let fault t = t.fault
let engine t = t.eng

let attach t addr =
  if Hashtbl.mem t.nics addr then
    invalid_arg "Ethernet.attach: address in use";
  let nic =
    Nic.create t.eng ~addr ~recv_cost_per_frame:t.cfg.recv_cost_per_frame
      ~recv_cost_per_byte_ns:t.cfg.cost_per_byte_ns
  in
  Hashtbl.replace t.nics addr nic;
  t.by_addr <-
    List.merge
      (fun a b -> Address.compare (Nic.addr a) (Nic.addr b))
      t.by_addr [ nic ];
  nic

let nic t addr = Hashtbl.find_opt t.nics addr

let detach t addr =
  match nic t addr with Some n -> Nic.set_attached n false | None -> ()

let reattach t addr =
  match nic t addr with Some n -> Nic.set_attached n true | None -> ()

let wire_time cfg bytes =
  let bits = bytes * 8 in
  let ns = int_of_float (float_of_int bits /. float_of_int cfg.bandwidth_bps *. 1e9) in
  ns + cfg.frame_gap

(* Faults are evaluated per destination at delivery time.  The fault
   plan may suppress the frame, deliver extra copies, or push a copy
   later (jitter / reordering). *)
let deliver t (frame : Frame.t) =
  let deliver_to dst push =
    List.iter
      (fun extra ->
        if extra <= 0 then push ()
        else
          Sim.Engine.at t.eng (Sim.Time.add (Sim.Engine.now t.eng) extra) push)
      (Fault.plan t.fault ~src:frame.src ~dst frame)
  in
  match frame.dst with
  | Frame.Unicast addr ->
      deliver_to addr
        (match nic t addr with
        | Some n -> fun () -> Nic.deliver n frame
        | None -> ignore)
  | Frame.Broadcast ->
      List.iter
        (fun n ->
          let addr = Nic.addr n in
          if not (Address.equal addr frame.src) then
            deliver_to addr (fun () -> Nic.deliver n frame))
        t.by_addr

let host_send_cost cfg (frame : Frame.t) =
  cfg.send_cost_per_frame + (cfg.cost_per_byte_ns * frame.bytes)

(* The bus is a FIFO server: a frame asking for it now goes on the
   wire once every frame that asked earlier is off it.  Delivery
   happens [propagation] after the wire time ends, unless the sender
   was detached before then (a machine that crashes mid-wire sends
   nothing; its reserved slot stays used). *)
let launch t (frame : Frame.t) =
  if frame.bytes - Frame.header_bytes > t.cfg.mtu_payload then
    invalid_arg "Ethernet.transmit: payload exceeds MTU";
  let start = max (Sim.Engine.now t.eng) t.bus_free_at in
  let fin = Sim.Time.add start (wire_time t.cfg frame.bytes) in
  t.bus_free_at <- fin;
  Sim.Stats.incr t.frames;
  Sim.Stats.incr_by t.bytes frame.bytes;
  let arrival = Sim.Time.add fin t.cfg.propagation in
  (match nic t frame.src with
  | Some src ->
      let epoch = Nic.epoch src in
      Sim.Engine.at t.eng arrival (fun () ->
          if Nic.up_through src ~epoch fin then deliver t frame)
  | None -> Sim.Engine.at t.eng arrival (fun () -> deliver t frame));
  fin

let transmit t (frame : Frame.t) =
  Sim.sleep (host_send_cost t.cfg frame);
  let fin = launch t frame in
  Sim.sleep (Sim.Time.diff fin (Sim.now ()))

let frames_sent t = Sim.Stats.value t.frames
let bytes_sent t = Sim.Stats.value t.bytes
