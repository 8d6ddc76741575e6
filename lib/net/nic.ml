type t = {
  eng : Sim.Engine.t;
  addr : Address.t;
  rx : Frame.t Sim.Mailbox.t;
  recv_cost_per_frame : Sim.Time.span;
  recv_cost_per_byte_ns : int;
  mutable attached : bool;
  mutable epoch : int;
  mutable detached_at : Sim.Time.t;
  mutable rx_free_at : Sim.Time.t;
  mutable handler : Frame.t -> unit;
}

let create eng ~addr ~recv_cost_per_frame ~recv_cost_per_byte_ns =
  let rx = Sim.Mailbox.create (Printf.sprintf "nic-%d-rx" addr) in
  {
    eng;
    addr;
    rx;
    recv_cost_per_frame;
    recv_cost_per_byte_ns;
    attached = true;
    epoch = 0;
    detached_at = Sim.Time.zero;
    rx_free_at = Sim.Time.zero;
    handler = Sim.Mailbox.send rx;
  }

(* A FIFO server: a frame's cost starts at its arrival or when the
   previous frame's ends, and one event at the end hands it over,
   unless the machine crashed in between. *)
let deliver t (frame : Frame.t) =
  if t.attached then begin
    let start = max (Sim.Engine.now t.eng) t.rx_free_at in
    let done_ =
      start + t.recv_cost_per_frame + (t.recv_cost_per_byte_ns * frame.bytes)
    in
    t.rx_free_at <- done_;
    let epoch = t.epoch in
    Sim.Engine.at t.eng done_ (fun () -> if t.epoch = epoch then t.handler frame)
  end

let addr t = t.addr
let set_handler t f = t.handler <- f
let recv t = Sim.Mailbox.recv t.rx
let try_recv t = Sim.Mailbox.try_recv t.rx

let set_attached t v =
  if t.attached && not v then begin
    t.epoch <- t.epoch + 1;
    t.detached_at <- Sim.Engine.now t.eng;
    t.rx_free_at <- Sim.Time.zero
  end;
  t.attached <- v

let epoch t = t.epoch

let up_through t ~epoch time =
  t.epoch = epoch || (t.epoch = epoch + 1 && t.detached_at >= time)
