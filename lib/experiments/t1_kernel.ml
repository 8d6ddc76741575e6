type result = {
  context_switch_ms : float;
  fault_zero_fill_ms : float;
  fault_data_ms : float;
  samples : int;
}

let measure_context_switch ~samples =
  Sim.exec (fun () ->
      let cpu = Ra.Cpu.create () in
      (* two entities ping-pong on the processor; each handoff is one
         context switch and no other cost *)
      let stats = Sim.Stats.series "cs" in
      Ra.Cpu.consume cpu ~key:1 0;
      for i = 1 to samples do
        let key = 1 + (i mod 2) in
        let t0 = Sim.now () in
        Ra.Cpu.consume cpu ~key 0;
        Sim.Stats.add_span stats (Sim.Time.diff (Sim.now ()) t0)
      done;
      Sim.Stats.mean stats)

let measure_faults ~samples =
  Sim.exec (fun () ->
      let params = Ra.Params.default in
      let cpu = Ra.Cpu.create () in
      let mmu = Ra.Mmu.create ~params ~cpu () in
      let store = Store.Segment_store.create "local" in
      Ra.Mmu.set_resolver mmu (fun _ -> Store.Segment_store.local_partition store);
      let gen = Ra.Sysname.make_gen ~node:0 in
      let zero = Sim.Stats.series "zero" and data = Sim.Stats.series "data" in
      Ra.Cpu.consume cpu ~key:(Sim.self ()) 0;
      for _ = 1 to samples do
        let seg = Ra.Sysname.fresh gen in
        Store.Segment_store.create_segment store seg ~size:(2 * Ra.Page.size);
        (* page 1 holds data; page 0 was never written (zero fill) *)
        Store.Segment_store.write_page store seg 1
          (Ra.Page.adopt (Bytes.make Ra.Page.size 'd'));
        let vs = Ra.Virtual_space.create () in
        Ra.Virtual_space.map vs ~base:0 ~len:(2 * Ra.Page.size)
          ~prot:Ra.Virtual_space.Read_write seg;
        let t0 = Sim.now () in
        ignore (Ra.Mmu.read mmu vs ~addr:0 ~len:8);
        Sim.Stats.add_span zero (Sim.Time.diff (Sim.now ()) t0);
        let t1 = Sim.now () in
        ignore (Ra.Mmu.read mmu vs ~addr:Ra.Page.size ~len:8);
        Sim.Stats.add_span data (Sim.Time.diff (Sim.now ()) t1)
      done;
      (Sim.Stats.mean zero, Sim.Stats.mean data))

let run ?(samples = 100) () =
  let context_switch_ms = measure_context_switch ~samples in
  let fault_zero_fill_ms, fault_data_ms = measure_faults ~samples in
  { context_switch_ms; fault_zero_fill_ms; fault_data_ms; samples }

let report r =
  Report.table ~title:"T1: kernel performance (paper section 4.3)"
    [
      {
        Report.label = "context switch";
        paper = "0.14 ms";
        measured = Report.ms r.context_switch_ms;
        note = Printf.sprintf "mean of %d handoffs" r.samples;
      };
      {
        Report.label = "page fault, 8K zero-filled";
        paper = "1.5 ms";
        measured = Report.ms r.fault_zero_fill_ms;
        note = "local page, never written";
      };
      {
        Report.label = "page fault, 8K with data";
        paper = "0.629 ms";
        measured = Report.ms r.fault_data_ms;
        note = "local page, data present";
      };
    ]
