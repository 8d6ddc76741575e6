type point = {
  copyset : int;
  suspects : int;
  parallel_ms : float;
}

type result = {
  rtt_ms : float;
  baseline_ms : float;
  healthy : point list;
  suspected : point list;
}

(* Short retransmission budget so the suspect variants give up after
   20 + 40 + 80 = 140 ms instead of RaTP's default 12.75 s.  The same
   config is used everywhere (including the RTT probe) so all the
   numbers in one report share a scale. *)
let ratp_config =
  {
    Ratp.Endpoint.default_config with
    retry_initial = Sim.Time.ms 20;
    max_attempts = 3;
  }

let measure_rtt () =
  Sim.exec (fun () ->
      let ether = Net.Ethernet.create (Sim.engine ()) () in
      let a = Ratp.Endpoint.create ether ~addr:1 ~config:ratp_config () in
      let b = Ratp.Endpoint.create ether ~addr:2 ~config:ratp_config () in
      Ratp.Endpoint.serve b ~service:1 (fun ~src:_ _ ->
          (Ratp.Packet.Ping "ok", 32));
      let t0 = Sim.now () in
      (match
         Ratp.Endpoint.call a ~dst:2 ~service:1 ~size:32
           (Ratp.Packet.Ping "x")
       with
      | Ok _ -> ()
      | Error Ratp.Endpoint.Timeout -> failwith "rtt probe timed out");
      Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0))

(* One data server, [copyset] reader clients that pull a read copy of
   page 0, then a separate writer node whose write fault forces the
   server to invalidate every copy.  Returns the writer's fault
   latency in simulated milliseconds. *)
let measure_write_fault ~copyset ~suspects =
  Sim.exec (fun () ->
      let ether = Net.Ethernet.create (Sim.engine ()) () in
      let nd =
        Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data ~ratp_config ()
      in
      let server = Dsm.Dsm_server.create nd () in
      let locate _ = 1 in
      let make_client id =
        let n = Ra.Node.create ether ~id ~kind:Ra.Node.Compute ~ratp_config () in
        ignore (Dsm.Dsm_client.create n ~locate ());
        n
      in
      let readers = List.init copyset (fun i -> make_client (10 + i)) in
      let writer = make_client 9 in
      let seg = Ra.Sysname.fresh nd.Ra.Node.names in
      Store.Segment_store.create_segment
        (Dsm.Dsm_server.store server)
        seg ~size:Ra.Page.size;
      let rpc (n : Ra.Node.t) body =
        match Dsm.Protocol.call n ~dst:1 body with
        | Ok (Dsm.Protocol.Got_page _) -> ()
        | Ok _ | Error Ratp.Endpoint.Timeout -> failwith "page fault failed"
      in
      List.iter
        (fun n ->
          rpc n
            (Dsm.Protocol.Get_page { seg; page = 0; mode = Ra.Partition.Read; window = 0 }))
        readers;
      (* the writer reads the page too, so every variant — including
         the empty-copyset baseline — measures a warm write fault; the
         server never invalidates the faulting node itself *)
      rpc writer
        (Dsm.Protocol.Get_page { seg; page = 0; mode = Ra.Partition.Read; window = 0 });
      (* crash the first [suspects] readers; the server still lists
         them in the copyset and will have to time out on each *)
      List.iteri (fun i n -> if i < suspects then Ra.Node.crash n) readers;
      let t0 = Sim.now () in
      rpc writer
        (Dsm.Protocol.Get_page { seg; page = 0; mode = Ra.Partition.Write; window = 0 });
      Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0))

let point ~copyset ~suspects =
  { copyset; suspects; parallel_ms = measure_write_fault ~copyset ~suspects }

let run ?(sizes = [ 1; 4; 8; 16 ]) () =
  let rtt_ms = measure_rtt () in
  let baseline_ms = measure_write_fault ~copyset:0 ~suspects:0 in
  let healthy = List.map (fun k -> point ~copyset:k ~suspects:0) sizes in
  let suspected =
    List.map (fun k -> point ~copyset:k ~suspects:(min 2 k)) sizes
  in
  { rtt_ms; baseline_ms; healthy; suspected }

let report r =
  let rows_of tag points =
    List.map
      (fun p ->
        {
          Report.label =
            Printf.sprintf "write fault, copyset %d%s" p.copyset
              (if p.suspects > 0 then
                 Printf.sprintf " (%d crashed)" p.suspects
               else "");
          paper = "-";
          measured = Report.ms p.parallel_ms;
          note =
            Printf.sprintf "%s, +%.1f rtt over empty" tag
              ((p.parallel_ms -. r.baseline_ms) /. r.rtt_ms);
        })
      points
  in
  Report.table ~title:"Write-fault fan-out: concurrent invalidation"
    ({
       Report.label = "null RaTP round trip";
       paper = "4.8 ms";
       measured = Report.ms r.rtt_ms;
       note = "scale for the rows below";
     }
     :: {
          Report.label = "write fault, empty copyset";
          paper = "-";
          measured = Report.ms r.baseline_ms;
          note = "no invalidations";
        }
     :: (rows_of "healthy" r.healthy @ rows_of "suspects" r.suspected))
