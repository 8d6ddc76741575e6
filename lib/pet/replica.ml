module P = Dsm.Protocol
module Cl = Clouds.Cluster

type t = {
  class_name : string;
  members : Ra.Sysname.t array;
  homes : Net.Address.t array;
}

let create om ~class_name ~degree arg =
  let cl = Clouds.Object_manager.cluster om in
  let ndata = Array.length cl.Cl.data_nodes in
  if degree < 1 || degree > ndata then
    invalid_arg
      "Replica.create: degree must be within the number of data servers";
  let homes =
    Array.init degree (fun i -> cl.Cl.data_nodes.(i mod ndata).Ra.Node.id)
  in
  let members =
    Array.map
      (fun home ->
        Clouds.Object_manager.create_object om ~home ~class_name arg)
      homes
  in
  { class_name; members; homes }

let degree t = Array.length t.members

let pick t i = t.members.(i mod Array.length t.members)

let live_node cl =
  match
    Array.to_list cl.Cl.compute_nodes |> List.find_opt (fun n -> n.Ra.Node.alive)
  with
  | Some n -> n
  | None -> invalid_arg "Replica: no live compute server"

let descriptor_of om node obj =
  let cl = Clouds.Object_manager.cluster om in
  let home =
    match Ra.Sysname.Table.find_opt cl.Cl.obj_home obj with
    | Some h -> h
    | None -> raise (Clouds.Object_manager.No_object obj)
  in
  match P.call node ~dst:home (P.Get_descriptor obj) with
  | Ok (P.Descriptor (Some d)) -> Some (home, d)
  | Ok _ | Error Ratp.Endpoint.Timeout -> None

let persistent_entries d =
  List.filter
    (fun e -> not (String.equal e.Store.Directory.role "code"))
    d.Store.Directory.entries

let copy_state om t ~from_index ~to_index =
  let cl = Clouds.Object_manager.cluster om in
  let node = live_node cl in
  match
    ( descriptor_of om node t.members.(from_index),
      descriptor_of om node t.members.(to_index) )
  with
  | None, _ | _, None -> false
  | Some (src_home, src_desc), Some (dst_home, dst_desc) -> (
      let pairs =
        List.filter_map
          (fun src_e ->
            List.find_opt
              (fun dst_e ->
                String.equal dst_e.Store.Directory.role
                  src_e.Store.Directory.role)
              (persistent_entries dst_desc)
            |> Option.map (fun dst_e -> (src_e, dst_e)))
          (persistent_entries src_desc)
      in
      let ok = ref true in
      let writes = ref [] in
      List.iter
        (fun (src_e, dst_e) ->
          let pages = Ra.Page.count_for src_e.Store.Directory.size in
          for page = 0 to pages - 1 do
            match
              P.call node ~dst:src_home
                (P.Get_page
                   {
                     seg = src_e.Store.Directory.seg;
                     page;
                     mode = Ra.Partition.Read;
                     window = 0;
                   })
            with
            | Ok (P.Got_page (Ra.Partition.Data data)) ->
                writes := (dst_e.Store.Directory.seg, page, data) :: !writes
            | Ok (P.Got_page Ra.Partition.Zeroed) ->
                writes :=
                  (dst_e.Store.Directory.seg, page, Ra.Page.zero) :: !writes
            | Ok _ | Error Ratp.Endpoint.Timeout -> ok := false
          done)
        pairs;
      if not !ok then false
      else
        match P.call node ~dst:dst_home (P.Overwrite (List.rev !writes)) with
        | Ok P.Batch_ok -> true
        | Ok _ | Error Ratp.Endpoint.Timeout -> false)

let live_members om t =
  let cl = Clouds.Object_manager.cluster om in
  Array.to_list t.homes
  |> List.mapi (fun i home -> (i, home))
  |> List.filter_map (fun (i, home) ->
         match Cl.node_by_id cl home with
         | Some n when n.Ra.Node.alive -> Some i
         | Some _ | None -> None)
