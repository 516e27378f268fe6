(* Quickstart: totally-ordered key-value replication with the SC protocol.

   Builds an f=1 cluster (4 order processes: 3 replicas + 1 shadow), sends a
   handful of client requests, runs the simulation, and shows that every
   replica applied the same operations in the same order.

   Run with: dune exec examples/quickstart.exe *)

module Simtime = Sof_sim.Simtime
module H = Sof_harness
module Kv = Sof_smr.Kv_store

let () =
  (* 1. A cluster: SC protocol, f = 1, everything else default. *)
  let cluster = H.Cluster.build (H.Cluster.default_spec ~kind:H.Cluster.Sc_protocol ~f:1) in

  (* 2. Clients broadcast requests to every order process. *)
  let requests =
    [
      Kv.Put ("alice", "100");
      Kv.Put ("bob", "250");
      Kv.Cas { key = "alice"; expected = "100"; replacement = "90" };
      Kv.Get "alice";
      Kv.Delete "bob";
    ]
  in
  List.iteri
    (fun i op ->
      let req =
        Sof_smr.Request.make ~client:0 ~client_seq:(i + 1) ~op:(Kv.encode_op op)
      in
      H.Cluster.inject_request cluster req)
    requests;

  (* 3. Run one simulated second — plenty for a LAN round. *)
  H.Cluster.run cluster ~until:(Simtime.sec 1);

  (* 4. Every replica's state machine saw the same totally-ordered input. *)
  Format.printf "delivered batches per process:@.";
  List.iter
    (fun (at, who, event) ->
      match event with
      | Sof_protocol.Context.Delivered { seq; batch } ->
        Format.printf "  t=%a p%d seq=%d %a@." Simtime.pp at who seq
          Sof_protocol.Batch.pp batch
      | _ -> ())
    (H.Cluster.events cluster);
  let digests =
    List.init (H.Cluster.process_count cluster) (fun i ->
        let m = H.Cluster.machine cluster i in
        (i, Sof_smr.State_machine.ops_applied m, Sof_smr.State_machine.state_digest m))
  in
  Format.printf "@.replica states:@.";
  List.iter
    (fun (i, ops, digest) ->
      Format.printf "  p%d applied %d ops, state %a@." i ops Sof_util.Hex.pp digest)
    digests;
  let reference = match digests with (_, _, d) :: _ -> d | [] -> "" in
  let agree = List.for_all (fun (_, _, d) -> d = reference) digests in
  Format.printf "@.all replicas agree: %b@." agree;
  if not agree then exit 1
