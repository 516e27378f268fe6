(* Distributed mutual exclusion on top of total order.

   Three clients race to acquire the same lock.  Because every replica
   processes the totally-ordered request sequence, all replicas agree on who
   won and on the exact FIFO hand-over order — no extra coordination, which
   is precisely what the paper's ordering service is for.

   Run with: dune exec examples/lock_demo.exe *)

module Simtime = Sof_sim.Simtime
module H = Sof_harness
module Lock = Sof_smr.Lock_service

let () =
  let cluster =
    H.Cluster.build
      {
        (H.Cluster.default_spec ~kind:H.Cluster.Sc_protocol ~f:1) with
        H.Cluster.machine_factory = (fun () -> Lock.machine);
      }
  in
  let engine = H.Cluster.engine cluster in

  (* Three contenders race for "leader", then the winner releases it. *)
  let requests =
    [
      (0, 1, Lock.Acquire { lock = "leader"; owner = "alice" });
      (1, 1, Lock.Acquire { lock = "leader"; owner = "bob" });
      (2, 1, Lock.Acquire { lock = "leader"; owner = "carol" });
      (0, 2, Lock.Release { lock = "leader"; owner = "alice" });
      (1, 2, Lock.Query { lock = "leader" });
    ]
  in
  List.iteri
    (fun i (client, client_seq, op) ->
      ignore
        (Sof_sim.Engine.schedule engine ~delay:(Simtime.ms (10 * (i + 1))) (fun () ->
             H.Cluster.inject_request cluster
               (Sof_smr.Request.make ~client ~client_seq ~op:(Lock.encode_op op)))))
    requests;

  H.Cluster.run cluster ~until:(Simtime.sec 2);

  (* A correct client accepts the reply vouched for by f+1 replicas. *)
  Format.printf "certified replies (f+1 matching replicas):@.";
  List.iter
    (fun (client, client_seq, op) ->
      let key = { Sof_smr.Request.client; client_seq } in
      match H.Cluster.reply_certificate cluster key with
      | Some reply ->
        let pp_op fmt = function
          | Lock.Acquire { owner; _ } -> Format.fprintf fmt "acquire by %s" owner
          | Lock.Release { owner; _ } -> Format.fprintf fmt "release by %s" owner
          | Lock.Query _ -> Format.fprintf fmt "query"
        in
        let pp_reply fmt = function
          | Lock.Granted -> Format.fprintf fmt "granted"
          | Lock.Queued n -> Format.fprintf fmt "queued at position %d" n
          | Lock.Released -> Format.fprintf fmt "released"
          | Lock.Not_holder -> Format.fprintf fmt "refused (not holder)"
          | Lock.Holder (Some h) -> Format.fprintf fmt "holder is %s" h
          | Lock.Holder None -> Format.fprintf fmt "lock is free"
          | Lock.Bad_request -> Format.fprintf fmt "bad request"
        in
        Format.printf "  %-20s -> %a@." (Format.asprintf "%a" pp_op op) pp_reply
          (Lock.decode_reply reply)
      | None -> Format.printf "  request %a: no certificate!@." Sof_smr.Request.pp_key key)
    requests;
  (* After alice releases, bob (first waiter) must hold the lock at every
     replica. *)
  match H.Cluster.reply_certificate cluster { Sof_smr.Request.client = 1; client_seq = 2 } with
  | Some reply when Lock.decode_reply reply = Lock.Holder (Some "bob") ->
    Format.printf "@.FIFO hand-over verified: bob holds the lock everywhere@."
  | _ ->
    Format.printf "@.unexpected final holder@.";
    exit 1
