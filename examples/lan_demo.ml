(* Real-network demo: the SC protocol over localhost TCP.

   Everything else in this repository measures the protocols under the
   calibrated simulator; this demo runs the very same protocol code over
   real sockets, an event loop and wall-clock timers — a miniature version of
   the paper's LAN deployment.  Signatures are genuine (HMAC keyring).

   Run with: dune exec examples/lan_demo.exe *)

module Kv = Sof_smr.Kv_store
module Runtime = Sof_runtime.Tcp_runtime

let () =
  Format.printf "starting SC cluster (f=1, 4 processes) on 127.0.0.1...@.";
  let t = Runtime.start ~kind:`Sc ~f:1 ~batching_interval_ms:20 () in

  let request_count = 60 in
  for i = 1 to request_count do
    Runtime.inject t
      (Sof_smr.Request.make ~client:1 ~client_seq:i
         ~op:(Kv.encode_op (Kv.Put (Printf.sprintf "key-%d" i, string_of_int i))));
    (* A gentle client: ~500 req/s. *)
    Unix.sleepf 0.002
  done;

  let ok = Runtime.await_delivery t ~count:1 ~timeout_s:10.0 in
  (* Give stragglers a moment, then collect. *)
  Unix.sleepf 0.5;
  let stats = Runtime.stop t in

  Format.printf "every process delivered something: %b@." ok;
  List.iter
    (fun (i, n) -> Format.printf "  p%d delivered %d batches@." i n)
    stats.Runtime.delivered;
  let digests = List.map snd stats.Runtime.state_digests in
  let agree =
    match digests with [] -> false | d :: rest -> List.for_all (( = ) d) rest
  in
  Format.printf "replica states identical: %b@." agree;
  (match stats.Runtime.commit_latencies_ms with
  | [] -> Format.printf "no latencies recorded@."
  | ls ->
    let n = float_of_int (List.length ls) in
    let mean = List.fold_left ( +. ) 0.0 ls /. n in
    Format.printf "client-observed delivery latency: mean %.1f ms over %d requests@."
      mean (List.length ls));
  if not agree then exit 1
