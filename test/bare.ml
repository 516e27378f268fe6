(* A process context wired to nothing, for tests that drive one process or
   one kernel by hand: sends and timers go nowhere, the clock stands at
   zero, and signatures come from [keyring] when one is given (empty and
   always accepted otherwise).  It holds only what a driver supplies; the
   state machine and its delivery, snapshot and restore belong to the
   process shell ({!Sof_protocol.Replica}) or, for a bare kernel, to
   {!service}. *)

module P = Sof_protocol
module Keyring = Sof_crypto.Keyring

let context ?keyring ?(emit = ignore) ?store ~id () =
  let sign, verify =
    match keyring with
    | Some k -> (Keyring.sign k ~signer:id, Keyring.verify k)
    | None -> ((fun _ -> ""), fun ~signer:_ ~msg:_ ~signature:_ -> true)
  in
  {
    P.Context.id;
    now = (fun () -> Sof_sim.Simtime.zero);
    sign;
    verify;
    sign_acc = sign;
    verify_acc = verify;
    digest_charge = ignore;
    images = P.Checkpoint.Images.create ();
    batches = P.Checkpoint.Images.create ~window:P.Checkpoint.batch_window ();
    send = (fun ~dst:_ _ -> ());
    multicast = (fun ~dsts:_ _ -> ());
    set_timer = (fun ?kind:_ ~delay:_ _ -> P.Context.null_timer);
    emit;
    store;
  }

(* A fresh key-value store whose replies go nowhere. *)
let service () = { P.Recovery.machine = Sof_smr.Kv_store.machine (); on_reply = (fun _ _ -> ()) }
