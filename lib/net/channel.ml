module Engine = Sof_sim.Engine
module Simtime = Sof_sim.Simtime
module Codec = Sof_util.Codec
module Fnv = Sof_util.Fnv

type config = {
  rto : Simtime.t;
  max_backoff : Simtime.t;
}

let default_config = { rto = Simtime.ms 20; max_backoff = Simtime.ms 320 }

type stats = {
  data_sent : int;
  retransmits : int;
  acks_sent : int;
  delivered : int;
  dup_drops : int;
  stale_acks : int;
  corrupt_drops : int;
  max_backoff_reached : Simtime.t;
}

let zero_stats =
  {
    data_sent = 0;
    retransmits = 0;
    acks_sent = 0;
    delivered = 0;
    dup_drops = 0;
    stale_acks = 0;
    corrupt_drops = 0;
    max_backoff_reached = Simtime.zero;
  }

(* Mutable per-directed-channel counters; snapshotted into [stats]. *)
type counters = {
  mutable c_data_sent : int;
  mutable c_retransmits : int;
  mutable c_acks_sent : int;
  mutable c_delivered : int;
  mutable c_dup_drops : int;
  mutable c_stale_acks : int;
  mutable c_corrupt_drops : int;
  mutable c_max_backoff : Simtime.t;
}

type inflight = {
  wire : string;
  mutable backoff : Simtime.t;
  mutable timer : Engine.handle option;
}

type sender = {
  mutable next_seq : int;
  pending : (int, inflight) Hashtbl.t;
}

type receiver = {
  mutable cum : int;  (* every sequence below this has been delivered *)
  ahead : (int, unit) Hashtbl.t;  (* delivered sequences >= cum *)
}

type t = {
  net : Network.t;
  engine : Engine.t;
  cfg : config;
  senders : sender array array;  (* [src].(dst) *)
  receivers : receiver array array;  (* [dst].(src) *)
  counters : counters array array;  (* [src].(dst): the src->dst data flow *)
  handlers : (src:int -> string -> unit) option array;
}

(* ------------------------------------------------------------- framing *)

let tag_data = 0
let tag_ack = 1

(* A sequence number's bytes, low first: at least one. *)
let rec mix_seq h s =
  let h = Fnv.feed_byte h (s land 0xff) in
  if s > 0xff then mix_seq h (s lsr 8) else h

(* FNV-1a over the frame's semantic content (tag, sequence, payload).  A
   frame corrupted on a hostile wire must fail this check and die un-acked so
   the retransmission machinery recovers the clean copy; without it, a
   payload bit-flip leaves the header parseable — the receiver would ack the
   sequence number and mark it delivered, silently breaking the exactly-once
   contract (and a bit-flipped ack would cancel the wrong in-flight entry). *)
let checksum ~tag ~seq payload =
  let h = mix_seq (Fnv.feed_byte Fnv.basis tag) seq in
  Fnv.feed h payload ~pos:0 ~len:(String.length payload)

let encode_data ~seq payload =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w tag_data;
  Codec.Writer.varint w seq;
  Codec.Writer.varint w (checksum ~tag:tag_data ~seq payload);
  Codec.Writer.raw w payload;
  Codec.Writer.contents w

let encode_ack ~seq =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w tag_ack;
  Codec.Writer.varint w seq;
  Codec.Writer.varint w (checksum ~tag:tag_ack ~seq "");
  Codec.Writer.contents w

(* ------------------------------------------------------------ sending *)

let check_endpoint t who name =
  if who < 0 || who >= Network.node_count t.net then
    invalid_arg (Printf.sprintf "Channel.%s: endpoint %d out of range" name who)

let rec arm t ~src ~dst ~seq entry =
  let sender = t.senders.(src).(dst) in
  let counters = t.counters.(src).(dst) in
  let h =
    Engine.schedule t.engine ~delay:entry.backoff (fun () ->
        if Hashtbl.mem sender.pending seq then begin
          if Network.is_crashed t.net src || Network.is_crashed t.net dst then
            (* The endpoint is gone; the payload dies with it, as it would
               have inside the network. *)
            Hashtbl.remove sender.pending seq
          else begin
            counters.c_retransmits <- counters.c_retransmits + 1;
            if Simtime.compare entry.backoff counters.c_max_backoff > 0 then
              counters.c_max_backoff <- entry.backoff;
            Network.send t.net ~src ~dst entry.wire;
            entry.backoff <-
              Simtime.min (Simtime.scale entry.backoff 2.0) t.cfg.max_backoff;
            arm t ~src ~dst ~seq entry
          end
        end)
  in
  entry.timer <- Some h

let send t ~src ~dst payload =
  check_endpoint t src "send";
  check_endpoint t dst "send";
  if not (Network.is_crashed t.net src) then begin
    let sender = t.senders.(src).(dst) in
    let counters = t.counters.(src).(dst) in
    let seq = sender.next_seq in
    sender.next_seq <- seq + 1;
    let wire = encode_data ~seq payload in
    let entry = { wire; backoff = t.cfg.rto; timer = None } in
    Hashtbl.replace sender.pending seq entry;
    counters.c_data_sent <- counters.c_data_sent + 1;
    Network.send t.net ~src ~dst wire;
    arm t ~src ~dst ~seq entry
  end

let multicast t ~src ~dsts payload =
  List.iter (fun dst -> send t ~src ~dst payload) dsts

(* ----------------------------------------------------------- receiving *)

let on_data t ~src ~dst ~seq payload =
  let receiver = t.receivers.(dst).(src) in
  let counters = t.counters.(src).(dst) in
  (* Ack unconditionally: a duplicate usually means our previous ack was
     lost, so the sender needs another one to stop retransmitting. *)
  counters.c_acks_sent <- counters.c_acks_sent + 1;
  Network.send t.net ~src:dst ~dst:src (encode_ack ~seq);
  let fresh = seq >= receiver.cum && not (Hashtbl.mem receiver.ahead seq) in
  if fresh then begin
    Hashtbl.replace receiver.ahead seq ();
    while Hashtbl.mem receiver.ahead receiver.cum do
      Hashtbl.remove receiver.ahead receiver.cum;
      receiver.cum <- receiver.cum + 1
    done;
    counters.c_delivered <- counters.c_delivered + 1;
    match t.handlers.(dst) with
    | Some handler -> handler ~src payload
    | None -> ()
  end
  else counters.c_dup_drops <- counters.c_dup_drops + 1

let on_ack t ~src ~dst ~seq =
  (* [dst] received an ack from [src] for the dst->src data flow. *)
  let sender = t.senders.(dst).(src) in
  let counters = t.counters.(dst).(src) in
  match Hashtbl.find_opt sender.pending seq with
  | Some entry ->
    (match entry.timer with Some h -> Engine.cancel h | None -> ());
    Hashtbl.remove sender.pending seq
  | None -> counters.c_stale_acks <- counters.c_stale_acks + 1

let dispatch t ~who ~src frame =
  match
    let r = Codec.Reader.of_string frame in
    let tag = Codec.Reader.u8 r in
    let seq = Codec.Reader.varint r in
    let ck = Codec.Reader.varint r in
    (tag, seq, ck, Codec.Reader.raw r (Codec.Reader.remaining r))
  with
  | tag, seq, ck, payload when ck <> checksum ~tag ~seq payload ->
    (* Corrupted in flight: drop without acking so the sender keeps
       retransmitting until an intact copy arrives. *)
    let c = t.counters.(src).(who) in
    c.c_corrupt_drops <- c.c_corrupt_drops + 1
  | tag, seq, _, payload when tag = tag_data -> on_data t ~src ~dst:who ~seq payload
  | tag, seq, _, _ when tag = tag_ack -> on_ack t ~src:src ~dst:who ~seq
  | _ -> ()
  | exception Codec.Reader.Truncated ->
    let c = t.counters.(src).(who) in
    c.c_corrupt_drops <- c.c_corrupt_drops + 1

(* -------------------------------------------------------------- wiring *)

let attach ?(config = default_config) net =
  let n = Network.node_count net in
  let t =
    {
      net;
      engine = Network.engine net;
      cfg = config;
      senders =
        Array.init n (fun _ ->
            Array.init n (fun _ -> { next_seq = 0; pending = Hashtbl.create 16 }));
      receivers =
        Array.init n (fun _ ->
            Array.init n (fun _ -> { cum = 0; ahead = Hashtbl.create 16 }));
      counters =
        Array.init n (fun _ ->
            Array.init n (fun _ ->
                {
                  c_data_sent = 0;
                  c_retransmits = 0;
                  c_acks_sent = 0;
                  c_delivered = 0;
                  c_dup_drops = 0;
                  c_stale_acks = 0;
                  c_corrupt_drops = 0;
                  c_max_backoff = Simtime.zero;
                }));
      handlers = Array.make n None;
    }
  in
  for who = 0 to n - 1 do
    Network.set_handler net who (fun ~src frame -> dispatch t ~who ~src frame)
  done;
  t

let set_handler t who handler =
  check_endpoint t who "set_handler";
  t.handlers.(who) <- Some handler

let in_flight t ~src ~dst =
  check_endpoint t src "in_flight";
  check_endpoint t dst "in_flight";
  Hashtbl.length t.senders.(src).(dst).pending

let snapshot c =
  {
    data_sent = c.c_data_sent;
    retransmits = c.c_retransmits;
    acks_sent = c.c_acks_sent;
    delivered = c.c_delivered;
    dup_drops = c.c_dup_drops;
    stale_acks = c.c_stale_acks;
    corrupt_drops = c.c_corrupt_drops;
    max_backoff_reached = c.c_max_backoff;
  }

let channel_stats t ~src ~dst =
  check_endpoint t src "channel_stats";
  check_endpoint t dst "channel_stats";
  snapshot t.counters.(src).(dst)

let total_stats t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc c ->
          {
            data_sent = acc.data_sent + c.c_data_sent;
            retransmits = acc.retransmits + c.c_retransmits;
            acks_sent = acc.acks_sent + c.c_acks_sent;
            delivered = acc.delivered + c.c_delivered;
            dup_drops = acc.dup_drops + c.c_dup_drops;
            stale_acks = acc.stale_acks + c.c_stale_acks;
            corrupt_drops = acc.corrupt_drops + c.c_corrupt_drops;
            max_backoff_reached = Simtime.max acc.max_backoff_reached c.c_max_backoff;
          })
        acc row)
    zero_stats t.counters
