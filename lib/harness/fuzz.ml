module Rng = Sof_util.Rng
module Codec = Sof_util.Codec
module Message = Sof_protocol.Message
module Checkpoint = Sof_protocol.Checkpoint
module Request = Sof_smr.Request
module Disk = Sof_storage.Disk
module Sim_disk = Sof_storage.Sim_disk
module Wal = Sof_storage.Wal

type outcome = {
  runs : int;
  decoded : int;
  rejected : int;
  crashes : (int * string) list;
  non_canonical : (int * string) list;
}

let passed o = o.crashes = [] && o.non_canonical = []

(* ------------------------------------------------- corpus construction *)

let random_string rng n = Bytes.to_string (Rng.bytes rng n)

let random_key rng =
  { Request.client = Rng.int rng 64; client_seq = Rng.int rng 10_000 }

let random_info rng =
  {
    Message.o = Rng.int rng 1_000;
    digest = random_string rng (Rng.int rng 33);
    keys = List.init (Rng.int rng 4) (fun _ -> random_key rng);
  }

let random_infos rng = List.init (Rng.int rng 3) (fun _ -> random_info rng)

let random_sigs rng =
  List.init (Rng.int rng 4) (fun _ -> (Rng.int rng 8, random_string rng 16))

let random_body rng =
  match Rng.int rng 18 with
  | 0 -> Message.Order { c = Rng.int rng 8; info = random_info rng }
  | 1 ->
    Message.Ack
      { c = Rng.int rng 8; o = Rng.int rng 1_000; digest = random_string rng 16 }
  | 2 -> Message.Fail_signal { pair = Rng.int rng 8 }
  | 3 ->
    Message.Back_log
      {
        c = Rng.int rng 8;
        failed_pair = Rng.int rng 8;
        max_committed = Rng.int rng 1_000;
        committed_digest = random_string rng 16;
        proof_c = Rng.int rng 8;
        proof = random_sigs rng;
        stable =
          (if Rng.bool rng then
             Some
               {
                 Checkpoint.cp_seq = Rng.int rng 1_000;
                 cp_digest = random_string rng 16;
                 cp_proof = random_sigs rng;
                 cp_endorsement =
                   (if Rng.bool rng then Some (Rng.int rng 8, random_string rng 16)
                    else None);
               }
           else None);
        uncommitted = random_infos rng;
      }
  | 4 ->
    Message.Start
      {
        c = Rng.int rng 8;
        start_o = Rng.int rng 1_000;
        anchor = Rng.int rng 1_000;
        new_back_log = random_infos rng;
      }
  | 5 -> Message.Start_ack { c = Rng.int rng 8; start_digest = random_string rng 16 }
  | 6 -> Message.Start_tuples { c = Rng.int rng 8; tuples = random_sigs rng }
  | 7 ->
    Message.View_change
      {
        v = Rng.int rng 16;
        max_committed = Rng.int rng 1_000;
        committed_digest = random_string rng 16;
        uncommitted = random_infos rng;
      }
  | 8 ->
    Message.New_view
      {
        v = Rng.int rng 16;
        start_o = Rng.int rng 1_000;
        anchor = Rng.int rng 1_000;
        new_back_log = random_infos rng;
      }
  | 9 -> Message.Unwilling { v = Rng.int rng 16; pair = Rng.int rng 8 }
  | 10 -> Message.Heartbeat { pair = Rng.int rng 8; beat = Rng.int rng 10_000 }
  | 11 -> Message.Pre_prepare { v = Rng.int rng 16; info = random_info rng }
  | 12 ->
    Message.Prepare
      { v = Rng.int rng 16; o = Rng.int rng 1_000; digest = random_string rng 16 }
  | 13 ->
    Message.Commit
      { v = Rng.int rng 16; o = Rng.int rng 1_000; digest = random_string rng 16 }
  | 14 -> Message.Bft_view_change { v = Rng.int rng 16; prepared = random_infos rng }
  | 15 -> Message.Probe { nonce = Rng.int rng 10_000; at = Rng.int rng 1_000_000 }
  | 16 ->
    Message.Probe_reply { nonce = Rng.int rng 10_000; at = Rng.int rng 1_000_000 }
  | _ -> Message.Bft_new_view { v = Rng.int rng 16; pre_prepares = random_infos rng }

let random_envelope rng =
  let endorsement =
    if Rng.bool rng then Some (Rng.int rng 8, random_string rng 16) else None
  in
  let signature = random_string rng (Rng.int rng 33) in
  let body = random_body rng in
  Message.forge ~sender:(Rng.int rng 8) ~signature ?endorsement body

let flip_bit rng s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = Rng.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
    Bytes.to_string b
  end

let splice rng s frag =
  if String.length s = 0 then frag
  else begin
    let i = Rng.int rng (String.length s) in
    String.sub s 0 i ^ frag ^ String.sub s i (String.length s - i)
  end

(* One hostile buffer per iteration, mutated from a structurally valid
   encoding often enough that the corruption lands deep inside the decoder
   rather than on the first tag byte. *)
let hostile_buffer rng valid =
  match Rng.int rng 5 with
  | 0 -> random_string rng (Rng.int rng 300) (* pure garbage *)
  | 1 ->
    (* truncation at every possible boundary, eventually *)
    String.sub valid 0 (Rng.int rng (String.length valid + 1))
  | 2 ->
    let rec flips n s = if n = 0 then s else flips (n - 1) (flip_bit rng s) in
    flips (1 + Rng.int rng 8) valid
  | 3 ->
    (* hostile length prefix: 0xff… decodes as a huge/negative varint *)
    splice rng valid (String.init (1 + Rng.int rng 9) (fun _ -> '\xff'))
  | _ -> valid ^ random_string rng (1 + Rng.int rng 16) (* trailing junk *)

(* ------------------------------------------------------------ running *)

type tally = {
  mutable t_decoded : int;
  mutable t_rejected : int;
  mutable t_crashes : (int * string) list;
  mutable t_non_canonical : (int * string) list;
}

let tally () = { t_decoded = 0; t_rejected = 0; t_crashes = []; t_non_canonical = [] }

let outcome t ~runs =
  {
    runs;
    decoded = t.t_decoded;
    rejected = t.t_rejected;
    crashes = List.rev t.t_crashes;
    non_canonical = List.rev t.t_non_canonical;
  }

let encode_with write x =
  let w = Codec.Writer.create () in
  write w x;
  Codec.Writer.contents w

(* Feed [buf] to the decoder [name].  Besides rejecting with [Truncated]
   only, a decoder must be canonical: a value it returns re-encodes to
   exactly the bytes it consumed, because receivers verify signatures over
   the bytes they received rather than over a re-encoding.  A value the
   writer refuses (out of range) is non-canonical too.  [read] gets a fresh
   reader and may leave bytes unread; whole-buffer decoders end with
   [expect_end]. *)
let probe t i name ~read ~write buf =
  let r = Codec.Reader.of_string buf in
  match read r with
  | v ->
    t.t_decoded <- t.t_decoded + 1;
    let used = String.sub buf 0 (String.length buf - Codec.Reader.remaining r) in
    let canonical =
      match encode_with write v with
      | bytes -> String.equal bytes used
      | exception Invalid_argument _ -> false
    in
    if not canonical then t.t_non_canonical <- (i, name) :: t.t_non_canonical
  | exception Codec.Reader.Truncated -> t.t_rejected <- t.t_rejected + 1
  | exception e -> t.t_crashes <- (i, Printexc.to_string e) :: t.t_crashes

let whole decode r =
  let v = decode (Codec.Reader.raw r (Codec.Reader.remaining r)) in
  Codec.Reader.expect_end r;
  v

let run ~seed ~count =
  let rng = Rng.create seed in
  let t = tally () in
  for i = 0 to count - 1 do
    let buf =
      match Rng.int rng 3 with
      | 0 -> hostile_buffer rng (Message.encode (random_envelope rng))
      | 1 -> hostile_buffer rng (Message.encode_body (random_body rng))
      | _ ->
        hostile_buffer rng
          (Request.encode
             (Request.make ~client:(Rng.int rng 64)
                ~client_seq:(Rng.int rng 10_000)
                ~op:(random_string rng (Rng.int rng 64))))
    in
    probe t i "Message.decode" ~read:(whole Message.decode)
      ~write:(fun w env -> Codec.Writer.raw w (Message.encode env))
      buf;
    probe t i "Message.decode_body" ~read:(whole Message.decode_body)
      ~write:(fun w body -> Codec.Writer.raw w (Message.encode_body body))
      buf;
    probe t i "Request.decode" ~read:(whole Request.decode)
      ~write:(fun w req -> Codec.Writer.raw w (Request.encode req))
      buf
  done;
  outcome t ~runs:(3 * count)

(* ---------------------------------------------------- storage decoders *)

let random_request rng =
  Request.make ~client:(Rng.int rng 64) ~client_seq:(Rng.int rng 10_000)
    ~op:(random_string rng (Rng.int rng 32))

let random_cert rng =
  {
    Checkpoint.cp_seq = Rng.int rng 1_000;
    cp_digest = random_string rng (Rng.int rng 33);
    cp_proof = random_sigs rng;
    cp_endorsement =
      (if Rng.bool rng then Some (Rng.int rng 8, random_string rng 16) else None);
  }

let random_entry rng =
  {
    Checkpoint.e_o = Rng.int rng 1_000;
    e_digest = random_string rng 16;
    e_requests = List.init (Rng.int rng 3) (fun _ -> random_request rng);
  }

(* A write-ahead log whose disk an adversary scribbled on: start from a
   genuinely used log (appends, sometimes a checkpoint epoch turn-over) so
   the garbage lands inside valid framing, then re-attach.  The recovery
   walk must always yield a replay — damaged at worst — never an escape. *)
let scribbled_wal rng =
  let sd = Sim_disk.create ~sector_size:64 ~sector_count:32 () in
  let disk = Sim_disk.disk sd in
  let wal = Wal.attach disk in
  for _ = 1 to Rng.int rng 6 do
    Wal.append wal (random_string rng (Rng.int rng 100))
  done;
  Wal.sync wal;
  if Rng.bool rng then Wal.write_checkpoint wal [ random_string rng (Rng.int rng 150) ];
  for _ = 1 to 1 + Rng.int rng 10 do
    Disk.write disk ~sector:(Rng.int rng 32) (random_string rng 64)
  done;
  Disk.sync disk;
  disk

let run_storage ~seed ~count =
  let rng = Rng.create seed in
  let t = tally () in
  for i = 0 to count - 1 do
    let cert_buf = hostile_buffer rng (encode_with Checkpoint.write_cert (random_cert rng)) in
    probe t i "Checkpoint.read_cert" ~read:Checkpoint.read_cert ~write:Checkpoint.write_cert
      cert_buf;
    let entry_buf =
      hostile_buffer rng (encode_with Checkpoint.write_entry (random_entry rng))
    in
    probe t i "Checkpoint.read_entry" ~read:Checkpoint.read_entry
      ~write:Checkpoint.write_entry entry_buf;
    let image =
      Checkpoint.wrap_image
        ~state:(random_string rng (Rng.int rng 64))
        ~marks:(List.init (Rng.int rng 4) (fun c -> (c, Rng.int rng 100)))
    in
    probe t i "Checkpoint.unwrap_image"
      ~read:
        (whole (fun image ->
             match Checkpoint.unwrap_image image with
             | Some v -> v
             | None -> raise Codec.Reader.Truncated))
      ~write:(fun w (state, marks) -> Codec.Writer.raw w (Checkpoint.wrap_image ~state ~marks))
      (hostile_buffer rng image);
    match Wal.replay (Wal.attach (scribbled_wal rng)) with
    | replay ->
      ignore replay.Wal.rp_damaged;
      t.t_decoded <- t.t_decoded + 1
    | exception Codec.Reader.Truncated -> t.t_rejected <- t.t_rejected + 1
    | exception e -> t.t_crashes <- (i, Printexc.to_string e) :: t.t_crashes
  done;
  outcome t ~runs:(4 * count)

let pp_outcome fmt o =
  Format.fprintf fmt
    "decode-fuzz: %d runs, %d decoded, %d rejected, %d crashes, %d non-canonical"
    o.runs o.decoded o.rejected (List.length o.crashes) (List.length o.non_canonical);
  List.iteri
    (fun k (i, e) ->
      if k < 5 then Format.fprintf fmt "@.  crash at iteration %d: %s" i e)
    o.crashes;
  List.iteri
    (fun k (i, name) ->
      if k < 5 then
        Format.fprintf fmt "@.  %s decoded iteration %d to a value that re-encodes differently"
          name i)
    o.non_canonical
