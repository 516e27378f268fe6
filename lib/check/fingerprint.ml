module P = Sof_protocol

(* FNV-1a, 64-bit: the same cheap stable hash Rng uses for substream
   labels.  Collisions fold distinct states together and can only cause
   missed exploration, never false violations.  The explorer keys its
   tables by the low 63 bits (a native int, not a boxed [Int64]); at
   tiny-model state counts (≤ ~10^6) a 63-bit space keeps the collision
   odds negligible.

   The hash is fed byte by byte as fields are added, with no intermediate
   buffer.  The 64-bit state lives in two 32-bit halves held in native
   ints, so the per-byte multiply allocates nothing: with
   prime = 2^40 + 0x1B3, h * prime = h * 0x1B3 + (lo << 40) mod 2^64, and
   every partial product fits in 63 bits. *)
let basis_hi = 0xCBF29CE4
let basis_lo = 0x84222325
let prime_lo = 0x1B3
let mask32 = 0xFFFF_FFFF

type acc = { mutable hi : int; mutable lo : int }

let create () = { hi = basis_hi; lo = basis_lo }

let add_byte t c =
  let lo = t.lo lxor c in
  let p = lo * prime_lo in
  t.lo <- p land mask32;
  t.hi <- ((t.hi * prime_lo) + (p lsr 32) + (lo lsl 8)) land mask32

let add_char t c = add_byte t (Char.code c)

(* The decimal digits of [n <= 0] without its sign, most significant
   first — [string_of_int]'s digits, min_int included. *)
let rec add_digits t n =
  if n <= -10 then add_digits t (n / 10);
  add_byte t (Char.code '0' - (n mod 10))

let add_decimal t n =
  if n < 0 then begin
    add_char t '-';
    add_digits t n
  end
  else add_digits t (-n)

let add_string t s =
  (* Length-prefixed so field boundaries cannot alias across fields. *)
  add_decimal t (String.length s);
  add_char t ':';
  for i = 0 to String.length s - 1 do
    add_byte t (Char.code (String.unsafe_get s i))
  done

let add_int t n =
  add_decimal t n;
  add_char t ';'

let add_bool t b = add_int t (if b then 1 else 0)

let digest t =
  Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo)

let add_acc t other =
  add_int t other.hi;
  add_int t other.lo

(* Canonical event encoding.  [Context.pp_event] is for humans and omits
   digests; the fingerprint needs every value-bearing field, and needs the
   encoding to be injective per constructor. *)
let encode_event (ev : P.Context.event) =
  let b = Buffer.create 48 in
  let str s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  let int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ';'
  in
  let tag s = Buffer.add_string b s in
  (match ev with
  | Batched { seq; requests; bytes } ->
    tag "B";
    int seq;
    int requests;
    int bytes
  | Committed { seq; digest; keys } ->
    tag "C";
    int seq;
    str digest;
    List.iter
      (fun (k : Sof_smr.Request.key) ->
        int k.Sof_smr.Request.client;
        int k.Sof_smr.Request.client_seq)
      keys
  | Delivered { seq; batch } ->
    tag "D";
    int seq;
    List.iter (fun r -> str (Sof_smr.Request.encode r)) batch.P.Batch.requests
  | Fail_signal_emitted { pair; value_domain } ->
    tag "F";
    int pair;
    int (if value_domain then 1 else 0)
  | Fail_signal_observed { pair } ->
    tag "f";
    int pair
  | Coordinator_installed { rank } ->
    tag "I";
    int rank
  | View_installed { v } ->
    tag "V";
    int v
  | Pair_recovered { pair } ->
    tag "P";
    int pair
  | Value_fault_detected { pair } ->
    tag "X";
    int pair
  | Span_open { phase; seq } ->
    tag "s<";
    str (P.Context.phase_name phase);
    int seq
  | Span_close { phase; seq } ->
    tag "s>";
    str (P.Context.phase_name phase);
    int seq
  | Checkpoint_stable { seq; digest } ->
    tag "K";
    int seq;
    str digest
  | Log_truncated { upto; retained } ->
    tag "T";
    int upto;
    int retained
  | State_transfer_started { have } ->
    tag "t<";
    int have
  | State_transfer_installed { seq; entries } ->
    tag "t>";
    int seq;
    int entries
  | State_transfer_rejected { from } ->
    tag "t!";
    int from
  | Node_restarted -> tag "R"
  | Wal_replayed { seq; entries; damaged } ->
    tag "W";
    int seq;
    int entries;
    int (if damaged then 1 else 0));
  Buffer.contents b
