module Codec = Sof_util.Codec
module Ring = Sof_util.Ring

type op =
  | Get of string
  | Put of string * string
  | Delete of string
  | Cas of { key : string; expected : string; replacement : string }

type reply = Value of string | Not_found | Ok | Cas_failed

let encode_op op =
  let w = Codec.Writer.create () in
  (match op with
  | Get k ->
    Codec.Writer.u8 w 0;
    Codec.Writer.string w k
  | Put (k, v) ->
    Codec.Writer.u8 w 1;
    Codec.Writer.string w k;
    Codec.Writer.string w v
  | Delete k ->
    Codec.Writer.u8 w 2;
    Codec.Writer.string w k
  | Cas { key; expected; replacement } ->
    Codec.Writer.u8 w 3;
    Codec.Writer.string w key;
    Codec.Writer.string w expected;
    Codec.Writer.string w replacement);
  Codec.Writer.contents w

let decode_op s =
  let r = Codec.Reader.of_string s in
  let op =
    match Codec.Reader.u8 r with
    | 0 -> Get (Codec.Reader.string r)
    | 1 ->
      let k = Codec.Reader.string r in
      Put (k, Codec.Reader.string r)
    | 2 -> Delete (Codec.Reader.string r)
    | 3 ->
      let key = Codec.Reader.string r in
      let expected = Codec.Reader.string r in
      let replacement = Codec.Reader.string r in
      Cas { key; expected; replacement }
    | _ -> raise Codec.Reader.Truncated
  in
  Codec.Reader.expect_end r;
  op

(* The reply [Value v] for the [len] bytes of [src] from [off]: tag 0, then
   the value as a length-prefixed string.  The store answers a get with a
   slice of its image, built without cutting the value out first. *)
let value_reply src off len =
  let b = Bytes.create (1 + Codec.varint_size len + len) in
  Bytes.set b 0 '\000';
  Bytes.blit_string src off b (Codec.put_varint b 1 len) len;
  Bytes.unsafe_to_string b

let encode_reply = function
  | Value v -> value_reply v 0 (String.length v)
  | Not_found -> "\001"
  | Ok -> "\002"
  | Cas_failed -> "\003"

let decode_reply s =
  let r = Codec.Reader.of_string s in
  let reply =
    match Codec.Reader.u8 r with
    | 0 -> Value (Codec.Reader.string r)
    | 1 -> Not_found
    | 2 -> Ok
    | 3 -> Cas_failed
    | _ -> raise Codec.Reader.Truncated
  in
  Codec.Reader.expect_end r;
  reply

(* A deployment's replicas reach a checkpoint holding the same image and
   the same writes since it, so each would merge the same bytes; and each
   applies the same operations, so each would decode the same bytes.  A
   deployment memo keeps the last few of both.

   A merge entry is the prior image, the sorted writes, and the image and
   offsets they made.  A store whose image and writes equal a held entry's
   adopts its result as it is, and the replicas share one copy of each
   image.  The answer is exact: a merge is a function of the prior image's
   bytes and the writes alone (the offsets are a function of the image),
   and a hit needs both to be equal.  An image is compared with
   [String.equal], which answers at once for the same string and agreeing
   stores hold the same string; the writes are looked up in the store's
   table, so a hit sorts nothing.

   An operation entry is an operation's bytes and what they decode to.  A
   store applying bytes equal to a held entry's takes its operation, so the
   stores share its key and value strings.  The answer is exact: [decode_op]
   is a function of the bytes alone, and its result is immutable.  Bytes
   that do not decode are not held: each store that meets them decodes
   them again and replies with the error. *)
module Memo = struct
  type merge = {
    prior : string;
    sorted : (string * string option) array;
    image : string;
    offs : int array;  (* never written after the merge that made it *)
  }

  type t = {
    merges : merge Ring.t;
    mutable merges_asked : int;
    mutable merged : int;
    ops : (string * op) Ring.t;
    mutable ops_asked : int;
    mutable ops_decoded : int;
  }

  (* Agreeing stores merge one boundary at a time; four entries also keep
     a boundary's merge while a few stores still lag one behind.  They
     apply a batch's operations one after another, so the operation window
     spans a batch or two of the lag between the first store and the
     last. *)
  let create () =
    {
      merges = Ring.create 4;
      merges_asked = 0;
      merged = 0;
      ops = Ring.create 32;
      ops_asked = 0;
      ops_decoded = 0;
    }

  (* Whether [writes] binds each key of [sorted] from [i] on as [sorted]
     does.  With as many bindings as [sorted], the two are the same writes,
     and the table need not be sorted to find out. *)
  let rec binds writes sorted i =
    i >= Array.length sorted
    ||
    let k, v = sorted.(i) in
    match Hashtbl.find writes k with
    | v' -> Option.equal String.equal v v' && binds writes sorted (i + 1)
    | exception Not_found -> false

  let same_merge prior writes e =
    String.equal e.prior prior
    && Int.equal (Array.length e.sorted) (Hashtbl.length writes)
    && binds writes e.sorted 0

  let lookup t prior writes =
    t.merges_asked <- t.merges_asked + 1;
    Ring.find t.merges same_merge prior writes

  let hold t ~prior ~sorted ~image ~offs =
    t.merged <- t.merged + 1;
    Ring.push t.merges { prior; sorted; image; offs }

  let same_op bytes () (held, _) = String.equal held bytes

  (* @raise Codec.Reader.Truncated as [decode_op] does. *)
  let op t bytes =
    t.ops_asked <- t.ops_asked + 1;
    match Ring.find t.ops same_op bytes () with
    | Some (_, op) -> op
    | None ->
      t.ops_decoded <- t.ops_decoded + 1;
      let op = decode_op bytes in
      Ring.push t.ops (bytes, op);
      op

  let merges_asked t = t.merges_asked
  let merged t = t.merged
  let merges_held t = Ring.length t.merges
  let ops_asked t = t.ops_asked
  let ops_decoded t = t.ops_decoded
end

(* The store is its canonical image, the bytes [snapshot] returns: a
   varint count, then each entry's key and value as length-prefixed strings
   in strictly increasing key order.  [offs.(i)] is where entry [i] starts
   and [offs.(count)] is the image's length.  [writes] holds every write
   since the image was made, [None] for a delete.  A put then costs a table
   write, and a checkpoint a merge of the writes into the image: unchanged
   runs of entries move as one block, and nothing is decoded or re-encoded
   but the written entries.

   The image was made here or checked by [restore], so its varints are
   canonical and each one's size is [Codec.varint_size] of its value.  The
   loops over entries are top-level functions: a local closure would be
   allocated per call. *)
type store = {
  mutable image : string;
  mutable offs : int array;
  writes : (string, string option) Hashtbl.t;
  memo : Memo.t;  (* the deployment's, shared by its stores *)
}

let count s = Array.length s.offs - 1

(* The fewest buckets [Hashtbl] allows: the model checker builds n fresh
   machines per replayed world, and most of them see few writes. *)
let adopt memo image offs = { image; offs; writes = Hashtbl.create 1; memo }
let empty memo = adopt memo "\000" [| 1 |]

let rec varint_at image pos shift acc =
  let b = Char.code image.[pos] in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else varint_at image (pos + 1) (shift + 7) acc

(* Entry [i]'s key is [key_len] bytes from [key_at]; its value, [value_len]
   bytes from [value_at]. *)
let key_len s i = varint_at s.image s.offs.(i) 0 0
let key_at s i = s.offs.(i) + Codec.varint_size (key_len s i)
let value_pos s i = key_at s i + key_len s i
let value_len s i = varint_at s.image (value_pos s i) 0 0
let value_at s i = value_pos s i + Codec.varint_size (value_len s i)

(* [String.compare] of the [xlen] bytes of [x] from [xoff] against the
   [ylen] bytes of [y] from [yoff], from their [i]th bytes on. *)
let rec compare_from x xoff xlen y yoff ylen i =
  if i >= xlen || i >= ylen then Int.compare xlen ylen
  else
    let c = Char.compare x.[xoff + i] y.[yoff + i] in
    if c <> 0 then c else compare_from x xoff xlen y yoff ylen (i + 1)

let compare_slice k image off len = compare_from k 0 (String.length k) image off len 0

let slice_equal v image off len =
  Int.equal (String.length v) len && Int.equal (compare_slice v image off len) 0

(* The entry holding [k], or [-(i + 1)] when [k] is absent and would be
   entry [i].  Keys of entries before [lo] are below [k], keys from [hi]
   on are above it. *)
let rec search s k lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let len = key_len s mid in
    let c = compare_slice k s.image (s.offs.(mid) + Codec.varint_size len) len in
    if c < 0 then search s k lo mid else if c > 0 then search s k (mid + 1) hi else mid

let find_entry s k = search s k 0 (count s)

let ok_reply = encode_reply Ok
let not_found_reply = encode_reply Not_found
let cas_failed_reply = encode_reply Cas_failed

let get s k =
  match Hashtbl.find_opt s.writes k with
  | Some (Some v) -> encode_reply (Value v)
  | Some None -> not_found_reply
  | None ->
    let i = find_entry s k in
    if i < 0 then not_found_reply else value_reply s.image (value_at s i) (value_len s i)

let holds s k expected =
  match Hashtbl.find_opt s.writes k with
  | Some (Some v) -> String.equal v expected
  | Some None -> false
  | None ->
    let i = find_entry s k in
    i >= 0 && slice_equal expected s.image (value_at s i) (value_len s i)

let apply s op_bytes =
  match Memo.op s.memo op_bytes with
  | exception Codec.Reader.Truncated -> (s, cas_failed_reply)
  | Get k -> (s, get s k)
  | Put (k, v) ->
    Hashtbl.replace s.writes k (Some v);
    (s, ok_reply)
  | Delete k ->
    Hashtbl.replace s.writes k None;
    (s, ok_reply)
  | Cas { key; expected; replacement } ->
    if holds s key expected then begin
      Hashtbl.replace s.writes key (Some replacement);
      (s, ok_reply)
    end
    else (s, cas_failed_reply)

(* ---------------------------------------------------------------- merge *)

let string_size v = Codec.varint_size (String.length v) + String.length v
let entry_size s i = s.offs.(i + 1) - s.offs.(i)
let by_key ((a : string), _) ((b : string), _) = String.compare a b

(* Entries [i, j) of [s] move to [b] at [pos] as one block and become
   entries from [e] of [offs]; the position after them. *)
let copy_run s b pos offs e i j =
  let src = s.offs.(i) in
  Bytes.blit_string s.image src b pos (s.offs.(j) - src);
  for t = i to j - 1 do
    offs.(e + t - i) <- s.offs.(t) - src + pos
  done;
  pos + s.offs.(j) - src

(* Fold the sorted writes into the image: each written key is found by
   binary search, the image is sized once, and the runs between written
   keys are copied whole. *)
let merge s writes =
  let w = Array.length writes in
  let n = count s in
  let at = Array.make w 0 in
  let n' = ref n and body = ref (s.offs.(n) - s.offs.(0)) and lo = ref 0 in
  for j = 0 to w - 1 do
    let k, v = writes.(j) in
    (* The keys are sorted: each one lies at or after the last. *)
    let i = search s k !lo n in
    at.(j) <- i;
    lo := if i >= 0 then i + 1 else -i - 1;
    if i >= 0 then begin
      decr n';
      body := !body - entry_size s i
    end;
    match v with
    | Some v ->
      incr n';
      body := !body + string_size k + string_size v
    | None -> ()
  done;
  let b = Bytes.create (Codec.varint_size !n' + !body) in
  let offs = Array.make (!n' + 1) 0 in
  let pos = ref (Codec.put_varint b 0 !n') and next = ref 0 and e = ref 0 in
  for j = 0 to w - 1 do
    let k, v = writes.(j) in
    let i = if at.(j) >= 0 then at.(j) else -at.(j) - 1 in
    pos := copy_run s b !pos offs !e !next i;
    e := !e + i - !next;
    next := if at.(j) >= 0 then i + 1 else i;
    match v with
    | Some v ->
      offs.(!e) <- !pos;
      pos := Codec.put_string b (Codec.put_string b !pos k) v;
      incr e
    | None -> ()
  done;
  offs.(!n') <- copy_run s b !pos offs !e !next n;
  (Bytes.unsafe_to_string b, offs)

let sorted_writes s =
  let writes = Array.of_list (Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.writes []) in
  (* Merge sort: fewer comparisons than [Array.sort]'s heap sort. *)
  Array.stable_sort by_key writes;
  writes

(* The image with the writes folded in, merged here or adopted from the
   deployment's memo. *)
let settle s =
  if Hashtbl.length s.writes > 0 then begin
    let image, offs =
      match Memo.lookup s.memo s.image s.writes with
      | Some e -> (e.Memo.image, e.Memo.offs)
      | None ->
        let sorted = sorted_writes s in
        let image, offs = merge s sorted in
        Memo.hold s.memo ~prior:s.image ~sorted ~image ~offs;
        (image, offs)
    in
    s.image <- image;
    s.offs <- offs;
    Hashtbl.clear s.writes
  end

let snapshot s =
  settle s;
  s.image

let digest_of s =
  let ctx = Sof_crypto.(Merkle_damgard.init Sha256.md) in
  for i = 0 to count s - 1 do
    Sof_crypto.Merkle_damgard.feed_sub ctx s.image (key_at s i) (key_len s i);
    Sof_crypto.Merkle_damgard.feed ctx "\x00";
    Sof_crypto.Merkle_damgard.feed_sub ctx s.image (value_at s i) (value_len s i);
    Sof_crypto.Merkle_damgard.feed ctx "\x01"
  done;
  Sof_crypto.Merkle_damgard.finalize ctx

(* Most stores a model checker fingerprints are still empty. *)
let empty_digest = digest_of (empty (Memo.create ()))

let digest s =
  settle s;
  if Int.equal (count s) 0 then empty_digest else digest_of s

(* -------------------------------------------------------------- restore *)

(* Each entry's start; [Truncated] unless [image] is a count and that many
   length-prefixed key and value pairs, and nothing after them.  Every
   entry takes at least two bytes, so a larger count is garbage and is
   refused before anything its size is allocated. *)
let parse image =
  let r = Codec.Reader.of_string image in
  let n = Codec.Reader.varint r in
  if n > Codec.Reader.remaining r / 2 then raise Codec.Reader.Truncated;
  let offs = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offs.(i) <- String.length image - Codec.Reader.remaining r;
    Codec.Reader.skip r (Codec.Reader.varint r);
    Codec.Reader.skip r (Codec.Reader.varint r)
  done;
  offs.(n) <- String.length image;
  Codec.Reader.expect_end r;
  offs

let rec increasing s i =
  i >= count s
  || compare_from s.image (key_at s (i - 1)) (key_len s (i - 1)) s.image (key_at s i)
       (key_len s i) 0
     < 0
     && increasing s (i + 1)

(* An image whose keys strictly increase is canonical already and becomes
   the store as it is.  Otherwise its entries are written in order into an
   empty store, so the last write of a key wins, and merged. *)
let restore memo image =
  match parse image with
  | exception Codec.Reader.Truncated -> None
  | offs ->
    let s = adopt memo image offs in
    if increasing s 1 then Some s
    else begin
      let canonical = empty memo in
      for i = 0 to count s - 1 do
        Hashtbl.replace canonical.writes
          (String.sub image (key_at s i) (key_len s i))
          (Some (String.sub image (value_at s i) (value_len s i)))
      done;
      settle canonical;
      Some canonical
    end

let machine ?(memo = Memo.create ()) () =
  State_machine.create ~name:"kv" ~init:(empty memo) ~apply ~digest ~snapshot
    ~restore:(restore memo) ()

let machines () =
  let memo = Memo.create () in
  fun () -> machine ~memo ()

let pp_op fmt = function
  | Get k -> Format.fprintf fmt "get(%s)" k
  | Put (k, _) -> Format.fprintf fmt "put(%s)" k
  | Delete k -> Format.fprintf fmt "delete(%s)" k
  | Cas { key; _ } -> Format.fprintf fmt "cas(%s)" key

let pp_reply fmt = function
  | Value v -> Format.fprintf fmt "value(%s)" v
  | Not_found -> Format.pp_print_string fmt "not_found"
  | Ok -> Format.pp_print_string fmt "ok"
  | Cas_failed -> Format.pp_print_string fmt "cas_failed"
