module Request = Sof_smr.Request
module Kv = Sof_smr.Kv_store
module Counter = Sof_smr.Counter
module Lock = Sof_smr.Lock_service
module State_machine = Sof_smr.State_machine

(* -------------------------------------------------------------- Request *)

let test_request_roundtrip () =
  let r = Request.make ~client:3 ~client_seq:17 ~op:"payload bytes" in
  let r' = Request.decode (Request.encode r) in
  Alcotest.(check int) "client" 3 r'.Request.key.Request.client;
  Alcotest.(check int) "seq" 17 r'.Request.key.Request.client_seq;
  Alcotest.(check string) "op" "payload bytes" r'.Request.op

let test_request_digest_changes_with_content () =
  let r1 = Request.make ~client:1 ~client_seq:1 ~op:"a" in
  let r2 = Request.make ~client:1 ~client_seq:1 ~op:"b" in
  Alcotest.(check bool) "digests differ" true
    (Request.digest Sof_crypto.Digest_alg.MD5 r1
    <> Request.digest Sof_crypto.Digest_alg.MD5 r2)

let test_request_key_ordering () =
  let k a b = { Request.client = a; client_seq = b } in
  Alcotest.(check bool) "client dominates" true (Request.compare_key (k 1 9) (k 2 1) < 0);
  Alcotest.(check bool) "seq breaks ties" true (Request.compare_key (k 1 1) (k 1 2) < 0);
  Alcotest.(check int) "equal" 0 (Request.compare_key (k 1 1) (k 1 1))

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request encode/decode roundtrip" ~count:200
    QCheck.(triple (int_bound 1000) (int_bound 100000) string)
    (fun (client, client_seq, op) ->
      let r = Request.make ~client ~client_seq ~op in
      Request.decode (Request.encode r) = r)

let prop_request_encoded_size =
  QCheck.Test.make ~name:"request encoded_size is the encoding's length" ~count:300
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000_000) string)
    (fun (client, client_seq, op) ->
      let r = Request.make ~client ~client_seq ~op in
      Request.encoded_size r = String.length (Request.encode r))

(* ------------------------------------------------------------- KV store *)

let test_kv_put_get () =
  let m = Kv.machine () in
  let reply op = Kv.decode_reply (State_machine.apply m (Kv.encode_op op)) in
  Alcotest.(check bool) "missing" true (reply (Kv.Get "x") = Kv.Not_found);
  Alcotest.(check bool) "put" true (reply (Kv.Put ("x", "1")) = Kv.Ok);
  Alcotest.(check bool) "get" true (reply (Kv.Get "x") = Kv.Value "1");
  Alcotest.(check bool) "delete" true (reply (Kv.Delete "x") = Kv.Ok);
  Alcotest.(check bool) "gone" true (reply (Kv.Get "x") = Kv.Not_found)

let test_kv_cas () =
  let m = Kv.machine () in
  let reply op = Kv.decode_reply (State_machine.apply m (Kv.encode_op op)) in
  ignore (reply (Kv.Put ("acct", "100")));
  Alcotest.(check bool) "cas ok" true
    (reply (Kv.Cas { key = "acct"; expected = "100"; replacement = "90" }) = Kv.Ok);
  Alcotest.(check bool) "cas stale" true
    (reply (Kv.Cas { key = "acct"; expected = "100"; replacement = "80" }) = Kv.Cas_failed);
  Alcotest.(check bool) "cas missing key" true
    (reply (Kv.Cas { key = "nope"; expected = "1"; replacement = "2" }) = Kv.Cas_failed);
  Alcotest.(check bool) "value now 90" true (reply (Kv.Get "acct") = Kv.Value "90")

let test_kv_determinism () =
  (* Two machines fed the same op sequence end with identical digests. *)
  let ops =
    [
      Kv.Put ("a", "1"); Kv.Put ("b", "2"); Kv.Delete "a";
      Kv.Cas { key = "b"; expected = "2"; replacement = "3" }; Kv.Get "b";
    ]
  in
  let run () =
    let m = Kv.machine () in
    List.iter (fun op -> ignore (State_machine.apply m (Kv.encode_op op))) ops;
    State_machine.state_digest m
  in
  Alcotest.(check string) "same digest" (run ()) (run ())

let test_kv_order_sensitivity () =
  let run ops =
    let m = Kv.machine () in
    List.iter (fun op -> ignore (State_machine.apply m (Kv.encode_op op))) ops;
    State_machine.state_digest m
  in
  let d1 = run [ Kv.Put ("k", "1"); Kv.Put ("k", "2") ] in
  let d2 = run [ Kv.Put ("k", "2"); Kv.Put ("k", "1") ] in
  Alcotest.(check bool) "different order, different state" true (d1 <> d2)

let test_kv_malformed_op_no_crash () =
  let m = Kv.machine () in
  (* Byzantine clients must not crash replicas: garbage is a deterministic
     no-op reply. *)
  let reply = State_machine.apply m "\xff\xfe garbage" in
  Alcotest.(check bool) "deterministic reply" true (String.length reply > 0);
  Alcotest.(check int) "op counted" 1 (State_machine.ops_applied m)

let test_kv_op_roundtrip () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "roundtrip" true (Kv.decode_op (Kv.encode_op op) = op))
    [
      Kv.Get "k";
      Kv.Put ("k", "v");
      Kv.Delete "k";
      Kv.Cas { key = "k"; expected = "a"; replacement = "b" };
      Kv.Put ("", "");
    ]

let test_kv_reply_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "roundtrip" true (Kv.decode_reply (Kv.encode_reply r) = r))
    [ Kv.Value "x"; Kv.Not_found; Kv.Ok; Kv.Cas_failed; Kv.Value "" ]

let prop_kv_replicas_agree =
  QCheck.Test.make ~name:"kv replicas fed equal logs agree" ~count:100
    QCheck.(list (pair (string_of_size Gen.(1 -- 8)) (string_of_size Gen.(0 -- 8))))
    (fun pairs ->
      let ops = List.map (fun (k, v) -> Kv.encode_op (Kv.Put (k, v))) pairs in
      let run () =
        let m = Kv.machine () in
        List.iter (fun op -> ignore (State_machine.apply m op)) ops;
        State_machine.state_digest m
      in
      run () = run ())

(* The store as a sorted association list, each key once, with no write
   overlay and no image: the machine must answer, snapshot, digest and
   restore exactly like it. *)
module Reference_kv = struct
  let empty : (string * string) list = []

  let rec add k v = function
    | [] -> [ (k, v) ]
    | ((k', _) as e) :: rest ->
      let c = String.compare k k' in
      if c < 0 then (k, v) :: e :: rest
      else if c = 0 then (k, v) :: rest
      else e :: add k v rest

  let remove k store = List.filter (fun (k', _) -> not (String.equal k k')) store
  let find_opt k store = List.assoc_opt k store

  let apply store op_bytes =
    match Kv.decode_op op_bytes with
    | exception Sof_util.Codec.Reader.Truncated -> (store, Kv.encode_reply Kv.Cas_failed)
    | Kv.Get k -> begin
      match find_opt k store with
      | Some v -> (store, Kv.encode_reply (Kv.Value v))
      | None -> (store, Kv.encode_reply Kv.Not_found)
    end
    | Kv.Put (k, v) -> (add k v store, Kv.encode_reply Kv.Ok)
    | Kv.Delete k -> (remove k store, Kv.encode_reply Kv.Ok)
    | Kv.Cas { key; expected; replacement } -> begin
      match find_opt key store with
      | Some v when v = expected -> (add key replacement store, Kv.encode_reply Kv.Ok)
      | Some _ | None -> (store, Kv.encode_reply Kv.Cas_failed)
    end

  let digest store =
    let ctx = Sof_crypto.(Merkle_damgard.init Sha256.md) in
    List.iter
      (fun (k, v) -> List.iter (Sof_crypto.Merkle_damgard.feed ctx) [ k; "\x00"; v; "\x01" ])
      store;
    Sof_crypto.Merkle_damgard.finalize ctx

  (* An image of [entries] in the given order: sorted and unique for a
     store, anything at all for a hostile image. *)
  let image entries =
    let w = Sof_util.Codec.Writer.create () in
    Sof_util.Codec.Writer.varint w (List.length entries);
    List.iter
      (fun (k, v) ->
        Sof_util.Codec.Writer.string w k;
        Sof_util.Codec.Writer.string w v)
      entries;
    Sof_util.Codec.Writer.contents w

  let snapshot = image

  (* Entries are added in image order, so the last write of a key wins;
     a short image or stray bytes after the last entry refuse the whole
     image, and the machine keeps its state. *)
  let restore image =
    let module R = Sof_util.Codec.Reader in
    match
      let r = R.of_string image in
      let n = R.varint r in
      let rec go store i =
        if i >= n then store
        else
          let k = R.string r in
          let v = R.string r in
          go (add k v store) (i + 1)
      in
      let store = go empty 0 in
      R.expect_end r;
      store
    with
    | store -> Some store
    | exception R.Truncated -> None
end

type kv_step =
  | Op of string
  | Snapshot
  | Digest
  | Restore of int  (* the i-th image taken so far, or garbage when none *)

let gen_kv_step =
  let open QCheck.Gen in
  let key = map (fun i -> String.make 1 (Char.chr (97 + i))) (int_bound 5) in
  let value = string_size ~gen:(char_range 'x' 'z') (0 -- 2) in
  let op =
    frequency
      [
        (3, map (fun k -> Kv.Get k) key);
        (4, map2 (fun k v -> Kv.Put (k, v)) key value);
        (2, map (fun k -> Kv.Delete k) key);
        ( 2,
          map3
            (fun key expected replacement -> Kv.Cas { key; expected; replacement })
            key value value );
      ]
  in
  frequency
    [
      (10, map (fun o -> Op (Kv.encode_op o)) op);
      (1, map (fun b -> Op b) (string_size (0 -- 6)));
      (2, return Snapshot);
      (2, return Digest);
      (1, map (fun i -> Restore i) (int_bound 8));
    ]

let prop_kv_matches_reference =
  QCheck.Test.make ~name:"kv store answers, snapshots and digests like a plain map"
    ~count:300
    QCheck.(make Gen.(list_size (0 -- 80) gen_kv_step))
    (fun script ->
      let m = Kv.machine () and reference = ref Reference_kv.empty in
      let images = ref [] in
      List.for_all
        (function
          | Op bytes ->
            let store, reply = Reference_kv.apply !reference bytes in
            reference := store;
            String.equal (State_machine.apply m bytes) reply
          | Snapshot ->
            let image = State_machine.snapshot m in
            images := !images @ [ image ];
            String.equal image (Reference_kv.snapshot !reference)
          | Digest ->
            String.equal (State_machine.state_digest m) (Reference_kv.digest !reference)
          | Restore i ->
            let image = match List.nth_opt !images i with Some im -> im | None -> "\x05a" in
            State_machine.restore m image;
            Option.iter (fun store -> reference := store) (Reference_kv.restore image);
            String.equal (State_machine.state_digest m) (Reference_kv.digest !reference))
        script)

(* Keys over a small alphabet and up to three bytes long, the empty key
   and keys that prefix one another included, so merges and searches meet
   every ordering case; values are as short. *)
let gen_kv_key = QCheck.Gen.(string_size ~gen:(char_range 'a' 'c') (0 -- 3))
let gen_kv_value = QCheck.Gen.(string_size ~gen:(char_range 'x' 'z') (0 -- 3))

type kv_move =
  | Do of Kv.op
  | Snap
  | Hash
  | Back of int  (* restore the i-th snapshot taken so far *)
  | Hostile of string  (* restore an image the machine never made *)

(* Entries in any order with keys repeated, then maybe cut short or
   followed by stray bytes. *)
let gen_hostile_image =
  let open QCheck.Gen in
  map3
    (fun entries cut stray ->
      let image = Reference_kv.image entries in
      match cut with
      | Some at when at < String.length image -> String.sub image 0 at
      | Some _ | None -> image ^ stray)
    (list_size (0 -- 10) (pair gen_kv_key gen_kv_value))
    (frequency [ (3, return None); (1, map Option.some (int_bound 40)) ])
    (frequency [ (3, return ""); (1, string_size (1 -- 3)) ])

let gen_kv_op =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun k -> Kv.Get k) gen_kv_key);
      (5, map2 (fun k v -> Kv.Put (k, v)) gen_kv_key gen_kv_value);
      (2, map (fun k -> Kv.Delete k) gen_kv_key);
      ( 2,
        map3
          (fun key expected replacement -> Kv.Cas { key; expected; replacement })
          gen_kv_key gen_kv_value gen_kv_value );
    ]

let gen_kv_move =
  let open QCheck.Gen in
  frequency
    [
      (12, map (fun o -> Do o) gen_kv_op);
      (2, return Snap);
      (2, return Hash);
      (1, map (fun i -> Back i) (int_bound 6));
      (2, map (fun image -> Hostile image) gen_hostile_image);
    ]

let prop_kv_matches_sorted_list =
  QCheck.Test.make ~name:"kv store merges, searches and restores like a sorted list"
    ~count:400
    QCheck.(make Gen.(list_size (0 -- 120) gen_kv_move))
    (fun moves ->
      let m = Kv.machine () and reference = ref Reference_kv.empty in
      let snapshots = ref [] in
      let restore image =
        State_machine.restore m image;
        Option.iter (fun store -> reference := store) (Reference_kv.restore image);
        String.equal (State_machine.snapshot m) (Reference_kv.snapshot !reference)
        && String.equal (State_machine.state_digest m) (Reference_kv.digest !reference)
      in
      List.for_all
        (function
          | Do op ->
            let bytes = Kv.encode_op op in
            let store, reply = Reference_kv.apply !reference bytes in
            reference := store;
            String.equal (State_machine.apply m bytes) reply
          | Snap ->
            let image = State_machine.snapshot m in
            snapshots := image :: !snapshots;
            String.equal image (Reference_kv.snapshot !reference)
          | Hash -> String.equal (State_machine.state_digest m) (Reference_kv.digest !reference)
          | Back i -> (
            match List.nth_opt !snapshots i with Some image -> restore image | None -> true)
          | Hostile image -> restore image)
        moves)

(* Three stores that share a merge memo and see one stream must merge each
   boundary once between them, and a fourth store of the same family whose
   stream differs in a single write must miss.  Every snapshot is the one
   a stand-alone store fed the same stream takes.  The stream restores a
   non-canonical image once, at [at], and the fourth store's write differs
   at or after it; its key is outside the generated alphabet, so no other
   store writes it. *)
let prop_kv_merge_memo =
  QCheck.Test.make ~name:"kv merge memo: agreeing stores merge once, a diverging one misses"
    ~count:300
    QCheck.(
      make
        Gen.(
          quad (list_size (1 -- 80) gen_kv_op) (1 -- 8) (int_bound 1000) (int_bound 1000)))
    (fun (ops, every, at, d) ->
      let ops = Array.of_list ops in
      let n = Array.length ops in
      let at = at mod n in
      let d = at + (d mod (n - at)) in
      let memo = Kv.Memo.create () in
      let agreeing = List.init 3 (fun _ -> Kv.machine ~memo ()) in
      let diverging = Kv.machine ~memo () in
      let alone = Kv.machine () and alone' = Kv.machine () in
      let hostile = Reference_kv.image [ ("b", "1"); ("a", "2"); ("b", "3") ] in
      let ok = ref true in
      let check b = if not b then ok := false in
      (* [f] on every agreeing store: the first may merge, the rest adopt. *)
      let agree f =
        match agreeing with
        | [] -> ()
        | first :: rest ->
          f first;
          let merged = Kv.Memo.merged memo in
          List.iter
            (fun m ->
              f m;
              check (Kv.Memo.merged memo = merged))
            rest
      in
      let diverged = ref false in
      for i = 0 to n - 1 do
        if i = at then begin
          let before = Kv.Memo.merged memo in
          agree (fun m -> State_machine.restore m hostile);
          check (Kv.Memo.merged memo = before + 1);
          List.iter (fun m -> State_machine.restore m hostile) [ diverging; alone; alone' ];
          check (Kv.Memo.merged memo = before + 1)
        end;
        let op = Kv.encode_op ops.(i) in
        let op' = if i = d then Kv.encode_op (Kv.Put ("zz", "diverged")) else op in
        let reply = State_machine.apply alone op in
        List.iter (fun m -> check (String.equal (State_machine.apply m op) reply)) agreeing;
        check
          (String.equal (State_machine.apply diverging op') (State_machine.apply alone' op'));
        if (i + 1) mod every = 0 || i = n - 1 then begin
          let image = State_machine.snapshot alone in
          agree (fun m -> check (String.equal (State_machine.snapshot m) image));
          let before = Kv.Memo.merged memo in
          check (String.equal (State_machine.snapshot diverging) (State_machine.snapshot alone'));
          if i >= d && not !diverged then begin
            diverged := true;
            check (Kv.Memo.merged memo = before + 1)
          end
        end
      done;
      check !diverged;
      check (Kv.Memo.merges_held memo <= 4 && Kv.Memo.merged memo <= Kv.Memo.merges_asked memo);
      !ok)

(* An operation stream for the operation memo: well-formed operations over
   the small alphabet (so distinct operations of one length abound),
   malformed bytes (a well-formed operation cut short or with a stray byte,
   or garbage), snapshots and digests. *)
type memo_step = Apply of string | Image | Sum

let gen_memo_step =
  let open QCheck.Gen in
  let op = map Kv.encode_op gen_kv_op in
  frequency
    [
      (10, map (fun b -> Apply b) op);
      ( 2,
        map2
          (fun b stray ->
            Apply (if stray then b ^ "\000" else String.sub b 0 (String.length b - 1)))
          op bool );
      (1, map (fun b -> Apply b) (string_size (0 -- 6)));
      (1, return Image);
      (1, return Sum);
    ]

let fresh_copy s = Bytes.to_string (Bytes.of_string s)
let malformed b =
  match Kv.decode_op b with _ -> false | exception Sof_util.Codec.Reader.Truncated -> true

(* Stores sharing one deployment memo answer exactly as stand-alone stores
   do.  Store [a] runs the stream, [c] runs each step right after [a] with
   its own copy of the bytes, and [b] runs it [lag] steps behind with
   another copy, sometimes past the memo's window.  Every reply, snapshot
   and digest is the one a stand-alone store gives at that step.  [c]
   never decodes a well-formed operation [a] has just applied, and every
   store decodes malformed bytes afresh: failed decodes are not held. *)
let prop_kv_op_memo =
  QCheck.Test.make ~name:"kv op memo: stores sharing one decode answer like stand-alone ones"
    ~count:300
    QCheck.(make Gen.(pair (list_size (1 -- 100) gen_memo_step) (0 -- 40)))
    (fun (steps, lag) ->
      let steps = Array.of_list steps in
      let n = Array.length steps in
      let alone = Kv.machine () in
      let step m copy = function
        | Apply b -> State_machine.apply m (copy b)
        | Image -> State_machine.snapshot m
        | Sum -> State_machine.state_digest m
      in
      let expected = Array.map (step alone Fun.id) steps in
      let memo = Kv.Memo.create () in
      let a = Kv.machine ~memo () and b = Kv.machine ~memo () and c = Kv.machine ~memo () in
      let ok = ref true in
      let check cond = if not cond then ok := false in
      (* [m]'s step [i]; [decodes] is how many decodes it may cost. *)
      let run m copy i decodes =
        let before = Kv.Memo.ops_decoded memo in
        check (String.equal (step m copy steps.(i)) expected.(i));
        let spent = Kv.Memo.ops_decoded memo - before in
        match steps.(i) with
        | Apply bytes when malformed bytes -> check (spent = 1)
        | Apply _ -> check (spent <= decodes)
        | Image | Sum -> check (spent = 0)
      in
      for t = 0 to n - 1 + lag do
        if t < n then begin
          run a Fun.id t 1;
          run c fresh_copy t 0
        end;
        if t >= lag then run b fresh_copy (t - lag) 1
      done;
      let applied =
        Array.fold_left (fun k s -> match s with Apply _ -> k + 3 | Image | Sum -> k) 0 steps
      in
      check (Kv.Memo.ops_asked memo = applied);
      check (Kv.Memo.ops_decoded memo <= applied);
      !ok)

(* --------------------------------------------------------- Lock_service *)

let lock_apply m op = Lock.decode_reply (State_machine.apply m (Lock.encode_op op))

let test_lock_acquire_release () =
  let m = Lock.machine () in
  Alcotest.(check bool) "free lock granted" true
    (lock_apply m (Lock.Acquire { lock = "L"; owner = "a" }) = Lock.Granted);
  Alcotest.(check bool) "holder visible" true
    (lock_apply m (Lock.Query { lock = "L" }) = Lock.Holder (Some "a"));
  Alcotest.(check bool) "contender queued" true
    (lock_apply m (Lock.Acquire { lock = "L"; owner = "b" }) = Lock.Queued 1);
  Alcotest.(check bool) "third queued behind" true
    (lock_apply m (Lock.Acquire { lock = "L"; owner = "c" }) = Lock.Queued 2);
  Alcotest.(check bool) "release hands over" true
    (lock_apply m (Lock.Release { lock = "L"; owner = "a" }) = Lock.Released);
  Alcotest.(check bool) "next waiter holds" true
    (lock_apply m (Lock.Query { lock = "L" }) = Lock.Holder (Some "b"))

let test_lock_release_guard () =
  let m = Lock.machine () in
  ignore (lock_apply m (Lock.Acquire { lock = "L"; owner = "a" }));
  Alcotest.(check bool) "non-holder refused" true
    (lock_apply m (Lock.Release { lock = "L"; owner = "b" }) = Lock.Not_holder);
  Alcotest.(check bool) "unknown lock refused" true
    (lock_apply m (Lock.Release { lock = "M"; owner = "a" }) = Lock.Not_holder)

let test_lock_idempotent_acquire () =
  let m = Lock.machine () in
  ignore (lock_apply m (Lock.Acquire { lock = "L"; owner = "a" }));
  ignore (lock_apply m (Lock.Acquire { lock = "L"; owner = "b" }));
  Alcotest.(check bool) "holder re-granted" true
    (lock_apply m (Lock.Acquire { lock = "L"; owner = "a" }) = Lock.Granted);
  Alcotest.(check bool) "waiter keeps position" true
    (lock_apply m (Lock.Acquire { lock = "L"; owner = "b" }) = Lock.Queued 1)

let test_lock_full_cycle_frees () =
  let m = Lock.machine () in
  ignore (lock_apply m (Lock.Acquire { lock = "L"; owner = "a" }));
  ignore (lock_apply m (Lock.Release { lock = "L"; owner = "a" }));
  Alcotest.(check bool) "free again" true
    (lock_apply m (Lock.Query { lock = "L" }) = Lock.Holder None)

let test_lock_op_roundtrip () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "op roundtrip" true (Lock.decode_op (Lock.encode_op op) = op))
    [
      Lock.Acquire { lock = "L"; owner = "a" };
      Lock.Release { lock = "L"; owner = "a" };
      Lock.Query { lock = "" };
    ];
  List.iter
    (fun r ->
      Alcotest.(check bool) "reply roundtrip" true
        (Lock.decode_reply (Lock.encode_reply r) = r))
    [ Lock.Granted; Lock.Queued 3; Lock.Released; Lock.Not_holder;
      Lock.Holder (Some "x"); Lock.Holder None; Lock.Bad_request ]

let prop_lock_mutual_exclusion =
  (* Whatever the op sequence, replicas applying it in the same order agree,
     and a lock never has two holders (trivially by construction, checked
     through digests of independently-fed machines). *)
  QCheck.Test.make ~name:"lock replicas agree on any op sequence" ~count:100
    QCheck.(list (pair (int_bound 2) (pair (string_of_size Gen.(1 -- 3)) (string_of_size Gen.(1 -- 3)))))
    (fun cmds ->
      let ops =
        List.map
          (fun (kind, (lock, owner)) ->
            Lock.encode_op
              (match kind with
              | 0 -> Lock.Acquire { lock; owner }
              | 1 -> Lock.Release { lock; owner }
              | _ -> Lock.Query { lock }))
          cmds
      in
      let run () =
        let m = Lock.machine () in
        List.iter (fun op -> ignore (State_machine.apply m op)) ops;
        State_machine.state_digest m
      in
      run () = run ())

(* -------------------------------------------------------------- Counter *)

let test_counter_semantics () =
  let m = Counter.machine () in
  let apply op = Counter.decode_reply (State_machine.apply m (Counter.encode_op op)) in
  Alcotest.(check bool) "read zero" true (apply Counter.Read = Counter.Count 0);
  Alcotest.(check bool) "incr" true (apply (Counter.Increment 5) = Counter.Count 5);
  Alcotest.(check bool) "incr again" true (apply (Counter.Increment 7) = Counter.Count 12);
  Alcotest.(check bool) "read" true (apply Counter.Read = Counter.Count 12)

let test_counter_digest_tracks_state () =
  let m1 = Counter.machine () and m2 = Counter.machine () in
  ignore (State_machine.apply m1 (Counter.encode_op (Counter.Increment 3)));
  Alcotest.(check bool) "digests differ" true
    (State_machine.state_digest m1 <> State_machine.state_digest m2);
  ignore (State_machine.apply m2 (Counter.encode_op (Counter.Increment 3)));
  Alcotest.(check string) "digests equal" (State_machine.state_digest m1)
    (State_machine.state_digest m2)

(* -------------------------------------------------------- State_machine *)

let test_state_machine_wrapper () =
  let m =
    State_machine.create ~name:"sum" ~init:0
      ~apply:(fun s op -> (s + String.length op, string_of_int (s + String.length op)))
      ~digest:string_of_int ()
  in
  Alcotest.(check string) "name" "sum" (State_machine.name m);
  Alcotest.(check string) "apply" "3" (State_machine.apply m "abc");
  Alcotest.(check string) "apply again" "5" (State_machine.apply m "de");
  Alcotest.(check string) "digest" "5" (State_machine.state_digest m);
  Alcotest.(check int) "ops" 2 (State_machine.ops_applied m)

let suite =
  [
    ( "smr.request",
      [
        Alcotest.test_case "roundtrip" `Quick test_request_roundtrip;
        Alcotest.test_case "digest content" `Quick test_request_digest_changes_with_content;
        Alcotest.test_case "key ordering" `Quick test_request_key_ordering;
        QCheck_alcotest.to_alcotest prop_request_roundtrip;
        QCheck_alcotest.to_alcotest prop_request_encoded_size;
      ] );
    ( "smr.kv",
      [
        Alcotest.test_case "put/get/delete" `Quick test_kv_put_get;
        Alcotest.test_case "cas" `Quick test_kv_cas;
        Alcotest.test_case "determinism" `Quick test_kv_determinism;
        Alcotest.test_case "order sensitivity" `Quick test_kv_order_sensitivity;
        Alcotest.test_case "malformed op" `Quick test_kv_malformed_op_no_crash;
        Alcotest.test_case "op roundtrip" `Quick test_kv_op_roundtrip;
        Alcotest.test_case "reply roundtrip" `Quick test_kv_reply_roundtrip;
        QCheck_alcotest.to_alcotest prop_kv_replicas_agree;
        QCheck_alcotest.to_alcotest prop_kv_matches_reference;
        QCheck_alcotest.to_alcotest prop_kv_matches_sorted_list;
        QCheck_alcotest.to_alcotest prop_kv_merge_memo;
        QCheck_alcotest.to_alcotest prop_kv_op_memo;
      ] );
    ( "smr.lock_service",
      [
        Alcotest.test_case "acquire/release" `Quick test_lock_acquire_release;
        Alcotest.test_case "release guard" `Quick test_lock_release_guard;
        Alcotest.test_case "idempotent acquire" `Quick test_lock_idempotent_acquire;
        Alcotest.test_case "full cycle frees" `Quick test_lock_full_cycle_frees;
        Alcotest.test_case "op roundtrip" `Quick test_lock_op_roundtrip;
        QCheck_alcotest.to_alcotest prop_lock_mutual_exclusion;
      ] );
    ( "smr.counter",
      [
        Alcotest.test_case "semantics" `Quick test_counter_semantics;
        Alcotest.test_case "digest tracks state" `Quick test_counter_digest_tracks_state;
      ] );
    ( "smr.state_machine",
      [ Alcotest.test_case "wrapper" `Quick test_state_machine_wrapper ] );
  ]
