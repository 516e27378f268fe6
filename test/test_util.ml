open Sof_util

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_int_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 7L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 9L in
  for _ = 1 to 10_000 do
    let v = Rng.float r 3.5 in
    if v < 0.0 || v >= 3.5 then Alcotest.failf "out of bounds: %f" v
  done

let test_rng_uniformity () =
  (* Coarse chi-square-ish check: each of 10 buckets of 10k draws should hold
     roughly 1000 +- 200. *)
  let r = Rng.create 123L in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 800 || c > 1200 then Alcotest.failf "bucket %d skewed: %d" i c)
    buckets

let test_rng_split_independent () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  let a = Rng.int64 parent and b = Rng.int64 child in
  Alcotest.(check bool) "parent and child differ" true (a <> b)

let test_rng_substream_deterministic () =
  (* Same creation seed and label give the same stream, no matter how much
     the parent has already been consumed — unlike [split], which hands out
     a different child per call. *)
  let a = Rng.create 5L in
  for _ = 1 to 17 do
    ignore (Rng.int64 a)
  done;
  let b = Rng.create 5L in
  let sa = Rng.substream a "keys" and sb = Rng.substream b "keys" in
  for _ = 1 to 20 do
    Alcotest.(check int64) "label-derived stream" (Rng.int64 sa) (Rng.int64 sb)
  done

let test_rng_substream_labels_independent () =
  let r = Rng.create 5L in
  let a = Rng.substream r "alpha" and b = Rng.substream r "beta" in
  Alcotest.(check bool) "distinct labels differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_substream_leaves_parent () =
  let a = Rng.create 21L and b = Rng.create 21L in
  ignore (Rng.substream a "anything");
  Alcotest.(check int64) "parent stream unconsumed" (Rng.int64 b) (Rng.int64 a)

let test_rng_copy () =
  let a = Rng.create 11L in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_exponential_mean () =
  let r = Rng.create 99L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  if mean < 3.8 || mean > 4.2 then Alcotest.failf "mean off: %f" mean

let test_rng_normal_moments () =
  let r = Rng.create 100L in
  let n = 50_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.normal r ~mu:2.0 ~sigma:3.0 in
    sum := !sum +. v;
    sq := !sq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  if abs_float (mean -. 2.0) > 0.1 then Alcotest.failf "mu off: %f" mean;
  if abs_float (var -. 9.0) > 0.5 then Alcotest.failf "var off: %f" var

let test_rng_bytes_length () =
  let r = Rng.create 3L in
  check_int "length" 32 (Bytes.length (Rng.bytes r 32))

(* ----------------------------------------------------------------- Heap *)

let drain h = List.init (Heap.length h) (fun _ -> Heap.pop_exn h)

let push_all h keys = List.iter (fun k -> Heap.push h ~key:k k) keys

let test_heap_ordering () =
  let h = Heap.create () in
  push_all h [ 5; 1; 4; 1; 3; 9; 0; -7; max_int; min_int ];
  Alcotest.(check (list int)) "sorted" [ min_int; -7; 0; 1; 1; 3; 4; 5; 9; max_int ] (drain h)

let test_heap_fifo_ties () =
  (* Entries with equal keys must pop in insertion order. *)
  let h = Heap.create () in
  List.iter (fun (k, tag) -> Heap.push h ~key:k tag) [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  Alcotest.(check (list string)) "fifo ties" [ "z"; "a"; "b"; "c" ] (drain h)

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h));
  Alcotest.check_raises "top" (Invalid_argument "Heap.top: empty heap") (fun () ->
      ignore (Heap.top h))

let test_heap_top_does_not_remove () =
  let h = Heap.create () in
  push_all h [ 42; 7 ];
  check_int "top" 7 (Heap.top h);
  check_int "length intact" 2 (Heap.length h);
  check_int "pop agrees" 7 (Heap.pop_exn h)

let test_heap_retain () =
  let h = Heap.create () in
  List.iteri (fun i k -> Heap.push h ~key:k (k, i)) [ 3; 1; 2; 1; 3; 0; 2 ];
  Heap.retain h (fun (k, _) -> k <> 2);
  check_int "length" 5 (Heap.length h);
  Alcotest.(check (list (pair int int)))
    "kept entries pop in key, then push order"
    [ (0, 5); (1, 1); (1, 3); (3, 0); (3, 4) ]
    (drain h);
  Heap.push h ~key:4 (4, 7);
  Heap.push h ~key:2 (2, 8);
  Heap.retain h (fun _ -> false);
  Alcotest.(check bool) "retain nothing empties" true (Heap.is_empty h);
  Heap.push h ~key:6 (6, 0);
  Alcotest.(check (list (pair int int))) "usable after" [ (6, 0) ] (drain h)

(* Interleaved pushes, pops and retains drain like a stable sort by key. *)
let prop_heap_matches_stable_sort =
  QCheck.Test.make ~name:"heap pops by key, then push order, across retains" ~count:300
    QCheck.(list (pair (int_bound 3) (int_bound 20)))
    (fun script ->
      let h = Heap.create () in
      let model = ref [] and popped = ref [] and expected = ref [] and n = ref 0 in
      let by_key (k, i) (k', i') = if k <> k' then compare k k' else compare i i' in
      List.iter
        (fun (action, key) ->
          match action with
          | 0 when not (Heap.is_empty h) ->
            popped := Heap.pop_exn h :: !popped;
            (match List.sort by_key !model with
            | m :: rest ->
              expected := m :: !expected;
              model := rest
            | [] -> ())
          | 1 ->
            Heap.retain h (fun (k, _) -> k mod 3 <> 0);
            model := List.filter (fun (k, _) -> k mod 3 <> 0) !model
          | _ ->
            Heap.push h ~key (key, !n);
            model := (key, !n) :: !model;
            incr n)
        script;
      !popped = !expected && drain h = List.sort by_key !model)

(* ----------------------------------------------------------------- Ring *)

(* A ring of three keeps the last three pushes: the fourth takes the
   first's slot.  A hit is the held entry itself. *)
let keyed k tag (k', tag', _) = Int.equal k k' && String.equal tag tag'

let test_ring_window () =
  let r = Ring.create 3 in
  check_int "empty" 0 (Ring.length r);
  List.iter (fun k -> Ring.push r (k, "a", ref k)) [ 1; 2; 3 ];
  check_int "full" 3 (Ring.length r);
  let held = Ring.find r keyed 2 "a" in
  Alcotest.(check bool) "a held key is found" true (Option.is_some held);
  Alcotest.(check bool) "a lookup hands back the slot's own option" true
    (held == Ring.find r keyed 2 "a");
  Alcotest.(check bool) "both keys must match" true (Option.is_none (Ring.find r keyed 2 "b"));
  Ring.push r (4, "a", ref 4);
  check_int "never more than its size" 3 (Ring.length r);
  Alcotest.(check bool) "the oldest is gone" true (Option.is_none (Ring.find r keyed 1 "a"));
  List.iter
    (fun k -> Alcotest.(check bool) "the latest stay" true (Option.is_some (Ring.find r keyed k "a")))
    [ 2; 3; 4 ];
  Alcotest.check_raises "no empty ring" (Invalid_argument "Ring.create") (fun () ->
      ignore (Ring.create 0 : int Ring.t))

(* ------------------------------------------------------------------ Hex *)

let test_hex_roundtrip () =
  Alcotest.(check string) "encode" "00ff10" (Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Hex.decode "00ff10");
  Alcotest.(check string) "decode upper" "\xab" (Hex.decode "AB")

let test_hex_rejects_bad_input () =
  Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"));
  Alcotest.check_raises "nonhex" (Invalid_argument "Hex.decode: non-hex character")
    (fun () -> ignore (Hex.decode "zz"))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex decode . encode = id" ~count:200
    QCheck.(string)
    (fun s -> Hex.decode (Hex.encode s) = s)

(* ---------------------------------------------------------------- Codec *)

let test_codec_ints () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 200;
  Codec.Writer.u16 w 40_000;
  Codec.Writer.u32 w 3_000_000_000;
  Codec.Writer.varint w 300;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  check_int "u8" 200 (Codec.Reader.u8 r);
  check_int "u16" 40_000 (Codec.Reader.u16 r);
  check_int "u32" 3_000_000_000 (Codec.Reader.u32 r);
  check_int "varint" 300 (Codec.Reader.varint r);
  Codec.Reader.expect_end r

let test_codec_string_list_option () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "hello";
  Codec.Writer.list w Codec.Writer.string [ "a"; ""; "long string here" ];
  Codec.Writer.option w Codec.Writer.u8 (Some 7);
  Codec.Writer.option w Codec.Writer.u8 None;
  Codec.Writer.bool w true;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check string) "string" "hello" (Codec.Reader.string r);
  Alcotest.(check (list string)) "list" [ "a"; ""; "long string here" ]
    (Codec.Reader.list r Codec.Reader.string);
  Alcotest.(check (option int)) "some" (Some 7) (Codec.Reader.option r Codec.Reader.u8);
  Alcotest.(check (option int)) "none" None (Codec.Reader.option r Codec.Reader.u8);
  Alcotest.(check bool) "bool" true (Codec.Reader.bool r);
  Codec.Reader.expect_end r

let test_codec_truncated () =
  let r = Codec.Reader.of_string "\x05ab" in
  Alcotest.check_raises "truncated string" Codec.Reader.Truncated (fun () ->
      ignore (Codec.Reader.string r))

let test_codec_range_checks () =
  let w = Codec.Writer.create () in
  Alcotest.check_raises "u8 range" (Invalid_argument "Codec.Writer.u8: out of range")
    (fun () -> Codec.Writer.u8 w 256);
  Alcotest.check_raises "varint negative"
    (Invalid_argument "Codec.Writer.varint: negative") (fun () ->
      Codec.Writer.varint w (-1))

let test_codec_varint_canonical () =
  let reads s = Codec.Reader.varint (Codec.Reader.of_string s) in
  check_int "one byte" 0x7f (reads "\x7f");
  check_int "two bytes" 300 (reads "\xac\x02");
  check_int "largest" max_int (reads "\xff\xff\xff\xff\xff\xff\xff\xff\x3f");
  Alcotest.check_raises "overlong zero" Codec.Reader.Truncated (fun () ->
      ignore (reads "\x80\x00"));
  Alcotest.check_raises "overlong 1" Codec.Reader.Truncated (fun () ->
      ignore (reads "\x81\x80\x00"));
  Alcotest.check_raises "sign bit" Codec.Reader.Truncated (fun () ->
      ignore (reads "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"));
  Alcotest.check_raises "too long" Codec.Reader.Truncated (fun () ->
      ignore (reads "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01"))

let prop_codec_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound 1_000_000_000)
    (fun n ->
      let w = Codec.Writer.create () in
      Codec.Writer.varint w n;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      Codec.Reader.varint r = n && Codec.Reader.at_end r)

let prop_codec_varint_size =
  QCheck.Test.make ~name:"varint_size is the encoded length" ~count:500
    QCheck.(oneof [ int_bound 1_000; int_bound 1_000_000_000; int_bound max_int ])
    (fun n ->
      let w = Codec.Writer.create () in
      Codec.Writer.varint w n;
      Codec.varint_size n = Codec.Writer.length w)

let prop_codec_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrip" ~count:200 QCheck.string (fun s ->
      let w = Codec.Writer.create () in
      Codec.Writer.string w s;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      Codec.Reader.string r = s && Codec.Reader.at_end r)

(* [put_string] fills a sized buffer with exactly the bytes the writer
   would append, and refuses to run past its end. *)
let prop_codec_put_string =
  QCheck.Test.make ~name:"put_string writes what Writer.string appends" ~count:200
    QCheck.(pair string (int_bound 3))
    (fun (s, slack) ->
      let w = Codec.Writer.create () in
      Codec.Writer.string w s;
      let b = Bytes.make (Codec.Writer.length w + slack) '?' in
      let pos = Codec.put_string b slack s in
      pos = Bytes.length b
      && String.equal (Bytes.sub_string b slack (pos - slack)) (Codec.Writer.contents w))

let test_codec_put_bounds () =
  Alcotest.check_raises "negative" (Invalid_argument "Codec.put_varint: negative") (fun () ->
      ignore (Codec.put_varint (Bytes.create 4) 0 (-1)));
  Alcotest.check_raises "no room" (Invalid_argument "Codec.put_varint: no room") (fun () ->
      ignore (Codec.put_varint (Bytes.create 2) 1 300))

(* ------------------------------------------------------------------ Fnv *)

(* The plain masked byte loop: the reference the kernel must match. *)
let fnv_reference s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff) s;
  !h

let test_fnv_vectors () =
  List.iter
    (fun (input, expected) -> check_int (Printf.sprintf "fnv1a32 %S" input) expected (Fnv.string input))
    [ ("", 0x811c9dc5); ("a", 0xe40c292c); ("foobar", 0xbf9cf968) ];
  check_int "basis is the empty hash" (Fnv.string "") Fnv.basis;
  check_int "one byte" (Fnv.string "a") (Fnv.feed_byte Fnv.basis (Char.code 'a'));
  Alcotest.check_raises "range outside the string" (Invalid_argument "Fnv.feed") (fun () ->
      ignore (Fnv.feed Fnv.basis "abc" ~pos:2 ~len:2))

(* Random strings against the reference loop, whole and fed in two pieces
   at a random cut, the way a checkpoint frame's payload is fed. *)
let prop_fnv_matches_reference =
  QCheck.Test.make ~name:"fnv matches the byte loop, whole and in pieces" ~count:300
    QCheck.(pair string small_nat)
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
      let pieces =
        Fnv.feed (Fnv.feed Fnv.basis s ~pos:0 ~len:cut) s ~pos:cut ~len:(String.length s - cut)
      in
      Fnv.string s = fnv_reference s && pieces = fnv_reference s)

(* ----------------------------------------------------------- Statistics *)

let test_stats_basic () =
  let s = Statistics.create () in
  List.iter (Statistics.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Statistics.count s);
  check_float "mean" 2.5 (Statistics.mean s);
  check_float "min" 1.0 (Statistics.min s);
  check_float "max" 4.0 (Statistics.max s);
  check_float "median" 2.5 (Statistics.median s)

let test_stats_variance () =
  let s = Statistics.create () in
  List.iter (Statistics.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-6)) "variance" (32.0 /. 7.0) (Statistics.variance s)

let test_stats_percentile_interpolation () =
  let s = Statistics.create () in
  List.iter (Statistics.add s) [ 10.0; 20.0; 30.0; 40.0 ];
  check_float "p25" 17.5 (Statistics.percentile s 25.0);
  check_float "p0" 10.0 (Statistics.percentile s 0.0);
  check_float "p100" 40.0 (Statistics.percentile s 100.0)

let test_stats_empty () =
  let s = Statistics.create () in
  check_float "mean of empty" 0.0 (Statistics.mean s);
  Alcotest.check_raises "min of empty" (Invalid_argument "Statistics.min: empty")
    (fun () -> ignore (Statistics.min s))

let test_stats_summary () =
  let s = Statistics.create () in
  for i = 1 to 100 do
    Statistics.add s (float_of_int i)
  done;
  let sum = Statistics.summarize s in
  check_int "n" 100 sum.Statistics.n;
  check_float "mean" 50.5 sum.Statistics.mean;
  check_float "p50" 50.5 sum.Statistics.p50

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"running mean matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Statistics.create () in
      List.iter (Statistics.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      abs_float (Statistics.mean s -. naive) < 1e-6)

(* ----------------------------------------------- Statistics edge cases *)

let test_stats_empty_totals () =
  let s = Statistics.create () in
  check_int "count" 0 (Statistics.count s);
  check_float "mean" 0.0 (Statistics.mean s);
  check_float "variance" 0.0 (Statistics.variance s);
  check_float "stddev" 0.0 (Statistics.stddev s);
  Alcotest.check_raises "max" (Invalid_argument "Statistics.max: empty") (fun () ->
      ignore (Statistics.max s));
  Alcotest.check_raises "percentile" (Invalid_argument "Statistics.percentile: empty")
    (fun () -> ignore (Statistics.percentile s 50.0));
  let raised =
    match Statistics.summarize s with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "summarize raises" true raised

let test_stats_single_sample () =
  let s = Statistics.create () in
  Statistics.add s 42.0;
  check_int "count" 1 (Statistics.count s);
  check_float "mean" 42.0 (Statistics.mean s);
  check_float "variance" 0.0 (Statistics.variance s);
  check_float "min" 42.0 (Statistics.min s);
  check_float "max" 42.0 (Statistics.max s);
  check_float "median" 42.0 (Statistics.median s);
  let sum = Statistics.summarize s in
  check_float "p95 of one" 42.0 sum.Statistics.p95;
  check_float "p99 of one" 42.0 sum.Statistics.p99

let test_stats_duplicate_heavy_quantiles () =
  (* A sample dominated by one repeated value: every interpolated quantile
     inside the plateau is the plateau value, and extremes stay exact. *)
  let s = Statistics.create () in
  for _ = 1 to 96 do
    Statistics.add s 5.0
  done;
  List.iter (Statistics.add s) [ 1.0; 2.0; 8.0; 9.0 ];
  check_float "median on plateau" 5.0 (Statistics.median s);
  check_float "p25 on plateau" 5.0 (Statistics.percentile s 25.0);
  check_float "p90 on plateau" 5.0 (Statistics.percentile s 90.0);
  check_float "p0 is min" 1.0 (Statistics.percentile s 0.0);
  check_float "p100 is max" 9.0 (Statistics.percentile s 100.0);
  Alcotest.check_raises "out of range" (Invalid_argument "Statistics.percentile: out of range")
    (fun () -> ignore (Statistics.percentile s 101.0))

(* ------------------------------------------------------------------ Json *)

let test_json_writer () =
  let j =
    Json.Obj
      [
        ("int", Json.num_of_int 3);
        ("float", Json.Num 2.5);
        ("str", Json.Str "a\"b\\c\n\t");
        ("ctrl", Json.Str "\001");
        ("null", Json.Null);
        ("nan", Json.Num Float.nan);
        ("list", Json.List [ Json.Bool true; Json.Bool false ]);
        ("empty", Json.Obj []);
      ]
  in
  Alcotest.(check string) "compact rendering"
    "{\"int\":3,\"float\":2.5,\"str\":\"a\\\"b\\\\c\\n\\t\",\"ctrl\":\"\\u0001\",\"null\":null,\"nan\":null,\"list\":[true,false],\"empty\":{}}"
    (Json.to_string j)

let test_json_parse_errors () =
  List.iter
    (fun input ->
      let raised =
        match Json.of_string input with
        | _ -> false
        | exception Json.Parse_error _ -> true
      in
      Alcotest.(check bool) (Printf.sprintf "rejects %S" input) true raised)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}"; "nulll" ]

let test_json_accessors () =
  let j = Json.of_string "{\"a\": {\"b\": [1, 2.5, \"x\", true, null]}, \"n\": -3}" in
  Alcotest.(check (option int)) "path int"
    (Some (-3))
    (Option.bind (Json.path [ "n" ] j) Json.to_int);
  let items =
    match Option.bind (Json.path [ "a"; "b" ] j) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "path a.b missing"
  in
  Alcotest.(check int) "list length" 5 (List.length items);
  Alcotest.(check (option string)) "str element" (Some "x") (Json.to_str (List.nth items 2));
  Alcotest.(check (option bool)) "bool element" (Some true) (Json.to_bool (List.nth items 3));
  Alcotest.(check (option int)) "non-integer num" None (Json.to_int (List.nth items 1));
  Alcotest.(check bool) "missing member" true (Json.member "zzz" j = None)

let prop_json_roundtrip =
  (* Any tree built from the constructors survives write -> parse intact
     (integers stay integers; strings keep every byte we emit escaped). *)
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.num_of_int i) (int_range (-1_000_000) 1_000_000);
                map (fun s -> Json.Str s) (string_size ~gen:printable (0 -- 12));
              ]
          in
          if n <= 0 then leaf
          else
            oneof
              [
                leaf;
                map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2)));
                map
                  (fun kvs -> Json.Obj (List.mapi (fun i (k, v) -> (Printf.sprintf "%s%d" k i, v)) kvs))
                  (list_size (0 -- 4)
                     (pair (string_size ~gen:printable (1 -- 6)) (self (n / 2))));
              ]))
  in
  QCheck.Test.make ~name:"Json: to_string/of_string roundtrip" ~count:300
    (QCheck.make ~print:Json.to_string gen)
    (fun j -> Json.of_string (Json.to_string j) = j)

let suite =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int rejects bound<=0" `Quick test_rng_int_rejects_nonpositive;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "substream determinism" `Quick test_rng_substream_deterministic;
        Alcotest.test_case "substream label independence" `Quick
          test_rng_substream_labels_independent;
        Alcotest.test_case "substream leaves parent" `Quick test_rng_substream_leaves_parent;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
        Alcotest.test_case "normal moments" `Slow test_rng_normal_moments;
        Alcotest.test_case "bytes length" `Quick test_rng_bytes_length;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "ordering" `Quick test_heap_ordering;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "empty" `Quick test_heap_empty;
        Alcotest.test_case "top" `Quick test_heap_top_does_not_remove;
        Alcotest.test_case "retain" `Quick test_heap_retain;
        QCheck_alcotest.to_alcotest prop_heap_matches_stable_sort;
      ] );
    ("util.ring", [ Alcotest.test_case "window" `Quick test_ring_window ]);
    ( "util.hex",
      [
        Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
        Alcotest.test_case "rejects bad input" `Quick test_hex_rejects_bad_input;
        QCheck_alcotest.to_alcotest prop_hex_roundtrip;
      ] );
    ( "util.codec",
      [
        Alcotest.test_case "ints" `Quick test_codec_ints;
        Alcotest.test_case "string/list/option" `Quick test_codec_string_list_option;
        Alcotest.test_case "truncated" `Quick test_codec_truncated;
        Alcotest.test_case "range checks" `Quick test_codec_range_checks;
        QCheck_alcotest.to_alcotest prop_codec_varint_roundtrip;
        QCheck_alcotest.to_alcotest prop_codec_string_roundtrip;
        Alcotest.test_case "varint canonical" `Quick test_codec_varint_canonical;
        QCheck_alcotest.to_alcotest prop_codec_varint_size;
        QCheck_alcotest.to_alcotest prop_codec_put_string;
        Alcotest.test_case "put bounds" `Quick test_codec_put_bounds;
      ] );
    ( "util.fnv",
      [
        Alcotest.test_case "standard vectors" `Quick test_fnv_vectors;
        QCheck_alcotest.to_alcotest prop_fnv_matches_reference;
      ] );
    ( "util.statistics",
      [
        Alcotest.test_case "basic" `Quick test_stats_basic;
        Alcotest.test_case "variance" `Quick test_stats_variance;
        Alcotest.test_case "percentile interpolation" `Quick
          test_stats_percentile_interpolation;
        Alcotest.test_case "empty" `Quick test_stats_empty;
        Alcotest.test_case "summary" `Quick test_stats_summary;
        QCheck_alcotest.to_alcotest prop_stats_mean_matches_naive;
        Alcotest.test_case "empty totals" `Quick test_stats_empty_totals;
        Alcotest.test_case "single sample" `Quick test_stats_single_sample;
        Alcotest.test_case "duplicate-heavy quantiles" `Quick
          test_stats_duplicate_heavy_quantiles;
      ] );
    ( "util.json",
      [
        Alcotest.test_case "writer" `Quick test_json_writer;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
        QCheck_alcotest.to_alcotest prop_json_roundtrip;
      ] );
  ]
