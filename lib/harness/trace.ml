(* Span extraction and validation over the cluster event log.  Pure: every
   function here folds over the [(time, process, event)] rows that
   [Cluster.events] returns; nothing in this module touches the simulator. *)

module Simtime = Sof_sim.Simtime
module P = Sof_protocol

type row = Simtime.t * int * P.Context.event

type span = {
  proc : int;
  phase : P.Context.phase;
  seq : int;
  opened_at : Simtime.t;
  closed_at : Simtime.t;
}

type crypto = {
  signs : int;  (* asymmetric (scheme) signatures produced *)
  verifies : int;  (* asymmetric (scheme) signatures checked *)
  hmacs : int;  (* symmetric ops: MAC-vector tags computed + slices checked *)
  sign_ns : int;
  verify_ns : int;
  hmac_ns : int;
  verify_cached : int;  (* asymmetric verifies answered from the batch cache *)
  digest_bytes : int;
  digest_ns : int;
}

let zero_crypto =
  {
    signs = 0;
    verifies = 0;
    hmacs = 0;
    sign_ns = 0;
    verify_ns = 0;
    hmac_ns = 0;
    verify_cached = 0;
    digest_bytes = 0;
    digest_ns = 0;
  }

let add_crypto a b =
  {
    signs = a.signs + b.signs;
    verifies = a.verifies + b.verifies;
    hmacs = a.hmacs + b.hmacs;
    sign_ns = a.sign_ns + b.sign_ns;
    verify_ns = a.verify_ns + b.verify_ns;
    hmac_ns = a.hmac_ns + b.hmac_ns;
    verify_cached = a.verify_cached + b.verify_cached;
    digest_bytes = a.digest_bytes + b.digest_bytes;
    digest_ns = a.digest_ns + b.digest_ns;
  }

let total_crypto = List.fold_left add_crypto zero_crypto

type msg_count = { tag : string; msgs : int; bytes : int }

let merge_msg_counts lists =
  let table : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (List.iter (fun mc ->
         let m, b =
           match Hashtbl.find_opt table mc.tag with
           | Some (m, b) -> (m, b)
           | None -> (0, 0)
         in
         Hashtbl.replace table mc.tag (m + mc.msgs, b + mc.bytes)))
    lists;
  Hashtbl.fold (fun tag (msgs, bytes) acc -> { tag; msgs; bytes } :: acc) table []
  |> List.sort (fun a b -> String.compare a.tag b.tag)

(* ------------------------------------------------------------------ *)
(* Span matching                                                      *)
(* ------------------------------------------------------------------ *)

(* Instrumentation keeps at most one span open per (process, phase, seq):
   [Recovery.log] guarantees it.  The scan still counts violations rather
   than assuming them away, so the property suite can assert balance
   instead of inheriting it by construction. *)
type scan = {
  matched : span list;  (* in close order *)
  dangling_opens : int;  (* opened, never closed *)
  orphan_closes : int;  (* closed without a prior open *)
  double_opens : int;  (* opened while already open *)
}

let scan_rows rows =
  let open_at : (int * string * int, Simtime.t) Hashtbl.t = Hashtbl.create 256 in
  let matched = ref [] in
  let orphan_closes = ref 0 in
  let double_opens = ref 0 in
  List.iter
    (fun (at, proc, event) ->
      match event with
      | P.Context.Span_open { phase; seq } ->
        let key = (proc, P.Context.phase_name phase, seq) in
        if Hashtbl.mem open_at key then incr double_opens
        else Hashtbl.replace open_at key at
      | P.Context.Span_close { phase; seq } -> begin
        let key = (proc, P.Context.phase_name phase, seq) in
        match Hashtbl.find_opt open_at key with
        | Some opened_at ->
          Hashtbl.remove open_at key;
          matched := { proc; phase; seq; opened_at; closed_at = at } :: !matched
        | None -> incr orphan_closes
      end
      | _ -> ())
    rows;
  {
    matched = List.rev !matched;
    dangling_opens = Hashtbl.length open_at;
    orphan_closes = !orphan_closes;
    double_opens = !double_opens;
  }

let spans rows = (scan_rows rows).matched

let balanced rows =
  let s = scan_rows rows in
  s.dangling_opens = 0 && s.orphan_closes = 0 && s.double_opens = 0

(* Per-process emission times never go backwards: the log is appended in
   simulation order and a process only acts at its scheduled instants. *)
let monotone rows =
  let last : (int, Simtime.t) Hashtbl.t = Hashtbl.create 16 in
  List.for_all
    (fun (at, proc, _) ->
      let ok =
        match Hashtbl.find_opt last proc with
        | Some prev -> Simtime.compare at prev >= 0
        | None -> true
      in
      Hashtbl.replace last proc at;
      ok)
    rows

(* Every per-batch protocol phase span lies inside the batch span of the
   same process and sequence number. *)
let nested rows =
  let all = spans rows in
  let batch : (int * int, span) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.phase with
      | P.Context.Batch_phase -> Hashtbl.replace batch (s.proc, s.seq) s
      | _ -> ())
    all;
  List.for_all
    (fun s ->
      if not (P.Context.batch_scoped s.phase) then true
      else
        match Hashtbl.find_opt batch (s.proc, s.seq) with
        | None -> false
        | Some b ->
          Simtime.compare b.opened_at s.opened_at <= 0
          && Simtime.compare s.closed_at b.closed_at <= 0)
    all

(* ------------------------------------------------------------------ *)
(* Global phase intervals                                             *)
(* ------------------------------------------------------------------ *)

type interval = {
  i_phase : P.Context.phase;
  i_seq : int;
  i_start : Simtime.t;  (* earliest open across processes *)
  i_end : Simtime.t;  (* latest close across processes *)
  i_procs : int;  (* processes contributing a balanced span *)
}

(* The cluster-wide extent of each (phase, seq): from the first process to
   open the span to the last to close it.  Only balanced spans contribute,
   so chaos runs with crashed processes simply drop their half-open work. *)
let intervals rows =
  let table : (string * int, interval) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let key = (P.Context.phase_name s.phase, s.seq) in
      match Hashtbl.find_opt table key with
      | None ->
        Hashtbl.replace table key
          {
            i_phase = s.phase;
            i_seq = s.seq;
            i_start = s.opened_at;
            i_end = s.closed_at;
            i_procs = 1;
          }
      | Some iv ->
        Hashtbl.replace table key
          {
            iv with
            i_start =
              (if Simtime.compare s.opened_at iv.i_start < 0 then s.opened_at
               else iv.i_start);
            i_end =
              (if Simtime.compare s.closed_at iv.i_end > 0 then s.closed_at
               else iv.i_end);
            i_procs = iv.i_procs + 1;
          })
    (spans rows);
  Hashtbl.fold (fun _ iv acc -> iv :: acc) table []
  |> List.sort (fun a b ->
         match compare a.i_seq b.i_seq with
         | 0 ->
           String.compare
             (P.Context.phase_name a.i_phase)
             (P.Context.phase_name b.i_phase)
         | c -> c)

let width_ms iv = Simtime.to_ms (Simtime.diff iv.i_end iv.i_start)
