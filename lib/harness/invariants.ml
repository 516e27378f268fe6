module Simtime = Sof_sim.Simtime
module P = Sof_protocol
module Request = Sof_smr.Request

type result = {
  name : string;
  pass : bool;
  detail : string;
}

type events = (Simtime.t * int * P.Context.event) list

let ok name = { name; pass = true; detail = "ok" }
let fail name detail = { name; pass = false; detail }

let pp_result fmt r =
  Format.fprintf fmt "%-22s %s%s" r.name
    (if r.pass then "PASS" else "FAIL")
    (if r.pass then "" else "  (" ^ r.detail ^ ")")

let all_pass = List.for_all (fun r -> r.pass)

(* Delivered events of honest processes, in emission order (which is
   per-process sequence order — the kernel delivers in strict sequence
   order).  Each delivery is tagged with the process's incarnation (bumped
   at Node_restarted: a restarted process lost its delivered-set and may
   legitimately re-deliver what its previous life already delivered) and
   its segment (bumped at Node_restarted {e and} State_transfer_installed:
   an install jumps the delivery point above a checkpoint anchor, so a
   contiguity check must restart there). *)
let deliveries_of ~events ~honest =
  let inc : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let seg : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let bump tbl who =
    Hashtbl.replace tbl who (1 + Option.value (Hashtbl.find_opt tbl who) ~default:0)
  in
  let current tbl who = Option.value (Hashtbl.find_opt tbl who) ~default:0 in
  List.filter_map
    (fun (at, who, event) ->
      match event with
      | P.Context.Node_restarted ->
        bump inc who;
        bump seg who;
        None
      | P.Context.State_transfer_installed _ ->
        bump seg who;
        None
      | P.Context.Delivered { seq; batch } when List.mem who honest ->
        Some (at, (who, current inc who, current seg who), seq, batch)
      | _ -> None)
    events

let deliveries cluster ~honest =
  deliveries_of ~events:(Cluster.events cluster) ~honest

let batch_keys batch = P.Batch.keys batch

(* ----------------------------------------------------------- agreement *)

let agreement_of ~events ~honest =
  let name = "agreement" in
  (* seq -> (process, keys) first seen; any later divergence is a violation. *)
  let by_seq : (int, int * Request.key list) Hashtbl.t = Hashtbl.create 256 in
  let violation = ref None in
  List.iter
    (fun (_, (who, _, _), seq, batch) ->
      if !violation = None then
        let keys = batch_keys batch in
        match Hashtbl.find_opt by_seq seq with
        | None -> Hashtbl.replace by_seq seq (who, keys)
        | Some (other, keys') ->
          if keys <> keys' then
            violation :=
              Some
                (Printf.sprintf
                   "processes %d and %d delivered different batches at seq %d"
                   other who seq))
    (deliveries_of ~events ~honest);
  match !violation with None -> ok name | Some d -> fail name d

let agreement cluster ~honest = agreement_of ~events:(Cluster.events cluster) ~honest

(* ------------------------------------------------------ commit coherence *)

(* Stronger than delivered-batch agreement when the adversary can equivocate
   without changing the request set: two pre-prepares for the same slot that
   differ only in digest carry identical keys, so only the committed digests
   betray the split.  No two honest processes may commit different digests
   at the same sequence number. *)
let commit_coherence_of ~events ~honest =
  let name = "commit-coherence" in
  let by_seq : (int, int * string) Hashtbl.t = Hashtbl.create 64 in
  let violation = ref None in
  List.iter
    (fun (_, who, ev) ->
      if !violation = None then
        match ev with
        | P.Context.Committed { seq; digest; _ } when List.mem who honest -> (
          match Hashtbl.find_opt by_seq seq with
          | None -> Hashtbl.replace by_seq seq (who, digest)
          | Some (other, digest') ->
            if not (String.equal digest digest') then
              violation :=
                Some
                  (Printf.sprintf
                     "processes %d and %d committed different digests at seq %d"
                     other who seq))
        | _ -> ())
    events;
  match !violation with None -> ok name | Some d -> fail name d

(* -------------------------------------------------- prefix consistency *)

(* Anchored: a recovered process resumes {e above} a checkpoint anchor
   rather than at sequence 1, so streams are compared per segment and by
   sequence number.  Within a segment the delivered sequence numbers must
   be contiguous (the anchor is wherever the segment starts); across any
   two segments, overlapping sequence numbers must carry the same keys.
   Contiguity plus pointwise equality over the overlap is exactly the
   prefix property anchored at the later stream's first sequence number. *)
let prefix_consistency_of ~events ~honest =
  let name = "prefix-consistency" in
  let streams : (int * int * int, (int * Request.key list) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (_, pid, seq, batch) ->
      let cell =
        match Hashtbl.find_opt streams pid with
        | Some c -> c
        | None ->
          let c = ref [] in
          Hashtbl.replace streams pid c;
          c
      in
      cell := (seq, batch_keys batch) :: !cell)
    (deliveries_of ~events ~honest);
  let streams =
    Hashtbl.fold (fun pid cell acc -> (pid, List.rev !cell) :: acc) streams []
  in
  let contiguity =
    List.find_map
      (fun ((who, _, _), entries) ->
        let rec go = function
          | (a, _) :: ((b, _) :: _ as rest) ->
            if b <> a + 1 then
              Some
                (Printf.sprintf
                   "process %d delivered seq %d directly after seq %d (gap \
                    with no state-transfer install)" who b a)
            else go rest
          | _ -> None
        in
        go entries)
      streams
  in
  let by_seq : (int, int * Request.key list) Hashtbl.t = Hashtbl.create 256 in
  let overlap = ref None in
  List.iter
    (fun ((who, _, _), entries) ->
      List.iter
        (fun (seq, keys) ->
          if !overlap = None then
            match Hashtbl.find_opt by_seq seq with
            | None -> Hashtbl.replace by_seq seq (who, keys)
            | Some (other, keys') ->
              if keys <> keys' then
                overlap :=
                  Some
                    (Printf.sprintf
                       "processes %d and %d diverge at seq %d in overlapping \
                        delivery segments" other who seq))
        entries)
    streams;
  match (contiguity, !overlap) with
  | Some d, _ | None, Some d -> fail name d
  | None, None -> ok name

let prefix_consistency cluster ~honest =
  prefix_consistency_of ~events:(Cluster.events cluster) ~honest

(* ------------------------------------------------------------ validity *)

(* At-most-once is demanded per incarnation: a restarted process lost its
   delivered-set with the crash, and a state-transfer image does not carry
   it (the service-level dedup for re-batched pre-checkpoint requests is a
   client concern — see DESIGN.md), so its new life may re-deliver requests
   the old life already handled. *)
let validity_of ~events ~honest ~injected =
  let name = "validity" in
  (* Small and grown as needed: the model checker calls this at every
     state, on a few deliveries, and a table of 1,024 buckets is allocated
     straight on the major heap. *)
  let seen : (int * int * Request.key, unit) Hashtbl.t = Hashtbl.create 64 in
  let violation = ref None in
  List.iter
    (fun (_, (who, inc, _), _, batch) ->
      if !violation = None then
        List.iter
          (fun key ->
            if not (Request.Key_set.mem key injected) then
              violation :=
                Some
                  (Format.asprintf "process %d delivered un-injected request %a" who
                     Request.pp_key key)
            else if Hashtbl.mem seen (who, inc, key) then
              violation :=
                Some
                  (Format.asprintf "process %d delivered request %a twice" who
                     Request.pp_key key)
            else Hashtbl.replace seen (who, inc, key) ())
          (batch_keys batch))
    (deliveries_of ~events ~honest);
  match !violation with None -> ok name | Some d -> fail name d

let validity cluster ~honest ~injected =
  validity_of ~events:(Cluster.events cluster) ~honest ~injected

(* --------------------------------------------- fail-signal accountability *)

(* Soundness half of fail-signal accountability, over a bare event list: an
   honest member's fail-signal must be attributable — a Byzantine or crashed
   counterpart, or the counterpart's own signal (the join rule). *)
let fs_soundness_violation ~events ~config ~byz ~crashed =
  let emitted_by who pair =
    List.exists
      (fun (_, w, ev) ->
        w = who
        && match ev with
           | P.Context.Fail_signal_emitted { pair = p; _ } -> p = pair
           | _ -> false)
      events
  in
  List.find_map
    (fun (_, who, ev) ->
      match ev with
      | P.Context.Fail_signal_emitted { pair; value_domain }
        when not (List.mem who byz) -> begin
        match
          (P.Config.pair_rank_of config who, P.Config.counterpart config who)
        with
        | Some own, Some cp when own = pair ->
          if List.mem cp byz then None
          else if value_domain then
            (* Value-domain evidence is cryptographic: only a Byzantine
               counterpart can produce it. *)
            Some
              (Printf.sprintf
                 "process %d raised a value-domain fail-signal against \
                  honest counterpart %d (pair %d)"
                 who cp pair)
          else if List.mem cp crashed || emitted_by cp pair then None
          else
            Some
              (Printf.sprintf
                 "process %d fail-signalled pair %d, but counterpart %d \
                  neither misbehaved, crashed, nor signalled"
                 who pair cp)
        | _ ->
          Some
            (Printf.sprintf
               "process %d emitted a fail-signal for pair %d, which is not \
                its own pair" who pair)
      end
      | _ -> None)
    events

let fail_signal_soundness_of ~events ~config ~byz ~crashed =
  let name = "fs-soundness" in
  if P.Config.pair_count config = 0 then ok name
  else
    match fs_soundness_violation ~events ~config ~byz ~crashed with
    | None -> ok name
    | Some d -> fail name d

let byz_of_spec spec =
  List.filter_map
    (fun (i, fault) -> if fault = P.Fault.Honest then None else Some i)
    spec.Cluster.faults

let fail_signal_accountability cluster ~crashed ~by =
  let name = "fs-accountability" in
  let spec = Cluster.spec cluster in
  let config = Cluster.config cluster in
  if P.Config.pair_count config = 0 then ok name
  else begin
    let events = Cluster.events cluster in
    let byz = byz_of_spec spec in
    let observed_by_honest pair =
      List.exists
        (fun (_, w, ev) ->
          (not (List.mem w byz))
          && match ev with
             | P.Context.Fail_signal_observed { pair = p } -> p = pair
             | _ -> false)
        events
    in
    (* Soundness (mutual time-domain accusations under surge are accepted by
       the join rule, as assumption 3(a)'s estimates are deliberately broken
       then), shared with the model checker's incremental check. *)
    let soundness = fs_soundness_violation ~events ~config ~byz ~crashed in
    (* Detection: a fault that demonstrably fired against an honest
       counterpart must end in the pair being signalled.  Muteness is
       always detectable (heartbeats); a corrupt or equivocated order is
       detectable once the faulty process actually batched that sequence
       number as coordinator — its own Batched event is the proof. *)
    let fired_detectably who fault =
      match fault with
      | P.Fault.Mute_at at -> Simtime.compare at by <= 0
      | P.Fault.Corrupt_digest_at o | P.Fault.Equivocate_at o ->
        List.exists
          (fun (at, w, ev) ->
            w = who
            && Simtime.compare at by <= 0
            && match ev with P.Context.Batched { seq; _ } -> seq = o | _ -> false)
          events
      | _ -> false
    in
    let detection =
      List.find_map
        (fun (who, fault) ->
          match
            (P.Config.pair_rank_of config who, P.Config.counterpart config who)
          with
          | Some rank, Some cp
            when fired_detectably who fault
                 && (not (List.mem cp byz))
                 && (not (List.mem cp crashed))
                 && not (observed_by_honest rank) ->
            Some
              (Format.asprintf
                 "process %d misbehaved (%a) but pair %d was never \
                  fail-signalled" who P.Fault.pp fault rank)
          | _ -> None)
        spec.Cluster.faults
    in
    match (soundness, detection) with
    | Some d, _ | None, Some d -> fail name d
    | None, None -> ok name
  end

(* ------------------------------------------------- coordinator succession *)

let coordinator_succession cluster ~crashed ~by =
  let name = "coord-succession" in
  let spec = Cluster.spec cluster in
  let config = Cluster.config cluster in
  match spec.Cluster.kind with
  | Cluster.Bft_protocol | Cluster.Ct_protocol -> ok name
  | Cluster.Sc_protocol | Cluster.Scr_protocol ->
    let byz = byz_of_spec spec in
    let honest =
      List.filter
        (fun p -> (not (List.mem p byz)) && not (List.mem p crashed))
        (List.init (Cluster.process_count cluster) Fun.id)
    in
    let candidate_count = P.Config.candidate_count config in
    let candidate_of_view v =
      let m = v mod candidate_count in
      if m = 0 then candidate_count else m
    in
    let events = Cluster.events cluster in
    let violation = ref None in
    let note d = if !violation = None then violation := Some d in
    List.iter
      (fun p ->
        (* Walk p's events tracking who it believes coordinates.  A failed
           current coordinator observed before [by] must be followed by the
           installation of a successor; and once p itself has fail-signalled,
           it goes dumb — no more batching (until SCR's pair recovery). *)
        let coord = ref 1 in
        let pending = ref None in
        let dumb = ref false in
        List.iter
          (fun (at, who, ev) ->
            if who = p then
              match ev with
              | P.Context.Fail_signal_observed { pair }
                when pair = !coord && !pending = None ->
                pending := Some at
              | P.Context.Coordinator_installed { rank } ->
                if rank <= !coord then
                  note
                    (Printf.sprintf
                       "process %d installed coordinator %d, not a successor \
                        of %d" p rank !coord);
                coord := rank;
                pending := None
              | P.Context.View_installed { v } ->
                coord := candidate_of_view v;
                pending := None
              | P.Context.Fail_signal_emitted _ -> dumb := true
              | P.Context.Pair_recovered _ -> dumb := false
              | P.Context.Node_restarted ->
                (* A crash-restart starts a fresh incarnation: dumbness and
                   coordinator beliefs are volatile state the crash erased,
                   and any pre-crash observation obligation is discharged by
                   recovery itself. *)
                coord := 1;
                pending := None;
                dumb := false
              | P.Context.Batched _ when !dumb ->
                note
                  (Printf.sprintf
                     "process %d batched after fail-signalling its own pair \
                      (must go dumb)" p)
              | _ -> ())
          events;
        match !pending with
        | Some t0 when Simtime.compare t0 by <= 0 ->
          note
            (Format.asprintf
               "process %d observed coordinator pair %d fail at %a but never \
                installed a successor" p !coord Simtime.pp t0)
        | _ -> ())
      honest;
    (match !violation with None -> ok name | Some d -> fail name d)

(* -------------------------------------------------- liveness after heal *)

let liveness_after_heal cluster ~honest ~heal_time =
  let name = "liveness-after-heal" in
  let latest = Hashtbl.create 8 in
  List.iter
    (fun (at, (who, _, _), _, _) ->
      let prev = Option.value (Hashtbl.find_opt latest who) ~default:Simtime.zero in
      Hashtbl.replace latest who (Simtime.max prev at))
    (deliveries cluster ~honest);
  match
    List.find_opt
      (fun who ->
        match Hashtbl.find_opt latest who with
        | None -> true
        | Some at -> Simtime.compare at heal_time <= 0)
      honest
  with
  | None -> ok name
  | Some who ->
    fail name
      (Format.asprintf "process %d delivered nothing after the last heal (%a)" who
         Simtime.pp heal_time)

(* --------------------------------------------------- checkpoint agreement *)

let checkpoint_agreement_of ~events ~honest =
  let name = "checkpoint-agreement" in
  let by_seq : (int, int * string) Hashtbl.t = Hashtbl.create 16 in
  let violation = ref None in
  List.iter
    (fun (_, who, ev) ->
      if !violation = None then
        match ev with
        | P.Context.Checkpoint_stable { seq; digest } when List.mem who honest
          -> (
          match Hashtbl.find_opt by_seq seq with
          | None -> Hashtbl.replace by_seq seq (who, digest)
          | Some (other, digest') ->
            if not (String.equal digest digest') then
              violation :=
                Some
                  (Printf.sprintf
                     "processes %d and %d stabilised conflicting checkpoint \
                      certificates at seq %d" other who seq))
        | _ -> ())
    events;
  match !violation with None -> ok name | Some d -> fail name d

let checkpoint_agreement cluster ~honest =
  checkpoint_agreement_of ~events:(Cluster.events cluster) ~honest

(* ------------------------------------------------------------ bounded log *)

let bounded_log cluster ~live ~slack =
  let name = "bounded-log" in
  let interval = (Cluster.spec cluster).Cluster.checkpoint_interval in
  if interval = 0 then ok name
  else begin
    let bound = (2 * interval) + slack in
    match
      List.find_opt (fun i -> Cluster.log_length cluster i > bound) live
    with
    | None -> ok name
    | Some i ->
      fail name
        (Printf.sprintf
           "process %d retains %d log entries, above the bound %d (2 \
            intervals of %d plus slack %d)" i
           (Cluster.log_length cluster i)
           bound interval slack)
  end

(* ------------------------------------------------------------ durability *)

(* Under durable storage, a reply the system vouched for (f+1 matching
   replicas) must survive crashes: at run end, at least f+1 live processes
   hold a per-client delivery mark at or above the request's sequence
   number.  Marks ride checkpoint images and write-ahead-log replay, so
   even a whole-cluster restart must not forget a certified reply. *)
let durability cluster ~live ~injected =
  let name = "durability" in
  let f = (Cluster.spec cluster).Cluster.f in
  let marks = List.map (fun i -> Cluster.client_marks cluster i) live in
  let holders (key : Request.key) =
    List.length
      (List.filter
         (fun ms ->
           match List.assoc_opt key.Request.client ms with
           | Some hw -> hw >= key.Request.client_seq
           | None -> false)
         marks)
  in
  let violation =
    Request.Key_set.fold
      (fun key acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if
            Cluster.reply_certificate cluster key <> None
            && holders key < f + 1
          then Some key
          else None)
      injected None
  in
  match violation with
  | None -> ok name
  | Some key ->
    fail name
      (Format.asprintf
         "request %a was reply-certified but fewer than %d live processes \
          still hold its delivery mark" Request.pp_key key (f + 1))

(* ----------------------------------------------------- repair correctness *)

(* Live processes that have delivered the same prefix must hold identical
   service state.  This is what distinguishes a repaired replica from a
   merely live one: replaying a torn, corrupt or tampered log must end in
   the agreed state or in escalation — never in a divergent image. *)
let repair_correctness cluster ~live =
  let name = "repair-correctness" in
  let states =
    List.map
      (fun i ->
        ( i,
          Cluster.delivered_seq cluster i,
          Sof_smr.State_machine.state_digest (Cluster.machine cluster i) ))
      live
  in
  let by_seq : (int, int * string) Hashtbl.t = Hashtbl.create 8 in
  let violation = ref None in
  List.iter
    (fun (i, seq, digest) ->
      if !violation = None then
        match Hashtbl.find_opt by_seq seq with
        | None -> Hashtbl.replace by_seq seq (i, digest)
        | Some (j, digest') ->
          if not (String.equal digest digest') then
            violation :=
              Some
                (Printf.sprintf
                   "processes %d and %d both delivered through seq %d yet \
                    hold different state digests" j i seq))
    states;
  match !violation with None -> ok name | Some d -> fail name d

(* -------------------------------------------------- gray-failure checks *)

(* One churn number across all four protocols: fail-signals (SC/SCR),
   view changes (BFT), coordinator rotations (CT, read off the live
   processes' epoch counters since rotation emits no event).  Under a
   gray campaign nothing is faulty — every unit of churn is a detector
   giving up on a correct-but-slow process. *)
let suspicion_churn cluster =
  let signals = ref 0 and views = ref 0 in
  List.iter
    (fun (_, _, ev) ->
      match ev with
      | P.Context.Fail_signal_emitted _ -> incr signals
      | P.Context.View_installed _ -> incr views
      | _ -> ())
    (Cluster.events cluster);
  let rotations = ref 0 in
  for i = 0 to Cluster.process_count cluster - 1 do
    match P.Replica.core (Cluster.proc cluster i) with
    | P.Replica.Ct ct -> rotations := max !rotations (P.Ct.epoch ct)
    | P.Replica.Sc _ | P.Replica.Scr _ | P.Replica.Bft _ -> ()
  done;
  (!signals, !views, !rotations)

let no_premature_suspicion cluster =
  let name = "no-premature-suspicion" in
  let signals, views, rotations = suspicion_churn cluster in
  if signals = 0 && views = 0 && rotations = 0 then ok name
  else
    fail name
      (Printf.sprintf
         "%d fail-signal(s), %d view change(s), %d coordinator rotation(s) \
          against processes that were only slow"
         signals views rotations)

(* Gray failures degrade, they must not stop: every honest process keeps
   delivering {e inside} the degraded window, not merely after it ends
   (liveness-after-heal already covers the recovery tail). *)
let degradation_liveness cluster ~honest ~degraded_from ~degraded_until =
  let name = "degradation-liveness" in
  let delivered_in_window = Hashtbl.create 8 in
  List.iter
    (fun (at, (who, _, _), _, _) ->
      if
        Simtime.compare at degraded_from >= 0
        && Simtime.compare at degraded_until <= 0
      then Hashtbl.replace delivered_in_window who ())
    (deliveries cluster ~honest);
  match
    List.find_opt (fun who -> not (Hashtbl.mem delivered_in_window who)) honest
  with
  | None -> ok name
  | Some who ->
    fail name
      (Format.asprintf
         "process %d delivered nothing while degraded (%a..%a) — gray \
          failure turned into an outage" who Simtime.pp degraded_from
         Simtime.pp degraded_until)

(* ------------------------------------------------------ recovery liveness *)

let recovery_liveness cluster ~by =
  let name = "recovery-liveness" in
  let events = Cluster.events cluster in
  let violation = ref None in
  List.iter
    (fun (at, who, ev) ->
      if !violation = None then
        match ev with
        | P.Context.Node_restarted when Simtime.compare at by <= 0 ->
          let delivered_after =
            List.exists
              (fun (at', w, ev') ->
                w = who
                && Simtime.compare at' at > 0
                && match ev' with P.Context.Delivered _ -> true | _ -> false)
              events
          in
          if not delivered_after then
            violation :=
              Some
                (Format.asprintf
                   "process %d restarted at %a but never delivered again" who
                   Simtime.pp at)
        | _ -> ())
    events;
  match !violation with None -> ok name | Some d -> fail name d
