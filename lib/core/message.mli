(** Protocol messages.

    A message is a [body] wrapped in an [envelope] carrying the creator's
    identity, the creator's signature over the encoded body, and optionally
    an endorsement: a second process's signature over body-plus-first-
    signature.  "Doubly-signed" in the paper is exactly an envelope with an
    endorsement (Section 3, "the second process considers the signature of
    the first as a part of the contents it signs for").

    Envelopes are what travel on the wire; their encoded size is what the
    network charges for. *)

type order_info = {
  o : int;  (** Sequence number. *)
  digest : string;  (** Batch digest D(m). *)
  keys : Sof_smr.Request.key list;  (** Which requests the batch contains. *)
}

type body =
  (* --- normal part (SC/SCR §4.1); also reused by CT --- *)
  | Order of { c : int; info : order_info }
      (** order<c, o, D(m)> decided by coordinator candidate [c]. *)
  | Ack of { c : int; o : int; digest : string }  (** Step N1. *)
  (* --- signal-on-crash machinery (§3.2) --- *)
  | Fail_signal of { pair : int }
      (** Pre-signed at initialisation by the counterpart; doubly-signed
          when emitted. *)
  (* --- install part (§4.2) --- *)
  | Back_log of {
      c : int;  (** Rank of the coordinator this backlog helps install. *)
      failed_pair : int;
      max_committed : int;  (** 0 when nothing committed. *)
      committed_digest : string;
      proof_c : int;  (** Coordinator rank under which it committed. *)
      proof : (int * string) list;
          (** (signer, ack signature) set proving the commitment. *)
      stable : Checkpoint.cert option;
          (** The sender's stable checkpoint certificate: durable proof of
              commitment through its sequence number for a crash-restarted
              replica whose volatile ack proof is gone.  Without it, a
              recovered replica's claim validates to nothing, the anchor can
              regress below sequences the cluster committed, and the install
              re-fills them as nulls — divergence. *)
      uncommitted : order_info list;
          (** Orders known above the sender's provable watermark — acked but
              uncommitted ones, plus committed ones whose proof was lost to a
              crash (so a rememberer re-offers them to the install). *)
    }
  | Start of {
      c : int;
      start_o : int;
      anchor : int;
          (** max over the collected backlogs of the validated committed
              watermark (ack-proven, or checkpoint-certificate-proven). *)
      new_back_log : order_info list;
    }
  | Start_ack of { c : int; start_digest : string }  (** Step IN3. *)
  | Start_tuples of { c : int; tuples : (int * string) list }  (** Step IN4. *)
  (* --- SCR view change (§4.4) --- *)
  | View_change of {
      v : int;
      max_committed : int;
      committed_digest : string;
      uncommitted : order_info list;
    }
  | New_view of { v : int; start_o : int; anchor : int; new_back_log : order_info list }
  | Unwilling of { v : int; pair : int }
  (* --- pair mutual checking --- *)
  | Heartbeat of { pair : int; beat : int }
  (* --- BFT baseline --- *)
  | Pre_prepare of { v : int; info : order_info }
  | Prepare of { v : int; o : int; digest : string }
  | Commit of { v : int; o : int; digest : string }
  | Bft_view_change of { v : int; prepared : order_info list }
  | Bft_new_view of { v : int; pre_prepares : order_info list }
  (* --- checkpointing and state transfer (all protocols) --- *)
  | Checkpoint of { seq : int; digest : string }
      (** Announcement that the sender's state image at [seq] digests to
          [digest].  BFT/CT multicast it signed from every process; SC/SCR
          run it through the coordinator pair's endorse hop, so the stable
          form is doubly-signed. *)
  | State_request of { have : int }
      (** A lagging or restarted replica asks for everything above [have]. *)
  | State_response of {
      cert : Checkpoint.cert option;
          (** The responder's stable checkpoint certificate, omitted when
              the requester is already past it (or none is stable yet). *)
      image : string;
          (** State image whose digest the certificate vouches for; empty
              when [cert] is [None]. *)
      entries : Checkpoint.entry list;
          (** Committed log suffix above the certificate (or above [have]),
              with full request bodies. *)
    }
  (* --- adaptive timing (all protocols, [Config.Adaptive] mode only) --- *)
  | Probe of { nonce : int; at : int }
      (** Round-trip probe: [at] is the sender's clock in nanoseconds,
          echoed verbatim by the receiver; [nonce] increases per sender so
          duplicated or reordered replies are never double-counted.  Never
          sent in [Static] timing mode, so pre-adaptive seeded runs keep
          their exact wire stream. *)
  | Probe_reply of { nonce : int; at : int }
      (** Echo of a {!Probe}; the prober computes the round-trip sample as
          [now - at] and feeds its per-link delay estimator. *)

type envelope = private {
  sender : int;  (** Creator (first signatory), not the transport source. *)
  body : body;
  body_bytes : string;
      (** [encode_body body], computed once by the constructor or kept from
          the received frame by {!decode}; every signature covers it. *)
  signature : string;  (** Creator's signature over [body_bytes]. *)
  endorsement : (int * string) option;
      (** Second signatory and signature over [body_bytes ^ signature]. *)
}
(** Built only by {!sign}, {!endorse}, {!forge} and {!decode}, so
    [body_bytes] always equals [encode_body body]. *)

val encode_body : body -> string
val decode_body : string -> body
(** @raise Sof_util.Codec.Reader.Truncated on malformed input.  The decoder
    is canonical: a string that decodes is exactly [encode_body] of the
    result. *)

val sign : sender:int -> sign:(string -> string) -> body -> envelope
(** Encode [body] once and sign those bytes as [sender]. *)

val endorse : endorser:int -> sign:(string -> string) -> envelope -> envelope
(** Add [endorser]'s signature over [body_bytes ^ signature]. *)

val forge :
  sender:int -> signature:string -> ?endorsement:int * string -> body -> envelope
(** An envelope with signatures made elsewhere: the dealer's pre-signed
    fail-signal, test fixtures and fuzz corpora. *)

val verify :
  verify:(signer:int -> msg:string -> signature:string -> bool) -> envelope -> bool
(** Check every signature the envelope carries over its received body bytes;
    an endorsement must come from someone other than the sender. *)

val encode : envelope -> string
val decode : string -> envelope
(** @raise Sof_util.Codec.Reader.Truncated on malformed input.  Like
    {!decode_body} it is canonical: [encode (decode s) = s]. *)

val signature_count : envelope -> int
(** 1 or 2 — how many verifications a receiver performs. *)

val endorsement_payload : body -> string -> string
(** [endorsement_payload body first_sig] is the byte string the second
    signatory signs, for signatures detached from their envelope
    (checkpoint certificates). *)

val equal_key : Sof_smr.Request.key -> Sof_smr.Request.key -> bool

val equal_order_info : order_info -> order_info -> bool

val equal_body : body -> body -> bool
(** Structural equality via the canonical encoding: two bodies are equal
    exactly when they encode to the same bytes. *)

val equal_endorsement : int * string -> int * string -> bool

val equal : envelope -> envelope -> bool
(** Envelope equality: sender, body bytes, signature and endorsement all
    match.  The typed replacement for polymorphic [=] on messages (lint rule R1). *)

val body_tag : body -> string
(** Short constructor name for tracing and per-type accounting. *)

val accountable_body : body -> bool
(** True for bodies whose signatures are third-party evidence (orders,
    fail-signals, checkpoints) and must therefore stay transferable
    asymmetric signatures even under MAC authenticator vectors. *)

val pp : Format.formatter -> envelope -> unit
