(** Real-network runtime: the protocols over localhost TCP.

    The protocol modules are written against {!Sof_protocol.Context} and do
    not know whether time is simulated.  This runtime supplies the
    capabilities from the real world — loopback TCP sockets in a full mesh,
    an event loop, wall-clock timers, and genuine signatures from a
    {!Sof_crypto.Keyring} — turning the repository into the same kind of
    LAN deployment the paper measured (one host here, 15 hosts there).

    All four protocols run here, built through {!Sof_protocol.Replica}
    exactly as the simulator builds them: [`Sc] and [`Scr] (the paper's
    signal-on-fail protocols, 3f+1 and 3f+2 processes), [`Bft] (PBFT, 3f+1)
    and [`Ct] (crash-tolerant, 2f+1, unsigned whatever the [scheme]).

    Threading model: a runtime has one thread of its own, an event loop
    that [Unix.select]s over the listeners, every connection, a wake pipe
    and the earliest timer deadline, and runs every protocol handler, timer
    and self-send inline, so each process's state is touched by exactly one
    thread, like the simulator's single-server CPU.  Writes never block the
    loop: what a socket does not take waits in a per-link buffer until the
    socket drains.  {!start} starts every process before the loop exists;
    {!kill} and {!restart} post a command to the loop and wait until it has
    run.  Only {!inject} (blocking writes to the client sockets) and
    {!await_delivery} run on the caller's thread.

    [select] only takes descriptors below 1024 (FD_SETSIZE).  A runtime of
    n processes holds 2n{^2} + n + 2 of them (38 at n = 4): n listeners,
    n(n-1) outbound and n(n-1) accepted peer connections, n client
    connections at each end, and the wake pipe.

    Intended for demos and end-to-end tests; the measured reproduction of
    the paper's figures uses the calibrated simulator (see DESIGN.md). *)

type t

type stats = {
  delivered : (int * int) list;  (** (process, delivered batch count). *)
  state_digests : (int * string) list;
      (** (process, KV state digest) — equal across caught-up replicas. *)
  commit_latencies_ms : float list;
      (** Client-observed request-to-first-delivery latencies. *)
}

val start :
  ?base_port:int ->
  ?scheme:Sof_crypto.Scheme.t ->
  ?batching_interval_ms:int ->
  ?checkpoint_interval:int ->
  ?timing:Sof_protocol.Config.timing ->
  ?data_dir:string ->
  kind:[ `Sc | `Scr | `Bft | `Ct ] ->
  f:int ->
  unit ->
  t
(** Spawn all processes of protocol [kind] on 127.0.0.1 ports
    [base_port ..].  Signatures are real (default scheme
    {!Sof_crypto.Scheme.mock} = HMAC).
    [checkpoint_interval] (default 0 = off) enables periodic checkpoints,
    log truncation, and state transfer — required for {!restart} to recover
    the rejoining process.
    [timing] (default [Static]) selects the paper's fixed delay estimate or
    adaptive timers; here the runtime's clock is the wall clock, so
    [Adaptive] makes every pair track genuine localhost round-trips.
    [data_dir] makes the deployment durable: each process writes a
    {!File_disk}-backed write-ahead log ([data_dir/replica-<i>.disk],
    created if needed) where every delivered batch is logged and [fsync]ed
    before the state machine applies it, and stable checkpoints are
    persisted.  Each [start] begins a fresh log epoch; {!restart} then
    recovers the killed process from its own file first.
    @raise Unix.Unix_error when ports are unavailable. *)

val inject : t -> Sof_smr.Request.t -> unit
(** Broadcast a client request to every process over its TCP connection. *)

val await_delivery : t -> count:int -> timeout_s:float -> bool
(** Block until every process not taken down by {!kill} has delivered at
    least [count] batches, or the timeout expires ([false]). *)

val kill : t -> int -> unit
(** Abruptly crash one process mid-run: its protocol stops and all its
    outbound sockets are reset-closed (RST), so every peer's connection
    from it takes the abrupt-disconnect path — logged, recorded in
    {!peer_downs}, never fatal to the peer.  Client requests that reach it
    while it is down wait for {!restart}. *)

val restart : t -> int -> unit
(** Bring a process taken down by {!kill} back with empty volatile state: a
    fresh protocol instance over a fresh state machine, the TCP mesh
    re-dialed in both directions, and — when the deployment has a
    [data_dir] — local-first recovery: the process re-mounts its on-disk
    write-ahead log and installs the certified checkpoint and verified
    entries it finds there, escalating to a peer state-transfer request
    only when the log is damaged or insufficient.  Without [data_dir] it
    goes straight to state transfer.  No-op unless the process is
    currently killed.  The process's delivered-batch counter is cumulative
    across incarnations (recovery installs the checkpointed prefix without
    re-delivering it).  The client requests that reached the killed process
    are handed to the new one after recovery, as a retransmitting client
    would bring them. *)

val peer_downs : t -> (int * int * string) list
(** [(observer, peer, reason)] for every accepted connection that ended on
    a broken or closed socket or an oversized frame (over 16 MB), oldest
    first; [peer] is the connection's hello byte. *)

val faults : t -> (int * string) list
(** [(process, exception)] for every protocol handler or timer that raised,
    oldest first.  The loop logs each one to stderr and carries on with the
    other processes. *)

val stop : t -> stats
(** Stop the event loop, join it, and only then close every descriptor;
    return what happened.  After [stop] returns no code of this runtime
    runs, and the ports are free for a new {!start}. *)
