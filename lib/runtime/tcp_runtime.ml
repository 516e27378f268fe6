module Simtime = Sof_sim.Simtime
module P = Sof_protocol
module Request = Sof_smr.Request
module Keyring = Sof_crypto.Keyring
module Scheme = Sof_crypto.Scheme
module Wal = Sof_storage.Wal
module Replica = P.Replica

let client_id = 250

type job =
  | Job_message of int * string  (* transport source, encoded envelope *)
  | Job_request of string  (* encoded request *)
  | Job_timer of (unit -> unit)
  | Job_stop

type timer_entry = {
  deadline : float;
  thunk : unit -> unit;
  mutable cancelled : bool;
}

type node = {
  id : int;
  queue : job Queue.t;
  queue_mutex : Mutex.t;
  queue_cond : Condition.t;
  mutable proc : Replica.t option;
  mutable machine : Sof_smr.State_machine.t;  (* replaced fresh on restart *)
  mutable delivered_batches : int;
  (* Bumped on kill: timer thunks capture the generation they were armed in
     and fire only if it is still current, so a restarted process never runs
     its dead predecessor's heartbeats. *)
  mutable gen : int;
  (* timers *)
  timers : timer_entry list ref;
  timer_mutex : Mutex.t;
  (* outbound sockets, one per peer, guarded per-socket *)
  out : (Unix.file_descr * Mutex.t) option array;
  (* durable storage: the file is the platter — it survives kill/restart *)
  disk : File_disk.t option;
  wal : Wal.t option;  (* mounted once at start; the replica kernel owns it *)
}

type t = {
  n : int;
  base_port : int;
  nodes : node array;
  config : P.Config.t;
  keyring : Keyring.t;
  start_time : float;
  mutable stopping : bool;
  mutable killed : int list;
  mutable peer_downs : (int * int * string) list;
  peer_down_mutex : Mutex.t;
  (* client side *)
  mutable client_socks : (Unix.file_descr * Mutex.t) array;
  latency_mutex : Mutex.t;
  inject_times : (Request.key, float) Hashtbl.t;
  first_delivery : (Request.key, float) Hashtbl.t;
}

type stats = {
  delivered : (int * int) list;
  state_digests : (int * string) list;
  commit_latencies_ms : float list;
}

(* ------------------------------------------------------------- framing *)

let write_frame fd mutex payload =
  let len = String.length payload in
  let buf = Bytes.create (4 + len) in
  Bytes.set buf 0 (Char.chr (len land 0xff));
  Bytes.set buf 1 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set buf 2 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set buf 3 (Char.chr ((len lsr 24) land 0xff));
  Bytes.blit_string payload 0 buf 4 len;
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () ->
      let rec write_all off =
        if off < Bytes.length buf then begin
          let written = Unix.write fd buf off (Bytes.length buf - off) in
          write_all (off + written)
        end
      in
      try write_all 0 with Unix.Unix_error _ -> ())

(* A read ends in a frame, a clean shutdown ([`Eof]), or an abrupt failure
   ([`Error]) — a peer that crashed or was killed typically surfaces as
   ECONNRESET or EPIPE rather than end-of-file. *)
let read_exactly fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then `Ok buf
    else begin
      match Unix.read fd buf off (n - off) with
      | 0 -> `Eof
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> `Error (Unix.error_message e)
    end
  in
  go 0

let read_frame fd =
  match read_exactly fd 4 with
  | (`Eof | `Error _) as e -> e
  | `Ok header ->
    let b i = Char.code (Bytes.get header i) in
    let len = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    if len > 16 * 1024 * 1024 then `Error "oversized frame"
    else begin
      match read_exactly fd len with
      | (`Eof | `Error _) as e -> e
      | `Ok payload -> `Frame (Bytes.unsafe_to_string payload)
    end

(* -------------------------------------------------------------- queues *)

let enqueue node job =
  Mutex.lock node.queue_mutex;
  Queue.push job node.queue;
  Condition.signal node.queue_cond;
  Mutex.unlock node.queue_mutex

let dequeue node =
  Mutex.lock node.queue_mutex;
  while Queue.is_empty node.queue do
    Condition.wait node.queue_cond node.queue_mutex
  done;
  let job = Queue.pop node.queue in
  Mutex.unlock node.queue_mutex;
  job

(* -------------------------------------------------------------- timers *)

(* Condition.wait has no timeout in the stdlib, so the thread polls at 1 ms
   and hands due timers to the worker's queue. *)
let timer_thread t node =
  while not t.stopping do
    Mutex.lock node.timer_mutex;
    let now = Unix.gettimeofday () in
    let live = List.filter (fun e -> not e.cancelled) !(node.timers) in
    let due, later = List.partition (fun e -> e.deadline <= now) live in
    node.timers := later;
    Mutex.unlock node.timer_mutex;
    match due with
    | [] -> Thread.delay 0.001
    | _ -> List.iter (fun e -> enqueue node (Job_timer e.thunk)) due
  done

(* ------------------------------------------------------------- context *)

let make_context t node =
  let sign payload = Keyring.sign t.keyring ~signer:node.id payload in
  let verify ~signer ~msg ~signature = Keyring.verify t.keyring ~signer ~msg ~signature in
  (* A message addressed to the sender itself never crosses a socket: it
     loops back through the node's own queue, exactly as the simulated
     network delivers self-sends.  Dropping it instead would lose the
     process's own quorum vote — fatal when the cluster is down to exactly
     n - f live replicas. *)
  let send ~dst env =
    if dst = node.id then enqueue node (Job_message (node.id, P.Message.encode env))
    else
      match node.out.(dst) with
      | Some (fd, mutex) -> write_frame fd mutex ("\x00" ^ P.Message.encode env)
      | None -> ()
  in
  let multicast ~dsts env =
    let encoded = P.Message.encode env in
    let payload = "\x00" ^ encoded in
    List.iter
      (fun dst ->
        if dst = node.id then enqueue node (Job_message (node.id, encoded))
        else
          match node.out.(dst) with
          | Some (fd, mutex) -> write_frame fd mutex payload
          | None -> ())
      dsts
  in
  let set_timer ?kind:_ ~delay thunk =
    let gen = node.gen in
    let entry =
      {
        deadline = Unix.gettimeofday () +. Simtime.to_sec delay;
        thunk = (fun () -> if node.gen = gen then thunk ());
        cancelled = false;
      }
    in
    Mutex.lock node.timer_mutex;
    node.timers := entry :: !(node.timers);
    Mutex.unlock node.timer_mutex;
    { P.Context.cancel = (fun () -> entry.cancelled <- true) }
  in
  (* Under a [data_dir] the kernel has synced the batch's log entry (fsync)
     before the state machine applies it. *)
  let deliver ~seq:_ (batch : P.Batch.t) =
    node.delivered_batches <- node.delivered_batches + 1;
    let now = Unix.gettimeofday () in
    Mutex.lock t.latency_mutex;
    List.iter
      (fun r ->
        ignore (Sof_smr.State_machine.apply node.machine r.Request.op);
        if not (Hashtbl.mem t.first_delivery r.Request.key) then
          Hashtbl.replace t.first_delivery r.Request.key now)
      batch.P.Batch.requests;
    Mutex.unlock t.latency_mutex
  in
  {
    P.Context.id = node.id;
    now = (fun () -> Simtime.of_sec_float (Unix.gettimeofday () -. t.start_time));
    sign;
    verify;
    (* The TCP runtime always signs with the scheme: accountable and wire
       authentication coincide. *)
    sign_acc = sign;
    verify_acc = verify;
    digest_charge = (fun _ -> ());
    send;
    multicast;
    set_timer;
    deliver;
    emit = ignore;
    (* [node.machine] is read at call time, so a restart's fresh machine is
       picked up without rebuilding the context. *)
    snapshot = (fun () -> Sof_smr.State_machine.snapshot node.machine);
    restore = (fun image -> Sof_smr.State_machine.restore node.machine image);
    store = Option.map (fun wal -> { P.Context.wal; charge_io = ignore }) node.wal;
  }

(* Protocol process construction, shared by [start] and [restart]. *)
let make_proc t node =
  let ctx = make_context t node in
  Replica.create ~ctx ~config:t.config ~keyring:t.keyring ()

(* -------------------------------------------------------------- worker *)

let worker_thread node =
  let continue = ref true in
  while !continue do
    match dequeue node with
    | Job_stop -> continue := false
    | Job_timer thunk -> ( try thunk () with _ -> ())
    | Job_request payload -> begin
      (* A frame off the wire is attacker-controlled bytes; any decode
         failure means a malformed or hostile frame, never a reason to kill
         the worker.  Log and drop. *)
      match (node.proc, Request.decode payload) with
      | Some p, req -> Replica.on_request p req
      | None, _ -> ()
      | exception exn ->
        Printf.eprintf "[tcp_runtime] node %d: malformed request frame dropped (%s)\n%!"
          node.id (Printexc.to_string exn)
    end
    | Job_message (src, payload) -> begin
      match (node.proc, P.Message.decode payload) with
      | Some p, env -> Replica.on_message p ~src env
      | None, _ -> ()
      | exception exn ->
        Printf.eprintf
          "[tcp_runtime] node %d: malformed frame from peer %d dropped (%s)\n%!"
          node.id src (Printexc.to_string exn)
    end
  done

(* A peer vanished under this reader.  Record it, stop writing into the dead
   socket, and leave recovery to the protocol's own machinery (fail signals,
   view changes) — an abrupt disconnect must never take the whole node down. *)
let peer_down t node ~src ~reason =
  Mutex.lock t.peer_down_mutex;
  t.peer_downs <- (node.id, src, reason) :: t.peer_downs;
  Mutex.unlock t.peer_down_mutex;
  Printf.eprintf "[tcp_runtime] node %d: peer %d down (%s); reader stopped\n%!"
    node.id src reason;
  if src >= 0 && src < Array.length node.out then begin
    (match node.out.(src) with
    | Some (fd, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    node.out.(src) <- None
  end

let reader_thread t node src fd =
  let continue = ref true in
  while !continue && not t.stopping do
    match read_frame fd with
    | `Frame frame when String.length frame >= 1 ->
      let body = String.sub frame 1 (String.length frame - 1) in
      if frame.[0] = '\x00' then enqueue node (Job_message (src, body))
      else enqueue node (Job_request body)
    | `Frame _ -> ()
    | (`Eof | `Error _) as ending ->
      continue := false;
      if not t.stopping then
        let reason =
          match ending with `Eof -> "connection closed" | `Error msg -> msg
        in
        peer_down t node ~src ~reason
  done;
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_thread t node listen_fd =
  while not t.stopping do
    match Unix.accept listen_fd with
    | exception Unix.Unix_error _ -> Thread.delay 0.01
    | conn, _ -> begin
      match read_exactly conn 1 with
      | `Ok hello ->
        let src = Char.code (Bytes.get hello 0) in
        ignore (Thread.create (fun () -> reader_thread t node src conn) ())
      | `Eof | `Error _ -> ( try Unix.close conn with Unix.Unix_error _ -> ())
    end
  done

(* --------------------------------------------------------------- start *)

let connect_with_hello ~port ~hello =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let rec attempt tries =
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () -> ()
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
      Thread.delay 0.05;
      attempt (tries - 1)
  in
  attempt 100;
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let b = Bytes.make 1 (Char.chr hello) in
  ignore (Unix.write fd b 0 1);
  fd

let start ?(base_port = 7465) ?(scheme = Scheme.mock) ?(batching_interval_ms = 30)
    ?(checkpoint_interval = 0) ?(timing = P.Config.Static) ?data_dir ~kind ~f () =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  let kind =
    match kind with
    | `Sc -> Replica.Sc_protocol
    | `Scr -> Replica.Scr_protocol
    | `Bft -> Replica.Bft_protocol
    | `Ct -> Replica.Ct_protocol
  in
  let config =
    P.Config.make ~kind
      ~batching_interval:(Simtime.ms batching_interval_ms)
      ~pair_delay_estimate:(Simtime.ms 500) ~heartbeat_interval:(Simtime.ms 100)
      ~checkpoint_interval ~timing ~f ()
  in
  let n = P.Config.process_count config in
  let rng = Sof_util.Rng.create 2006L in
  let keyring = Keyring.create ~scheme:(Replica.scheme kind scheme) ~rng ~node_count:n () in
  (match data_dir with
  | Some dir -> (
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | None -> ());
  let nodes =
    Array.init n (fun id ->
        let disk =
          Option.map
            (fun dir ->
              File_disk.open_file
                ~path:(Filename.concat dir (Printf.sprintf "replica-%d.disk" id))
                ())
            data_dir
        in
        (* Each [start] begins a fresh log (new empty epoch): the runtime's
           protocols start at sequence 1, so a previous run's log must not
           replay under them.  Recovery is within a run, via kill/restart. *)
        let wal =
          Option.map
            (fun fd ->
              let wal = Wal.attach (File_disk.disk fd) in
              Wal.reset wal;
              wal)
            disk
        in
        {
          id;
          queue = Queue.create ();
          queue_mutex = Mutex.create ();
          queue_cond = Condition.create ();
          proc = None;
          machine = Sof_smr.Kv_store.machine ();
          delivered_batches = 0;
          gen = 0;
          timers = ref [];
          timer_mutex = Mutex.create ();
          out = Array.make n None;
          disk;
          wal;
        })
  in
  let t =
    {
      n;
      base_port;
      nodes;
      config;
      keyring;
      start_time = Unix.gettimeofday ();
      stopping = false;
      killed = [];
      peer_downs = [];
      peer_down_mutex = Mutex.create ();
      client_socks = [||];
      latency_mutex = Mutex.create ();
      inject_times = Hashtbl.create 256;
      first_delivery = Hashtbl.create 256;
    }
  in
  (* Listeners first. *)
  let listeners =
    Array.init n (fun i ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + i));
        Unix.listen fd 32;
        fd)
  in
  Array.iteri
    (fun i listen_fd ->
      ignore (Thread.create (fun () -> accept_thread t nodes.(i) listen_fd) ()))
    listeners;
  (* Full mesh of outbound connections. *)
  Array.iter
    (fun node ->
      for dst = 0 to n - 1 do
        if dst <> node.id then begin
          let fd = connect_with_hello ~port:(base_port + dst) ~hello:node.id in
          node.out.(dst) <- Some (fd, Mutex.create ())
        end
      done)
    nodes;
  (* Protocol processes, started from this thread before any worker
     exists: until its worker runs, a process's frames and timers only
     queue, so its state is only ever touched by one thread at a time. *)
  Array.iter (fun node -> node.proc <- Some (make_proc t node)) nodes;
  Array.iter (fun node -> Option.iter Replica.start node.proc) nodes;
  Array.iter
    (fun node ->
      ignore (Thread.create (fun () -> worker_thread node) ());
      ignore (Thread.create (fun () -> timer_thread t node) ()))
    nodes;
  (* Client connections. *)
  t.client_socks <-
    Array.init n (fun dst ->
        (connect_with_hello ~port:(base_port + dst) ~hello:client_id, Mutex.create ()));
  t

let inject t req =
  Mutex.lock t.latency_mutex;
  if not (Hashtbl.mem t.inject_times req.Request.key) then
    Hashtbl.replace t.inject_times req.Request.key (Unix.gettimeofday ());
  Mutex.unlock t.latency_mutex;
  let payload = "\x01" ^ Request.encode req in
  Array.iter (fun (fd, mutex) -> write_frame fd mutex payload) t.client_socks

let await_delivery t ~count ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec poll () =
    if
      Array.for_all
        (fun node -> List.mem node.id t.killed || node.delivered_batches >= count)
        t.nodes
    then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.02;
      poll ()
    end
  in
  poll ()

(* Abruptly take one node down mid-run: stop its protocol and worker, then
   reset-close every socket it owns (SO_LINGER 0 sends RST, not FIN), so its
   peers exercise the abrupt-disconnect path of [reader_thread]. *)
let kill t who =
  let node = t.nodes.(who) in
  t.killed <- who :: t.killed;
  node.proc <- None;
  node.gen <- node.gen + 1;
  enqueue node Job_stop;
  Array.iteri
    (fun dst entry ->
      match entry with
      | Some (fd, _) ->
        (try Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0)
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        node.out.(dst) <- None
      | None -> ())
    node.out

(* Bring a killed process back with empty volatile state: a fresh protocol
   instance over a fresh state machine, the full mesh re-dialed both ways,
   recovery from its own log when it has one and from its peers otherwise,
   and only then a worker thread. *)
let restart t who =
  if List.mem who t.killed then begin
    let node = t.nodes.(who) in
    t.killed <- List.filter (fun k -> k <> who) t.killed;
    (* The kill's Job_stop must have been consumed before a second worker
       thread starts, or two threads would drain one protocol's queue. *)
    let rec wait_worker_exit () =
      Mutex.lock node.queue_mutex;
      let stop_pending =
        Queue.fold
          (fun acc job -> acc || match job with Job_stop -> true | _ -> false)
          false node.queue
      in
      Mutex.unlock node.queue_mutex;
      if stop_pending then begin
        Thread.delay 0.005;
        wait_worker_exit ()
      end
    in
    wait_worker_exit ();
    Mutex.lock node.timer_mutex;
    node.timers := [];
    Mutex.unlock node.timer_mutex;
    node.machine <- Sof_smr.Kv_store.machine ();
    (* Re-dial the mesh: this node out to every live peer, and every live
       peer back to this node (their old sockets died with the kill's RST). *)
    for dst = 0 to t.n - 1 do
      if dst <> who && not (List.mem dst t.killed) then
        node.out.(dst) <-
          Some (connect_with_hello ~port:(t.base_port + dst) ~hello:who, Mutex.create ())
    done;
    Array.iter
      (fun peer ->
        if peer.id <> who && not (List.mem peer.id t.killed) then begin
          (match peer.out.(who) with
          | Some (fd, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
          | None -> ());
          peer.out.(who) <-
            Some
              (connect_with_hello ~port:(t.base_port + who) ~hello:peer.id, Mutex.create ())
        end)
      t.nodes;
    let proc = make_proc t node in
    node.proc <- Some proc;
    Replica.start proc;
    Replica.recover proc;
    (* The worker starts last: frames from the re-dialed peers and the
       client, and the timers armed above, have only queued so far. *)
    ignore (Thread.create (fun () -> worker_thread node) ())
  end

let peer_downs t =
  Mutex.lock t.peer_down_mutex;
  let events = t.peer_downs in
  Mutex.unlock t.peer_down_mutex;
  List.rev events

let stop t =
  t.stopping <- true;
  Array.iter (fun node -> enqueue node Job_stop) t.nodes;
  Array.iter
    (fun node ->
      Array.iter
        (function
          | Some (fd, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
          | None -> ())
        node.out)
    t.nodes;
  Array.iter
    (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.client_socks;
  Array.iter
    (fun node ->
      match node.disk with Some fd -> File_disk.close fd | None -> ())
    t.nodes;
  Thread.delay 0.05;
  let latencies =
    Hashtbl.fold
      (fun key injected acc ->
        match Hashtbl.find_opt t.first_delivery key with
        | Some delivered_at -> ((delivered_at -. injected) *. 1000.0) :: acc
        | None -> acc)
      t.inject_times []
  in
  {
    delivered = Array.to_list (Array.map (fun node -> (node.id, node.delivered_batches)) t.nodes);
    state_digests =
      Array.to_list
        (Array.map
           (fun node -> (node.id, Sof_smr.State_machine.state_digest node.machine))
           t.nodes);
    commit_latencies_ms = latencies;
  }
