module Simtime = Sof_sim.Simtime
module P = Sof_protocol
module Request = Sof_smr.Request
module Keyring = Sof_crypto.Keyring
module Scheme = Sof_crypto.Scheme
module Wal = Sof_storage.Wal
module Replica = P.Replica
module Heap = Sof_util.Heap

let client_id = 250

(* A frame whose length field says more than this ends its connection. *)
let max_frame = 16 * 1024 * 1024

(* Bytes [off, off + len) of [b] are queued: a connection's partial frame,
   or what a link's socket has not taken yet. *)
type byte_queue = { mutable b : Bytes.t; mutable off : int; mutable len : int }

let byte_queue () = { b = Bytes.empty; off = 0; len = 0 }

let push q src soff n =
  if q.off + q.len + n > Bytes.length q.b then begin
    let b = Bytes.create (max (q.len + n) (2 * Bytes.length q.b)) in
    Bytes.blit q.b q.off b 0 q.len;
    q.b <- b;
    q.off <- 0
  end;
  Bytes.blit src soff q.b (q.off + q.len) n;
  q.len <- q.len + n

(* An emptied queue lets go of its buffer if a state transfer grew it. *)
let drop q n =
  q.off <- q.off + n;
  q.len <- q.len - n;
  if q.len = 0 then begin
    q.off <- 0;
    if Bytes.length q.b > 65536 then q.b <- Bytes.empty
  end

(* An outbound connection to a peer. *)
type link = { fd : Unix.file_descr; unsent : byte_queue }

(* [deadline] is wall-clock microseconds, the key of the runtime's timer heap. *)
type timer = { deadline : int; owner : int; mutable thunk : unit -> unit }

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* What a fired or cancelled timer holds until its deadline pops it. *)
let spent () = ()

type node = {
  id : int;
  mutable delivered_batches : int;
  out : link option array;
  (* Client requests that arrived while the process was killed: a
     retransmitting client would bring them to its restart. *)
  held : string Queue.t;
  (* durable storage: the file is the platter — it survives kill/restart *)
  disk : File_disk.t option;
  wal : Wal.t option;  (* mounted once at start; the replica kernel owns it *)
}

(* An accepted connection into [dst]: [src] is its hello byte (-1 until it
   arrives) and [partial] the start of a frame not yet whole. *)
type conn = { cfd : Unix.file_descr; dst : node; mutable src : int; partial : byte_queue }

(* When a request was injected and first delivered (nan until then). *)
type latency = { mutable injected : float; mutable delivered : float }

type t = {
  base_port : int;
  nodes : node array;
  config : P.Config.t;
  keyring : Keyring.t;
  start_time : float;
  mutable stopping : bool;
  mutable procs : Replica.t array;  (* one process shell per node, from [start] on *)
  (* owned by the loop thread *)
  timers : timer Heap.t;
  self_sends : (node * string) Queue.t;  (* node, encoded envelope *)
  images : P.Checkpoint.Images.t;  (* every process's checkpoint images *)
  batches : P.Checkpoint.Images.t;  (* and every process's batch digests *)
  mutable conns : conn list;
  listeners : Unix.file_descr array;
  scratch : Bytes.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable loop : Thread.t option;
  (* posted by caller threads, run by the loop *)
  commands : (unit -> unit) Queue.t;
  command_mutex : Mutex.t;
  command_done : Condition.t;
  (* what caller threads read: peer downs, faults and latencies *)
  report_mutex : Mutex.t;
  mutable peer_downs : (int * int * string) list;
  mutable faults : (int * string) list;
  latencies : latency Request.Key_tbl.t;
  mutable client_socks : (Unix.file_descr * Mutex.t) array;  (* blocking; [inject]'s *)
}

type stats = {
  delivered : (int * int) list;
  state_digests : (int * string) list;
  commit_latencies_ms : float list;
}

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let locked mutex f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* A frame is a 4-byte little-endian length, then a kind byte ('\x00' an
   envelope, anything else a client request) and the body. *)
let frame ~kind body =
  let n = String.length body in
  let buf = Bytes.create (5 + n) in
  Bytes.set_int32_le buf 0 (Int32.of_int (n + 1));
  Bytes.set buf 4 kind;
  Bytes.blit_string body 0 buf 5 n;
  buf

(* The loop never blocks on a write: what the socket does not take waits
   in [unsent] until select reports the socket writable.  A write to a
   broken connection is dropped, as a lost frame. *)
let transmit link buf =
  let len = Bytes.length buf in
  if link.unsent.len > 0 then push link.unsent buf 0 len
  else
    let k =
      match Unix.write link.fd buf 0 len with
      | k -> k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
      | exception Unix.Unix_error _ -> len
    in
    if k < len then push link.unsent buf k (len - k)

let flush link =
  let q = link.unsent in
  match Unix.write link.fd q.b q.off q.len with
  | k -> drop q k
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop q q.len

(* A handler or timer raised: log and record it, and carry on with the
   other processes. *)
let guard t id f =
  try f ()
  with exn ->
    let text = Printexc.to_string exn in
    locked t.report_mutex (fun () -> t.faults <- (id, text) :: t.faults);
    Printf.eprintf "[tcp_runtime] node %d: handler raised %s\n%!" id text

(* A peer vanished under a connection.  Record it, stop writing into the
   dead peer, and leave recovery to the protocol's own machinery (fail
   signals, view changes) — an abrupt disconnect must never take the whole
   node down. *)
let peer_down t node ~src ~reason =
  locked t.report_mutex (fun () -> t.peer_downs <- (node.id, src, reason) :: t.peer_downs);
  Printf.eprintf "[tcp_runtime] node %d: peer %d down (%s); connection closed\n%!" node.id src
    reason;
  if src >= 0 && src < Array.length node.out then begin
    Option.iter (fun l -> close l.fd) node.out.(src);
    node.out.(src) <- None
  end

(* A frame off the wire is attacker-controlled bytes; a decode failure means
   a malformed or hostile frame.  Log and drop. *)
let handle t node ~src ~kind body =
  let malformed exn =
    Printf.eprintf "[tcp_runtime] node %d: malformed frame from %d dropped (%s)\n%!" node.id src
      (Printexc.to_string exn)
  in
  let p = t.procs.(node.id) in
  if Char.equal kind '\x00' then
    match P.Message.decode body with
    | env -> guard t node.id (fun () -> Replica.on_message p ~src env)
    | exception exn -> malformed exn
  else if Replica.crashed p then Queue.push body node.held
  else
    match Request.decode body with
    | req -> guard t node.id (fun () -> Replica.on_request p req)
    | exception exn -> malformed exn

(* ------------------------------------------------------------- context *)

(* What [node]'s process is given. *)
let make_context t node =
  let sign payload = Keyring.sign t.keyring ~signer:node.id payload in
  let verify ~signer ~msg ~signature = Keyring.verify t.keyring ~signer ~msg ~signature in
  (* A message addressed to the sender itself never crosses a socket: it
     loops back through the loop's FIFO, handled before the next select and
     never inside the sender's handler, exactly as the simulated network
     delivers self-sends.  Dropping it instead would lose the process's own
     quorum vote — fatal when the cluster is down to exactly n - f live
     replicas. *)
  let to_self encoded = Queue.push (node, encoded) t.self_sends in
  let send ~dst env =
    if dst = node.id then to_self (P.Message.encode env)
    else
      match node.out.(dst) with
      | Some link -> transmit link (frame ~kind:'\x00' (P.Message.encode env))
      | None -> ()
  in
  let multicast ~dsts env =
    let encoded = P.Message.encode env in
    let buf = frame ~kind:'\x00' encoded in
    List.iter
      (fun dst ->
        if dst = node.id then to_self encoded
        else match node.out.(dst) with Some link -> transmit link buf | None -> ())
      dsts
  in
  let set_timer ?kind:_ ~delay thunk =
    let deadline = now_us () + ((Simtime.to_ns delay + 999) / 1000) in
    let timer = { deadline; owner = node.id; thunk } in
    Heap.push t.timers ~key:deadline timer;
    { P.Context.cancel = (fun () -> timer.thunk <- spent) }
  in
  (* The runtime keeps no event stream: it only counts deliveries and
     stamps each request's first one.  Under a [data_dir] the kernel has
     synced the batch's log entry (fsync) before the state machine applied
     it. *)
  let emit = function
    | P.Context.Delivered { batch; _ } ->
      node.delivered_batches <- node.delivered_batches + 1;
      let now = Unix.gettimeofday () in
      locked t.report_mutex (fun () ->
          List.iter
            (fun r ->
              match Request.Key_tbl.find_opt t.latencies r.Request.key with
              | Some l when Float.is_nan l.delivered -> l.delivered <- now
              | Some _ | None -> ())
            batch.P.Batch.requests)
    | _ -> ()
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
    images = t.images;
    batches = t.batches;
    send;
    multicast;
    set_timer;
    emit;
    store = Option.map (fun wal -> { P.Context.wal; charge_io = ignore }) node.wal;
  }

(* ---------------------------------------------------------- event loop *)

let close_conn t c ~reason =
  t.conns <- List.filter (fun c' -> c' != c) t.conns;
  close c.cfd;
  if c.src >= 0 && not t.stopping then peer_down t c.dst ~src:c.src ~reason

(* Handle every whole frame in [b.[off, off + len)]; [`Rest off] is where
   the first incomplete one starts.  The first byte is the hello. *)
let rec parse t c b off len =
  if len = 0 then `Rest off
  else if c.src < 0 then begin
    c.src <- Char.code (Bytes.get b off);
    parse t c b (off + 1) (len - 1)
  end
  else if len < 4 then `Rest off
  else
    let size = Int32.to_int (Bytes.get_int32_le b off) land 0xffff_ffff in
    if size > max_frame then `Oversized
    else if len < 4 + size then `Rest off
    else begin
      if size >= 1 then
        handle t c.dst ~src:c.src ~kind:(Bytes.get b (off + 4))
          (Bytes.sub_string b (off + 5) (size - 1));
      parse t c b (off + 4 + size) (len - 4 - size)
    end

(* One read per readable connection per round. *)
let receive t c =
  let q = c.partial in
  match Unix.read c.cfd t.scratch 0 (Bytes.length t.scratch) with
  | 0 -> close_conn t c ~reason:"connection closed"
  | k -> (
    let whole = q.len = 0 in
    if not whole then push q t.scratch 0 k;
    match if whole then parse t c t.scratch 0 k else parse t c q.b q.off q.len with
    | `Oversized -> close_conn t c ~reason:"oversized frame"
    | `Rest rest -> if whole then push q t.scratch rest (k - rest) else drop q (rest - q.off))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> close_conn t c ~reason:(Unix.error_message e)

let rec accept_all t node listener =
  match Unix.accept ~cloexec:true listener with
  | fd, _ ->
    Unix.set_nonblock fd;
    t.conns <- { cfd = fd; dst = node; src = -1; partial = byte_queue () } :: t.conns;
    accept_all t node listener
  | exception Unix.Unix_error _ -> ()

let run_commands t =
  locked t.command_mutex (fun () ->
      if not (Queue.is_empty t.commands) then begin
        Queue.iter (fun run -> run ()) t.commands;
        Queue.clear t.commands;
        Condition.broadcast t.command_done
      end)

let rec fire_timers t now =
  if (not (Heap.is_empty t.timers)) && (Heap.top t.timers).deadline <= now then begin
    let timer = Heap.pop_exn t.timers in
    let thunk = timer.thunk in
    timer.thunk <- spent;
    guard t timer.owner thunk;
    fire_timers t now
  end

(* Seconds to the earliest live deadline, -1 (no timeout) if none. *)
let rec next_timeout t =
  if Heap.is_empty t.timers then -1.0
  else
    let timer = Heap.top t.timers in
    if timer.thunk == spent then begin
      ignore (Heap.pop_exn t.timers);
      next_timeout t
    end
    else Float.max 0.0 (float_of_int (timer.deadline - now_us ()) /. 1e6)

(* The one thread of a runtime.  Each round runs the posted commands, the
   due timers and the self-sends, then selects over the listeners, every
   connection, the wake pipe and the earliest deadline.  Every handler runs
   here, so each process's state is touched by one thread, like the
   simulator's single-server CPU. *)
let event_loop t =
  while not t.stopping do
    run_commands t;
    fire_timers t (now_us ());
    while not (Queue.is_empty t.self_sends) do
      let node, encoded = Queue.pop t.self_sends in
      handle t node ~src:node.id ~kind:'\x00' encoded
    done;
    let pending acc = function Some l when l.unsent.len > 0 -> l :: acc | Some _ | None -> acc in
    let links = Array.fold_left (fun acc node -> Array.fold_left pending acc node.out) [] t.nodes in
    let conns = t.conns in
    let reads = t.wake_r :: (Array.to_list t.listeners @ List.map (fun c -> c.cfd) conns) in
    match Unix.select reads (List.map (fun l -> l.fd) links) [] (next_timeout t) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      List.iter (fun l -> if List.mem l.fd writable then flush l) links;
      List.iter (fun c -> if List.mem c.cfd readable then receive t c) conns;
      Array.iteri (fun i l -> if List.mem l readable then accept_all t t.nodes.(i) l) t.listeners;
      if List.mem t.wake_r readable then
        (try ignore (Unix.read t.wake_r t.scratch 0 (Bytes.length t.scratch))
         with Unix.Unix_error _ -> ());
      (* Lets a caller thread (the injecting client) take the runtime lock. *)
      Thread.yield ()
  done

let wake t = try ignore (Unix.write_substring t.wake_w "!" 0 1) with Unix.Unix_error _ -> ()

(* Run [f] on the loop thread and wait until it has. *)
let on_loop t f =
  if not t.stopping then begin
    let outcome = ref None in
    let run () = outcome := Some (match f () with () -> Ok () | exception e -> Error e) in
    locked t.command_mutex (fun () ->
        Queue.push run t.commands;
        wake t;
        while Option.is_none !outcome do
          Condition.wait t.command_done t.command_mutex
        done);
    match !outcome with Some (Error e) -> raise e | Some (Ok ()) | None -> ()
  end

(* --------------------------------------------------------------- start *)

let connect_with_hello ~port ~hello =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
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

(* Peer links are non-blocking; a connect lands in the listener's backlog
   until the loop accepts it. *)
let dial t ~dst ~hello =
  let fd = connect_with_hello ~port:(t.base_port + dst) ~hello in
  Unix.set_nonblock fd;
  Some { fd; unsent = byte_queue () }

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
  Option.iter
    (fun dir -> try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    data_dir;
  let cuts = Wal.Cuts.create () in
  let nodes =
    Array.init n (fun id ->
        let path dir = Filename.concat dir (Printf.sprintf "replica-%d.disk" id) in
        let disk = Option.map (fun dir -> File_disk.open_file ~path:(path dir) ()) data_dir in
        (* Each [start] begins a fresh log (new empty epoch): the runtime's
           protocols start at sequence 1, so a previous run's log must not
           replay under them.  Recovery is within a run, via kill/restart. *)
        let mount fd =
          let wal = Wal.attach ~cuts (File_disk.disk fd) in
          Wal.reset wal;
          wal
        in
        let out = Array.make n None and held = Queue.create () in
        { id; delivered_batches = 0; out; held; disk; wal = Option.map mount disk })
  in
  let listeners =
    Array.init n (fun i ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + i));
        Unix.listen fd 32;
        Unix.set_nonblock fd;
        fd)
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      base_port;
      nodes;
      config;
      keyring;
      start_time = Unix.gettimeofday ();
      stopping = false;
      procs = [||];
      timers = Heap.create ();
      self_sends = Queue.create ();
      images = P.Checkpoint.Images.create ();
      batches = P.Checkpoint.Images.create ~window:P.Checkpoint.batch_window ();
      conns = [];
      listeners;
      scratch = Bytes.create 65536;
      wake_r;
      wake_w;
      loop = None;
      commands = Queue.create ();
      command_mutex = Mutex.create ();
      command_done = Condition.create ();
      report_mutex = Mutex.create ();
      peer_downs = [];
      faults = [];
      latencies = Request.Key_tbl.create 256;
      client_socks = [||];
    }
  in
  (* Full mesh of outbound connections. *)
  Array.iter
    (fun node ->
      for dst = 0 to n - 1 do
        if dst <> node.id then node.out.(dst) <- dial t ~dst ~hello:node.id
      done)
    nodes;
  (* Protocol processes, started from this thread before the loop exists:
     until it runs, their frames, timers and self-sends only wait. *)
  t.procs <-
    Replica.spawn ~config ~keyring ~machine:(Sof_smr.Kv_store.machines ())
      (fun i -> make_context t nodes.(i));
  Array.iter Replica.start t.procs;
  t.loop <- Some (Thread.create event_loop t);
  t.client_socks <-
    Array.init n (fun dst ->
        (connect_with_hello ~port:(base_port + dst) ~hello:client_id, Mutex.create ()));
  t

let inject t req =
  locked t.report_mutex (fun () ->
      if not (Request.Key_tbl.mem t.latencies req.Request.key) then
        Request.Key_tbl.replace t.latencies req.Request.key
          { injected = Unix.gettimeofday (); delivered = Float.nan });
  let buf = frame ~kind:'\x01' (Request.encode req) in
  let len = Bytes.length buf in
  let rec write_all fd off =
    if off < len then write_all fd (off + Unix.write fd buf off (len - off))
  in
  Array.iter
    (fun (fd, mutex) ->
      locked mutex (fun () -> try write_all fd 0 with Unix.Unix_error _ -> ()))
    t.client_socks

let await_delivery t ~count ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let reached node = Replica.crashed t.procs.(node.id) || node.delivered_batches >= count in
  let rec poll () =
    Array.for_all reached t.nodes
    || Unix.gettimeofday () <= deadline
       && begin
         Thread.delay 0.02;
         poll ()
       end
  in
  poll ()

(* Abruptly take one node down mid-run: stop its process, then reset-close
   every socket it owns (SO_LINGER 0 sends RST, not FIN), so its peers
   exercise the abrupt-disconnect path of [receive]. *)
let kill t who =
  on_loop t (fun () ->
      let node = t.nodes.(who) in
      Replica.crash t.procs.(who);
      let reset l =
        (try Unix.setsockopt_optint l.fd Unix.SO_LINGER (Some 0)
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        close l.fd
      in
      Array.iter (Option.iter reset) node.out;
      Array.fill node.out 0 (Array.length node.out) None)

(* Bring a killed process back with empty volatile state: the full mesh
   re-dialed both ways, then the shell's restart — a fresh incarnation over
   a fresh state machine, recovered from its own log when it has one and
   from its peers otherwise — all on the loop, before the process handles
   any frame. *)
let restart t who =
  on_loop t (fun () ->
      if Replica.crashed t.procs.(who) then begin
        let node = t.nodes.(who) in
        (* Re-dial the mesh: this node out to every live peer, and every live
           peer back to this node (their old sockets died with the kill's RST). *)
        Array.iter
          (fun peer ->
            if peer.id <> who && not (Replica.crashed t.procs.(peer.id)) then begin
              node.out.(peer.id) <- dial t ~dst:peer.id ~hello:who;
              Option.iter (fun l -> close l.fd) peer.out.(who);
              peer.out.(who) <- dial t ~dst:who ~hello:peer.id
            end)
          t.nodes;
        Replica.restart t.procs.(who);
        Queue.iter (handle t node ~src:client_id ~kind:'\x01') node.held;
        Queue.clear node.held
      end)

let peer_downs t = List.rev (locked t.report_mutex (fun () -> t.peer_downs))
let faults t = List.rev (locked t.report_mutex (fun () -> t.faults))

(* The loop is joined before any descriptor closes: after [stop] returns,
   no code of this runtime runs. *)
let stop t =
  t.stopping <- true;
  wake t;
  Option.iter Thread.join t.loop;
  Array.iter close t.listeners;
  Array.iter (fun node -> Array.iter (Option.iter (fun l -> close l.fd)) node.out) t.nodes;
  List.iter (fun c -> close c.cfd) t.conns;
  Array.iter (fun (fd, _) -> close fd) t.client_socks;
  close t.wake_r;
  close t.wake_w;
  Array.iter (fun node -> Option.iter File_disk.close node.disk) t.nodes;
  let latency _ (l : latency) acc =
    if Float.is_nan l.delivered then acc else ((l.delivered -. l.injected) *. 1000.0) :: acc
  in
  let per_node f = Array.to_list (Array.map (fun node -> (node.id, f node)) t.nodes) in
  {
    delivered = per_node (fun node -> node.delivered_batches);
    state_digests =
      per_node (fun node -> Sof_smr.State_machine.state_digest (Replica.machine t.procs.(node.id)));
    commit_latencies_ms = Request.Key_tbl.fold latency t.latencies [];
  }
