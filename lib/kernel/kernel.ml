open Lt_hw

type rights = { send : bool; recv : bool }

type quiescence = Quiescent | Step_limit | Deadlock

type stats = {
  dispatches : int;
  context_switches : int;
  ipc_messages : int;
  denied_cap_uses : int;
  faults : int;
}

type cap = { cap_ep : endpoint; cap_rights : rights; cap_badge : int }

and task = {
  task_id : int;
  name : string;
  partition : string;
  mmu : Mmu.t;
  cap_slots : (int, cap) Hashtbl.t;
  mutable next_slot : int;
  mutable frames : int list;
}

and endpoint = {
  ep_id : int;
  ep_name : string;
  senders : waiting_sender Queue.t;
  receivers : thread Queue.t;
}

and waiting_sender = {
  ws_thread : thread;
  ws_msg : Sys.msg;
  ws_needs_reply : bool;
  ws_badge : int;
}

and thread_state =
  | Ready
  | Blocked_send of endpoint
  | Blocked_recv of endpoint
  | Awaiting_reply
  | Sleeping of int
  | Dead

and thread = {
  tid : int;
  t_name : string;
  t_task : task;
  prio : int;
  mutable state : thread_state;
  mutable cont : (Sys.sysres, unit) Effect.Deep.continuation option;
  mutable pending : Sys.sysres;
  mutable body : (unit -> unit) option;
  (* permanent copy of the original body: effect continuations are
     one-shot and cannot be captured by a snapshot, so a restore
     normalizes every live thread back to its entry point (see
     take_snapshot below) *)
  respawn : (unit -> unit) option;
  mutable yielded : bool;
  mutable ticks : int;
}

type t = {
  mach : Machine.t;
  pol : Sched.t;
  mutable tasks : task list;
  threads : (int, thread) Hashtbl.t;
  mutable thread_order : thread list;
  mutable ready : thread list;
  mutable next_id : int;
  mutable last_tid : int;
  mutable st : stats;
  mutable crashes : (int * exn) list;
  mutable endpoints : endpoint list; (* registry, for snapshot/restore *)
}

let switch_cost = 2

let ipc_cost = 10

let create mach pol =
  { mach;
    pol;
    tasks = [];
    threads = Hashtbl.create 32;
    thread_order = [];
    ready = [];
    next_id = 1;
    last_tid = -1;
    st = { dispatches = 0; context_switches = 0; ipc_messages = 0;
           denied_cap_uses = 0; faults = 0 };
    crashes = [];
    endpoints = [] }

let machine t = t.mach

let policy t = t.pol

let fresh_id k =
  let id = k.next_id in
  k.next_id <- id + 1;
  id

let create_task k ~name ~partition =
  let task =
    { task_id = fresh_id k;
      name;
      partition;
      mmu = Mmu.create ();
      cap_slots = Hashtbl.create 8;
      next_slot = 0;
      frames = [] }
  in
  k.tasks <- task :: k.tasks;
  task

let task_name task = task.name

let task_partition task = task.partition

let tasks k = List.rev k.tasks

type map_error = Out_of_frames

let map_memory k task ~vpage ~pages perm =
  match Frame_alloc.alloc_n k.mach.Machine.dram_frames pages with
  | None -> Error Out_of_frames
  | Some frames ->
    List.iteri (fun i ppage -> Mmu.map task.mmu ~vpage:(vpage + i) ~ppage perm) frames;
    task.frames <- task.frames @ frames;
    Ok ()

let task_frames task = List.sort_uniq Stdlib.compare task.frames

let free_frames k = Frame_alloc.free_count k.mach.Machine.dram_frames

let create_endpoint k ~name =
  let ep =
    { ep_id = fresh_id k;
      ep_name = name;
      senders = Queue.create ();
      receivers = Queue.create () }
  in
  k.endpoints <- ep :: k.endpoints;
  ep

let endpoint_name ep = ep.ep_name

let grant _k task ep ~rights ~badge =
  let slot = task.next_slot in
  task.next_slot <- slot + 1;
  Hashtbl.replace task.cap_slots slot { cap_ep = ep; cap_rights = rights; cap_badge = badge };
  slot

let revoke _k task ~slot = Hashtbl.remove task.cap_slots slot

let derive_cap _k task ~slot ~rights =
  match Hashtbl.find_opt task.cap_slots slot with
  | None -> Error (Printf.sprintf "no capability in slot %d" slot)
  | Some cap ->
    if (rights.send && not cap.cap_rights.send)
       || (rights.recv && not cap.cap_rights.recv)
    then Error "derivation cannot add rights"
    else begin
      let dst = task.next_slot in
      task.next_slot <- dst + 1;
      Hashtbl.replace task.cap_slots dst { cap with cap_rights = rights };
      Ok dst
    end

let caps task =
  Hashtbl.fold
    (fun slot c acc -> (slot, c.cap_ep.ep_name, c.cap_rights, c.cap_badge) :: acc)
    task.cap_slots []
  |> List.sort Stdlib.compare

let create_thread k task ~name ~prio body =
  let th =
    { tid = fresh_id k;
      t_name = name;
      t_task = task;
      prio;
      state = Ready;
      cont = None;
      pending = Sys.R_unit;
      body = Some body;
      respawn = Some body;
      yielded = false;
      ticks = 0 }
  in
  Hashtbl.replace k.threads th.tid th;
  k.thread_order <- k.thread_order @ [ th ];
  k.ready <- k.ready @ [ th ];
  th.tid

(* --- ready-queue helpers ------------------------------------------------ *)

let enqueue_ready k th = k.ready <- k.ready @ [ th ]

let make_ready k th res =
  th.state <- Ready;
  th.pending <- res;
  enqueue_ready k th

(* re-home transferred capability slots into the receiving task *)
let transfer_caps (m : Sys.msg) ~from_task ~to_task =
  let moved =
    List.filter_map
      (fun slot ->
        match Hashtbl.find_opt from_task.cap_slots slot with
        | None -> None
        | Some cap ->
          let dst = to_task.next_slot in
          to_task.next_slot <- dst + 1;
          Hashtbl.replace to_task.cap_slots dst cap;
          Some dst)
      m.Sys.caps
  in
  { m with Sys.caps = moved }

(* --- memory syscalls ---------------------------------------------------- *)

let charge k th n =
  Clock.advance k.mach.Machine.clock n;
  th.ticks <- th.ticks + n

let page_chunks vaddr len =
  (* split [vaddr, vaddr+len) at page boundaries *)
  let page = Mmu.page_size in
  let rec go a remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      let boundary = ((a / page) + 1) * page in
      let n = min remaining (boundary - a) in
      go (a + n) (remaining - n) ((a, n) :: acc)
    end
  in
  go vaddr len []

let mem_read k th vaddr len =
  if len < 0 then Sys.R_error "mem_read: negative length"
  else begin
    let buf = Buffer.create len in
    let rec go = function
      | [] -> Sys.R_data (Buffer.contents buf)
      | (a, n) :: rest ->
        (match Mmu.translate th.t_task.mmu ~vaddr:a Mmu.Read with
         | Error f ->
           k.st <- { k.st with faults = k.st.faults + 1 };
           Sys.R_error (Format.asprintf "page fault: %a" Mmu.pp_fault f)
         | Ok paddr ->
           (match Bus.read k.mach.Machine.bus ~requester:(Bus.Cpu { secure = false })
                    ~addr:paddr ~len:n with
            | Error d -> Sys.R_error (Format.asprintf "bus: %a" Bus.pp_denial d)
            | Ok data ->
              Buffer.add_string buf data;
              go rest))
    in
    go (page_chunks vaddr len)
  end

let mem_write k th vaddr data =
  let rec go off = function
    | [] -> Sys.R_unit
    | (a, n) :: rest ->
      (match Mmu.translate th.t_task.mmu ~vaddr:a Mmu.Write with
       | Error f ->
         k.st <- { k.st with faults = k.st.faults + 1 };
         Sys.R_error (Format.asprintf "page fault: %a" Mmu.pp_fault f)
       | Ok paddr ->
         (match Bus.write k.mach.Machine.bus ~requester:(Bus.Cpu { secure = false })
                  ~addr:paddr (String.sub data off n) with
          | Error d -> Sys.R_error (Format.asprintf "bus: %a" Bus.pp_denial d)
          | Ok () -> go (off + n) rest))
  in
  go 0 (page_chunks vaddr (String.length data))

(* --- IPC ---------------------------------------------------------------- *)

let lookup_cap k th slot ~need_send ~need_recv =
  match Hashtbl.find_opt th.t_task.cap_slots slot with
  | None ->
    k.st <- { k.st with denied_cap_uses = k.st.denied_cap_uses + 1 };
    Error (Printf.sprintf "invalid capability slot %d" slot)
  | Some cap ->
    if (need_send && not cap.cap_rights.send) || (need_recv && not cap.cap_rights.recv)
    then begin
      k.st <- { k.st with denied_cap_uses = k.st.denied_cap_uses + 1 };
      Error (Printf.sprintf "insufficient rights on slot %d" slot)
    end
    else Ok cap

(* every delivered IPC message is a traced event: this is where a
   cross-substrate trace shows the microkernel hop itself, not just the
   adapter call around it. The endpoint (or reply) name is a stable
   pointer and the badge rides in the ring's unboxed int column, so a
   message is traced without allocating — the sender and receiver are
   already evident from the enclosing ipc-rpc span and the badge. *)
let trace_ipc ~name ~badge =
  Lt_obs.Trace.event ~iattr:("badge", badge) ~kind:"ipc" ~name ();
  Lt_obs.Metrics.incr_grouped ~group:"kernel" "ipc_messages"

let deliver_to_receiver k ~ep ~sender ~receiver ~badge ~needs_reply m =
  let m = transfer_caps m ~from_task:sender.t_task ~to_task:receiver.t_task in
  let reply = if needs_reply then Some sender.tid else None in
  make_ready k receiver (Sys.R_msg { badge; m; reply });
  k.st <- { k.st with ipc_messages = k.st.ipc_messages + 1 };
  trace_ipc ~name:ep.ep_name ~badge

let do_send k th slot m ~needs_reply =
  match lookup_cap k th slot ~need_send:true ~need_recv:false with
  | Error e -> th.pending <- Sys.R_error e; th.state <- Ready
  | Ok cap ->
    charge k th ipc_cost;
    let ep = cap.cap_ep in
    (match Queue.take_opt ep.receivers with
     | Some receiver ->
       deliver_to_receiver k ~ep ~sender:th ~receiver ~badge:cap.cap_badge
         ~needs_reply m;
       if needs_reply then th.state <- Awaiting_reply
       else begin
         th.pending <- Sys.R_unit;
         th.state <- Ready
       end
     | None ->
       Queue.add { ws_thread = th; ws_msg = m; ws_needs_reply = needs_reply;
                   ws_badge = cap.cap_badge }
         ep.senders;
       th.state <- Blocked_send ep)

let do_recv k th slot =
  match lookup_cap k th slot ~need_send:false ~need_recv:true with
  | Error e -> th.pending <- Sys.R_error e; th.state <- Ready
  | Ok cap ->
    charge k th ipc_cost;
    let ep = cap.cap_ep in
    (match Queue.take_opt ep.senders with
     | Some ws ->
       let m = transfer_caps ws.ws_msg ~from_task:ws.ws_thread.t_task ~to_task:th.t_task in
       let reply = if ws.ws_needs_reply then Some ws.ws_thread.tid else None in
       th.pending <- Sys.R_msg { badge = ws.ws_badge; m; reply };
       th.state <- Ready;
       k.st <- { k.st with ipc_messages = k.st.ipc_messages + 1 };
       trace_ipc ~name:ep.ep_name ~badge:ws.ws_badge;
       if ws.ws_needs_reply then ws.ws_thread.state <- Awaiting_reply
       else make_ready k ws.ws_thread Sys.R_unit
     | None ->
       Queue.add th ep.receivers;
       th.state <- Blocked_recv ep)

let do_reply k th handle m =
  match Hashtbl.find_opt k.threads handle with
  | Some caller when caller.state = Awaiting_reply ->
    charge k th ipc_cost;
    let m = transfer_caps m ~from_task:th.t_task ~to_task:caller.t_task in
    make_ready k caller (Sys.R_msg { badge = 0; m; reply = None });
    k.st <- { k.st with ipc_messages = k.st.ipc_messages + 1 };
    trace_ipc ~name:(Lt_obs.Trace.span_name th.t_task.name "reply") ~badge:0;
    th.pending <- Sys.R_unit;
    th.state <- Ready
  | _ ->
    th.pending <- Sys.R_error "reply: no thread awaiting this handle";
    th.state <- Ready

(* --- syscall dispatch ---------------------------------------------------- *)

let handle_syscall k th (sc : Sys.syscall)
    (cont : (Sys.sysres, unit) Effect.Deep.continuation) =
  th.cont <- Some cont;
  charge k th 1;
  match sc with
  | Sys.Call (slot, m) -> do_send k th slot m ~needs_reply:true
  | Sys.Send (slot, m) -> do_send k th slot m ~needs_reply:false
  | Sys.Recv slot -> do_recv k th slot
  | Sys.Reply (handle, m) -> do_reply k th handle m
  | Sys.Yield ->
    th.pending <- Sys.R_unit;
    th.state <- Ready;
    th.yielded <- true
  | Sys.Sleep n ->
    th.state <- Sleeping (Clock.now k.mach.Machine.clock + max 0 n)
  | Sys.Consume n ->
    charge k th (max 0 n);
    th.pending <- Sys.R_unit;
    th.state <- Ready
  | Sys.Mem_read (vaddr, len) ->
    th.pending <- mem_read k th vaddr len;
    th.state <- Ready
  | Sys.Mem_write (vaddr, data) ->
    th.pending <- mem_write k th vaddr data;
    th.state <- Ready
  | Sys.Time ->
    th.pending <- Sys.R_int (Clock.now k.mach.Machine.clock);
    th.state <- Ready
  | Sys.Tid ->
    th.pending <- Sys.R_int th.tid;
    th.state <- Ready
  | Sys.Exit ->
    th.cont <- None;
    th.state <- Dead

let exec k th f =
  Effect.Deep.match_with f ()
    { retc = (fun () -> th.state <- Dead);
      exnc =
        (fun e ->
          th.state <- Dead;
          k.crashes <- (th.tid, e) :: k.crashes);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sys.Sys sc ->
            Some
              (fun (cont : (a, unit) Effect.Deep.continuation) ->
                handle_syscall k th sc cont)
          | _ -> None) }

let resume k th =
  match th.body with
  | Some f ->
    th.body <- None;
    exec k th f
  | None ->
    (match th.cont with
     | Some cont ->
       th.cont <- None;
       Effect.Deep.continue cont th.pending
     | None -> th.state <- Dead)

(* --- scheduler ----------------------------------------------------------- *)

let take_ready k pred =
  let rec go acc = function
    | [] -> None
    | th :: rest ->
      if th.state = Ready && pred th then begin
        k.ready <- List.rev_append acc rest;
        Some th
      end
      else go (th :: acc) rest
  in
  go [] k.ready

let take_highest_prio k =
  let best =
    List.fold_left
      (fun acc th ->
        if th.state <> Ready then acc
        else
          match acc with
          | None -> Some th
          | Some b -> if th.prio < b.prio then Some th else acc)
      None k.ready
  in
  match best with
  | None -> None
  | Some th -> take_ready k (fun t -> t.tid = th.tid)

let wake_sleepers k =
  let now = Clock.now k.mach.Machine.clock in
  List.iter
    (fun th ->
      match th.state with
      | Sleeping wake_at when wake_at <= now -> make_ready k th Sys.R_unit
      | _ -> ())
    k.thread_order

let earliest_wake k =
  List.fold_left
    (fun acc th ->
      match th.state with
      | Sleeping wake_at ->
        (match acc with None -> Some wake_at | Some w -> Some (min w wake_at))
      | _ -> acc)
    None k.thread_order

let blocked_exist k =
  List.exists
    (fun th ->
      match th.state with
      | Blocked_send _ | Blocked_recv _ | Awaiting_reply -> true
      | Ready | Sleeping _ | Dead -> false)
    k.thread_order

type pick = P_thread of thread * int option | P_advance of int | P_empty

(* choose the next thread; [int option] is an absolute preemption deadline *)
let next_runnable k =
  wake_sleepers k;
  let now = Clock.now k.mach.Machine.clock in
  match k.pol with
  | Sched.Round_robin { quantum } ->
    (match take_ready k (fun _ -> true) with
     | Some th -> P_thread (th, Some (now + quantum))
     | None ->
       (match earliest_wake k with
        | Some w -> P_advance w
        | None -> P_empty))
  | Sched.Fixed_priority { quantum } ->
    (match take_highest_prio k with
     | Some th -> P_thread (th, Some (now + quantum))
     | None ->
       (match earliest_wake k with
        | Some w -> P_advance w
        | None -> P_empty))
  | Sched.Tdma { slots } ->
    let partition, slot_end = Sched.tdma_slot_at slots now in
    (match take_ready k (fun th -> th.t_task.partition = partition) with
     | Some th -> P_thread (th, Some slot_end)
     | None ->
       let others_ready = List.exists (fun th -> th.state = Ready) k.ready in
       let wake = earliest_wake k in
       if others_ready then P_advance slot_end
       else
         (match wake with
          | Some w -> P_advance (min w slot_end)
          | None -> P_empty))

let dispatch k th ~deadline =
  if k.last_tid <> th.tid then begin
    k.st <- { k.st with context_switches = k.st.context_switches + 1 };
    Clock.advance k.mach.Machine.clock switch_cost
  end;
  k.last_tid <- th.tid;
  k.st <- { k.st with dispatches = k.st.dispatches + 1 };
  let over_deadline () =
    match deadline with
    | None -> false
    | Some d -> Clock.now k.mach.Machine.clock >= d
  in
  let rec step () =
    th.yielded <- false;
    resume k th;
    match th.state with
    | Ready ->
      if th.yielded || over_deadline () then enqueue_ready k th else step ()
    | Blocked_send _ | Blocked_recv _ | Awaiting_reply | Sleeping _ | Dead -> ()
  in
  step ()

let run ?(max_steps = 1_000_000) k =
  let steps = ref 0 in
  let result = ref None in
  while !result = None do
    if !steps >= max_steps then result := Some Step_limit
    else
      match next_runnable k with
      | P_thread (th, deadline) ->
        incr steps;
        dispatch k th ~deadline
      | P_advance target ->
        let now = Clock.now k.mach.Machine.clock in
        Clock.advance k.mach.Machine.clock (max 1 (target - now))
      | P_empty ->
        result := Some (if blocked_exist k then Deadlock else Quiescent)
  done;
  (match !result with Some r -> r | None -> assert false)

let stats k = k.st

let thread_ticks k tid =
  match Hashtbl.find_opt k.threads tid with None -> 0 | Some th -> th.ticks

(* on the zero-alloc deploy fast path: Hashtbl.find_opt would box the
   hit in [Some] on every call *)
let thread_alive k tid =
  match Hashtbl.find k.threads tid with
  | th -> th.state <> Dead
  | exception Not_found -> false

let thread_crash k tid = List.assoc_opt tid k.crashes

let thread_count k = Hashtbl.length k.threads

(* drop an exited thread: the scheduler scans, snapshots and digests
   then cost the live threads, not every thread ever run *)
let reap k tid =
  match Hashtbl.find_opt k.threads tid with
  | Some th when th.state = Dead ->
    Hashtbl.remove k.threads tid;
    k.thread_order <- List.filter (fun t -> t != th) k.thread_order;
    k.ready <- List.filter (fun t -> t != th) k.ready
  | Some _ | None -> ()

let kill_thread k tid =
  match Hashtbl.find_opt k.threads tid with
  | None -> ()
  | Some th ->
    th.state <- Dead;
    th.cont <- None;
    th.body <- None

let pp_quiescence fmt = function
  | Quiescent -> Format.pp_print_string fmt "quiescent"
  | Step_limit -> Format.pp_print_string fmt "step limit reached"
  | Deadlock -> Format.pp_print_string fmt "deadlock"

(* --- Snapshottable ------------------------------------------------------ *)

(* Snapshots are meant to be taken at quiescent points (after [run]
   returned): effect continuations are one-shot and cannot be captured,
   so restore normalizes every thread that was alive at capture back to
   Ready at its original entry point ([respawn]) and clears all endpoint
   queues.  Server-loop threads are stateless until their first [recv],
   so on the next [run] they re-execute straight back into Blocked_recv
   and the kernel is observationally the captured one.  The machine
   underneath (clock, DRAM, frames) has its own capture. *)
let take_snapshot k =
  let tasks = k.tasks in
  let task_saves =
    List.map
      (fun task ->
        let caps = Lt_world.Snapshottable.save_hashtbl task.cap_slots in
        let next_slot = task.next_slot in
        let frames = task.frames in
        let mmu = Mmu.take_snapshot task.mmu in
        fun () ->
          caps ();
          task.next_slot <- next_slot;
          task.frames <- frames;
          mmu ())
      tasks
  in
  let threads = Lt_world.Snapshottable.save_hashtbl k.threads in
  let thread_saves =
    Hashtbl.fold
      (fun _ th acc ->
        let dead = th.state = Dead in
        let ticks = th.ticks in
        (fun () ->
          th.cont <- None;
          th.yielded <- false;
          th.ticks <- ticks;
          th.pending <- Sys.R_unit;
          if dead then begin
            th.state <- Dead;
            th.body <- None
          end
          else begin
            th.state <- Ready;
            th.body <- th.respawn
          end)
        :: acc)
      k.threads []
  in
  let thread_order = k.thread_order in
  let endpoints = k.endpoints in
  let next_id = k.next_id in
  let st = k.st in
  let crashes = k.crashes in
  fun () ->
    k.tasks <- tasks;
    List.iter (fun restore -> restore ()) task_saves;
    threads ();
    List.iter (fun restore -> restore ()) thread_saves;
    k.thread_order <- thread_order;
    (* all captured-live threads are Ready at their entry points: queue
       them in creation order so servers re-block before any new client
       runs *)
    k.ready <- List.filter (fun th -> th.state = Ready) thread_order;
    k.endpoints <- endpoints;
    List.iter
      (fun ep ->
        Queue.clear ep.senders;
        Queue.clear ep.receivers)
      endpoints;
    k.next_id <- next_id;
    k.last_tid <- -1;
    k.st <- st;
    k.crashes <- crashes

(* Digests the kernel up to the restore normalization above: thread
   block-states and the scheduling cursor are transient between
   quiescent points (a captured Blocked_recv server and its restored
   Ready-at-entry twin are observationally the same kernel), so only
   liveness is hashed. *)
let state_digest k =
  let open Lt_world in
  let d = ref (Digest64.int Digest64.basis k.next_id) in
  d := Digest64.int !d (List.length k.crashes);
  let st = k.st in
  List.iter
    (fun n -> d := Digest64.int !d n)
    [ st.dispatches; st.context_switches; st.ipc_messages; st.denied_cap_uses;
      st.faults ];
  List.iter
    (fun task ->
      d := Digest64.string (Digest64.string !d task.name) task.partition;
      d := Digest64.int !d task.next_slot;
      d := Digest64.list Digest64.int !d task.frames;
      d :=
        Snapshottable.digest_hashtbl ~key:string_of_int
          ~value:(fun c ->
            Printf.sprintf "%s|%b%b|%d" c.cap_ep.ep_name c.cap_rights.send
              c.cap_rights.recv c.cap_badge)
          task.cap_slots !d;
      d := Digest64.combine !d (Mmu.state_digest task.mmu))
    (List.rev k.tasks);
  List.iter
    (fun th ->
      d := Digest64.string (Digest64.int !d th.tid) th.t_name;
      d := Digest64.int !d th.ticks;
      d := Digest64.bool !d (th.state = Dead))
    k.thread_order;
  !d

let layer ?(name = "kernel") k =
  Lt_world.Snapshottable.make ~name
    ~take:(fun () -> take_snapshot k)
    ~digest:(fun () -> state_digest k)
