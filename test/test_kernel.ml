(* Microkernel: IPC, capabilities, spatial and temporal isolation. *)

open Lt_kernel

let make_kernel ?(policy = Sched.Round_robin { quantum = 100 }) () =
  let mach = Lt_hw.Machine.create () in
  Kernel.create mach policy

let map_ok k task ~vpage ~pages perm =
  match Kernel.map_memory k task ~vpage ~pages perm with
  | Ok () -> ()
  | Error Kernel.Out_of_frames -> Alcotest.fail "map_memory: out of frames"

let test_ping_pong () =
  let k = make_kernel () in
  let client_task = Kernel.create_task k ~name:"client" ~partition:"a" in
  let server_task = Kernel.create_task k ~name:"server" ~partition:"a" in
  let ep = Kernel.create_endpoint k ~name:"svc" in
  let c_cap = Kernel.grant k client_task ep ~rights:{ send = true; recv = false } ~badge:7 in
  let s_cap = Kernel.grant k server_task ep ~rights:{ send = false; recv = true } ~badge:0 in
  let got = ref "" in
  let badge_seen = ref (-1) in
  let _ =
    Kernel.create_thread k server_task ~name:"server" ~prio:1 (fun () ->
        let badge, m, reply = User.recv ~cap:s_cap in
        badge_seen := badge;
        match reply with
        | Some h -> User.reply h (Sys.msg ("pong:" ^ m.Sys.payload))
        | None -> ())
  in
  let _ =
    Kernel.create_thread k client_task ~name:"client" ~prio:1 (fun () ->
        let r = User.call ~cap:c_cap (Sys.msg "ping") in
        got := r.Sys.payload)
  in
  let q = Kernel.run k in
  Alcotest.(check string) "quiescent" "quiescent" (Format.asprintf "%a" Kernel.pp_quiescence q);
  Alcotest.(check string) "reply received" "pong:ping" !got;
  Alcotest.(check int) "badge identifies client" 7 !badge_seen;
  Alcotest.(check bool) "ipc counted" true ((Kernel.stats k).ipc_messages >= 2)

let test_send_recv_order_independent () =
  (* receiver first, then sender; and sender first, then receiver *)
  List.iter
    (fun receiver_first ->
      let k = make_kernel () in
      let t1 = Kernel.create_task k ~name:"t1" ~partition:"a" in
      let t2 = Kernel.create_task k ~name:"t2" ~partition:"a" in
      let ep = Kernel.create_endpoint k ~name:"ep" in
      let send_cap = Kernel.grant k t1 ep ~rights:{ send = true; recv = false } ~badge:1 in
      let recv_cap = Kernel.grant k t2 ep ~rights:{ send = false; recv = true } ~badge:0 in
      let got = ref "" in
      let spawn_sender () =
        ignore
          (Kernel.create_thread k t1 ~name:"sender" ~prio:1 (fun () ->
               User.send ~cap:send_cap (Sys.msg "data")))
      in
      let spawn_receiver () =
        ignore
          (Kernel.create_thread k t2 ~name:"receiver" ~prio:1 (fun () ->
               let _, m, _ = User.recv ~cap:recv_cap in
               got := m.Sys.payload))
      in
      if receiver_first then begin spawn_receiver (); spawn_sender () end
      else begin spawn_sender (); spawn_receiver () end;
      ignore (Kernel.run k);
      Alcotest.(check string) "message delivered" "data" !got)
    [ true; false ]

let test_cap_rights_enforced () =
  let k = make_kernel () in
  let t = Kernel.create_task k ~name:"t" ~partition:"a" in
  let ep = Kernel.create_endpoint k ~name:"ep" in
  (* only a recv cap: sending on it must fail *)
  let cap = Kernel.grant k t ep ~rights:{ send = false; recv = true } ~badge:0 in
  let denied = ref false in
  let _ =
    Kernel.create_thread k t ~name:"th" ~prio:1 (fun () ->
        try User.send ~cap (Sys.msg "x") with User.Ipc_error _ -> denied := true)
  in
  ignore (Kernel.run k);
  Alcotest.(check bool) "send denied" true !denied;
  Alcotest.(check bool) "denial counted" true ((Kernel.stats k).denied_cap_uses > 0)

let test_invalid_slot_denied () =
  let k = make_kernel () in
  let t = Kernel.create_task k ~name:"t" ~partition:"a" in
  let denied = ref false in
  let _ =
    Kernel.create_thread k t ~name:"th" ~prio:1 (fun () ->
        try ignore (User.call ~cap:99 (Sys.msg "x")) with User.Ipc_error _ -> denied := true)
  in
  ignore (Kernel.run k);
  Alcotest.(check bool) "bogus slot denied" true !denied

let test_revoke () =
  let k = make_kernel () in
  let t1 = Kernel.create_task k ~name:"t1" ~partition:"a" in
  let t2 = Kernel.create_task k ~name:"t2" ~partition:"a" in
  let ep = Kernel.create_endpoint k ~name:"ep" in
  let send_cap = Kernel.grant k t1 ep ~rights:{ send = true; recv = false } ~badge:1 in
  let recv_cap = Kernel.grant k t2 ep ~rights:{ send = false; recv = true } ~badge:0 in
  ignore recv_cap;
  Kernel.revoke k t1 ~slot:send_cap;
  let denied = ref false in
  let _ =
    Kernel.create_thread k t1 ~name:"th" ~prio:1 (fun () ->
        try User.send ~cap:send_cap (Sys.msg "x") with User.Ipc_error _ -> denied := true)
  in
  ignore (Kernel.run k);
  Alcotest.(check bool) "revoked cap unusable" true !denied

let test_cap_transfer () =
  (* t1 holds a cap to ep2 and delegates it to t2 in a message *)
  let k = make_kernel () in
  let t1 = Kernel.create_task k ~name:"t1" ~partition:"a" in
  let t2 = Kernel.create_task k ~name:"t2" ~partition:"a" in
  let t3 = Kernel.create_task k ~name:"t3" ~partition:"a" in
  let ep12 = Kernel.create_endpoint k ~name:"ep12" in
  let ep3 = Kernel.create_endpoint k ~name:"ep3" in
  let t1_send = Kernel.grant k t1 ep12 ~rights:{ send = true; recv = false } ~badge:0 in
  let t1_ep3 = Kernel.grant k t1 ep3 ~rights:{ send = true; recv = false } ~badge:5 in
  let t2_recv = Kernel.grant k t2 ep12 ~rights:{ send = false; recv = true } ~badge:0 in
  let t3_recv = Kernel.grant k t3 ep3 ~rights:{ send = false; recv = true } ~badge:0 in
  let t3_got = ref (-1) in
  let _ =
    Kernel.create_thread k t1 ~name:"delegator" ~prio:1 (fun () ->
        User.send ~cap:t1_send { Sys.payload = "here is ep3"; caps = [ t1_ep3 ] })
  in
  let _ =
    Kernel.create_thread k t2 ~name:"delegate" ~prio:1 (fun () ->
        let _, m, _ = User.recv ~cap:t2_recv in
        match m.Sys.caps with
        | [ slot ] -> User.send ~cap:slot (Sys.msg "via delegated cap")
        | _ -> failwith "no cap received")
  in
  let _ =
    Kernel.create_thread k t3 ~name:"target" ~prio:1 (fun () ->
        let badge, _, _ = User.recv ~cap:t3_recv in
        t3_got := badge)
  in
  ignore (Kernel.run k);
  Alcotest.(check int) "delegated cap works, badge preserved" 5 !t3_got

let test_derive_cap_monotone () =
  let k = make_kernel () in
  let t1 = Kernel.create_task k ~name:"t1" ~partition:"a" in
  let t2 = Kernel.create_task k ~name:"t2" ~partition:"a" in
  let ep = Kernel.create_endpoint k ~name:"ep" in
  let full = Kernel.grant k t1 ep ~rights:{ send = true; recv = true } ~badge:9 in
  (* attenuate to send-only *)
  let send_only =
    match Kernel.derive_cap k t1 ~slot:full ~rights:{ send = true; recv = false } with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  (* widening a send-only cap back to recv is refused *)
  (match Kernel.derive_cap k t1 ~slot:send_only ~rights:{ send = true; recv = true } with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "derivation widened rights!");
  (match Kernel.derive_cap k t1 ~slot:99 ~rights:{ send = false; recv = false } with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "derived from empty slot");
  (* the attenuated cap still works for sending and keeps its badge *)
  let recv_cap = Kernel.grant k t2 ep ~rights:{ send = false; recv = true } ~badge:0 in
  let badge_seen = ref (-1) in
  let _ =
    Kernel.create_thread k t2 ~name:"server" ~prio:1 (fun () ->
        let badge, _, reply = User.recv ~cap:recv_cap in
        badge_seen := badge;
        match reply with Some h -> User.reply h (Sys.msg "ok") | None -> ())
  in
  let _ =
    Kernel.create_thread k t1 ~name:"client" ~prio:1 (fun () ->
        ignore (User.call ~cap:send_only (Sys.msg "via derived")))
  in
  ignore (Kernel.run k);
  Alcotest.(check int) "badge inherited, not forged" 9 !badge_seen

let test_memory_isolation () =
  (* two tasks get distinct frames; same vaddr maps to different memory *)
  let k = make_kernel () in
  let t1 = Kernel.create_task k ~name:"t1" ~partition:"a" in
  let t2 = Kernel.create_task k ~name:"t2" ~partition:"a" in
  map_ok k t1 ~vpage:16 ~pages:1 Lt_hw.Mmu.rw;
  map_ok k t2 ~vpage:16 ~pages:1 Lt_hw.Mmu.rw;
  let overlap =
    List.exists (fun f -> List.mem f (Kernel.task_frames t2)) (Kernel.task_frames t1)
  in
  Alcotest.(check bool) "no shared frames" false overlap;
  let vaddr = 16 * Lt_hw.Mmu.page_size in
  let r1 = ref "" and r2 = ref "" in
  let _ =
    Kernel.create_thread k t1 ~name:"w1" ~prio:1 (fun () ->
        User.mem_write ~vaddr "SECRET-A";
        r1 := User.mem_read ~vaddr ~len:8)
  in
  let _ =
    Kernel.create_thread k t2 ~name:"w2" ~prio:1 (fun () ->
        User.mem_write ~vaddr "SECRET-B";
        r2 := User.mem_read ~vaddr ~len:8)
  in
  ignore (Kernel.run k);
  Alcotest.(check string) "t1 sees its own data" "SECRET-A" !r1;
  Alcotest.(check string) "t2 sees its own data" "SECRET-B" !r2

let test_map_out_of_frames () =
  (* regression: exhausting DRAM is a typed error, not a Failure *)
  let k = Kernel.create (Lt_hw.Machine.create ~dram_pages:4 ())
      (Sched.Round_robin { quantum = 100 }) in
  let t = Kernel.create_task k ~name:"t" ~partition:"a" in
  map_ok k t ~vpage:0 ~pages:4 Lt_hw.Mmu.rw;
  (match Kernel.map_memory k t ~vpage:8 ~pages:1 Lt_hw.Mmu.rw with
   | Error Kernel.Out_of_frames -> ()
   | Ok () -> Alcotest.fail "expected Out_of_frames");
  (* the task keeps what it already had *)
  Alcotest.(check int) "existing mappings intact" 4
    (List.length (Kernel.task_frames t))

let test_unmapped_access_faults () =
  let k = make_kernel () in
  let t = Kernel.create_task k ~name:"t" ~partition:"a" in
  let faulted = ref false in
  let _ =
    Kernel.create_thread k t ~name:"th" ~prio:1 (fun () ->
        try ignore (User.mem_read ~vaddr:0x100000 ~len:4)
        with User.Fault _ -> faulted := true)
  in
  ignore (Kernel.run k);
  Alcotest.(check bool) "fault raised" true !faulted;
  Alcotest.(check bool) "fault counted" true ((Kernel.stats k).faults > 0)

let test_readonly_page () =
  let k = make_kernel () in
  let t = Kernel.create_task k ~name:"t" ~partition:"a" in
  map_ok k t ~vpage:4 ~pages:1 Lt_hw.Mmu.ro;
  let faulted = ref false in
  let _ =
    Kernel.create_thread k t ~name:"th" ~prio:1 (fun () ->
        try User.mem_write ~vaddr:(4 * Lt_hw.Mmu.page_size) "x"
        with User.Fault _ -> faulted := true)
  in
  ignore (Kernel.run k);
  Alcotest.(check bool) "write to ro page faults" true !faulted

let test_sleep_and_time () =
  let k = make_kernel () in
  let t = Kernel.create_task k ~name:"t" ~partition:"a" in
  let delta = ref 0 in
  let _ =
    Kernel.create_thread k t ~name:"sleeper" ~prio:1 (fun () ->
        let t0 = User.time () in
        User.sleep 500;
        delta := User.time () - t0)
  in
  ignore (Kernel.run k);
  Alcotest.(check bool) "slept at least 500 ticks" true (!delta >= 500)

let test_crash_isolated () =
  (* a crashing thread must not stop others from finishing *)
  let k = make_kernel () in
  let t = Kernel.create_task k ~name:"t" ~partition:"a" in
  let crasher =
    Kernel.create_thread k t ~name:"crash" ~prio:1 (fun () -> failwith "boom")
  in
  let survived = ref false in
  let _ =
    Kernel.create_thread k t ~name:"worker" ~prio:1 (fun () ->
        User.consume 10;
        survived := true)
  in
  let q = Kernel.run k in
  Alcotest.(check bool) "quiescent" true (q = Kernel.Quiescent);
  Alcotest.(check bool) "worker survived" true !survived;
  Alcotest.(check bool) "crash recorded" true (Kernel.thread_crash k crasher <> None);
  Alcotest.(check bool) "crasher dead" false (Kernel.thread_alive k crasher)

let test_deadlock_detected () =
  let k = make_kernel () in
  let t = Kernel.create_task k ~name:"t" ~partition:"a" in
  let ep = Kernel.create_endpoint k ~name:"ep" in
  let cap = Kernel.grant k t ep ~rights:{ send = true; recv = true } ~badge:0 in
  let _ =
    Kernel.create_thread k t ~name:"waiter" ~prio:1 (fun () ->
        ignore (User.recv ~cap))
  in
  let q = Kernel.run k in
  Alcotest.(check bool) "deadlock detected" true (q = Kernel.Deadlock)

let test_fixed_priority_order () =
  let k = make_kernel ~policy:(Sched.Fixed_priority { quantum = 1000 }) () in
  let t = Kernel.create_task k ~name:"t" ~partition:"a" in
  let order = ref [] in
  let mk name prio =
    ignore
      (Kernel.create_thread k t ~name ~prio (fun () ->
           User.consume 1;
           order := name :: !order))
  in
  mk "low" 10;
  mk "high" 1;
  mk "mid" 5;
  ignore (Kernel.run k);
  Alcotest.(check (list string)) "priority order" [ "high"; "mid"; "low" ]
    (List.rev !order)

let test_tdma_partition_exclusive () =
  (* in partition A's slot, only A's threads run *)
  let k =
    make_kernel ~policy:(Sched.Tdma { slots = [ ("A", 100); ("B", 100) ] }) ()
  in
  let ta = Kernel.create_task k ~name:"ta" ~partition:"A" in
  let tb = Kernel.create_task k ~name:"tb" ~partition:"B" in
  let a_windows = ref [] and b_windows = ref [] in
  let worker windows () =
    for _ = 1 to 20 do
      let t0 = User.time () in
      User.consume 10;
      windows := (t0, User.time ()) :: !windows
    done
  in
  let _ = Kernel.create_thread k ta ~name:"a" ~prio:1 (worker a_windows) in
  let _ = Kernel.create_thread k tb ~name:"b" ~prio:1 (worker b_windows) in
  ignore (Kernel.run k);
  let in_own_slot partition (t0, _) =
    let p, _ = Sched.tdma_slot_at [ ("A", 100); ("B", 100) ] t0 in
    p = partition
  in
  Alcotest.(check bool) "A runs only in A slots" true
    (List.for_all (in_own_slot "A") !a_windows);
  Alcotest.(check bool) "B runs only in B slots" true
    (List.for_all (in_own_slot "B") !b_windows);
  Alcotest.(check bool) "both made progress" true
    (List.length !a_windows = 20 && List.length !b_windows = 20)

let test_fixed_priority_can_starve () =
  (* the contrast with round robin: a busy high-priority thread starves
     lower ones until it exits — a temporal-isolation failure mode *)
  let k = make_kernel ~policy:(Sched.Fixed_priority { quantum = 50 }) () in
  let t = Kernel.create_task k ~name:"t" ~partition:"a" in
  let low_progress = ref 0 in
  let order = ref [] in
  let _ =
    Kernel.create_thread k t ~name:"hog" ~prio:1 (fun () ->
        for _ = 1 to 50 do
          User.consume 10;
          User.yield ()
        done;
        order := "hog-done" :: !order)
  in
  let _ =
    Kernel.create_thread k t ~name:"low" ~prio:9 (fun () ->
        User.consume 1;
        incr low_progress;
        order := "low-ran" :: !order)
  in
  ignore (Kernel.run k);
  (* the low thread only ran after the hog finished entirely *)
  Alcotest.(check (list string)) "hog monopolized the cpu" [ "low-ran"; "hog-done" ]
    !order

let test_round_robin_no_starvation () =
  let k = make_kernel ~policy:(Sched.Round_robin { quantum = 50 }) () in
  let t = Kernel.create_task k ~name:"t" ~partition:"a" in
  let done_count = ref 0 in
  for i = 1 to 5 do
    ignore
      (Kernel.create_thread k t ~name:(Printf.sprintf "w%d" i) ~prio:1 (fun () ->
           for _ = 1 to 10 do
             User.consume 5;
             User.yield ()
           done;
           incr done_count))
  done;
  ignore (Kernel.run k);
  Alcotest.(check int) "all threads finished" 5 !done_count

let test_step_limit () =
  let k = make_kernel () in
  let t = Kernel.create_task k ~name:"t" ~partition:"a" in
  let _ =
    Kernel.create_thread k t ~name:"spinner" ~prio:1 (fun () ->
        let rec loop () =
          User.yield ();
          loop ()
        in
        loop ())
  in
  let q = Kernel.run ~max_steps:100 k in
  Alcotest.(check bool) "stopped at limit" true (q = Kernel.Step_limit)

let test_reap_only_dead () =
  let k = make_kernel () in
  let t = Kernel.create_task k ~name:"t" ~partition:"a" in
  let spawn name body = Kernel.create_thread k t ~name ~prio:1 body in
  let quick = spawn "quick" (fun () -> User.consume 1) in
  let sleeper = spawn "sleeper" (fun () -> User.sleep 1_000) in
  ignore (Kernel.run ~max_steps:2 k);
  Kernel.reap k sleeper;
  Alcotest.(check int) "a live thread is not reaped" 2 (Kernel.thread_count k);
  Kernel.reap k quick;
  Alcotest.(check int) "the exited thread is gone" 1 (Kernel.thread_count k);
  Alcotest.(check bool) "and reads as not alive" false (Kernel.thread_alive k quick);
  Alcotest.(check bool) "the sleeper still runs" true
    (Kernel.run k = Kernel.Quiescent && not (Kernel.thread_alive k sleeper))

(* --- the microkernel adapter: refused launches and steady state --------- *)

let echo_services = [ ("echo", fun _ x -> x) ]

let microkernel ~dram_pages =
  Lateral.Substrate_kernel.make (Lt_hw.Machine.create ~dram_pages ())
    (Sched.Round_robin { quantum = 500 }) ()

let launch_ok sub name =
  match sub.Lateral.Substrate.launch ~name ~code:name ~services:echo_services with
  | Ok c -> c
  | Error e -> Alcotest.fail e

(* regression: a launch refused for want of frames took a task and an id *)
let test_refused_launch_takes_nothing () =
  let sub, k = microkernel ~dram_pages:5 in
  let rec fill i =
    if Kernel.free_frames k >= 2 then begin
      ignore (launch_ok sub (Printf.sprintf "c%d" i));
      fill (i + 1)
    end
  in
  fill 0;
  let tasks = List.length (Kernel.tasks k) and digest = Kernel.state_digest k in
  (match
     sub.Lateral.Substrate.launch ~name:"late" ~code:"late" ~services:echo_services
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "launch should be out of frames");
  Alcotest.(check int) "no task left behind" tasks (List.length (Kernel.tasks k));
  Alcotest.(check bool) "kernel digest unchanged" true (Kernel.state_digest k = digest)

let counts k = (List.length (Kernel.tasks k), Kernel.thread_count k)

let test_hops_hold_steady () =
  let after n =
    let sub, k = microkernel ~dram_pages:16 in
    let c = launch_ok sub "echo" in
    for _ = 1 to n do
      ignore (sub.Lateral.Substrate.invoke c ~fn:"echo" "x")
    done;
    counts k
  in
  let ten = after 10 in
  Alcotest.(check (pair int int)) "server and client tasks, the server thread" (2, 1) ten;
  Alcotest.(check (pair int int)) "1,000 hops hold what 10 held" ten (after 1_000)

let test_load_run_holds_steady () =
  let after requests =
    match Lt_load.Load.deploy_scenario (Lt_crypto.Drbg.create 7L) Lt_load.Load.Mail with
    | Error e -> Alcotest.fail e
    | Ok d ->
      let rng = Lt_crypto.Drbg.create 8L in
      for i = 1 to requests do
        let target, service, payload = d.Lt_load.Load.d_mix rng i in
        ignore
          (Lateral.Deploy.call d.Lt_load.Load.d_deploy ~caller:None ~target ~service
             payload)
      done;
      counts d.Lt_load.Load.d_kernel
  in
  Alcotest.(check (pair int int)) "tasks and threads after 250 and 1,000 requests"
    (after 250) (after 1_000)

let suite =
  [ Alcotest.test_case "ping-pong call/reply with badge" `Quick test_ping_pong;
    Alcotest.test_case "send/recv in either order" `Quick test_send_recv_order_independent;
    Alcotest.test_case "cap rights enforced" `Quick test_cap_rights_enforced;
    Alcotest.test_case "invalid slot denied" `Quick test_invalid_slot_denied;
    Alcotest.test_case "revoked caps unusable" `Quick test_revoke;
    Alcotest.test_case "cap delegation via message" `Quick test_cap_transfer;
    Alcotest.test_case "cap derivation is monotone" `Quick test_derive_cap_monotone;
    Alcotest.test_case "address spaces disjoint" `Quick test_memory_isolation;
    Alcotest.test_case "out of frames is a typed error" `Quick test_map_out_of_frames;
    Alcotest.test_case "unmapped access faults" `Quick test_unmapped_access_faults;
    Alcotest.test_case "read-only page enforced" `Quick test_readonly_page;
    Alcotest.test_case "sleep advances simulated time" `Quick test_sleep_and_time;
    Alcotest.test_case "crashing thread contained" `Quick test_crash_isolated;
    Alcotest.test_case "IPC deadlock detected" `Quick test_deadlock_detected;
    Alcotest.test_case "fixed priority runs high first" `Quick test_fixed_priority_order;
    Alcotest.test_case "TDMA slots are exclusive" `Quick test_tdma_partition_exclusive;
    Alcotest.test_case "round robin starvation-free" `Quick test_round_robin_no_starvation;
    Alcotest.test_case "fixed priority can starve" `Quick test_fixed_priority_can_starve;
    Alcotest.test_case "run stops at step limit" `Quick test_step_limit;
    Alcotest.test_case "reap drops only exited threads" `Quick test_reap_only_dead;
    Alcotest.test_case "refused launch takes nothing" `Quick
      test_refused_launch_takes_nothing;
    Alcotest.test_case "1,000 hops hold the kernel steady" `Quick test_hops_hold_steady;
    Alcotest.test_case "a mail load run holds the kernel steady" `Quick
      test_load_run_holds_steady ]
