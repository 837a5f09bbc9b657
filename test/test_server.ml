(* The code-region registry: arena slab accounting, the
   install/replace/evict/lookup service, and — the point of the whole
   exercise — an install/evict/reinstall-at-reused-address lockstep
   fuzz across all four engine modes, pinning that no stale
   translation ever executes after its region is evicted or
   replaced. *)

module A = Vserver.Arena
module SV = Vserver.Server.Make (Vmips.Mips_backend)
module S = Vmips.Mips_sim
module Filter = Dpf.Filter
module Packet = Dpf.Packet
module Mem = Vmachine.Mem

let check = Alcotest.check

let pkt_addr = 0x80000

(* ------------------------------------------------------------------ *)
(* Arena                                                               *)

let test_arena_classes () =
  let base = 0x100000 in
  let a = A.create ~base ~limit:(base + 0x10000) () in
  (match A.alloc a ~words:1 with
  | Some (addr, slab) ->
    check Alcotest.int "first slab at base" base addr;
    check Alcotest.int "1 word -> smallest class" A.class_sizes.(0) slab
  | None -> Alcotest.fail "alloc 1 word");
  (match A.alloc a ~words:(A.class_sizes.(0) + 1) with
  | Some (addr, slab) ->
    check Alcotest.int "bumped past the first slab" (base + (4 * A.class_sizes.(0))) addr;
    check Alcotest.int "rounds up to the next class" A.class_sizes.(1) slab
  | None -> Alcotest.fail "alloc class-1 slab");
  check
    Alcotest.(option int)
    "slab_words sees the live slab"
    (Some A.class_sizes.(0))
    (A.slab_words a base);
  let biggest = A.class_sizes.(Array.length A.class_sizes - 1) in
  check
    Alcotest.(option (pair int int))
    "oversize allocation refused" None
    (A.alloc a ~words:(biggest + 1));
  let st = A.stats a in
  check Alcotest.int "two live slabs" 2 st.A.live_slabs;
  check Alcotest.int "bump frontier moved by both slabs"
    (A.class_sizes.(0) + A.class_sizes.(1))
    st.A.bump_words

let test_arena_lifo_reuse () =
  let base = 0x100000 in
  let a = A.create ~base ~limit:(base + 0x10000) () in
  let alloc words =
    match A.alloc a ~words with
    | Some (addr, _) -> addr
    | None -> Alcotest.fail "arena unexpectedly full"
  in
  let a1 = alloc 10 and a2 = alloc 10 and a3 = alloc 10 in
  check Alcotest.bool "distinct slabs" true (a1 <> a2 && a2 <> a3 && a1 <> a3);
  A.free a a1;
  A.free a a2;
  (* LIFO: the most recently freed slab (the hottest address) is the
     next one handed out — the address-reuse hazard the engine
     invalidation protocol must survive. *)
  check Alcotest.int "last freed, first reused" a2 (alloc 10);
  check Alcotest.int "then the earlier free" a1 (alloc 10);
  (* a fresh allocation after the free list drained bumps, not reuses *)
  check Alcotest.bool "frontier resumes past a3" true (alloc 10 > a3);
  Alcotest.check_raises "free of a dead address"
    (Invalid_argument (Printf.sprintf "Arena.free: 0x%x is not a live slab" 0xdead0))
    (fun () -> A.free a 0xdead0)

let test_arena_exhaustion () =
  let base = 0x100000 in
  let cls = A.class_sizes.(0) in
  (* window holds exactly two smallest-class slabs *)
  let a = A.create ~base ~limit:(base + (4 * 2 * cls)) () in
  let a1 =
    match A.alloc a ~words:cls with Some (x, _) -> x | None -> Alcotest.fail "slab 1"
  in
  (match A.alloc a ~words:cls with None -> Alcotest.fail "slab 2" | Some _ -> ());
  check Alcotest.(option (pair int int)) "window exhausted" None (A.alloc a ~words:cls);
  A.free a a1;
  (match A.alloc a ~words:cls with
  | Some (x, _) -> check Alcotest.int "free list rescues a full window" a1 x
  | None -> Alcotest.fail "post-free alloc");
  let st = A.stats a in
  check Alcotest.int "live count survived the cycle" 2 st.A.live_slabs

(* ------------------------------------------------------------------ *)
(* Registry service                                                    *)

let filter_for ~fid ~port = Filter.tcpip_session ~fid ~dst_ip:0x0A000001 ~dst_port:port

(* classify the resident packet after pointing its dst_port at [port] *)
let classify m ~entry ~port =
  Mem.write_u8 m.S.mem (pkt_addr + 22) ((port lsr 8) land 0xff);
  Mem.write_u8 m.S.mem (pkt_addr + 23) (port land 0xff);
  S.call m ~entry [ S.Int pkt_addr; S.Int 40 ];
  S.ret_int m

let mk_machine ?(predecode = true) ?(blocks = true) ?(regions = false) () =
  let m = S.create ~predecode ~blocks ~regions Vmachine.Mconfig.test_config in
  Packet.install m.S.mem ~addr:pkt_addr (Packet.tcp ());
  m

let test_server_basic () =
  let m = mk_machine () in
  let sv = SV.create m.S.mem in
  let e1 = SV.install sv ~key:1 (filter_for ~fid:101 ~port:2001) in
  let e2 = SV.install sv ~key:2 (filter_for ~fid:102 ~port:2002) in
  check Alcotest.int "live" 2 (SV.live sv);
  check Alcotest.(option int) "lookup 1" (Some e1) (SV.lookup sv 1);
  check Alcotest.(option int) "lookup 2" (Some e2) (SV.lookup sv 2);
  check Alcotest.(option int) "lookup miss" None (SV.lookup sv 3);
  check Alcotest.int "filter 1 classifies" 101 (classify m ~entry:e1 ~port:2001);
  check Alcotest.int "filter 2 classifies" 102 (classify m ~entry:e2 ~port:2002);
  check Alcotest.int "filter 2 rejects filter 1's packet" (-1)
    (classify m ~entry:e2 ~port:2001);
  (match SV.find sv 1 with
  | None -> Alcotest.fail "find 1"
  | Some i ->
    check Alcotest.int "info fid" 101 i.SV.fid;
    check Alcotest.int "info entry" e1 i.SV.entry;
    check Alcotest.int "one lookup counted" 1 i.SV.hits;
    check Alcotest.bool "code fits its slab" true
      (i.SV.code_words > 0 && i.SV.code_words <= i.SV.slab_words));
  (* replace: same key, new fid and port; old translation must be gone *)
  let e1' = SV.install sv ~key:1 (filter_for ~fid:201 ~port:3001) in
  check Alcotest.int "replacement classifies as the new fid" 201
    (classify m ~entry:e1' ~port:3001);
  check Alcotest.int "old port no longer accepted" (-1) (classify m ~entry:e1' ~port:2001);
  check Alcotest.bool "evict removes" true (SV.evict sv 2);
  check Alcotest.bool "evict is once" false (SV.evict sv 2);
  check Alcotest.(option int) "evicted key gone" None (SV.lookup sv 2);
  let st = SV.stats sv in
  check Alcotest.int "installs" 3 st.SV.installs;
  check Alcotest.int "replaces" 1 st.SV.replaces;
  check Alcotest.int "evictions" 1 st.SV.evictions;
  check Alcotest.int "lookup hits" 2 st.SV.lookup_hits;
  check Alcotest.int "lookup misses" 2 st.SV.lookup_misses;
  check Alcotest.int "live after churn" 1 (SV.live sv)

let test_server_batch_matches_single () =
  let m1 = mk_machine () and m2 = mk_machine () in
  let sv1 = SV.create m1.S.mem and sv2 = SV.create m2.S.mem in
  let kfs = List.init 20 (fun i -> (i, filter_for ~fid:(500 + i) ~port:(4000 + i))) in
  List.iter (fun (k, f) -> ignore (SV.install sv1 ~key:k f : int)) kfs;
  SV.install_batch sv2 kfs;
  check Alcotest.int "same live count" (SV.live sv1) (SV.live sv2);
  List.iter
    (fun (k, _) ->
      match (SV.find sv1 k, SV.find sv2 k) with
      | Some a, Some b ->
        check Alcotest.int "same base" a.SV.base b.SV.base;
        check Alcotest.int "same entry" a.SV.entry b.SV.entry;
        check Alcotest.int "same code size" a.SV.code_words b.SV.code_words;
        check Alcotest.int "batch region classifies" (500 + k)
          (classify m2 ~entry:b.SV.entry ~port:(4000 + k))
      | _ -> Alcotest.fail "region missing")
    kfs

let test_server_capacity_eviction () =
  let m = mk_machine () in
  (* a tcpip_session lands in the 128-word class; leave room for
     exactly four such slabs so the fifth install must evict *)
  let base = 0x100000 in
  let sv = SV.create ~arena_base:base ~arena_limit:(base + (4 * 4 * 128)) m.S.mem in
  for k = 0 to 3 do
    ignore (SV.install sv ~key:k (filter_for ~fid:(100 + k) ~port:(2000 + k)) : int)
  done;
  (* heat keys 1..3; key 0 stays coldest *)
  for _ = 1 to 3 do
    List.iter (fun k -> ignore (SV.lookup sv k : int option)) [ 1; 2; 3 ]
  done;
  let e4 = SV.install sv ~key:4 (filter_for ~fid:104 ~port:2004) in
  check Alcotest.int "still four live" 4 (SV.live sv);
  check Alcotest.(option int) "coldest key evicted" None (SV.lookup sv 0);
  check Alcotest.int "capacity evictions" 1 (SV.stats sv).SV.capacity_evictions;
  check Alcotest.int "newcomer classifies" 104 (classify m ~entry:e4 ~port:2004);
  (* the reclaimed slab is the one the newcomer got (LIFO reuse) *)
  (match SV.find sv 4 with
  | Some i -> check Alcotest.int "slab address reused" base i.SV.base
  | None -> Alcotest.fail "find 4");
  List.iter
    (fun k ->
      match SV.find sv k with
      | Some i ->
        check Alcotest.int "survivor still classifies" (100 + k)
          (classify m ~entry:i.SV.entry ~port:(2000 + k))
      | None -> Alcotest.fail "survivor missing")
    [ 1; 2; 3 ]

(* An install whose region can never fit a slab class must be refused
   before it touches the registry: with 50 tenants resident, a 300-atom
   filter under an existing key raises [Oversize], every tenant stays
   (none is capacity-evicted), and the replaced key's old filter still
   classifies. *)
let test_server_oversize_refused () =
  let m = mk_machine () in
  let sv = SV.create m.S.mem in
  for k = 0 to 49 do
    ignore (SV.install sv ~key:k (filter_for ~fid:(100 + k) ~port:(2000 + k)) : int)
  done;
  let huge =
    Filter.make ~fid:999
      (List.init 300 (fun i ->
           Filter.Cmp { offset = i mod 40; size = 1; mask = 0xFF; value = i land 0xFF }))
  in
  (match SV.install sv ~key:7 huge with
  | _ -> Alcotest.fail "oversize install accepted"
  | exception Vserver.Server.Oversize words ->
    check Alcotest.bool "reports the words over the largest class" true (words > A.max_words));
  check Alcotest.int "all tenants remain" 50 (SV.live sv);
  check Alcotest.int "nothing evicted" 0 (SV.stats sv).SV.capacity_evictions;
  List.iter
    (fun k ->
      match SV.find sv k with
      | Some i ->
        check Alcotest.int "tenant still classifies" (100 + k)
          (classify m ~entry:i.SV.entry ~port:(2000 + k))
      | None -> Alcotest.fail (Printf.sprintf "tenant %d lost" k))
    (List.init 50 Fun.id)

(* The batched queue's bulk eviction (one scan clears the chunk's worth
   of coldest regions) must pick exactly the set that one-at-a-time
   coldest eviction would: same resident keys afterwards. *)
let test_server_bulk_eviction_policy () =
  let m1 = mk_machine () and m2 = mk_machine () in
  let base = 0x100000 in
  let mk m = SV.create ~arena_base:base ~arena_limit:(base + (4 * 6 * 128)) m.S.mem in
  let sv1 = mk m1 and sv2 = mk m2 in
  let fill sv =
    for k = 0 to 5 do
      ignore (SV.install sv ~key:k (filter_for ~fid:(100 + k) ~port:(2000 + k)) : int)
    done;
    (* heat 2..5; 0 and 1 stay coldest *)
    List.iter (fun k -> ignore (SV.lookup sv k : int option)) [ 2; 3; 4; 5 ]
  in
  fill sv1;
  fill sv2;
  let overflow = List.init 2 (fun i -> (10 + i, filter_for ~fid:(110 + i) ~port:(3000 + i))) in
  List.iter (fun (k, f) -> ignore (SV.install sv1 ~key:k f : int)) overflow;
  SV.install_batch sv2 overflow;
  check Alcotest.int "same eviction count" (SV.stats sv1).SV.capacity_evictions
    (SV.stats sv2).SV.capacity_evictions;
  for k = 0 to 11 do
    check Alcotest.bool
      (Printf.sprintf "key %d residency agrees" k)
      (SV.find sv1 k <> None)
      (SV.find sv2 k <> None)
  done;
  (* and it was the cold pair that died *)
  check Alcotest.bool "cold key 0 evicted" true (SV.find sv2 0 = None);
  check Alcotest.bool "cold key 1 evicted" true (SV.find sv2 1 = None);
  check Alcotest.bool "hot key 2 resident" true (SV.find sv2 2 <> None)

let test_server_max_live () =
  let m = mk_machine () in
  let sv = SV.create ~max_live:2 m.S.mem in
  for k = 0 to 4 do
    ignore (SV.install sv ~key:k (filter_for ~fid:k ~port:(5000 + k)) : int)
  done;
  check Alcotest.int "cap respected" 2 (SV.live sv);
  check Alcotest.int "cap evictions" 3 (SV.stats sv).SV.capacity_evictions;
  (* the two newest keys survive monotonic cold eviction *)
  check Alcotest.bool "newest resident" true (SV.lookup sv 4 <> None);
  check Alcotest.bool "oldest gone" true (SV.lookup sv 0 = None)

(* ------------------------------------------------------------------ *)
(* Eviction-lifetime lockstep fuzz: all four engine modes              *)

(* One registry per engine mode, driven through an identical seeded
   schedule of install / replace / evict / classify operations over a
   deliberately tiny arena (eight 128-word slabs), so slab addresses
   recycle constantly.  Every classify writes the packet, runs the
   compiled filter on all four machines and demands (fid, insns,
   cycles) agree with the no-cache machine — any stale predecode,
   superblock or region translation left over an evicted slab either
   returns a dead fid or diverges in timing, and either trips the
   check.  One key is hammered past the region-promotion threshold
   before being replaced, so the regions tier provably drops promoted
   traces too. *)

let test_lockstep_fuzz () =
  let modes =
    [
      ("off", (false, false, false));
      ("predecode", (true, false, false));
      ("blocks", (true, true, false));
      ("regions", (true, true, true));
    ]
  in
  let rigs =
    List.map
      (fun (name, (predecode, blocks, regions)) ->
        let m = mk_machine ~predecode ~blocks ~regions () in
        let base = 0x100000 in
        let sv = SV.create ~arena_base:base ~arena_limit:(base + (4 * 8 * 128)) m.S.mem in
        (name, m, sv))
      modes
  in
  let oracle = Hashtbl.create 64 (* key -> (fid, port) *) in
  let next_fid = ref 1000 in
  let fresh key =
    incr next_fid;
    let fid = !next_fid in
    let port = 1 + (fid mod 60000) in
    Hashtbl.replace oracle key (fid, port);
    filter_for ~fid ~port
  in
  (* The eight-slab arena forces capacity evictions; the schedule is
     identical across rigs, so all four must evict the same coldest
     tenants.  After each install, drop whatever the registries
     dropped from the oracle — and insist the rigs agree on it. *)
  let reconcile () =
    let dead =
      Hashtbl.fold
        (fun k _ acc ->
          let residency = List.map (fun (_, _, sv) -> SV.find sv k <> None) rigs in
          (match residency with
          | r0 :: rest ->
            List.iteri
              (fun i r ->
                if r <> r0 then
                  Alcotest.failf "rig %d disagrees on residency of key %d" (i + 1) k)
              rest
          | [] -> assert false);
          if List.hd residency then acc else k :: acc)
        oracle []
    in
    List.iter (Hashtbl.remove oracle) dead
  in
  let install key =
    let f = fresh key in
    List.iter (fun (_, _, sv) -> ignore (SV.install sv ~key f : int)) rigs;
    reconcile ()
  in
  let evict key =
    Hashtbl.remove oracle key;
    List.iter (fun (_, _, sv) -> ignore (SV.evict sv key : bool)) rigs
  in
  let classify_all key =
    match Hashtbl.find_opt oracle key with
    | None -> ()
    | Some (fid, port) ->
      let run (_, m, sv) =
        match SV.lookup sv key with
        | None -> Alcotest.fail "registries diverged: key missing"
        | Some entry ->
          S.reset_stats m;
          let got = classify m ~entry ~port in
          (got, (m.S.insns, m.S.cycles))
      in
      (match rigs with
      | [] -> assert false
      | r0 :: rest ->
        let (got0, _) as res0 = run r0 in
        check Alcotest.int
          (Printf.sprintf "key %d classifies as its live fid" key)
          fid got0;
        List.iter
          (fun ((name, _, _) as r) ->
            check
              Alcotest.(pair int (pair int int))
              (Printf.sprintf "%s agrees with off on key %d" name key)
              res0 (run r))
          rest)
  in
  let rs = Random.State.make [| 0x5eed; 0x5e4e4 |] in
  let live_keys () = Hashtbl.fold (fun k _ acc -> k :: acc) oracle [] |> List.sort compare in
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let next_key = ref 0 in
  (* seed a few tenants *)
  for _ = 1 to 4 do
    install !next_key;
    incr next_key
  done;
  for _round = 1 to 120 do
    (match Random.State.int rs 10 with
    | 0 | 1 ->
      install !next_key;
      incr next_key
    | 2 | 3 -> (
      match live_keys () with [] -> () | ks -> install (pick ks) (* replace *))
    | 4 -> ( match live_keys () with [] -> () | ks -> evict (pick ks))
    | _ -> ());
    (* probe up to three live tenants every round *)
    match live_keys () with
    | [] -> ()
    | ks ->
      for _ = 1 to min 3 (List.length ks) do
        classify_all (pick ks)
      done
  done;
  (* region-promotion kill shot: hammer one key well past the region
     tier's hot threshold so a trace is promoted over its slab, then
     replace the key — the slab is scrubbed and reused, and the
     promoted trace must die with it *)
  let hot = !next_key in
  incr next_key;
  install hot;
  for _ = 1 to 100 do
    classify_all hot
  done;
  install hot (* replace: new fid, same (LIFO-reused) slab *);
  for _ = 1 to 10 do
    classify_all hot
  done;
  (* and the evict/reinstall variant of the same hazard *)
  evict hot;
  install hot;
  classify_all hot;
  (* the regions rig really did promote something *)
  let _, m_reg, _ = List.nth rigs 3 in
  let promotions, _ = Vmachine.Region_cache.stats m_reg.S.rc in
  check Alcotest.bool "regions tier promoted during the fuzz" true (promotions > 0);
  (* all rigs agree on the survivors *)
  List.iter classify_all (live_keys ())

(* Compile-then-swap: a replacement whose estimate fits a slab class
   but whose compiled code does not (140 four-byte masked atoms: 904
   estimated words, over 1,024 compiled) raises [Oversize] only after the
   compile — and the key's old filter must still be published and
   classifying. *)
let test_server_replace_keeps_old () =
  let m = mk_machine () in
  let sv = SV.create m.S.mem in
  let e1 = SV.install sv ~key:1 (filter_for ~fid:101 ~port:2001) in
  let wide =
    Filter.make ~fid:999
      (List.init 140 (fun i ->
           Filter.Cmp { offset = 4 * i; size = 4; mask = 0xFFFF; value = i }))
  in
  (match SV.install sv ~key:1 wide with
  | _ -> Alcotest.fail "oversize replacement accepted"
  | exception Vserver.Server.Oversize words ->
    check Alcotest.bool "reports the words over the largest class" true (words > A.max_words));
  check Alcotest.int "the old filter stays live" 1 (SV.live sv);
  check Alcotest.(option int) "the old entry is still published" (Some e1) (SV.lookup sv 1);
  check Alcotest.int "the old filter still classifies" 101 (classify m ~entry:e1 ~port:2001);
  (* and a replacement that does fit swaps in *)
  let e1' = SV.install sv ~key:1 (filter_for ~fid:201 ~port:3001) in
  check Alcotest.int "the replacement classifies" 201 (classify m ~entry:e1' ~port:3001);
  check Alcotest.int "one replace counted" 1 (SV.stats sv).SV.replaces

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "arena",
        [
          Alcotest.test_case "slab classes" `Quick test_arena_classes;
          Alcotest.test_case "lifo reuse" `Quick test_arena_lifo_reuse;
          Alcotest.test_case "exhaustion" `Quick test_arena_exhaustion;
        ] );
      ( "registry",
        [
          Alcotest.test_case "install lookup evict replace" `Quick test_server_basic;
          Alcotest.test_case "batch matches single" `Quick test_server_batch_matches_single;
          Alcotest.test_case "capacity eviction" `Quick test_server_capacity_eviction;
          Alcotest.test_case "bulk eviction policy" `Quick test_server_bulk_eviction_policy;
          Alcotest.test_case "max_live cap" `Quick test_server_max_live;
          Alcotest.test_case "oversize install refused" `Quick test_server_oversize_refused;
          Alcotest.test_case "failed replace keeps the old filter" `Quick
            test_server_replace_keeps_old;
        ] );
      ( "eviction-lifetime",
        [ Alcotest.test_case "four-mode lockstep fuzz" `Quick test_lockstep_fuzz ] );
    ]
