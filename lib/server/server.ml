(* The code-region registry: install/replace/evict/lookup over
   slab-allocated compiled filters.

   Correctness story, in one place: a slab's previous tenant is always
   scrubbed with Mem.fill before the address can be handed out again,
   and the fill (like install_code itself) runs through the memory
   write-watcher protocol.  Whatever engine tiers the owning simulator
   stacked on that memory — predecode cache, superblock cache, region
   cache — their watchers see the store and retire any translation
   derived from the window.  The registry never talks to an engine
   directly, so adding a tier never changes this module. *)

open Vcodebase
module Mem = Vmachine.Mem
module Tel = Vmachine.Telemetry

exception Oversize of int

module Make (T : Target.S) = struct
  module DP = Dpf.Make (T)

  type region = {
    rg_key : int;
    rg_fid : int;
    rg_base : int;
    rg_slab : int; (* slab words *)
    rg_words : int; (* emitted code words *)
    rg_entry : int;
    mutable rg_hits : int;
    rg_epoch : int;
  }

  type t = {
    mem : Mem.t;
    arena : Arena.t;
    tel : Tel.t;
    shards : (int, region) Hashtbl.t array;
    shard_mask : int;
    scratch : Codebuf.t; (* the batched queue's recycled buffer *)
    table_base : int; (* above the window; single filters emit no tables *)
    max_live : int option;
    mutable next_epoch : int;
    (* stats mirror: plain ints for cheap reads by tests/bench *)
    mutable s_live : int;
    mutable s_installs : int;
    mutable s_replaces : int;
    mutable s_evictions : int;
    mutable s_cap_evictions : int;
    mutable s_recompiles : int;
    mutable s_hits : int;
    mutable s_misses : int;
    c_install : Tel.counter;
    c_replace : Tel.counter;
    c_evict : Tel.counter;
    c_evict_cap : Tel.counter;
    c_recompile : Tel.counter;
    c_hit : Tel.counter;
    c_miss : Tel.counter;
    (* latency distributions (host ns), fed by Tel timers *)
    d_install_ns : Tel.dist;
    d_replace_ns : Tel.dist;
    d_evict_ns : Tel.dist;
    (* gauges, written by sync_gauges *)
    g_live : Tel.counter;
    g_slabs_live : Tel.counter;
    g_slabs_free : Tel.counter;
    g_bump_words : Tel.counter;
  }

  type info = {
    base : int;
    slab_words : int;
    code_words : int;
    entry : int;
    fid : int;
    hits : int;
    epoch : int;
  }

  type stats = {
    live : int;
    installs : int;
    replaces : int;
    evictions : int;
    capacity_evictions : int;
    recompiles : int;
    lookup_hits : int;
    lookup_misses : int;
  }

  let round_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  let create ?(tel = Tel.disabled) ?(shards = 16) ?max_live ?(arena_base = 0x100000)
      ?arena_limit mem =
    (* default window: everything above the harness data buffers up to
       64KB below the top of memory (stacks live at the top) *)
    let arena_limit =
      match arena_limit with Some l -> l | None -> Mem.size mem - 0x10000
    in
    if arena_limit > Mem.size mem then invalid_arg "Server.create: window exceeds memory";
    let nshards = round_pow2 (max 1 shards) in
    {
      mem;
      arena = Arena.create ~tel ~base:arena_base ~limit:arena_limit ();
      tel;
      shards = Array.init nshards (fun _ -> Hashtbl.create 64);
      shard_mask = nshards - 1;
      scratch = Codebuf.create ~capacity:256 ();
      table_base = arena_limit;
      max_live;
      next_epoch = 0;
      s_live = 0;
      s_installs = 0;
      s_replaces = 0;
      s_evictions = 0;
      s_cap_evictions = 0;
      s_recompiles = 0;
      s_hits = 0;
      s_misses = 0;
      c_install = Tel.counter tel "server.install";
      c_replace = Tel.counter tel "server.replace";
      c_evict = Tel.counter tel "server.evict";
      c_evict_cap = Tel.counter tel "server.evict_capacity";
      c_recompile = Tel.counter tel "server.recompile";
      c_hit = Tel.counter tel "server.lookup.hit";
      c_miss = Tel.counter tel "server.lookup.miss";
      d_install_ns = Tel.dist tel "server.install_ns";
      d_replace_ns = Tel.dist tel "server.replace_ns";
      d_evict_ns = Tel.dist tel "server.evict_ns";
      g_live = Tel.counter tel "server.live_regions";
      g_slabs_live = Tel.counter tel "server.arena.live_slabs";
      g_slabs_free = Tel.counter tel "server.arena.free_slabs";
      g_bump_words = Tel.counter tel "server.arena.bump_words";
    }

  let shard t key = t.shards.(key land t.shard_mask)
  let live t = t.s_live

  (* Remove [r] and scrub its slab.  The zero-fill is the invalidation
     edge: it rides the write-watcher protocol, so every engine tier
     retires translations over [rg_base, rg_base + 4*rg_slab) before
     the address is reused — by a replacement in place, or by the arena
     once [drop_region] has returned the slab. *)
  let unpublish t r =
    Hashtbl.remove (shard t r.rg_key) r.rg_key;
    Mem.fill t.mem ~addr:r.rg_base ~len:(4 * r.rg_slab) '\000';
    t.s_live <- t.s_live - 1

  let drop_region t r =
    unpublish t r;
    Arena.free t.arena r.rg_base

  let evict t key =
    match Hashtbl.find_opt (shard t key) key with
    | None -> false
    | Some r ->
      let t0 = Tel.timer_start t.tel in
      drop_region t r;
      t.s_evictions <- t.s_evictions + 1;
      Tel.bump t.tel t.c_evict;
      Tel.timer_stop t.tel t.d_evict_ns t0;
      true

  (* Coldest = fewest hits, then oldest epoch, then lowest base — a
     total order, so eviction is deterministic across Hashtbl layouts.
     [keep] (a key being replaced) is never a candidate. *)
  let coldest ?(keep = -1) t =
    let best = ref None in
    Array.iter
      (fun tbl ->
        Hashtbl.iter
          (fun _ r ->
            if r.rg_key <> keep then
              match !best with
              | None -> best := Some r
              | Some b ->
                if
                  (r.rg_hits, r.rg_epoch, r.rg_base) < (b.rg_hits, b.rg_epoch, b.rg_base)
                then best := Some r)
          tbl)
      t.shards;
    !best

  let drop_coldest ?keep t =
    match coldest ?keep t with
    | None -> false
    | Some r ->
      drop_region t r;
      t.s_cap_evictions <- t.s_cap_evictions + 1;
      Tel.bump t.tel t.c_evict_cap;
      true

  let evict_coldest t = drop_coldest t

  (* Evict the [k] coldest regions in ONE scan: collect, sort by the
     same (hits, epoch, base) total order the one-at-a-time path uses,
     drop the head.  k successive [evict_coldest] calls with no
     intervening lookups select exactly this set, so the policy is
     unchanged — only the k * O(live) rescan cost is. *)
  let evict_coldest_k ?(keep = -1) t k =
    let all = ref [] in
    Array.iter
      (fun tbl -> Hashtbl.iter (fun _ r -> if r.rg_key <> keep then all := r :: !all) tbl)
      t.shards;
    let arr = Array.of_list !all in
    Array.sort
      (fun a b ->
        let c = Int.compare a.rg_hits b.rg_hits in
        if c <> 0 then c
        else
          let c = Int.compare a.rg_epoch b.rg_epoch in
          if c <> 0 then c else Int.compare a.rg_base b.rg_base)
      arr;
    let k = min k (Array.length arr) in
    for i = 0 to k - 1 do
      drop_region t arr.(i)
    done;
    t.s_cap_evictions <- t.s_cap_evictions + k;
    Tel.add t.tel t.c_evict_cap k

  (* Allocate [words], evicting coldest regions until it fits.
     [pending] is the number of installs still queued behind this one
     (1 outside a batch): when arena pressure hits mid-batch, the whole
     queue's worth of coldest regions is cleared in one scan instead of
     paying a full scan per install — the service-level amortization
     the router benchmark measures at capacity. *)
  let alloc_evicting ?(pending = 1) ?keep t ~words =
    let rec go () =
      match Arena.alloc t.arena ~words with
      | Some a -> a
      | None ->
        if pending > 1 && t.s_live > 0 then begin
          evict_coldest_k ?keep t (min pending t.s_live);
          match Arena.alloc t.arena ~words with
          | Some a -> a
          | None -> single ()
        end
        else single ()
    and single () =
      if not (drop_coldest ?keep t) then
        failwith
          (Printf.sprintf "Server: cannot place %d-word region in empty arena" words)
      else go ()
    in
    go ()

  (* Pre-compile size estimate, in code words.  Measured on the MIPS
     port: a single-filter compile has a ~63-word floor (reserved
     prologue area, bounds-check entry, fail/done tails) plus ~4 words
     per Cmp atom — a tcpip_session filter (4 atoms) emits 85 words.
     The floor is padded so common filters land in the 128-word class
     on the first try; the recompile path below corrects any
     underestimate at the cost of one extra compile. *)
  let estimate_words (f : Dpf.Filter.t) = 64 + (6 * List.length f.Dpf.Filter.atoms)

  let compile_at t ?buf ~base f =
    DP.compile ~base ~table_base:t.table_base ?buf [ f ]

  (* Store the compiled filter at [addr] and publish it under [key]. *)
  let publish t ~key (f : Dpf.Filter.t) c ~addr ~slab ~words =
    Mem.install_code t.mem ~addr c.Dpf.code.Vcode.gen.Gen.buf;
    DP.install_tables t.mem c;
    let r =
      {
        rg_key = key;
        rg_fid = f.Dpf.Filter.fid;
        rg_base = addr;
        rg_slab = slab;
        rg_words = words;
        rg_entry = c.Dpf.entry;
        rg_hits = 0;
        rg_epoch = t.next_epoch;
      }
    in
    t.next_epoch <- t.next_epoch + 1;
    Hashtbl.replace (shard t key) key r;
    t.s_live <- t.s_live + 1;
    t.s_installs <- t.s_installs + 1;
    Tel.bump t.tel t.c_install;
    r.rg_entry

  let code_words c = Codebuf.length c.Dpf.code.Vcode.gen.Gen.buf

  (* a region beyond the largest slab class can never be placed *)
  let fits words = if words > Arena.max_words then raise (Oversize words)

  let recompiled t =
    t.s_recompiles <- t.s_recompiles + 1;
    Tel.bump t.tel t.c_recompile

  (* A fresh key: evict to the live cap, allocate by the estimate,
     compile into the slab.  On underestimate the slab goes back and the
     filter is recompiled into one that fits (code size is
     base-independent, so the second compile is exact). *)
  let install_fresh t ?buf ~pending ~key f =
    (match t.max_live with
    | Some cap ->
      while t.s_live >= cap && evict_coldest t do
        ()
      done
    | None -> ());
    let addr, slab = alloc_evicting ~pending t ~words:(estimate_words f) in
    let c = compile_at t ?buf ~base:addr f in
    let words = code_words c in
    if words <= slab then publish t ~key f c ~addr ~slab ~words
    else begin
      Arena.free t.arena addr;
      fits words;
      let addr, slab = alloc_evicting ~pending t ~words in
      let c = compile_at t ?buf ~base:addr f in
      let words = code_words c in
      assert (words <= slab);
      recompiled t;
      publish t ~key f c ~addr ~slab ~words
    end

  (* Compile-then-swap: the old region stays published until the new
     one is compiled and placed, so a replacement that turns out not to
     fit leaves the key's old filter serving.  The first compile is at
     the old base; when it fits the old slab, the slab is scrubbed and
     reused in place.  A bigger one gets a fresh slab (never by evicting
     the key itself) before the old region goes. *)
  let install_replace t ?buf ~pending ~key f old =
    let c = compile_at t ?buf ~base:old.rg_base f in
    let words = code_words c in
    fits words;
    t.s_replaces <- t.s_replaces + 1;
    Tel.bump t.tel t.c_replace;
    if words <= old.rg_slab then begin
      unpublish t old;
      publish t ~key f c ~addr:old.rg_base ~slab:old.rg_slab ~words
    end
    else begin
      let addr, slab = alloc_evicting ~pending ~keep:key t ~words in
      let c = compile_at t ?buf ~base:addr f in
      recompiled t;
      drop_region t old;
      publish t ~key f c ~addr ~slab ~words
    end

  (* One stopwatch covers the whole install path — replace scrub,
     capacity evictions, slab allocation, compile (and the recompile on
     underestimate), code+table stores — so the install_ns tail
     reflects what a caller actually waits.  Replacements additionally
     land in replace_ns, keeping the replace tail separable. *)
  let install_common t ?buf ?(pending = 1) ~key (f : Dpf.Filter.t) =
    let t0 = Tel.timer_start t.tel in
    (* refuse a hopeless estimate before touching the registry *)
    fits (estimate_words f);
    let entry, replaced =
      match Hashtbl.find_opt (shard t key) key with
      | None -> (install_fresh t ?buf ~pending ~key f, false)
      | Some old -> (install_replace t ?buf ~pending ~key f old, true)
    in
    Tel.timer_stop t.tel t.d_install_ns t0;
    if replaced then Tel.timer_stop t.tel t.d_replace_ns t0;
    entry

  let install t ~key f = install_common t ~key f

  let install_batch t kfs =
    let n = List.length kfs in
    List.iteri
      (fun i (key, f) ->
        ignore (install_common t ~buf:t.scratch ~pending:(n - i) ~key f : int))
      kfs

  let lookup t key =
    match Hashtbl.find_opt (shard t key) key with
    | Some r ->
      r.rg_hits <- r.rg_hits + 1;
      t.s_hits <- t.s_hits + 1;
      Tel.bump t.tel t.c_hit;
      Some r.rg_entry
    | None ->
      t.s_misses <- t.s_misses + 1;
      Tel.bump t.tel t.c_miss;
      None

  let find t key =
    Hashtbl.find_opt (shard t key) key
    |> Option.map (fun r ->
           {
             base = r.rg_base;
             slab_words = r.rg_slab;
             code_words = r.rg_words;
             entry = r.rg_entry;
             fid = r.rg_fid;
             hits = r.rg_hits;
             epoch = r.rg_epoch;
           })

  let stats t =
    {
      live = t.s_live;
      installs = t.s_installs;
      replaces = t.s_replaces;
      evictions = t.s_evictions;
      capacity_evictions = t.s_cap_evictions;
      recompiles = t.s_recompiles;
      lookup_hits = t.s_hits;
      lookup_misses = t.s_misses;
    }

  let arena_stats t = Arena.stats t.arena

  (* Named gauge closures for a {!Vmachine.Timeline}: registry
     occupancy, arena free-list depths (total and per size class) and
     the bump frontier.  All allocation-free reads, cheap enough to
     sample every few packets. *)
  let gauge_sources t =
    let a = t.arena in
    [
      ("server.live_regions", fun () -> t.s_live);
      ("server.arena.free_slabs", fun () -> Arena.free_slabs_total a);
      ("server.arena.live_slabs", fun () -> Arena.live_slabs a);
      ("server.arena.bump_words", fun () -> Arena.bump_words a);
    ]
    @ List.mapi
        (fun i size ->
          (Printf.sprintf "server.arena.free.c%d" size, fun () -> Arena.free_slabs a ~cls:i))
        (Array.to_list Arena.class_sizes)

  (* counters are monotonic stores; a gauge is written as the delta to
     the target value so generic consumers (vprof's counter dump) see
     the current level under the usual read API *)
  let set_gauge t c v = Tel.add t.tel c (v - Tel.value t.tel c)

  let sync_gauges t =
    let a = Arena.stats t.arena in
    let free = Array.fold_left (fun acc c -> acc + c.Arena.free) 0 a.Arena.classes in
    set_gauge t t.g_live t.s_live;
    set_gauge t t.g_slabs_live a.Arena.live_slabs;
    set_gauge t t.g_slabs_free free;
    set_gauge t t.g_bump_words a.Arena.bump_words
end
