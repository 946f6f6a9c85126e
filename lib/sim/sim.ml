(** Cycle/energy simulator for IR programs on an embedded multicore
    machine model.

    Each core interprets its entry function with a private call stack and
    local time line (nanoseconds).  Cores interact through blocking
    channels, barriers and shared memory; all shared traffic is serialised
    on one bus whose occupancy creates contention.  Power state is
    simulated faithfully: per-component power gating (gated components
    leak nothing; using a gated component triggers an implicit wakeup
    penalty and is counted as a compiler bug), and per-core DVFS (compute
    cycles stretch with frequency, while bus and shared-memory time is
    frequency-independent — which is what makes DVFS profitable on
    memory-bound regions).

    {b Pending cost, settle points and energy epochs.}  Compute cost
    does not touch the clock or the ledger per instruction.  Each core
    adds its instructions' cycles to a {e pending} integer count, and
    {!settle} turns that count into clock time at fixed points of the
    instruction stream:

    - at the end of every maximal run of summable instructions
      ({!Predecode.summable}: register and local-memory work) that is
      followed by another instruction;
    - in every block terminator, after adding its own cycle — so a run
      that reaches the end of its block settles there;
    - in every other instruction, before anything another core or the
      trace can observe.

    A core's clock is therefore stale only inside a summable run, and a
    core about to execute a globally visible instruction always carries
    its exact clock into the scheduler.  Energy is coarser still: each
    core counts its dynamic operations per component, bus words,
    far-tier accesses and cache misses, and accrues active and idle
    time, over an {e energy epoch}; {!close_epoch} charges the epoch to
    the ledger — time at the leakage rate, operations at the operating
    point, events at their unit energies — whenever an implicit wakeup,
    a gating change or a DVFS transition is about to change a rate, and
    at the end of the run.  Every settled or charged value is a function
    of integer counts and of time accrued in the core's own clock order,
    so how the counts were gathered does not matter.

    Two execution modes produce byte-identical results:

    - the default {e closure-compiled} mode pre-decodes every function
      (see {!Predecode}) and compiles each basic block once into arrays
      of OCaml closures with operands, memory symbols, call targets and
      cycle costs resolved up front.  A summable run adds a cost summary
      precomputed for it (cycle sum, per-component operation counts,
      local-store accesses, and the terminator's cost when the run ends
      the block) in one step, then runs closures that carry only value
      semantics; when a component the run needs is gated, or when
      profiling, it falls back to per-instruction pending;
    - the {e interpretive} mode ([predecode = false], reachable through
      [LP_NO_SIM_PREDECODE=1] / [--no-sim-predecode]) keeps the original
      per-instruction match dispatch, adds each instruction's cost one
      step at a time, and serves as the reference the compiled mode is
      checked against.

    Both modes settle and close epochs at the same points with the same
    counts, so their clocks, ledgers and traces agree bit for bit by
    construction. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Component = Lp_power.Component
module Power_model = Lp_power.Power_model
module Operating_point = Lp_power.Operating_point
module Energy_ledger = Lp_power.Energy_ledger
module Machine = Lp_machine.Machine

exception Deadlock of string
exception Step_limit_exceeded

type status =
  | Ready
  | Blocked_send of int * Value.t
  | Blocked_recv of int * Ir.reg * Ir.ty
  | Blocked_barrier of int
  | Halted of Value.t option

(** A callee resolved once at simulator construction: the interpreter's
    call dispatch must not pay a by-name lookup plus [List.nth] parameter
    walks on every [Ir.Call]. *)
type fentry = {
  fe_func : Prog.func;
  fe_params : Ir.reg array;  (** parameter registers, in position order *)
  fe_dfunc : Predecode.dfunc;
}

(** Hot per-core float state, segregated into an all-float record:
    OCaml stores such records flat (unboxed), so the updates below
    ([time], [busy_ns]) write raw doubles instead of allocating a boxed
    float per store, as the same mutable fields would inside the mixed
    [core] record. *)
type core_clock = {
  mutable time : float;
  mutable busy_ns : float;
  mutable bus_wait_ns : float;   (** time spent waiting for a busy bus *)
  mutable leak_mw : float;
  mutable ns_per_cycle : float;  (** 1000 / f at the current point *)
  mutable active_ns : float;     (** busy time in the current energy epoch *)
  mutable idle_ns : float;       (** idle time in the current energy epoch *)
}

type frame = {
  fcore : core;  (** owning core, so compiled closures are arity-1 *)
  func : Prog.func;
  dfunc : Predecode.dfunc;
  regs : Value.t array;
  farrs : Value.t array array;
      (** frame arrays, in [Prog.frame_arrays] position order; symbols
          resolve to positions through [Predecode.df_frame_idx] *)
  mutable block : Ir.label;
  mutable idx : int;
  mutable pending_dst : Ir.reg option;
  mutable dbid : Ir.label;             (** interpretive block cache key *)
  mutable dblk : Predecode.dblock;
  mutable cblk : cblock;               (** compiled current block *)
}

(** Precomputed cost of the summable run suffix starting at one
    position: what adding each instruction's cost one at a time would
    add to the pending counts, in one step. *)
and run_cost = {
  rc_cycles : int;         (** summed cycle latencies *)
  rc_need : int;           (** powered mask the run's components need *)
  rc_comps : int array;    (** component indices used ... *)
  rc_ops : int array;      (** ... and their operation counts *)
  rc_local : int;          (** local-store accesses (cache miss model) *)
  rc_to_end : bool;
      (** the run reaches the end of its block; the cost then includes
          the terminator's cycle and branch-unit operation *)
}

(** One closure-compiled basic block. *)
and cblock = {
  cb_instrs : (frame -> unit) array;
      (** per-instruction closures: value semantics plus the
          instruction's own pending cost and settle points *)
  cb_vals : (frame -> unit) array;
      (** value-only closures, read at summable positions only (their
          cost comes from [cb_cost]) *)
  cb_n : int;
  cb_runs : int array;  (** [Predecode.db_runs] of the block *)
  cb_cost : run_cost array;
      (** [cb_cost.(i)]: the cost of the summable run suffix starting
          at [i] (meaningless where [cb_runs.(i) = 0]) *)
  cb_term : frame -> unit;  (** the terminator: its cost, then its action *)
  cb_goto : frame -> unit;  (** the terminator's action alone *)
}

(** A closure-compiled function.  [cf_blocks] is indexed by block label;
    created empty for every function first, then filled, so call targets
    and branch targets resolve across mutual recursion. *)
and cfun = {
  cf_fe : fentry;
  mutable cf_blocks : cblock array;  (** [||] when compilation is off *)
}

and core = {
  id : int;
  cls : int;                  (** index into [machine.classes] *)
  pm : Power_model.t;
      (** this core's class power model; every energy charge and ladder
          lookup goes through it, so a heterogeneous machine charges
          each core by its own class *)
  perf_scale : float;
      (** cycles this core needs per reference cycle (class perf scale);
          folded into [clk.ns_per_cycle] *)
  mutable stack : frame list;
  mutable status : status;
  clk : core_clock;
  mutable point : Operating_point.t;
  mutable powered : int;      (** bit [Component.index k] set = k powered *)
  ledger : Energy_ledger.t;
  dyn_row : float array;
      (** per-component dynamic energy at the current point (indexed by
          [Component.index]); refreshed on DVFS transitions *)
  mutable p_cycles : int;     (** pending compute cycles, see {!settle} *)
  e_ops : int array;
      (** dynamic operations per [Component.index] in the current energy
          epoch, see {!close_epoch} *)
  mutable e_misses : int;     (** cache misses in the current epoch *)
  mutable e_words : int;      (** bus and link words in the current epoch *)
  mutable e_far : int;        (** far-tier accesses in the current epoch *)
  mutable instr_count : int;
  mutable implicit_wakeups : int;
  mutable gate_transitions : int;
  mutable dvfs_transitions : int;
  mutable send_blocks : int;
  mutable recv_blocks : int;
  mutable cycles : int;       (** compute cycles issued (pre-DVFS-stretch) *)
  mutable bus_txns : int;     (** shared-bus transactions *)
  mutable bus_words : int;    (** words moved over the shared bus *)
  mutable local_accs : int;
      (** local-store accesses since the last modelled cache miss; only
          advanced on machines whose local store is a cache *)
  prof_on : bool;             (** sampled once from [options.profile] *)
  prof : Profile.tab;         (** per-core attribution table *)
  mutable prof_cur : Profile.slot;
      (** slot the next charge attributes to; the steppers point it at
          the executing instruction's (function, line) slot, and it
          keeps pointing at a blocking Send/Recv/Barrier while the core
          is blocked, so blocked-time leakage lands on the instruction
          that blocked *)
}
type chan = {
  cap : int;
  queue : (Value.t * float) Queue.t;  (** value, ready time *)
  waiting_senders : int Queue.t;      (** core ids blocked on full queue *)
  mutable total_msgs : int;
  mutable last_pop : float;  (** when a queue slot last freed; a blocked
                                 sender waits (idle) until then *)
}

type barrier_state = { mutable arrived : (int * float) list }

type options = {
  max_steps : int;
  gate_unused_cores : bool;
      (** model the compiler gating every gateable component of cores the
          program does not occupy *)
  trace_limit : int;
      (** record up to this many power/communication events (0 = off) *)
  predecode : bool;
      (** run closure-compiled blocks (default); [false] selects the
          interpretive reference stepper *)
  deadline : Lp_util.Deadline.t;
      (** cooperative wall-clock deadline checked once per scheduling
          decision; expiry raises the [E_DEADLINE] diagnostic.  Does not
          affect simulated state, so outcomes that finish in time are
          byte-identical with and without a deadline *)
  profile : bool;
      (** attribute every charged nanojoule to the source line that
          spent it (see {!Profile}).  A pure observer: cycles, ledgers
          and the outcome are byte-identical with profiling on or off *)
}

let default_options =
  {
    max_steps = 200_000_000;
    gate_unused_cores = false;
    trace_limit = 0;
    predecode = true;
    deadline = Lp_util.Deadline.none;
    profile = false;
  }

(** A recorded power/communication event: core id, nanosecond timestamp,
    human-readable description. *)
type event = { ev_core : int; ev_ns : float; ev_what : string }

type t = {
  prog : Prog.t;
  machine : Machine.t;
  opts : options;
  fsyms : (string, cfun) Hashtbl.t;  (** every function, by name *)
  decoded_blocks : int;   (** total blocks decoded (once, at creation) *)
  cores : core array;          (** one per entry function *)
  shared : (string, Value.t array) Hashtbl.t;
  chans : chan array;
  barriers : barrier_state array;
  bus_free : float array;
      (** one-element array, not a [mutable float] field: a float store
          into this mixed record would box on every bus transaction *)
  mutable steps : int;
  mutable trace : event list;  (** newest first; bounded by trace_limit *)
  mutable trace_len : int;
  mutable leak_recomputes : int;
  mutable sched_event : bool;
      (** set by anything that can change which cores are schedulable —
          a channel push/pop, a barrier release — since the last
          [unblock_pass]; while it stays clear, the compiled mode keeps
          stepping the picked core without rescanning (see
          {!run_sched_batch}) *)
  mutable batch_other : int;
      (** index of the runner-up core bounding the current batch, or
          -1; globally-visible instructions check their execution turn
          against it (see {!visible_turn}) *)
  mutable live_cores : int;
      (** cores not yet [Halted]; maintained at the two halt sites so
          the scheduler's are-we-done check is one integer compare
          instead of a status scan per iteration *)
  mutable unblock_dirty : bool;
      (** set when the next {!unblock_pass} could possibly make
          progress: a core just blocked on a channel, or anything that
          sets [sched_event] happened.  While clear, the pass is a
          provable no-op (it only acts on blocked senders/receivers
          and on channel state, none of which changed) and the
          compiled scheduler skips it *)
  faults_armed : bool;  (** sampled once at construction: keeps the
                            per-transaction bus hook off the hot path *)
  (* Nominal-frequency constants, hoisted out of the per-access path. *)
  bus_txn1_ns : float;       (** bus occupancy of a one-word transaction *)
  shared_extra_ns : float;   (** off-bus near-tier shared-memory access time *)
  bus_word_energy_nj : float;
  (* Tiered shared memory: symbols of at least [far_threshold_words]
     words live in the far tier on machines that have one.  The table is
     empty on near-only machines, so their access paths are unchanged. *)
  far_syms : (string, unit) Hashtbl.t;
  far_extra_ns : float;      (** off-bus far-tier access time *)
  far_energy_nj : float;     (** far tier per-access energy *)
  (* Cache local store (deterministic periodic miss model); a period of
     0 means the local store is a scratchpad and misses never happen. *)
  cache_miss_period : int;
  cache_miss_penalty : int;
  cache_miss_energy_nj : float;
}

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let[@inline always] is_powered (c : core) ci = c.powered land (1 lsl ci) <> 0

let recompute_leak t (c : core) =
  t.leak_recomputes <- t.leak_recomputes + 1;
  let pm = c.pm in
  let scale = Operating_point.leakage_scale ~nominal:(Power_model.nominal pm) c.point in
  let sum = ref 0.0 in
  List.iter
    (fun comp ->
      if is_powered c (Component.index comp) then
        sum := !sum +. (pm.Power_model.leak_power_mw comp *. scale))
    t.machine.Machine.components;
  c.clk.leak_mw <- !sum

(** Refresh the per-core caches derived from the operating point:
    [ns_per_cycle] is [1000 /. f] times the class perf scale ([x *. 1.0]
    is bitwise [x], so cores of scale 1.0 are untouched), and
    [dynamic_energy ~ops:1] is [(1.0 *. e) *. scale = e *. scale]. *)
let refresh_point_caches _t (c : core) =
  c.clk.ns_per_cycle <-
    1000.0 /. c.point.Operating_point.freq_mhz *. c.perf_scale;
  let pm = c.pm in
  let scale =
    Operating_point.dynamic_scale ~nominal:(Power_model.nominal pm) c.point
  in
  List.iter
    (fun comp ->
      c.dyn_row.(Component.index comp) <-
        pm.Power_model.dyn_energy_nj comp *. scale)
    Component.all

let dummy_cblock =
  { cb_instrs = [||]; cb_vals = [||]; cb_n = 0; cb_runs = [||];
    cb_cost = [||]; cb_term = (fun _ -> assert false);
    cb_goto = (fun _ -> assert false) }

let make_frame (fcore : core) (cf : cfun) : frame =
  let f = cf.cf_fe.fe_func in
  let nregs = Lp_util.Id_gen.peek f.Prog.reg_gen in
  let farrs = Array.make (List.length f.Prog.frame_arrays) [||] in
  List.iteri
    (fun k (_, ty, len) -> farrs.(k) <- Array.make len (Value.zero_of_ty ty))
    f.Prog.frame_arrays;
  let cblk =
    if Array.length cf.cf_blocks > 0 then cf.cf_blocks.(f.Prog.entry)
    else dummy_cblock
  in
  {
    fcore;
    func = f;
    dfunc = cf.cf_fe.fe_dfunc;
    regs = Array.make (max 1 nregs) (Value.Vint 0);
    farrs;
    block = f.Prog.entry;
    idx = 0;
    pending_dst = None;
    dbid = -1;
    dblk = Predecode.dummy_block;
    cblk;
  }
(* Boxing the initial [Value.t] image of a program's globals dominates
   [create] for data-heavy programs (one allocation plus a write-barrier
   store per initialised element), and the image is a pure function of
   the program — so it is built once per program and block-copied per
   simulation.  Values are immutable, so sharing the boxes across
   simulations is invisible; the [Array.copy] keeps writes to [Shared]
   arrays run-local.  Single entry, keyed by physical equality: drivers
   (benchmarks, experiment sweeps) create many simulators of the same
   program in a row. *)
let shared_image_cache : (Prog.t * (string * Value.t array) list) option ref =
  ref None

let shared_image (prog : Prog.t) =
  match !shared_image_cache with
  | Some (p, img) when p == prog -> img
  | _ ->
    let img =
      List.map
        (fun (g : Prog.global) ->
          let arr = Array.make g.Prog.gsize (Value.zero_of_ty g.Prog.gty) in
          (match g.Prog.ginit with
          | Some init ->
            List.iteri
              (fun i v ->
                if i < g.Prog.gsize then
                  arr.(i) <-
                    (match g.Prog.gty with
                    | Ir.I -> Value.Vint (Value.wrap32 v)
                    | Ir.F -> Value.Vfloat (float_of_int v)))
              init
          | None -> ());
          (g.Prog.gsym, arr))
        prog.Prog.globals
    in
    shared_image_cache := Some (prog, img);
    img

let init_shared (prog : Prog.t) =
  let shared = Hashtbl.create 16 in
  List.iter
    (fun (sym, arr) -> Hashtbl.replace shared sym (Array.copy arr))
    (shared_image prog);
  shared

(* ------------------------------------------------------------------ *)
(* Time & energy plumbing                                              *)
(* ------------------------------------------------------------------ *)

(** Record a trace event; the description is only built when it will
    actually be kept, so tracing costs nothing when [trace_limit] is 0
    (the overwhelmingly common case). *)
let record t (c : core) describe =
  if t.trace_len < t.opts.trace_limit then begin
    t.trace <- { ev_core = c.id; ev_ns = c.clk.time; ev_what = describe () } :: t.trace;
    t.trace_len <- t.trace_len + 1
  end

(* [Float.max] without the cross-module call (which boxes both floats
   and the result): simulation clocks are never NaN and never -0.0, so
   a plain comparison computes the identical value. *)
let[@inline always] fmax a b : float = if a >= b then a else b

(* the bus and shared memory tick at the machine's reference clock:
   nominal frequency of core class 0 *)
let nominal_ns t n =
  Operating_point.ns_of_cycles
    (Power_model.nominal (Machine.ref_power t.machine)) n

(* The profile's category axis is the ledger's: dynamic=0,
   leak-active=1, leak-idle=2, gate-ovh=3, dvfs-ovh=4, comm=5. *)
let[@inline always] prof_add (c : core) cat nj =
  if c.prof_on then begin
    let sc = c.prof_cur.Profile.sl_cat in
    Array.unsafe_set sc cat (Array.unsafe_get sc cat +. nj)
  end

(** Advance a core's clock by [dt]; the time accrues to the current
    energy epoch, whose leakage {!close_epoch} charges. *)
let[@inline always] tick (c : core) dt ~idle =
  if dt > 0.0 then begin
    let k = c.clk in
    k.time <- k.time +. dt;
    if idle then k.idle_ns <- k.idle_ns +. dt
    else begin
      k.busy_ns <- k.busy_ns +. dt;
      k.active_ns <- k.active_ns +. dt
    end
  end

(** {!tick}, also attributing the leakage to the current profile slot. *)
let[@inline always] advance (c : core) dt ~idle =
  if dt > 0.0 then
    prof_add c (if idle then 2 else 1) (c.clk.leak_mw *. dt *. 1e-3);
  tick c dt ~idle

(** Bring a blocked core forward to absolute time [target] (idle). *)
let resume_at (c : core) target =
  if target > c.clk.time then advance c (target -. c.clk.time) ~idle:true

(** Turn [c]'s pending compute cycles into clock time, stretched by the
    current operating point.  Profile attribution already happened when
    each cost was pended. *)
let[@inline always] settle (c : core) =
  let n = c.p_cycles in
  if n > 0 then begin
    c.p_cycles <- 0;
    c.cycles <- c.cycles + n;
    tick c (float_of_int n *. c.clk.ns_per_cycle) ~idle:false
  end

(** Settle, then charge the current energy epoch to the ledger and start
    a new one: leakage over the epoch's active and idle time at its
    leakage rate, its dynamic operations at its operating point, and its
    bus words, far-tier accesses and cache misses at their fixed unit
    energies.  Every change of the leakage rate or the operating
    point closes the epoch first, and so does the end of the run, so
    each charge prices its time and operations at the rates that held
    while they accrued. *)
let close_epoch t (c : core) =
  settle c;
  let k = c.clk in
  if k.active_ns > 0.0 then begin
    Energy_ledger.charge c.ledger ~category:Energy_ledger.Leakage_active
      (k.leak_mw *. k.active_ns *. 1e-3);
    k.active_ns <- 0.0
  end;
  if k.idle_ns > 0.0 then begin
    Energy_ledger.charge c.ledger ~category:Energy_ledger.Leakage_idle
      (k.leak_mw *. k.idle_ns *. 1e-3);
    k.idle_ns <- 0.0
  end;
  Energy_ledger.charge_ops c.ledger ~unit_nj:c.dyn_row c.e_ops;
  let comm count unit_nj =
    if count > 0 then
      Energy_ledger.charge c.ledger ~category:Energy_ledger.Communication
        (float_of_int count *. unit_nj)
  in
  comm c.e_words t.bus_word_energy_nj;
  comm c.e_far t.far_energy_nj;
  comm c.e_misses t.cache_miss_energy_nj;
  c.e_words <- 0;
  c.e_far <- 0;
  c.e_misses <- 0

(* Pending-cost primitives.  With profiling on, each cost is also
   attributed to the executing instruction's slot as it is pended,
   priced at the leakage rate and operating point in force — the ones
   its epoch will be charged at, because every change of either closes
   the epoch first.  The per-line sums therefore match the ledger to
   rounding (~1e-9 relative), not bit for bit. *)

(* the profile share of [n] cycles: the cycles and their leakage *)
let prof_cycles (c : core) n =
  let s = c.prof_cur in
  s.Profile.sl_cycles <- s.Profile.sl_cycles + n;
  prof_add c 1 (c.clk.leak_mw *. (float_of_int n *. c.clk.ns_per_cycle) *. 1e-3)

let add_cycles (c : core) n =
  c.p_cycles <- c.p_cycles + n;
  if c.prof_on then prof_cycles c n

let retire (c : core) =
  c.instr_count <- c.instr_count + 1;
  if c.prof_on then
    c.prof_cur.Profile.sl_instrs <- c.prof_cur.Profile.sl_instrs + 1

let charge_gating (c : core) =
  let ge = c.pm.Power_model.gate_energy_nj in
  Energy_ledger.charge c.ledger ~category:Energy_ledger.Gating_overhead ge;
  prof_add c 3 ge

(** An instruction executing on a gated component: implicit wakeup with
    the full penalty.  Correct compiler output never triggers this. *)
let wakeup t (c : core) ci =
  close_epoch t c;
  c.powered <- c.powered lor (1 lsl ci);
  recompute_leak t c;
  c.implicit_wakeups <- c.implicit_wakeups + 1;
  record t c (fun () ->
      "IMPLICIT WAKEUP of " ^ Component.to_string (Component.of_index ci));
  c.gate_transitions <- c.gate_transitions + 1;
  charge_gating c;
  add_cycles c c.pm.Power_model.wake_latency_cycles

let[@inline always] wake_check t (c : core) ci =
  if not (is_powered c ci) then wakeup t c ci

(** Pend one instruction's compute cost: [lat] cycles and one dynamic
    operation of component [ci], after waking [ci] if it is gated. *)
let pend t (c : core) ci lat =
  wake_check t c ci;
  c.p_cycles <- c.p_cycles + lat;
  Array.unsafe_set c.e_ops ci (Array.unsafe_get c.e_ops ci + 1);
  c.instr_count <- c.instr_count + 1;
  if c.prof_on then begin
    prof_cycles c lat;
    prof_add c 0 (Array.unsafe_get c.dyn_row ci);
    c.prof_cur.Profile.sl_instrs <- c.prof_cur.Profile.sl_instrs + 1
  end

let branch_idx = Component.index Component.Branch_unit

(** A block terminator: one cycle and one branch-unit operation, then
    settle — every block ends with an exact clock. *)
let pend_term (c : core) =
  c.p_cycles <- c.p_cycles + 1;
  Array.unsafe_set c.e_ops branch_idx (Array.unsafe_get c.e_ops branch_idx + 1);
  if c.prof_on then begin
    prof_cycles c 1;
    prof_add c 0 (Array.unsafe_get c.dyn_row branch_idx)
  end;
  settle c

(** Deterministic periodic miss model for cache local stores: every
    [miss_period]-th local access pends the refill penalty and one miss.
    A period of 0 (scratchpad machines) makes this a no-op. *)
let local_access t (c : core) =
  if t.cache_miss_period > 0 then begin
    c.local_accs <- c.local_accs + 1;
    if c.local_accs >= t.cache_miss_period then begin
      c.local_accs <- 0;
      add_cycles c t.cache_miss_penalty;
      c.e_misses <- c.e_misses + 1;
      prof_add c 5 t.cache_miss_energy_nj
    end
  end

(** Add a precomputed summable-run cost to the pending counts: exactly
    what pending its instructions one at a time would add. *)
let[@inline always] add_run t (c : core) (rc : run_cost) n =
  c.p_cycles <- c.p_cycles + rc.rc_cycles;
  let comps = rc.rc_comps and ops = rc.rc_ops in
  for j = 0 to Array.length comps - 1 do
    let ci = Array.unsafe_get comps j in
    Array.unsafe_set c.e_ops ci (Array.unsafe_get c.e_ops ci + Array.unsafe_get ops j)
  done;
  c.instr_count <- c.instr_count + n;
  if rc.rc_local > 0 && t.cache_miss_period > 0 then begin
    let a = c.local_accs + rc.rc_local in
    let misses = a / t.cache_miss_period in
    c.local_accs <- a - (misses * t.cache_miss_period);
    c.p_cycles <- c.p_cycles + (misses * t.cache_miss_penalty);
    c.e_misses <- c.e_misses + misses
  end

(** One-word shared-memory bus transaction (loads, stores, faa): wait
    for the bus, hold it for the transfer, then pay the access latency
    of the tier the symbol lives in off the bus.  A far-tier access also
    pays the tier's per-access energy (Communication). *)
let bus_access t (c : core) ~far =
  (* armed only by fault-injection specs: a transient bus/memory fault *)
  if t.faults_armed then
    Lp_util.Fault.check Lp_util.Fault.Sim_bus ~key:"bus";
  let start = fmax c.clk.time (Array.unsafe_get t.bus_free 0) in
  c.bus_txns <- c.bus_txns + 1;
  c.bus_words <- c.bus_words + 1;
  c.clk.bus_wait_ns <- c.clk.bus_wait_ns +. (start -. c.clk.time);
  if c.prof_on then begin
    let s = c.prof_cur in
    s.Profile.sl_bus_txns <- s.Profile.sl_bus_txns + 1;
    s.Profile.sl_bus_words <- s.Profile.sl_bus_words + 1;
    s.Profile.sl_bus_wait_ns <-
      s.Profile.sl_bus_wait_ns +. (start -. c.clk.time);
    prof_add c 5 t.bus_word_energy_nj
  end;
  Array.unsafe_set t.bus_free 0 (start +. t.bus_txn1_ns);
  let finish =
    start +. t.bus_txn1_ns +. if far then t.far_extra_ns else t.shared_extra_ns
  in
  advance c (finish -. c.clk.time) ~idle:false;
  c.e_words <- c.e_words + 1;
  if far then begin
    c.e_far <- c.e_far + 1;
    prof_add c 5 t.far_energy_nj
  end

(* channels ride dedicated core-to-core mailbox links (as on PAC-style
   MPSoCs), so transfers pay a fixed link latency without occupying the
   shared bus *)
let complete_send t (sender : core) chan_id v =
  let ch = t.chans.(chan_id) in
  let m = t.machine in
  let link_ns =
    nominal_ns t (m.Machine.bus_latency_cycles + m.Machine.bus_word_cycles)
  in
  advance sender link_ns ~idle:false;
  sender.e_words <- sender.e_words + 1;
  (* a sender unblocked by [unblock_pass] still points at its Send slot,
     so the deferred transfer energy attributes correctly *)
  prof_add sender 5 t.bus_word_energy_nj;
  Queue.push (v, sender.clk.time) ch.queue;
  ch.total_msgs <- ch.total_msgs + 1;
  (* a blocked receiver may now have data *)
  t.sched_event <- true;
  t.unblock_dirty <- true

let barrier_participants t = Array.length t.cores

let release_barrier t bid =
  let b = t.barriers.(bid) in
  if List.length b.arrived = barrier_participants t then begin
    let tmax =
      List.fold_left (fun acc (_, tm) -> Float.max acc tm) 0.0 b.arrived
    in
    let release = tmax +. nominal_ns t t.machine.Machine.bus_latency_cycles in
    List.iter
      (fun (cid, _) ->
        let c = t.cores.(cid) in
        resume_at c release;
        c.status <- Ready)
      b.arrived;
    b.arrived <- [];
    (* every participant's schedulability just changed *)
    t.sched_event <- true;
    t.unblock_dirty <- true
  end

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let runtime_err fmt = Format.kasprintf (fun s -> raise (Value.Runtime_error s)) fmt

let mem_array t (fr : frame) (s : Ir.sym) : Value.t array =
  match s.Ir.sym_space with
  | Ir.Shared | Ir.Rom -> (
    match Hashtbl.find_opt t.shared s.Ir.sym_name with
    | Some a -> a
    | None -> runtime_err "unknown global %s" s.Ir.sym_name)
  | Ir.Frame -> (
    match Hashtbl.find_opt fr.dfunc.Predecode.df_frame_idx s.Ir.sym_name with
    | Some k -> fr.farrs.(k)
    | None -> runtime_err "unknown frame array %s" s.Ir.sym_name)

let mem_read t fr s idx =
  let a = mem_array t fr s in
  if idx < 0 || idx >= Array.length a then
    runtime_err "out-of-bounds read %s[%d] (len %d) in %s" (Ir.sym_to_string s)
      idx (Array.length a) fr.func.Prog.fname;
  a.(idx)

let mem_write t fr s idx v =
  let a = mem_array t fr s in
  if idx < 0 || idx >= Array.length a then
    runtime_err "out-of-bounds write %s[%d] (len %d) in %s" (Ir.sym_to_string s)
      idx (Array.length a) fr.func.Prog.fname;
  a.(idx) <- v

(* ------------------------------------------------------------------ *)
(* Instruction costs and effects shared by both steppers               *)
(* ------------------------------------------------------------------ *)

(** Cycles of a local-store (frame/ROM) load or store. *)
let local_latency t = 1 + Machine.spm_latency_cycles t.machine

(** The cost of a summable instruction: its cycle latency, and whether
    it is a local-store access. *)
let summable_cost t (di : Predecode.dinstr) =
  match di.Predecode.di_instr.Ir.idesc with
  | Ir.Load _ | Ir.Store _ -> (local_latency t, true)
  | _ -> (di.Predecode.di_latency, false)

(** A shared-memory instruction's cost: pend and settle its own cycles,
    then one bus transaction. *)
let shared_op t (c : core) ci lat ~far =
  pend t c ci lat;
  settle c;
  bus_access t c ~far

let exec_pg_off t (c : core) ci comps =
  wake_check t c ci;
  add_cycles c 1;
  retire c;
  close_epoch t c;
  record t c (fun () -> "pg_off " ^ Component.Set.to_string comps);
  let any = ref false in
  Component.Set.iter
    (fun comp ->
      let k = Component.index comp in
      if is_powered c k then begin
        c.powered <- c.powered land lnot (1 lsl k);
        any := true;
        c.gate_transitions <- c.gate_transitions + 1;
        charge_gating c
      end)
    comps;
  if !any then recompute_leak t c

let exec_pg_on t (c : core) ci comps =
  wake_check t c ci;
  close_epoch t c;
  record t c (fun () -> "pg_on " ^ Component.Set.to_string comps);
  let any = ref false in
  Component.Set.iter
    (fun comp ->
      let k = Component.index comp in
      if not (is_powered c k) then begin
        c.powered <- c.powered lor (1 lsl k);
        any := true;
        c.gate_transitions <- c.gate_transitions + 1;
        charge_gating c
      end)
    comps;
  if !any then recompute_leak t c;
  (* components wake in parallel: one wake latency (this class's) *)
  add_cycles c (if !any then 1 + c.pm.Power_model.wake_latency_cycles else 1);
  retire c;
  settle c

(* The ladder belongs to the executing core's class; an absent level
   raises [Power_model.point]'s error before any cost is paid. *)
let exec_dvfs t (c : core) ci level =
  wake_check t c ci;
  let pm = c.pm in
  let target = Power_model.point pm level in
  if target.Operating_point.level <> c.point.Operating_point.level then begin
    (* the transition itself runs at the old point *)
    add_cycles c pm.Power_model.dvfs_latency_cycles;
    retire c;
    close_epoch t c;
    let de = pm.Power_model.dvfs_energy_nj in
    Energy_ledger.charge c.ledger ~category:Energy_ledger.Dvfs_overhead de;
    prof_add c 4 de;
    c.point <- target;
    refresh_point_caches t c;
    recompute_leak t c;
    c.dvfs_transitions <- c.dvfs_transitions + 1;
    record t c (fun () -> "dvfs -> " ^ Operating_point.to_string target)
  end
  else begin
    add_cycles c 1;
    retire c;
    settle c
  end

let exec_send t (c : core) ci chan_id v =
  pend t c ci t.machine.Machine.channel_setup_cycles;
  settle c;
  let ch = t.chans.(chan_id) in
  if Queue.length ch.queue >= ch.cap then begin
    c.send_blocks <- c.send_blocks + 1;
    record t c (fun () -> Printf.sprintf "blocked sending on ch%d" chan_id);
    Queue.push c.id ch.waiting_senders;
    c.status <- Blocked_send (chan_id, v);
    t.unblock_dirty <- true
  end
  else complete_send t c chan_id v

let exec_recv t (c : core) (fr : frame) ci d chan_id ty =
  pend t c ci t.machine.Machine.channel_setup_cycles;
  settle c;
  let ch = t.chans.(chan_id) in
  if Queue.is_empty ch.queue then begin
    c.recv_blocks <- c.recv_blocks + 1;
    record t c (fun () -> Printf.sprintf "blocked receiving on ch%d" chan_id);
    c.status <- Blocked_recv (chan_id, d, ty);
    t.unblock_dirty <- true
  end
  else begin
    let (v, ready) = Queue.pop ch.queue in
    (* a slot freed: a blocked sender may now complete *)
    t.sched_event <- true;
    t.unblock_dirty <- true;
    resume_at c ready;
    ch.last_pop <- fmax ch.last_pop c.clk.time;
    (match (ty, v) with
    | (Ir.I, Value.Vint _) | (Ir.F, Value.Vfloat _) -> ()
    | _ -> runtime_err "channel %d type mismatch" chan_id);
    fr.regs.(d) <- v
  end

let exec_barrier t (c : core) ci bid =
  pend t c ci 1;
  settle c;
  let b = t.barriers.(bid) in
  record t c (fun () -> Printf.sprintf "arrived at barrier %d" bid);
  b.arrived <- (c.id, c.clk.time) :: b.arrived;
  c.status <- Blocked_barrier bid;
  release_barrier t bid

(** Return from the current frame (its terminator already paid): halt
    the core on the last frame, else hand [v] to the caller. *)
let exec_ret t (c : core) v =
  match c.stack with
  | [] -> runtime_err "return with empty stack"
  | _ :: [] ->
    record t c (fun () ->
        "halt"
        ^
        match v with
        | Some value -> " -> " ^ Value.to_string value
        | None -> "");
    c.status <- Halted v;
    t.live_cores <- t.live_cores - 1
  | _ :: (caller :: _ as rest) ->
    c.stack <- rest;
    (match (caller.pending_dst, v) with
    | (Some d, Some value) -> caller.regs.(d) <- value
    | (Some _, None) -> runtime_err "void return into a register"
    | (None, _) -> ());
    caller.pending_dst <- None

(* ------------------------------------------------------------------ *)
(* Instruction execution (interpretive mode)                           *)
(* ------------------------------------------------------------------ *)

let eval (fr : frame) = function
  | Ir.Reg r -> fr.regs.(r)
  | Ir.Imm c -> Value.of_const c

let setr (fr : frame) r v = fr.regs.(r) <- v

let is_far t (s : Ir.sym) = Hashtbl.mem t.far_syms s.Ir.sym_name

(** Execute the terminator of the current block. *)
let exec_term t (c : core) (fr : frame) (term : Ir.term) =
  pend_term c;
  match term with
  | Ir.Jmp l ->
    fr.block <- l;
    fr.idx <- 0
  | Ir.Br (cond, l1, l2) ->
    fr.block <- (if Value.is_true (eval fr cond) then l1 else l2);
    fr.idx <- 0
  | Ir.Ret v_opt -> exec_ret t c (Option.map (eval fr) v_opt)

let exec_instr t (c : core) (fr : frame) (di : Predecode.dinstr) =
  let ci = di.Predecode.di_comp_idx in
  let lat = di.Predecode.di_latency in
  match di.Predecode.di_instr.Ir.idesc with
  | Ir.Const (d, cst) ->
    pend t c ci lat;
    setr fr d (Value.of_const cst)
  | Ir.Move (d, a) ->
    pend t c ci lat;
    setr fr d (eval fr a)
  | Ir.Binop (op, d, a, b) ->
    pend t c ci lat;
    setr fr d (Value.binop op (eval fr a) (eval fr b))
  | Ir.Unop (op, d, a) ->
    pend t c ci lat;
    setr fr d (Value.unop op (eval fr a))
  | Ir.Mac (d, a, b, cc) ->
    pend t c ci lat;
    setr fr d (Value.mac (eval fr a) (eval fr b) (eval fr cc))
  | Ir.Load (d, s, idx) ->
    let idx = Value.to_int (eval fr idx) in
    (match s.Ir.sym_space with
    | Ir.Shared -> shared_op t c ci lat ~far:(is_far t s)
    | Ir.Rom | Ir.Frame ->
      pend t c ci (local_latency t);
      local_access t c);
    setr fr d (mem_read t fr s idx)
  | Ir.Store (s, idx, v) ->
    let idx = Value.to_int (eval fr idx) in
    let v = eval fr v in
    (match s.Ir.sym_space with
    | Ir.Shared -> shared_op t c ci lat ~far:(is_far t s)
    | Ir.Rom | Ir.Frame ->
      pend t c ci (local_latency t);
      local_access t c);
    mem_write t fr s idx v
  | Ir.Faa (d, s, amount) ->
    let amount = Value.to_int (eval fr amount) in
    shared_op t c ci lat ~far:(is_far t s);
    let old = Value.to_int (mem_read t fr s 0) in
    mem_write t fr s 0 (Value.Vint (Value.wrap32 (old + amount)));
    setr fr d (Value.Vint old)
  | Ir.Call (dst, callee, args) -> (
    pend t c ci lat;
    settle c;
    match Hashtbl.find_opt t.fsyms callee with
    | None -> runtime_err "call to unknown function %s" callee
    | Some cf ->
      let fe = cf.cf_fe in
      let new_fr = make_frame c cf in
      let nparams = Array.length fe.fe_params in
      let bound =
        List.fold_left
          (fun k arg ->
            if k >= nparams then runtime_err "too many arguments to %s" callee;
            new_fr.regs.(fe.fe_params.(k)) <- eval fr arg;
            k + 1)
          0 args
      in
      if bound <> nparams then runtime_err "arity mismatch calling %s" callee;
      fr.pending_dst <- dst;
      c.stack <- new_fr :: c.stack)
  | Ir.Pg_off comps -> exec_pg_off t c ci comps
  | Ir.Pg_on comps -> exec_pg_on t c ci comps
  | Ir.Dvfs level -> exec_dvfs t c ci level
  | Ir.Send (chan_id, v) -> exec_send t c ci chan_id (eval fr v)
  | Ir.Recv (d, chan_id, ty) -> exec_recv t c fr ci d chan_id ty
  | Ir.Barrier bid -> exec_barrier t c ci bid

let missing_block_err l fname =
  invalid_arg (Printf.sprintf "Prog.block: no L%d in %s" l fname)

let fetch_dblock (fr : frame) l : Predecode.dblock =
  let blocks = fr.dfunc.Predecode.df_blocks in
  if l < 0 || l >= Array.length blocks then
    missing_block_err l fr.func.Prog.fname
  else
    match blocks.(l) with
    | Some db -> db
    | None -> missing_block_err l fr.func.Prog.fname

(** Execute one step (instruction or terminator) on a ready core —
    interpretive mode. *)
let step_interp t (c : core) =
  match c.stack with
  | [] -> runtime_err "core %d has empty stack" c.id
  | fr :: _ ->
    if fr.dbid <> fr.block then begin
      fr.dblk <- fetch_dblock fr fr.block;
      fr.dbid <- fr.block
    end;
    let db = fr.dblk in
    let instrs = db.Predecode.db_instrs in
    let i = fr.idx in
    if i < Array.length instrs then begin
      let di = instrs.(i) in
      fr.idx <- i + 1;
      if c.prof_on then
        c.prof_cur <-
          Profile.slot c.prof fr.func.Prog.fname
            di.Predecode.di_instr.Ir.loc.Ir.line;
      exec_instr t c fr di;
      (* the last instruction of a summable run settles it when another
         instruction follows (a terminator settles by itself) *)
      if db.Predecode.db_runs.(i) = 1 && i + 1 < Array.length instrs then
        settle c
    end
    else begin
      if c.prof_on then begin
        (* a terminator attributes to the line of the last instruction
           of its block (0 for empty blocks) — same rule the compiled
           mode bakes in at compile time *)
        let n = Array.length instrs in
        let line =
          if n = 0 then 0
          else instrs.(n - 1).Predecode.di_instr.Ir.loc.Ir.line
        in
        c.prof_cur <- Profile.slot c.prof fr.func.Prog.fname line
      end;
      exec_term t c fr db.Predecode.db_term
    end

(* ------------------------------------------------------------------ *)
(* Closure compilation (compiled mode)                                 *)
(* ------------------------------------------------------------------ *)

(* The compiled stepper executes [cb_instrs.(idx) frame], or for a whole
   summable run, one [add_run] plus [cb_vals.(idx) frame] per
   instruction.  Everything that is a pure function of the IR and the
   machine is resolved ahead of time: operand fetches, memory symbols,
   call targets and cycle costs. *)

(** Is it [c]'s turn to execute a {e globally-visible} instruction —
    one that touches state other cores can observe (shared memory, the
    bus, channels, barriers)?  Such instructions must execute in the
    exact (local time, core id) order of the per-step reference
    scheduler.  Core-local instructions commute with other cores'
    work, so batches run through them freely (when tracing is off) and
    only the visible ones re-check the race against the runner-up. *)
let[@inline always] visible_turn t (c : core) =
  let oi = t.batch_other in
  oi < 0
  ||
  let o = Array.unsafe_get t.cores oi in
  c.clk.time < o.clk.time || (c.clk.time = o.clk.time && c.id < o.id)

(** Not this core's turn: replay the instruction when re-picked.  The
    attempt is not a step, or step counts would diverge from the
    per-step reference. *)
let yield_turn t (fr : frame) =
  fr.idx <- fr.idx - 1;
  t.steps <- t.steps - 1;
  t.sched_event <- true

(* Register indices come out of the function's [reg_gen], and frames
   size [regs] from the same generator's high-water mark, so every
   compiled register access is in bounds by construction — the
   compiled closures use unchecked accesses. *)
let[@inline always] reg (fr : frame) r = Array.unsafe_get fr.regs r
let[@inline always] set (fr : frame) r v = Array.unsafe_set fr.regs r v

let compile_operand (o : Ir.operand) : frame -> Value.t =
  match o with
  | Ir.Reg r -> fun fr -> reg fr r
  | Ir.Imm cst ->
    let v = Value.of_const cst in
    fun _ -> v

(** Integer-operand variant for memory indices and channel pay. The
    int is extracted once per execution, with the same runtime error
    as [Value.to_int] at the same point, but without going through a
    [Value.t]-returning closure first. *)
let compile_int_operand (o : Ir.operand) : frame -> int =
  match o with
  | Ir.Reg r -> fun fr -> Value.to_int (reg fr r)
  | Ir.Imm cst ->
    let n = Value.to_int (Value.of_const cst) in
    fun _ -> n

(** Resolve a memory symbol: shared/rom globals bind to their backing
    array outright; frame symbols bind to a position in the frame's
    array-of-arrays.  Unknown names compile to the interpreter's runtime
    error, raised at the same execution point. *)
let compile_sym t (df : Predecode.dfunc) (s : Ir.sym) : frame -> Value.t array =
  match s.Ir.sym_space with
  | Ir.Shared | Ir.Rom -> (
    match Hashtbl.find_opt t.shared s.Ir.sym_name with
    | Some a -> fun _ -> a
    | None -> fun _ -> runtime_err "unknown global %s" s.Ir.sym_name)
  | Ir.Frame -> (
    match Hashtbl.find_opt df.Predecode.df_frame_idx s.Ir.sym_name with
    | Some k -> fun fr -> fr.farrs.(k)
    | None -> fun _ -> runtime_err "unknown frame array %s" s.Ir.sym_name)

(** Compile one instruction.  A summable instruction compiles to its
    value semantics only (its cost is pended by the caller, see
    {!compile_cfun}); every other instruction compiles to a complete
    closure that pays its own cost. *)
let compile_instr t (df : Predecode.dfunc) (di : Predecode.dinstr) :
    frame -> unit =
  let ci = di.Predecode.di_comp_idx in
  let lat = di.Predecode.di_latency in
  match di.Predecode.di_instr.Ir.idesc with
  | Ir.Const (d, cst) ->
    let v = Value.of_const cst in
    fun fr -> set fr d v
  | Ir.Move (d, a) ->
    let geta = compile_operand a in
    fun fr -> set fr d (geta fr)
  | Ir.Binop (op, d, Ir.Reg ra, Ir.Reg rb) -> (
    (* the register-register shape reads the registers directly, and
       frequent opcodes call their arithmetic directly; the rest go
       through the [binop_fn] closure, a generic 2-ary application *)
    match op with
    | Ir.Add -> fun fr -> set fr d (Value.v_add (reg fr ra) (reg fr rb))
    | Ir.Sub -> fun fr -> set fr d (Value.v_sub (reg fr ra) (reg fr rb))
    | Ir.Mul -> fun fr -> set fr d (Value.v_mul (reg fr ra) (reg fr rb))
    | Ir.Lt -> fun fr -> set fr d (Value.v_lt (reg fr ra) (reg fr rb))
    | Ir.Le -> fun fr -> set fr d (Value.v_le (reg fr ra) (reg fr rb))
    | Ir.Gt -> fun fr -> set fr d (Value.v_gt (reg fr ra) (reg fr rb))
    | Ir.Ge -> fun fr -> set fr d (Value.v_ge (reg fr ra) (reg fr rb))
    | Ir.Eq -> fun fr -> set fr d (Value.v_eq (reg fr ra) (reg fr rb))
    | Ir.Ne -> fun fr -> set fr d (Value.v_ne (reg fr ra) (reg fr rb))
    | Ir.Fadd -> fun fr -> set fr d (Value.v_fadd (reg fr ra) (reg fr rb))
    | Ir.Fsub -> fun fr -> set fr d (Value.v_fsub (reg fr ra) (reg fr rb))
    | Ir.Fmul -> fun fr -> set fr d (Value.v_fmul (reg fr ra) (reg fr rb))
    | _ ->
      let f = Value.binop_fn op in
      fun fr -> set fr d (f (reg fr ra) (reg fr rb)))
  | Ir.Binop (op, d, Ir.Reg ra, Ir.Imm cb) -> (
    let vb = Value.of_const cb in
    match op with
    | Ir.Add -> fun fr -> set fr d (Value.v_add (reg fr ra) vb)
    | Ir.Sub -> fun fr -> set fr d (Value.v_sub (reg fr ra) vb)
    | Ir.Mul -> fun fr -> set fr d (Value.v_mul (reg fr ra) vb)
    | Ir.Lt -> fun fr -> set fr d (Value.v_lt (reg fr ra) vb)
    | Ir.Le -> fun fr -> set fr d (Value.v_le (reg fr ra) vb)
    | Ir.Gt -> fun fr -> set fr d (Value.v_gt (reg fr ra) vb)
    | Ir.Ge -> fun fr -> set fr d (Value.v_ge (reg fr ra) vb)
    | Ir.Eq -> fun fr -> set fr d (Value.v_eq (reg fr ra) vb)
    | Ir.Ne -> fun fr -> set fr d (Value.v_ne (reg fr ra) vb)
    | Ir.Fadd -> fun fr -> set fr d (Value.v_fadd (reg fr ra) vb)
    | Ir.Fsub -> fun fr -> set fr d (Value.v_fsub (reg fr ra) vb)
    | Ir.Fmul -> fun fr -> set fr d (Value.v_fmul (reg fr ra) vb)
    | _ ->
      let f = Value.binop_fn op in
      fun fr -> set fr d (f (reg fr ra) vb))
  | Ir.Binop (op, d, a, b) ->
    let f = Value.binop_fn op in
    let geta = compile_operand a and getb = compile_operand b in
    fun fr -> set fr d (f (geta fr) (getb fr))
  | Ir.Unop (op, d, Ir.Reg ra) ->
    let f = Value.unop_fn op in
    fun fr -> set fr d (f (reg fr ra))
  | Ir.Unop (op, d, a) ->
    let f = Value.unop_fn op in
    let geta = compile_operand a in
    fun fr -> set fr d (f (geta fr))
  | Ir.Mac (d, Ir.Reg ra, Ir.Reg rb, Ir.Reg rc) ->
    (* the kernel-loop shape: three direct register reads *)
    fun fr -> set fr d (Value.mac (reg fr ra) (reg fr rb) (reg fr rc))
  | Ir.Mac (d, a, b, cc) ->
    let geta = compile_operand a
    and getb = compile_operand b
    and getc = compile_operand cc in
    fun fr -> set fr d (Value.mac (geta fr) (getb fr) (getc fr))
  | Ir.Load (d, s, idxo) -> (
    let geti = compile_int_operand idxo in
    let geta = compile_sym t df s in
    let sstr = Ir.sym_to_string s in
    let read fr =
      let idx = geti fr in
      let a = geta fr in
      if idx < 0 || idx >= Array.length a then
        runtime_err "out-of-bounds read %s[%d] (len %d) in %s" sstr idx
          (Array.length a) fr.func.Prog.fname;
      set fr d (Array.unsafe_get a idx)
    in
    match s.Ir.sym_space with
    | Ir.Shared ->
      let far = is_far t s in
      fun fr ->
        let c = fr.fcore in
        if not (visible_turn t c) then yield_turn t fr
        else begin
          shared_op t c ci lat ~far;
          read fr
        end
    | Ir.Rom | Ir.Frame -> read)
  | Ir.Store (s, idxo, vo) -> (
    let geti = compile_int_operand idxo in
    let getv = compile_operand vo in
    let geta = compile_sym t df s in
    let sstr = Ir.sym_to_string s in
    let write fr =
      let idx = geti fr in
      let v = getv fr in
      let a = geta fr in
      if idx < 0 || idx >= Array.length a then
        runtime_err "out-of-bounds write %s[%d] (len %d) in %s" sstr idx
          (Array.length a) fr.func.Prog.fname;
      Array.unsafe_set a idx v
    in
    match s.Ir.sym_space with
    | Ir.Shared ->
      let far = is_far t s in
      fun fr ->
        let c = fr.fcore in
        if not (visible_turn t c) then yield_turn t fr
        else begin
          shared_op t c ci lat ~far;
          write fr
        end
    | Ir.Rom | Ir.Frame -> write)
  | Ir.Faa (d, s, amt) ->
    let getv = compile_operand amt in
    let geta = compile_sym t df s in
    let sstr = Ir.sym_to_string s in
    let far = is_far t s in
    fun fr ->
      let c = fr.fcore in
      if not (visible_turn t c) then yield_turn t fr
      else begin
        let amount = Value.to_int (getv fr) in
        shared_op t c ci lat ~far;
        let a = geta fr in
        if Array.length a = 0 then
          runtime_err "out-of-bounds read %s[%d] (len %d) in %s" sstr 0 0
            fr.func.Prog.fname;
        let old = Value.to_int a.(0) in
        a.(0) <- Value.Vint (Value.wrap32 (old + amount));
        set fr d (Value.Vint old)
      end
  | Ir.Call (dst, callee, args) -> (
    match Hashtbl.find_opt t.fsyms callee with
    | None ->
      fun fr ->
        let c = fr.fcore in
        pend t c ci lat;
        settle c;
        runtime_err "call to unknown function %s" callee
    | Some target_cf ->
      let params = target_cf.cf_fe.fe_params in
      let nparams = Array.length params in
      let nargs = List.length args in
      let getvs = Array.of_list (List.map compile_operand args) in
      let nbind = min nargs nparams in
      fun fr ->
        let c = fr.fcore in
        pend t c ci lat;
        settle c;
        let new_fr = make_frame c target_cf in
        for k = 0 to nbind - 1 do
          new_fr.regs.(params.(k)) <- getvs.(k) fr
        done;
        if nargs > nparams then runtime_err "too many arguments to %s" callee;
        if nbind <> nparams then runtime_err "arity mismatch calling %s" callee;
        fr.pending_dst <- dst;
        c.stack <- new_fr :: c.stack)
  | Ir.Pg_off comps -> fun fr -> exec_pg_off t fr.fcore ci comps
  | Ir.Pg_on comps -> fun fr -> exec_pg_on t fr.fcore ci comps
  | Ir.Dvfs level -> fun fr -> exec_dvfs t fr.fcore ci level
  | Ir.Send (chan_id, vo) ->
    let getv = compile_operand vo in
    fun fr ->
      let c = fr.fcore in
      if not (visible_turn t c) then yield_turn t fr
      else exec_send t c ci chan_id (getv fr)
  | Ir.Recv (d, chan_id, ty) ->
    fun fr ->
      let c = fr.fcore in
      if not (visible_turn t c) then yield_turn t fr
      else exec_recv t c fr ci d chan_id ty
  | Ir.Barrier bid ->
    fun fr ->
      let c = fr.fcore in
      if not (visible_turn t c) then yield_turn t fr
      else exec_barrier t c ci bid

(** A block that raises the [Prog.block] error when entered — holes in
    the label space behave exactly like the undecoded interpreter. *)
let poison_block l fname =
  let enter _ = missing_block_err l fname in
  { dummy_cblock with cb_term = enter; cb_goto = enter }

(** Compile a branch target.  Captures the (stable) per-function block
    array, so filling order does not matter. *)
let compile_goto (cf : cfun) l : frame -> unit =
  let blocks = cf.cf_blocks in
  if l >= 0 && l < Array.length blocks then begin
    fun fr ->
      fr.block <- l;
      fr.idx <- 0;
      fr.cblk <- blocks.(l)
  end
  else begin
    let pb = poison_block l cf.cf_fe.fe_func.Prog.fname in
    fun fr ->
      fr.block <- l;
      fr.idx <- 0;
      fr.cblk <- pb
  end

(** Compile a terminator into its action alone and into the complete
    step (its cost, then the action). *)
let compile_term t (cf : cfun) (term : Ir.term) :
    (frame -> unit) * (frame -> unit) =
  let act : frame -> unit =
    match term with
    | Ir.Jmp l -> compile_goto cf l
    | Ir.Br (cond, l1, l2) ->
      let getc = compile_operand cond in
      let go1 = compile_goto cf l1 and go2 = compile_goto cf l2 in
      fun fr -> if Value.is_true (getc fr) then go1 fr else go2 fr
    | Ir.Ret v_opt ->
      let getv = Option.map compile_operand v_opt in
      fun fr ->
        exec_ret t fr.fcore
          (match getv with Some g -> Some (g fr) | None -> None)
  in
  ( (fun fr ->
      pend_term fr.fcore;
      act fr),
    act )

let no_cost =
  { rc_cycles = 0; rc_need = 0; rc_comps = [||]; rc_ops = [||]; rc_local = 0;
    rc_to_end = false }

(* what {!pend_term} pends *)
let term_cost =
  { no_cost with rc_cycles = 1; rc_comps = [| branch_idx |]; rc_ops = [| 1 |];
    rc_to_end = true }

(** The cost of every summable run suffix of [db], built back to front:
    each position adds its own instruction's cost to the suffix after
    it, and the last instruction of the block starts from the
    terminator's cost. *)
let run_costs t (db : Predecode.dblock) =
  let instrs = db.Predecode.db_instrs and runs = db.Predecode.db_runs in
  let n = Array.length instrs in
  let costs = Array.make n no_cost in
  for i = n - 1 downto 0 do
    if runs.(i) > 0 then begin
      let di = instrs.(i) in
      let (lat, local) = summable_cost t di in
      let ci = di.Predecode.di_comp_idx in
      let next =
        if runs.(i) > 1 then costs.(i + 1)
        else if i = n - 1 then term_cost
        else no_cost
      in
      let (rc_comps, rc_ops) =
        let comps = next.rc_comps in
        match Array.find_index (fun k -> k = ci) comps with
        | Some j ->
          let ops = Array.copy next.rc_ops in
          ops.(j) <- ops.(j) + 1;
          (comps, ops)
        | None -> (Array.append comps [| ci |], Array.append next.rc_ops [| 1 |])
      in
      costs.(i) <-
        {
          rc_cycles = next.rc_cycles + lat;
          rc_need = next.rc_need lor (1 lsl ci);
          rc_comps;
          rc_ops;
          rc_local = (next.rc_local + if local then 1 else 0);
          rc_to_end = next.rc_to_end;
        }
    end
  done;
  costs

(** Fill [cf]'s block array with compiled blocks.  [cf_blocks] must
    already be allocated (phase 1) so targets across functions resolve. *)
let compile_cfun t (cf : cfun) =
  let df = cf.cf_fe.fe_dfunc in
  let fname = cf.cf_fe.fe_func.Prog.fname in
  (* Profiling wrapper: compiled closures are shared across cores, so
     the slot cannot be captured directly — instead each wrapped
     closure captures one slot per core (resolved eagerly here, at
     compile time) and retargets the executing core's [prof_cur] before
     running the original closure.  Never-executed instructions leave
     their eagerly-created slots all-zero; {!Profile.collect} drops
     those, so the merged profile matches the interpreter's lazily
     created slot set exactly. *)
  let wrap line (g : frame -> unit) : frame -> unit =
    if not t.opts.profile then g
    else begin
      let slots =
        Array.map (fun (c : core) -> Profile.slot c.prof fname line) t.cores
      in
      fun fr ->
        let c = fr.fcore in
        c.prof_cur <- Array.unsafe_get slots c.id;
        g fr
    end
  in
  Array.iteri
    (fun l dbo ->
      match dbo with
      | None -> ()  (* stays poison *)
      | Some (db : Predecode.dblock) ->
        let instrs = db.Predecode.db_instrs in
        let runs = db.Predecode.db_runs in
        let n = Array.length instrs in
        let cb_vals = Array.map (compile_instr t df) instrs in
        (* per-instruction closures: a summable instruction pends its
           own cost and settles when it ends its run — exactly the
           interpretive stepper's sequence *)
        let cb_instrs =
          Array.mapi
            (fun i (di : Predecode.dinstr) ->
              let value = cb_vals.(i) in
              let g =
                if runs.(i) = 0 then value
                else begin
                  let (lat, local) = summable_cost t di in
                  let ci = di.Predecode.di_comp_idx in
                  let settle_after = runs.(i) = 1 && i + 1 < n in
                  fun fr ->
                    let c = fr.fcore in
                    pend t c ci lat;
                    if local then local_access t c;
                    value fr;
                    if settle_after then settle c
                end
              in
              wrap di.Predecode.di_instr.Ir.loc.Ir.line g)
            instrs
        in
        let term_line =
          if n = 0 then 0 else instrs.(n - 1).Predecode.di_instr.Ir.loc.Ir.line
        in
        let (term, goto) = compile_term t cf db.Predecode.db_term in
        cf.cf_blocks.(l) <-
          {
            cb_instrs;
            cb_vals;
            cb_n = n;
            cb_runs = runs;
            cb_cost = run_costs t db;
            cb_term = wrap term_line term;
            cb_goto = goto;
          })
    df.Predecode.df_blocks

(* ------------------------------------------------------------------ *)
(* Construction (continued): ties decode + compilation together        *)
(* ------------------------------------------------------------------ *)

let decode_cache :
    (Prog.t * ((string, Predecode.dfunc) Hashtbl.t * int)) option ref =
  ref None

let decode_prog_cached prog =
  match !decode_cache with
  | Some (p, res) when p == prog -> res
  | _ ->
    let res = Predecode.decode_prog prog in
    decode_cache := Some (prog, res);
    res

let create ?(opts = default_options) ~(machine : Machine.t) (prog : Prog.t) : t =
  let entries = Prog.entries prog in
  if List.length entries > Machine.n_cores machine then
    invalid_arg
      (Printf.sprintf "Sim.create: program needs %d cores, machine has %d"
         (List.length entries) (Machine.n_cores machine));
  let entry_funcs = List.map (Prog.func_exn prog) entries in
  (* class 0's nominal point is the machine reference clock *)
  let nominal = Power_model.nominal (Machine.ref_power machine) in
  let cores =
    Array.of_list
      (List.mapi
         (fun id _entry ->
           let ledger = Energy_ledger.create () in
           let prof = Profile.create_tab () in
           let cls = Machine.class_index_of_core machine id in
           let cc = machine.Machine.classes.(cls) in
           {
             id;
             cls;
             pm = cc.Machine.cc_power;
             perf_scale = cc.Machine.cc_perf_scale;
             stack = [];
             status = Ready;
             clk =
               {
                 time = 0.0;
                 busy_ns = 0.0;
                 bus_wait_ns = 0.0;
                 leak_mw = 0.0;
                 ns_per_cycle = 0.0;
                 active_ns = 0.0;
                 idle_ns = 0.0;
               };
             (* each core starts at its own class's nominal point *)
             point = Power_model.nominal cc.Machine.cc_power;
             powered = (1 lsl Component.count) - 1;
             ledger;
             dyn_row = Array.make Component.count 0.0;
             p_cycles = 0;
             e_ops = Array.make Component.count 0;
             e_misses = 0;
             e_words = 0;
             e_far = 0;
             instr_count = 0;
             implicit_wakeups = 0;
             gate_transitions = 0;
             dvfs_transitions = 0;
             send_blocks = 0;
             recv_blocks = 0;
             cycles = 0;
             bus_txns = 0;
             bus_words = 0;
             local_accs = 0;
             prof_on = opts.profile;
             prof;
             (* nothing charges before the first step repoints this *)
             prof_cur = Profile.slot prof "(idle)" 0;
           })
         entries)
  in
  let (n_channels, n_barriers, cap) =
    match prog.Prog.layout with
    | Prog.Sequential -> (0, 0, 0)
    | Prog.Parallel { n_channels; n_barriers; chan_capacity; _ } ->
      (n_channels, n_barriers, chan_capacity)
  in
  (* decode is likewise a pure function of the program (no machine
     state involved) and its output is immutable, so the same
     single-entry cache applies *)
  let (dfuncs, decoded_blocks) = decode_prog_cached prog in
  let fsyms = Hashtbl.create 16 in
  List.iter
    (fun (f : Prog.func) ->
      Hashtbl.replace fsyms f.Prog.fname
        {
          cf_fe =
            {
              fe_func = f;
              fe_params = Array.of_list (List.map fst f.Prog.params);
              fe_dfunc = Hashtbl.find dfuncs f.Prog.fname;
            };
          cf_blocks = [||];
        })
    (Prog.funcs prog);
  let nominal_ns_of n = Operating_point.ns_of_cycles nominal n in
  let shared = init_shared prog in
  (* place big shared arrays in the far tier (empty table when the
     machine has no far tier, keeping every access on the near path) *)
  let far_syms = Hashtbl.create 8 in
  (match machine.Machine.mem.Machine.far with
  | None -> ()
  | Some _ ->
    Hashtbl.iter
      (fun name arr ->
        if Machine.is_far machine (Array.length arr) then
          Hashtbl.replace far_syms name ())
      shared);
  let (cache_miss_period, cache_miss_penalty, cache_miss_energy_nj) =
    match machine.Machine.mem.Machine.local with
    | Machine.Scratchpad _ -> (0, 0, 0.0)
    | Machine.Cache { miss_period; miss_penalty_cycles; miss_energy_nj; _ } ->
      (miss_period, miss_penalty_cycles, miss_energy_nj)
  in
  let t =
    {
      prog;
      machine;
      opts;
      fsyms;
      decoded_blocks;
      cores;
      shared;
      chans =
        Array.init n_channels (fun _ ->
            { cap; queue = Queue.create (); waiting_senders = Queue.create ();
              total_msgs = 0; last_pop = 0.0 });
      barriers = Array.init n_barriers (fun _ -> { arrived = [] });
      bus_free = Array.make 1 0.0;
      steps = 0;
      trace = [];
      trace_len = 0;
      leak_recomputes = 0;
      sched_event = false;
      batch_other = -1;
      live_cores = Array.length cores;
      unblock_dirty = true;
      faults_armed = Lp_util.Fault.active ();
      bus_txn1_ns =
        nominal_ns_of
          (machine.Machine.bus_latency_cycles + machine.Machine.bus_word_cycles);
      shared_extra_ns =
        nominal_ns_of (Machine.shared_mem_latency_cycles machine);
      bus_word_energy_nj = machine.Machine.bus_energy_per_word_nj;
      far_syms;
      far_extra_ns =
        (match machine.Machine.mem.Machine.far with
        | None -> 0.0
        | Some far ->
          nominal_ns_of
            (Machine.shared_mem_latency_cycles machine
            + far.Machine.tier_latency_cycles));
      far_energy_nj =
        (match machine.Machine.mem.Machine.far with
        | None -> 0.0
        | Some far -> far.Machine.tier_energy_per_access_nj);
      cache_miss_period;
      cache_miss_penalty;
      cache_miss_energy_nj;
    }
  in
  if opts.predecode then begin
    (* phase 1: allocate every function's block array (poison-filled) so
       calls and branches can capture targets across mutual recursion *)
    Hashtbl.iter
      (fun _ cf ->
        let df = cf.cf_fe.fe_dfunc in
        let fname = cf.cf_fe.fe_func.Prog.fname in
        cf.cf_blocks <-
          Array.init
            (Array.length df.Predecode.df_blocks)
            (fun l -> poison_block l fname))
      fsyms;
    (* phase 2: compile blocks in place *)
    Hashtbl.iter (fun _ cf -> compile_cfun t cf) fsyms
  end;
  List.iteri
    (fun i (f : Prog.func) ->
      cores.(i).stack <- [ make_frame cores.(i) (Hashtbl.find fsyms f.Prog.fname) ])
    entry_funcs;
  Array.iter
    (fun c ->
      refresh_point_caches t c;
      recompute_leak t c)
    cores;
  t

(* ------------------------------------------------------------------ *)
(* Scheduler loop                                                      *)
(* ------------------------------------------------------------------ *)

(** Try to unblock blocked cores; true if any progress was made. *)
let unblock_pass t : bool =
  let progress = ref false in
  Array.iter
    (fun c ->
      match c.status with
      | Blocked_recv (chan_id, d, ty) ->
        let ch = t.chans.(chan_id) in
        if not (Queue.is_empty ch.queue) then begin
          let (v, ready) = Queue.pop ch.queue in
          resume_at c ready;
          ch.last_pop <- fmax ch.last_pop c.clk.time;
          (match (ty, v) with
          | (Ir.I, Value.Vint _) | (Ir.F, Value.Vfloat _) -> ()
          | _ -> runtime_err "channel %d type mismatch" chan_id);
          (match c.stack with
          | fr :: _ -> setr fr d v
          | [] -> runtime_err "blocked core with empty stack");
          c.status <- Ready;
          progress := true;
          (* a slot freed: complete one waiting sender, FIFO *)
          if not (Queue.is_empty ch.waiting_senders) then begin
            let sid = Queue.pop ch.waiting_senders in
            let s = t.cores.(sid) in
            match s.status with
            | Blocked_send (cid, sv) when cid = chan_id ->
              resume_at s ch.last_pop;
              complete_send t s chan_id sv;
              s.status <- Ready
            | _ -> runtime_err "inconsistent sender queue on channel %d" chan_id
          end
        end
      | Blocked_send (chan_id, v) ->
        let ch = t.chans.(chan_id) in
        (* possible when capacity grew available without a blocked recv *)
        if Queue.length ch.queue < ch.cap
           && (not (Queue.is_empty ch.waiting_senders))
           && Queue.peek ch.waiting_senders = c.id then begin
          ignore (Queue.pop ch.waiting_senders);
          resume_at c ch.last_pop;
          complete_send t c chan_id v;
          c.status <- Ready;
          progress := true
        end
      | Ready | Blocked_barrier _ | Halted _ -> ())
    t.cores;
  !progress

let all_halted t = t.live_cores = 0

let describe_blocked t =
  let parts =
    Array.to_list
      (Array.map
         (fun c ->
           let s =
             match c.status with
             | Ready -> "ready"
             | Blocked_send (ch, _) -> Printf.sprintf "send(ch%d)" ch
             | Blocked_recv (ch, _, _) -> Printf.sprintf "recv(ch%d)" ch
             | Blocked_barrier b -> Printf.sprintf "barrier(%d)" b
             | Halted _ -> "halted"
           in
           Printf.sprintf "core%d:%s" c.id s)
         t.cores)
  in
  String.concat " " parts

(** Batched stepping for the compiled mode: keep stepping [c] while it
    provably remains the scheduler's choice.  That holds while

    - [c] stays [Ready] (blocking or halting hands control back),
    - no {e scheduling event} has fired ([t.sched_event]: a channel
      push/pop or barrier release, which could make a blocked core
      schedulable or move another core's clock), and
    - [c]'s local time keeps it ahead of the best {e other} ready core
      under the pick rule (smallest time, ties to the lowest core id).

    Other ready cores' clocks only move when they are stepped, so the
    runner-up bound captured at pick time stays valid for the whole
    batch.  The interleaving is therefore exactly the one the per-step
    scheduler would produce; skipped [unblock_pass] calls are provably
    no-ops because every state change they react to raises
    [t.sched_event].  [t.steps] advances by a whole summable run only
    when the run fits under the step limit, and one step at a time
    otherwise, so [Step_limit_exceeded] fires after exactly the same
    step as the one-at-a-time loop. *)

(** One compiled step (instruction or terminator) of [c], counted
    against the step limit first. *)
let checked_step t (c : core) =
  t.steps <- t.steps + 1;
  if t.steps > t.opts.max_steps then raise Step_limit_exceeded;
  match c.stack with
  | [] -> runtime_err "core %d has empty stack" c.id
  | fr :: _ ->
    let cb = fr.cblk in
    if fr.idx < cb.cb_n then begin
      let f = cb.cb_instrs.(fr.idx) in
      fr.idx <- fr.idx + 1;
      f fr
    end
    else cb.cb_term fr

let run_sched_batch t (c : core) ~other_i =
  let lim = t.opts.max_steps in
  t.batch_other <- other_i;
  if other_i < 0 || t.opts.trace_limit = 0 then
    (* Aggressive batch: core-local instructions (registers, frame and
       ROM memory, power state, calls) commute with other cores' work,
       so the batch runs through them regardless of the clock race.
       Globally-visible instructions carry a compiled-in turn guard
       ({!visible_turn}) that yields back to the scheduler exactly
       when the per-step reference would have run the runner-up first,
       so shared memory, bus, channel and barrier operations still
       execute in the reference (time, id) order.  The one observable
       this reorders is the interleaving of per-core entries in the
       event trace, so with tracing on ([trace_limit > 0]) the
       conservative per-step race check below is used instead. *)
    while
      (match c.status with
      | Ready -> true
      | Blocked_send _ | Blocked_recv _ | Blocked_barrier _ | Halted _ ->
        false)
      && not t.sched_event
    do
      match c.stack with
      | [] -> runtime_err "core %d has empty stack" c.id
      | fr :: _ ->
        (* One segment per iteration: a summable run, or one checked
           step.  A summable run can neither change any of the loop
           conditions above nor hit the step limit (checked up front),
           so it executes with no per-instruction checks. *)
        let cb = fr.cblk in
        let i = fr.idx in
        (* a single-core (or far-ahead) batch can run the whole program
           without yielding to the scheduler, so the cooperative
           deadline must also be checked here — once per block entered *)
        if i = 0 then Lp_util.Deadline.check t.opts.deadline;
        let run = if i < cb.cb_n then Array.unsafe_get cb.cb_runs i else 0 in
        if run > 0 && t.steps + run < lim then begin
          let stop = i + run in
          let rc = Array.unsafe_get cb.cb_cost i in
          if c.powered land rc.rc_need = rc.rc_need && not c.prof_on then begin
            (* every component the run needs is powered, so no implicit
               wakeup can occur: its whole cost, the terminator's too
               when it reaches the end of the block, is one precomputed
               summary, and each instruction runs its value semantics
               only *)
            add_run t c rc run;
            let vals = cb.cb_vals in
            for k = i to stop - 1 do
              (* safe: [stop <= cb_n = Array.length cb_vals] *)
              (Array.unsafe_get vals k) fr
            done;
            settle c;
            if rc.rc_to_end then begin
              t.steps <- t.steps + run + 1;
              cb.cb_goto fr
            end
            else begin
              t.steps <- t.steps + run;
              fr.idx <- stop
            end
          end
          else begin
            (* a gated component or a profile: each instruction pends
               its own cost *)
            t.steps <- t.steps + run;
            let instrs = cb.cb_instrs in
            while fr.idx < stop do
              let f = Array.unsafe_get instrs fr.idx in
              fr.idx <- fr.idx + 1;
              f fr
            done
          end
        end
        else begin
          t.steps <- t.steps + 1;
          if t.steps > lim then raise Step_limit_exceeded;
          if i < cb.cb_n then begin
            fr.idx <- i + 1;
            (* safe: [cb_n = Array.length cb_instrs] by construction *)
            (Array.unsafe_get cb.cb_instrs i) fr
          end
          else cb.cb_term fr
        end
    done
  else begin
    let o = t.cores.(other_i) in
    let oid = o.id in
    while
      (match c.status with
      | Ready -> true
      | Blocked_send _ | Blocked_recv _ | Blocked_barrier _ | Halted _ ->
        false)
      && (not t.sched_event)
      && (c.clk.time < o.clk.time
         || (c.clk.time = o.clk.time && c.id < oid))
    do
      Lp_util.Deadline.check t.opts.deadline;
      checked_step t c
    done
  end

let run_loop t =
  let predecode = t.opts.predecode in
  let deadline = t.opts.deadline in
  let continue_ = ref true in
  while !continue_ do
    if all_halted t then continue_ := false
    else begin
      (* cooperative cancellation: one paced check per scheduling
         decision (compiled batches stay uninterrupted, so simulated
         state is never abandoned mid-instruction) *)
      Lp_util.Deadline.check deadline;
      (* unblock eagerly so that cores advance in (approximately) global
         virtual-time order — required for the shared-bus occupancy model
         to see transactions near-chronologically *)
      t.sched_event <- false;
      (* the pass only acts on channel-blocked cores and channel state;
         with [unblock_dirty] clear nothing relevant changed since the
         previous pass, so the compiled mode skips the provable no-op.
         The interpretive reference keeps the pass-every-step seed
         behaviour. *)
      if t.unblock_dirty || not predecode then begin
        t.unblock_dirty <- false;
        ignore (unblock_pass t)
      end;
      (* pick the ready core with the smallest local time (ties to the
         lowest id); also track the runner-up bound that lets the
         compiled mode keep stepping the pick without rescanning.  The
         scan works on array indices (core ids are their indices), so
         it allocates nothing — it runs once per scheduling decision,
         which for tightly interleaved cores means nearly every step *)
      let best_i = ref (-1) in
      let other_i = ref (-1) in
      for i = 0 to Array.length t.cores - 1 do
        let c = t.cores.(i) in
        match c.status with
        | Ready ->
          if !best_i < 0 then best_i := i
          else if c.clk.time < t.cores.(!best_i).clk.time then begin
            (* the old best was the minimum of everything seen so far,
               so it becomes the runner-up outright *)
            other_i := !best_i;
            best_i := i
          end
          else if !other_i < 0 || c.clk.time < t.cores.(!other_i).clk.time then
            other_i := i
        | Blocked_send _ | Blocked_recv _ | Blocked_barrier _ | Halted _ ->
          ()
      done;
      if !best_i < 0 then begin
        if not (unblock_pass t) then
          raise (Deadlock ("no runnable core: " ^ describe_blocked t))
      end
      else begin
        let c = t.cores.(!best_i) in
        if predecode then
          if t.sched_event then begin
            (* the unblock pass itself completed a send: another pass
               may unblock more, so single-step like the per-step
               scheduler.  [c] won the full pick scan, so a visible
               instruction needs no turn guard here *)
            t.batch_other <- -1;
            checked_step t c
          end
          else run_sched_batch t c ~other_i:!other_i
        else begin
          t.steps <- t.steps + 1;
          if t.steps > t.opts.max_steps then raise Step_limit_exceeded;
          step_interp t c
        end
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  ret : Value.t option;             (** return value of core 0 *)
  duration_ns : float;
  energy : Energy_ledger.t;         (** machine-wide, merged *)
  core_ledgers : Energy_ledger.t array;
  class_energy : (string * Energy_ledger.t) list;
      (** per-core-class breakdown, in class order; includes the unused
          cores of each class.  Singleton on homogeneous machines. *)
  shared_final : (string, Value.t array) Hashtbl.t;
  instr_total : int;
  implicit_wakeups : int;
  gate_transitions : int;
  dvfs_transitions : int;
  busy_ns : float array;
  instrs_per_core : int array;
  send_blocks : int array;
  recv_blocks : int array;
  cycles_per_core : int array;   (** compute cycles issued per core *)
  bus_txns_per_core : int array; (** shared-bus transactions per core *)
  bus_words_per_core : int array;
  bus_wait_ns_per_core : float array;  (** contention: time waiting for the bus *)
  channel_msgs : int;
  steps : int;
  events : event list;  (** oldest first; bounded by [options.trace_limit] *)
  decoded_blocks : int;   (** blocks decoded once at construction *)
  leak_recomputes : int;  (** {!recompute_leak} invocations this run *)
  predecode : bool;       (** whether the compiled stepper was active *)
  profile : Profile.t option;
      (** per-(function, line) energy attribution; [Some] exactly when
          [options.profile] was set *)
}

(** Charge leakage of machine cores not used by the program, for the whole
    run duration — each unused core by its own class's power model. *)
let charge_unused_cores t ~duration =
  let used = Array.length t.cores in
  let m = t.machine in
  let ledgers = ref [] in
  for id = used to Machine.n_cores m - 1 do
    let pm = Machine.power_of_core m id in
    let ledger = Energy_ledger.create () in
    List.iter
      (fun comp ->
        let gated = t.opts.gate_unused_cores && Component.gateable comp in
        if not gated then
          Energy_ledger.charge ledger ~category:Energy_ledger.Leakage_idle
            ~component:comp
            (pm.Power_model.leak_power_mw comp *. duration *. 1e-3))
      m.Machine.components;
    if t.opts.gate_unused_cores then
      (* the initial gating transitions of that core *)
      List.iter
        (fun comp ->
          if Component.gateable comp then
            Energy_ledger.charge ledger
              ~category:Energy_ledger.Gating_overhead
              pm.Power_model.gate_energy_nj)
        m.Machine.components;
    ledgers := ledger :: !ledgers
  done;
  List.rev !ledgers

module Obs = Lp_obs.Obs

(** Feed the recorder from a finished simulation: one simulated-time span
    per core (on {!Obs.sim_pid}, so chrome://tracing shows the machine's
    timeline next to the compiler's wall clock) and the per-core
    cycle/bus/instruction counters. *)
let observe_outcome obs t ~duration =
  if Obs.enabled obs then begin
    Array.iter
      (fun (c : core) ->
        Obs.emit_span obs ~cat:"sim-core" ~pid:Obs.sim_pid ~tid:c.id
          ~start_ns:0.0 ~dur_ns:c.clk.time
          ~args:
            [
              ("instrs", Obs.Int c.instr_count);
              ("cycles", Obs.Int c.cycles);
              ("bus_txns", Obs.Int c.bus_txns);
              ("busy_ns", Obs.Float c.clk.busy_ns);
            ]
          (Printf.sprintf "core%d" c.id);
        let ctr fmt = Printf.sprintf fmt c.id in
        Obs.add obs (ctr "sim.core%d.instrs") c.instr_count;
        Obs.add obs (ctr "sim.core%d.cycles") c.cycles;
        Obs.add obs (ctr "sim.core%d.bus_txns") c.bus_txns;
        Obs.add obs (ctr "sim.core%d.bus_words") c.bus_words)
      t.cores;
    Obs.add obs "sim.runs" 1;
    Obs.add obs "sim.steps" t.steps;
    Obs.add obs "sim.channel_msgs"
      (Array.fold_left (fun a ch -> a + ch.total_msgs) 0 t.chans);
    (* an implicit wakeup means an instruction executed on a component
       the compiler had gated off — always a compiler bug, so the count
       is surfaced as a counter even when zero *)
    Obs.add obs "sim.implicit_wakeups"
      (Array.fold_left (fun a (c : core) -> a + c.implicit_wakeups) 0 t.cores);
    Obs.add obs "sim.leak_recomputes" t.leak_recomputes;
    Obs.add obs "sim.predecode.blocks" t.decoded_blocks;
    Obs.add obs "sim.predecode.active" (if t.opts.predecode then 1 else 0);
    Obs.set_gauge obs "sim.last_duration_ns" duration
  end

let run ?(opts = default_options) ?(obs = Obs.disabled) ~machine prog : outcome =
  Lp_util.Fault.check Lp_util.Fault.Pre_simulate ~key:"run";
  let t = create ~opts ~machine prog in
  Obs.span obs ~cat:"sim" "simulate" (fun () -> run_loop t);
  let duration =
    Array.fold_left (fun acc c -> Float.max acc c.clk.time) 0.0 t.cores
  in
  (* cores that halted early leak (idle) until the machine finishes;
     that alignment belongs to no instruction, so it attributes to the
     synthetic "(idle)" row *)
  Array.iter
    (fun c ->
      if c.prof_on then c.prof_cur <- Profile.slot c.prof "(idle)" 0;
      if c.clk.time < duration then resume_at c duration;
      close_epoch t c)
    t.cores;
  let unused = charge_unused_cores t ~duration in
  let profile =
    if not t.opts.profile then None
    else begin
      let extra = Profile.create_tab () in
      (match unused with
      | [] -> ()
      | ledgers ->
        let s = Profile.slot extra "(unused-cores)" 0 in
        List.iter
          (fun l ->
            List.iteri
              (fun i cat ->
                s.Profile.sl_cat.(i) <-
                  s.Profile.sl_cat.(i) +. Energy_ledger.of_category l cat)
              Energy_ledger.all_categories)
          ledgers);
      Some
        (Profile.collect
           (Array.append
              (Array.map (fun c -> c.prof) t.cores)
              [| extra |]))
    end
  in
  observe_outcome obs t ~duration;
  let energy = Energy_ledger.create () in
  Array.iter (fun c -> Energy_ledger.merge_into ~dst:energy ~src:c.ledger) t.cores;
  List.iter (fun l -> Energy_ledger.merge_into ~dst:energy ~src:l) unused;
  let used = Array.length t.cores in
  let class_energy =
    Array.to_list
      (Array.mapi
         (fun k (cc : Machine.core_class) ->
           let l = Energy_ledger.create () in
           Array.iter
             (fun c ->
               if c.cls = k then Energy_ledger.merge_into ~dst:l ~src:c.ledger)
             t.cores;
           List.iteri
             (fun i ul ->
               if Machine.class_index_of_core t.machine (used + i) = k then
                 Energy_ledger.merge_into ~dst:l ~src:ul)
             unused;
           (cc.Machine.cc_name, l))
         t.machine.Machine.classes)
  in
  let ret =
    match t.cores.(0).status with Halted v -> v | _ -> None
  in
  {
    ret;
    duration_ns = duration;
    energy;
    core_ledgers = Array.map (fun c -> c.ledger) t.cores;
    class_energy;
    shared_final = t.shared;
    instr_total = Array.fold_left (fun a (c : core) -> a + c.instr_count) 0 t.cores;
    implicit_wakeups =
      Array.fold_left (fun a (c : core) -> a + c.implicit_wakeups) 0 t.cores;
    gate_transitions =
      Array.fold_left (fun a (c : core) -> a + c.gate_transitions) 0 t.cores;
    dvfs_transitions =
      Array.fold_left (fun a (c : core) -> a + c.dvfs_transitions) 0 t.cores;
    busy_ns = Array.map (fun (c : core) -> c.clk.busy_ns) t.cores;
    instrs_per_core = Array.map (fun (c : core) -> c.instr_count) t.cores;
    send_blocks = Array.map (fun (c : core) -> c.send_blocks) t.cores;
    recv_blocks = Array.map (fun (c : core) -> c.recv_blocks) t.cores;
    cycles_per_core = Array.map (fun (c : core) -> c.cycles) t.cores;
    bus_txns_per_core = Array.map (fun (c : core) -> c.bus_txns) t.cores;
    bus_words_per_core = Array.map (fun (c : core) -> c.bus_words) t.cores;
    bus_wait_ns_per_core = Array.map (fun (c : core) -> c.clk.bus_wait_ns) t.cores;
    channel_msgs = Array.fold_left (fun a ch -> a + ch.total_msgs) 0 t.chans;
    steps = t.steps;
    events = List.rev t.trace;
    decoded_blocks = t.decoded_blocks;
    leak_recomputes = t.leak_recomputes;
    predecode = t.opts.predecode;
    profile;
  }

(** Map the exceptions a simulation can raise onto structured
    diagnostics; [None] for exceptions the simulator does not own. *)
let diag_of_exn : exn -> Lp_util.Diag.t option =
  let module D = Lp_util.Diag in
  function
  | D.Error d -> Some d
  | Deadlock msg -> Some (D.make D.Simulate ~code:"E_DEADLOCK" msg)
  | Step_limit_exceeded ->
    Some (D.make D.Simulate ~code:"E_STEP_LIMIT" "simulation step limit exceeded")
  | Value.Runtime_error msg -> Some (D.make D.Simulate ~code:"E_RUNTIME" msg)
  | _ -> None

(** [run], but failures come back as structured diagnostics instead of
    escaping as exceptions. *)
let run_result ?opts ?obs ~machine prog : (outcome, Lp_util.Diag.t) result =
  match run ?opts ?obs ~machine prog with
  | o -> Ok o
  | exception e -> (
    match diag_of_exn e with Some d -> Error d | None -> raise e)

(** Read back a global cell after the run (for correctness checks). *)
let shared_cell (o : outcome) name idx =
  match Hashtbl.find_opt o.shared_final name with
  | Some a when idx >= 0 && idx < Array.length a -> Some a.(idx)
  | Some _ | None -> None

let shared_array (o : outcome) name = Hashtbl.find_opt o.shared_final name

(** Energy-delay product in nJ*ms — the metric of figure F2. *)
let edp (o : outcome) = Energy_ledger.total o.energy *. (o.duration_ns *. 1e-6)
