(** The predecode equivalence contract: the closure-compiled stepper
    and the interpretive reference must be {e bit-identical} on every
    observable — cycles, clocks, the full energy ledger on both axes
    (per core, per class, machine-wide), per-core instruction counts,
    busy and bus-wait time, the event trace, final shared memory, the
    return value — not merely "close".  The property below throws
    randomly generated parallel programs at both modes on every zoo
    machine; the unit tests pin the far-tier and cache-miss paths, the
    new outcome counters and the [BENCH_sim.json] schema. *)

module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Value = Lp_sim.Value
module Ledger = Lp_power.Energy_ledger
module Gen = Lp_robust.Gen
module Simbench = Lp_experiments.Simbench
module J = Lp_util.Json

let machine4 = Machine.generic ~n_cores:4 ()

let zoo =
  Array.of_list (List.filter_map (fun n -> Machine.of_name n) Machine.names)

let run_mode ?(machine = machine4) ?(trace_limit = 0) prog ~predecode =
  Sim.run
    ~opts:{ Sim.default_options with Sim.predecode; trace_limit }
    ~machine prog

let run_both ?(machine = machine4) ?trace_limit ?opts source =
  let opts =
    match opts with
    | Some o -> o
    | None -> Compile.full ~n_cores:(Machine.n_cores machine)
  in
  let compiled = Compile.compile ~opts ~machine source in
  ( run_mode ~machine ?trace_limit compiled.Compile.prog ~predecode:true,
    run_mode ~machine ?trace_limit compiled.Compile.prog ~predecode:false )

(* Float comparisons below are deliberately [=]: the contract is exact
   agreement (same operations in the same order), not tolerance. None
   of the compared quantities can be NaN. *)

let ledger_equal a b =
  Ledger.total a = Ledger.total b
  && List.for_all
       (fun c -> Ledger.of_category a c = Ledger.of_category b c)
       Ledger.all_categories
  && Ledger.component_breakdown a = Ledger.component_breakdown b

let shared_equal globals a b =
  List.for_all
    (fun g ->
      match (Sim.shared_array a g, Sim.shared_array b g) with
      | (Some xa, Some xb) ->
        Array.length xa = Array.length xb && Array.for_all2 Value.equal xa xb
      | (None, None) -> true
      | _ -> false)
    globals

let events_equal (a : Sim.event list) (b : Sim.event list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Sim.event) (y : Sim.event) ->
         x.Sim.ev_core = y.Sim.ev_core
         && x.Sim.ev_ns = y.Sim.ev_ns
         && x.Sim.ev_what = y.Sim.ev_what)
       a b

let outcomes_identical ~globals (on : Sim.outcome) (off : Sim.outcome) =
  on.Sim.instr_total = off.Sim.instr_total
  && on.Sim.steps = off.Sim.steps
  && on.Sim.duration_ns = off.Sim.duration_ns
  && on.Sim.cycles_per_core = off.Sim.cycles_per_core
  && on.Sim.instrs_per_core = off.Sim.instrs_per_core
  && on.Sim.busy_ns = off.Sim.busy_ns
  && on.Sim.bus_txns_per_core = off.Sim.bus_txns_per_core
  && on.Sim.bus_words_per_core = off.Sim.bus_words_per_core
  && on.Sim.bus_wait_ns_per_core = off.Sim.bus_wait_ns_per_core
  && on.Sim.channel_msgs = off.Sim.channel_msgs
  && on.Sim.implicit_wakeups = off.Sim.implicit_wakeups
  && on.Sim.gate_transitions = off.Sim.gate_transitions
  && on.Sim.dvfs_transitions = off.Sim.dvfs_transitions
  && ledger_equal on.Sim.energy off.Sim.energy
  && Array.for_all2 ledger_equal on.Sim.core_ledgers off.Sim.core_ledgers
  && List.length on.Sim.class_energy = List.length off.Sim.class_energy
  && List.for_all2
       (fun (na, la) (nb, lb) -> na = nb && ledger_equal la lb)
       on.Sim.class_energy off.Sim.class_energy
  && events_equal on.Sim.events off.Sim.events
  && (match (on.Sim.ret, off.Sim.ret) with
     | (Some x, Some y) -> Value.equal x y
     | (None, None) -> true
     | _ -> false)
  && shared_equal globals on off

(* ---------------- the equivalence property ---------------- *)

(* The seed picks the zoo machine as well as the program, so the
   per-class ladders (biglittle), the cache local store and far tier
   (farmem), the FPU-less machine (pacduo) and the 8-core leaky node
   all meet both steppers.  Every fourth seed also records a trace:
   with tracing on the compiled mode falls back to its conservative
   per-step interleaving, and the trace must be bit-identical too. *)
let prop_modes_identical =
  QCheck.Test.make ~count:100
    ~name:"compiled and interpretive modes are bit-identical"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Gen.generate ~seed in
      let machine = zoo.(seed mod Array.length zoo) in
      let trace_limit = if seed mod 4 = 0 then 400 else 0 in
      let (on, off) = run_both ~machine ~trace_limit g.Gen.source in
      outcomes_identical ~globals:g.Gen.check_globals on off)

(* ---------------- far tier and cache misses ---------------- *)

(* Generated programs keep their arrays far below the far-tier
   threshold, so one fixed program pins farmem's far-tier bus path and
   its cache-miss model under every configuration, traced and not. *)
let far_src =
  "int data[1200];\n\
   int out[1200];\n\
   int main() {\n\
  \  int s = 0;\n\
  \  int loc[80];\n\
  \  for (int i = 0; i < 80; i = i + 1) { loc[i] = i * 3; }\n\
  \  for (int i = 0; i < 1200; i = i + 1) {\n\
  \    out[i] = data[i] + loc[i % 80];\n\
  \    s = s + out[i];\n\
  \  }\n\
  \  return s;\n\
   }"

let test_farmem_modes () =
  let machine = Machine.farmem () in
  List.iter
    (fun (cname, opts) ->
      List.iter
        (fun trace_limit ->
          let (on, off) = run_both ~machine ~trace_limit ~opts far_src in
          if not (outcomes_identical ~globals:[ "out" ] on off) then
            Alcotest.failf "modes differ on farmem (%s, trace %d)" cname
              trace_limit;
          if trace_limit > 0 && on.Sim.events = [] then
            Alcotest.failf "no events traced (%s)" cname;
          (* both arrays live in the far tier, so every bus word costs
             0.5 nJ of bus plus 1.5 nJ of far-tier energy; anything
             above that is cache-miss energy *)
          let words = Array.fold_left ( + ) 0 on.Sim.bus_words_per_core in
          if
            Ledger.of_category on.Sim.energy Ledger.Communication
            <= 2.0 *. float_of_int words
          then Alcotest.failf "far tier or cache misses not exercised (%s)" cname)
        [ 0; 200 ])
    [ ("baseline", Compile.baseline); ("pg_dvfs", Compile.pg_dvfs);
      ("full", Compile.full ~n_cores:(Machine.n_cores machine)) ]

(* ---------------- outcome counters ---------------- *)

(** Both modes decode at construction (decode is shared bookkeeping),
    and both refresh the leakage rate at the same power events. *)
let test_counters () =
  let w = Lp_workloads.Suite.find_exn "fir" in
  let (on, off) = run_both w.Lp_workloads.Workload.source in
  Alcotest.(check bool) "blocks decoded" true (on.Sim.decoded_blocks > 0);
  Alcotest.(check int) "same decode both modes" on.Sim.decoded_blocks
    off.Sim.decoded_blocks;
  Alcotest.(check bool) "predecode flag on" true on.Sim.predecode;
  Alcotest.(check bool) "predecode flag off" false off.Sim.predecode;
  Alcotest.(check int) "same leak recomputes both modes"
    off.Sim.leak_recomputes on.Sim.leak_recomputes

(* ---------------- BENCH_sim.json schema ---------------- *)

let stats runs ips cps =
  {
    Simbench.runs;
    wall_s = float_of_int runs /. cps;
    instrs_per_sec = ips;
    cells_per_sec = cps;
  }

let bench_fixture =
  {
    Simbench.sb_machine = "generic4";
    sb_config = "full";
    sb_rows =
      [
        {
          Simbench.sb_workload = "fir";
          sb_instrs = 123_456;
          sb_on = stats 40 4.0e7 160.0;
          sb_off = stats 8 8.0e6 32.0;
          sb_speedup = 5.0;
        };
      ];
    sb_total_on = 4.0e7;
    sb_total_off = 8.0e6;
    sb_total_speedup = 5.0;
  }

(** The schema survives a full [to_json] → print → parse → [of_json]
    round trip, so the committed artifact stays machine-readable. *)
let test_schema_round_trip () =
  let j = Simbench.to_json bench_fixture in
  (match J.member "schema" j with
  | Some (J.Str s) ->
    Alcotest.(check string) "schema tag" Simbench.schema s
  | _ -> Alcotest.fail "schema tag missing");
  match Simbench.of_json (J.of_string (J.to_string j)) with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok t ->
    Alcotest.(check bool) "round trip" true (t = bench_fixture)

(** Field renames must fail loudly, not decode to garbage. *)
let test_schema_rejects () =
  (match Simbench.of_json (J.Obj [ ("schema", J.Str "bogus/9") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown schema accepted");
  let j = Simbench.to_json bench_fixture in
  let dropped =
    match j with
    | J.Obj fields ->
      J.Obj (List.filter (fun (k, _) -> k <> "workloads") fields)
    | _ -> assert false
  in
  match Simbench.of_json dropped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing field accepted"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_modes_identical;
    Alcotest.test_case "farmem far tier and cache misses" `Quick
      test_farmem_modes;
    Alcotest.test_case "outcome counters" `Quick test_counters;
    Alcotest.test_case "BENCH_sim.json round trip" `Quick
      test_schema_round_trip;
    Alcotest.test_case "BENCH_sim.json rejects bad input" `Quick
      test_schema_rejects;
  ]
