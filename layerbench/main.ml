(** layerbench: layered end-to-end benchmark of the compiler, simulator,
    tuner and compile server.  See README.md in this directory.

    {v main.exe --workload NAME --seed N --seconds S --trace 0|1 v}

    The last line of standard output is one JSON object with the keys
    [correct], [attempted], [failed] and [metrics].  The exit code is 0
    only when every output matched its reference and every determinism
    check held. *)

module W = Workloads
module Obs = Lp_obs.Obs
module Clock = Lp_obs.Clock
module Json = Lp_util.Json
module Compile = Lowpower.Compile

(** Set-ups per untraced run; [setup_s] is their median. *)
let setups = 3

(** A traced run fails when the partition layers cover less than this
    share of the traced ops' wall time. *)
let min_coverage = 0.9

let end_to_end_units =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_ms_p50", "ms"); ("op_ms_p90", "ms");
    ("ops_ok_ratio", "ratio"); ("sim_energy_geomean_nj", "nJ");
    ("sim_cycles_geomean", "cycles"); ("peak_heap_mb", "MB") ]

let per_layer_units =
  [ ("lang.frontend_ms", "ms"); ("lang.frontend_kw", "kword"); ("lang.recheck_ms", "ms");
    ("patterns.detect_ms", "ms"); ("transforms.parallelize_ms", "ms");
    ("ir.lower_ms", "ms"); ("ir.verify_ms", "ms"); ("pipeline.optimize_ms", "ms");
    ("pipeline.pass_runs", "count"); ("pipeline.pass_change_ratio", "ratio");
    ("analysis.cache_hit_ratio", "ratio"); ("power.passes_ms", "ms");
    ("compile.ms", "ms"); ("compile.kw", "kword"); ("sim.create_ms", "ms");
    ("sim.run_ms", "ms"); ("sim.minstr_per_s", "Minstr/s"); ("sim.steps", "count");
    ("sim.kw", "kword"); ("tune.evals_per_op", "count"); ("tune.cache_hit_ratio", "ratio");
    ("tune.eval_ms", "ms"); ("serve.roundtrip_ms", "ms"); ("serve.outside_work_ms", "ms");
    ("serve.cache_hit_ratio", "ratio"); ("serve.replies_err", "count");
    ("gc.minor_collections_per_op", "count"); ("gc.major_collections_per_op", "count");
    ("trace.overhead_ratio", "ratio"); ("trace.coverage", "ratio") ]

(** The layer each workload's traced run is expected to be dominated
    by (for serve-warm, the ratio that should sit well above one half). *)
let dominant = function
  | "suite-sim" -> "sim.run_ms"
  | "gen-compile" -> "pipeline.optimize_ms"
  | "tune-search" -> "lang.frontend_ms"
  | _ -> "serve.cache_hit_ratio"

(* ------------------------------------------------------------------ *)
(* Running ops                                                         *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
}

let tally = { attempted = 0; failed = 0; first_failure = None }

let count (r : W.result) =
  tally.attempted <- tally.attempted + 1;
  if not r.W.ok then begin
    tally.failed <- tally.failed + 1;
    if tally.first_failure = None then tally.first_failure <- Some r.W.why
  end

let run_op (inst : W.inst) =
  let t0 = Clock.monotonic () in
  let r =
    try inst.W.next ()
    with e ->
      { W.blank with ok = false; why = Printexc.to_string e; t0; t1 = Clock.monotonic () }
  in
  count r;
  r

(** Whole passes until the ops' summed wall time reaches [seconds]: each
    op's wall time in ms, in order, the same adjusted to the host's speed
    (see {!Host.adjust}), and the probe that timed the reference work. *)
let timed_window (inst : W.inst) ~seconds =
  let lat = ref [] and ends = ref [] and busy = ref 0.0 in
  let probe = Host.probe () in
  while !busy < seconds *. 1e3 do
    for _ = 1 to inst.W.pass_len do
      let r = run_op inst in
      let ms = W.ms r.W.t0 r.W.t1 in
      busy := !busy +. ms;
      lat := ms :: !lat;
      ends := r.W.t1 :: !ends;
      Host.after_op probe ~ms
    done
  done;
  let lat = Array.of_list (List.rev !lat) in
  (lat, Host.adjust probe ~lat ~ends:(Array.of_list (List.rev !ends)), probe)

let sum a = Array.fold_left ( +. ) 0.0 a

(** Ops per second of op time of each whole pass in [lat]. *)
let pass_rates ~pass_len lat =
  List.init (Array.length lat / pass_len) (fun p ->
      float pass_len /. (sum (Array.sub lat (p * pass_len) pass_len) *. 1e-3))

let percentile p a = Lp_util.Stats.percentile p (Array.to_list a)
let median l = Lp_util.Stats.percentile 50.0 l

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let cpu_model () =
  try
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> "unknown"
          | Some l when String.starts_with ~prefix:"model name" l -> (
            match String.index_opt l ':' with
            | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
            | None -> "unknown")
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> "unknown"

let print_metric ?(note = "") (name, unit_, v) =
  Printf.printf "  %-30s %14.6g %-9s%s\n" name v unit_ note

let result_json ~correct metrics =
  Json.to_compact_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float tally.attempted));
         ("failed", Json.Num (float tally.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit_, v) ->
                  (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ]))
                metrics) );
       ])

let with_units units values =
  List.map (fun (name, u) -> (name, u, List.assoc name values)) units

(** Print the verdicts and the result line; the process's exit code. *)
let finish ~problems metrics =
  let correct = tally.failed = 0 && problems = [] in
  Printf.printf "ops: %d attempted, %d failed (ops_failed_ratio %.6g)\n" tally.attempted
    tally.failed
    (float tally.failed /. float (max 1 tally.attempted));
  Option.iter (Printf.printf "first failure: %s\n") tally.first_failure;
  List.iter (Printf.printf "check failed: %s\n") problems;
  print_endline (result_json ~correct metrics);
  if correct then 0 else 1

(** The seed must reach the inputs: a different seed, different inputs. *)
let seed_check (w : W.t) ~seed =
  if w.W.inputs ~seed = w.W.inputs ~seed:(seed + 1) then
    [ Printf.sprintf "seeds %d and %d give identical inputs" seed (seed + 1) ]
  else []

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics                                *)
(* ------------------------------------------------------------------ *)

(** The major heap in use at the end of each major cycle, in words.  A
    [Gc.create_alarm] takes the samples, at the ends of
    cycles that fall inside ops too, so they see the data the compiler,
    simulator or server hold while an op runs: what the cycle found live
    plus what was allocated while it ran. *)
let heap_samples = ref []

let sample_heap () = heap_samples := float (Gc.quick_stat ()).Gc.live_words :: !heap_samples

let untraced (w : W.t) ~seed ~seconds ~expected =
  let rec set_up k acc =
    let before = Host.samples 3 in
    let t0 = Clock.monotonic () in
    let inst = w.W.setup ~seed ~expected in
    let s = (Clock.monotonic () -. t0) *. 1e-9 in
    (* set-up time at the nominal host speed, as measured around it *)
    let around = before @ Host.samples 3 in
    let s = s *. Host.nominal_ms *. float (List.length around) /. List.fold_left ( +. ) 0.0 around in
    List.iter count inst.W.warm;
    let acc = (s, inst.W.sim_geomeans) :: acc in
    if k = setups then (inst, List.rev acc)
    else begin
      inst.W.close ();
      set_up (k + 1) acc
    end
  in
  let inst, runs = set_up 1 [] in
  let geo = snd (List.hd runs) in
  let problems =
    seed_check w ~seed
    @
    if List.for_all (fun (_, g) -> g = geo) runs then []
    else [ "simulated geomeans differ between set-ups with the same seed" ]
  in
  let alarm = Gc.create_alarm sample_heap in
  let raw, lat, probe = timed_window inst ~seconds in
  Gc.delete_alarm alarm;
  (* at least one sample, however short the window *)
  sample_heap ();
  inst.W.close ();
  (* a median over passes: a pass slowed by a burst of host load that
     the reference work missed does not move it *)
  let rates = pass_rates ~pass_len:inst.W.pass_len lat in
  let n = Array.length lat in
  let p90 = percentile 90.0 lat in
  let values =
    [
      ("setup_s", median (List.map fst runs));
      ("ops_per_s", median rates);
      ("op_ms_p50", percentile 50.0 lat);
      ("op_ms_p90", p90);
      ("ops_ok_ratio", 1.0 -. (float tally.failed /. float (max 1 tally.attempted)));
      ("sim_energy_geomean_nj", fst geo);
      ("sim_cycles_geomean", snd geo);
      ( "peak_heap_mb",
        Lp_util.Stats.percentile 90.0 !heap_samples *. float (Sys.word_size / 8) /. 1048576.0 );
    ]
  in
  let metrics = with_units end_to_end_units values in
  Printf.printf
    "end-to-end (%d set-ups, %d timed ops in %d passes over %.2f s of op time; op times \
     adjusted to a host where the reference work takes %g ms, here %.4f ms):\n"
    setups n (List.length rates) (sum raw *. 1e-3) Host.nominal_ms
    (Host.mean_ms probe);
  List.iter
    (fun ((name, _, _) as m) ->
      let note =
        match name with
        | "peak_heap_mb" -> Printf.sprintf " p90 of n=%d cycle ends" (List.length !heap_samples)
        | "op_ms_p50" -> Printf.sprintf " n=%d" n
        | "op_ms_p90" ->
          Printf.sprintf " n=%d, %d beyond" n
            (Array.fold_left (fun c x -> if x > p90 then c + 1 else c) 0 lat)
        | "setup_s" ->
          " runs: "
          ^ String.concat " " (List.map (fun (s, _) -> Printf.sprintf "%.4f" s) runs)
        | _ -> ""
      in
      print_metric ~note m)
    metrics;
  Printf.printf "adjusted pass rates (1/s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.2f") rates));
  Printf.printf "unadjusted: ops_per_s %.6g, op_ms_p50 %.6g ms, op_ms_p90 %.6g ms\n"
    (median (pass_rates ~pass_len:inst.W.pass_len raw))
    (percentile 50.0 raw) (percentile 90.0 raw);
  finish ~problems metrics

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer metrics                                   *)
(* ------------------------------------------------------------------ *)

(** Words one front-end run allocates on each distinct source. *)
let frontend_words (results : W.result array) =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (r : W.result) ->
      if r.W.source <> "" && not (Hashtbl.mem tbl r.W.source) then begin
        let w0 = W.words () in
        (try ignore (Compile.parse_and_check r.W.source) with Compile.Compile_error _ -> ());
        Hashtbl.replace tbl r.W.source ((W.words () -. w0) /. 1e3)
      end)
    results;
  tbl

let traced_pass (w : W.t) (inst : W.inst) =
  let obs = Obs.create () in
  List.iter count (inst.W.rebind obs);
  let before = Obs.counters obs in
  let minor = ref 0 and major = ref 0 in
  let probe = Host.probe () in
  let results =
    Array.init inst.W.pass_len (fun _ ->
        (* collections counted around the op alone, not the reference work *)
        let g0 = Gc.quick_stat () in
        let r = run_op inst in
        let g1 = Gc.quick_stat () in
        minor := !minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
        major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
        Host.after_op probe ~ms:(W.ms r.W.t0 r.W.t1);
        r)
  in
  let after = Obs.counters obs in
  let pass =
    Layers.analyse ~served:(w.W.name = "serve-warm") ~results ~spans:(Obs.spans obs)
      ~before ~after ~gc:(!minor, !major) ~frontend_kw:(frontend_words results)
  in
  let lat = Array.map (fun (r : W.result) -> W.ms r.W.t0 r.W.t1) results in
  (obs, pass, Host.adjust probe ~lat ~ends:(Array.map (fun (r : W.result) -> r.W.t1) results))

let traced (w : W.t) ~seed ~seconds ~expected =
  let inst = w.W.setup ~seed ~expected in
  List.iter count inst.W.warm;
  Gc.full_major ();
  let rate lat = float (Array.length lat) /. (sum lat *. 1e-3) in
  let _, lat, _ = timed_window inst ~seconds:(seconds /. 2.0) in
  let untraced_ops_per_s = rate lat in
  let obs_a, a, lat_a = traced_pass w inst in
  let path = Printf.sprintf "%s/trace-%s.json" W.out_dir w.W.name in
  W.ensure_out_dir ();
  Obs.write_chrome obs_a ~path;
  let _, b, lat_b = traced_pass w inst in
  inst.W.close ();
  let wall = a.Layers.wall_ms +. b.Layers.wall_ms in
  let coverage = (a.Layers.covered_ms +. b.Layers.covered_ms) /. wall in
  let traced_ops_per_s = rate (Array.append lat_a lat_b) in
  let repeat_problems =
    List.filter_map
      (fun k ->
        let va = List.assoc k a.Layers.metrics and vb = List.assoc k b.Layers.metrics in
        if Float.equal va vb then None
        else Some (Printf.sprintf "%s differs between two passes: %.17g vs %.17g" k va vb))
      Layers.deterministic
    @
    if a.Layers.sim_geomeans = b.Layers.sim_geomeans then []
    else [ "simulated geomeans differ between two passes" ]
  in
  let problems =
    seed_check w ~seed @ repeat_problems
    @
    if coverage >= min_coverage then []
    else
      [ Printf.sprintf "layers cover %.1f%% of traced op time (< %.0f%%)" (100.0 *. coverage)
          (100.0 *. min_coverage) ]
  in
  let values =
    List.map
      (fun (k, va) ->
        (* deterministic values agree; times are averaged over both passes *)
        (k, (va +. List.assoc k b.Layers.metrics) /. 2.0))
      a.Layers.metrics
    @ [ ("trace.overhead_ratio", untraced_ops_per_s /. traced_ops_per_s);
        ("trace.coverage", coverage) ]
  in
  let metrics = with_units per_layer_units values in
  Printf.printf "per-layer (2 traced passes of %d ops; chrome trace %s):\n" a.Layers.ops path;
  List.iter print_metric metrics;
  let key = dominant w.W.name in
  let v = List.assoc key values in
  (if String.ends_with ~suffix:"_ratio" key then
     Printf.printf "dominant check: %s = %.3f\n" key v
   else
     let share = v /. (wall /. float (a.Layers.ops + b.Layers.ops)) in
     let top =
       List.fold_left
         (fun (bk, bv) k ->
           let x = List.assoc k values in
           if x > bv then (k, x) else (bk, bv))
         ("", neg_infinity)
         (Layers.partition ~served:false)
     in
     Printf.printf "dominant check: %s is %.1f%% of op time; largest layer: %s\n" key
       (100.0 *. share) (fst top));
  Printf.printf "tracing overhead: untraced %.3f ops/s vs traced %.3f ops/s\n"
    untraced_ops_per_s traced_ops_per_s;
  finish ~problems metrics

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let commit = ref "unknown" and expected = ref "layerbench/expected.json" in
  let cpus = ref "" in
  let freeze = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME suite-sim | gen-compile | tune-search | serve-warm");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S op time to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--commit", Arg.Set_string commit, "SHA source revision, for provenance");
      ("--cpus", Arg.Set_string cpus, "TEXT the CPUs and the pinning, for provenance");
      ("--expected", Arg.Set_string expected, "PATH expected-outputs file");
      ("--freeze-expected", Arg.Set_string freeze, "PATH write the expected-outputs file and exit");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !freeze <> "" then begin
    Oracle.freeze !freeze;
    exit 0
  end;
  match W.find !workload with
  | None ->
    prerr_endline ("unknown workload " ^ !workload ^ "; " ^ usage);
    exit 2
  | Some w ->
    Printf.printf
      "layerbench %s seed=%d seconds=%g trace=%d | commit %s | ocaml %s | %s | cpu %s\n%!"
      w.W.name !seed !seconds !trace !commit Sys.ocaml_version
      (if !cpus = "" then
         Printf.sprintf "nproc %d, not pinned" (Domain.recommended_domain_count ())
       else !cpus)
      (cpu_model ());
    let run = if !trace = 1 then traced else untraced in
    Host.start ();
    exit (run w ~seed:!seed ~seconds:!seconds ~expected:!expected)
