(** Per-layer attribution of one traced pass.  Every wall-clock span the
    recorder holds is assigned to the op whose timed interval contains its
    start; the phase spans of [Compile], the simulator's [simulate] span and
    the benchmark's own timers then split each op's wall time by layer. *)

module Obs = Lp_obs.Obs
module W = Workloads

(** Compile phases, by the layer they are reported under. *)
let phase_layer = function
  | "frontend" -> Some "lang.frontend_ms"
  | "recheck" -> Some "lang.recheck_ms"
  | "detect" -> Some "patterns.detect_ms"
  | "parallelize" -> Some "transforms.parallelize_ms"
  | "lower" -> Some "ir.lower_ms"
  | "verify" | "compat" -> Some "ir.verify_ms"
  | "optimize" -> Some "pipeline.optimize_ms"
  | "power" -> Some "power.passes_ms"
  | _ -> None

(** Layers whose self times partition an op's wall time.  [Compile]'s
    own bookkeeping between phases and, for [tune-search], the search
    itself are what is left over. *)
let partition ~served =
  [ "lang.frontend_ms"; "lang.recheck_ms"; "patterns.detect_ms";
    "transforms.parallelize_ms"; "ir.lower_ms"; "ir.verify_ms";
    "pipeline.optimize_ms"; "power.passes_ms"; "sim.run_ms" ]
  @ if served then [ "serve.outside_work_ms" ] else [ "sim.create_ms" ]

type pass = {
  metrics : (string * float) list;  (** per-layer metrics of the pass *)
  ops : int;
  wall_ms : float;  (** summed op wall time *)
  covered_ms : float;  (** summed self time of the {!partition} layers *)
  sim_geomeans : float * float;  (** over the pass's results *)
}

(** The ops' intervals, sorted by start: index of the op whose interval
    contains [t], if any. *)
let locate (results : W.result array) t =
  let rec go lo hi =
    (* invariant: results.(lo).t0 <= t < results.(hi).t0 *)
    if hi - lo <= 1 then lo else
      let mid = (lo + hi) / 2 in
      if results.(mid).W.t0 <= t then go mid hi else go lo mid
  in
  let n = Array.length results in
  if n = 0 || t < results.(0).W.t0 then None
  else
    let k = if t >= results.(n - 1).W.t0 then n - 1 else go 0 (n - 1) in
    if t <= results.(k).W.t1 then Some k else None

let counter_delta before after name_ok =
  let sum l = List.fold_left (fun a (k, v) -> if name_ok k then a + v else a) 0 l in
  float (sum after - sum before)

let starts_ends prefix suffix k =
  String.starts_with ~prefix k && String.ends_with ~suffix k

(** [analyse ~served ~results ~spans ~before ~after ~gc ~frontend_kw]
    with [served] set for serve-warm's ops, [before]/[after] the
    recorder's counters around the pass, [gc]
    the minor and major collections it triggered, and [frontend_kw] the
    words one front-end run allocates on a given source. *)
let analyse ~served ~(results : W.result array) ~spans ~before ~after
    ~gc:(minor_gcs, major_gcs) ~frontend_kw =
  let n = Array.length results in
  let per_op = Array.make n [] in
  List.iter
    (fun (sp : Obs.span) ->
      if sp.Obs.sp_pid = Obs.wall_pid then
        match locate results sp.Obs.sp_start_ns with
        | Some k -> per_op.(k) <- sp :: per_op.(k)
        | None -> ())
    spans;
  let acc = Hashtbl.create 32 in
  let add k v = Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k)) in
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt acc k) in
  let pass_spans = ref 0 and pass_changed = ref 0 in
  let wall = ref 0.0 and covered = ref 0.0 in
  Array.iteri
    (fun k (r : W.result) ->
      let op = Hashtbl.create 16 in
      let bump key v =
        Hashtbl.replace op key (v +. Option.value ~default:0.0 (Hashtbl.find_opt op key))
      in
      let compile_end = ref None in
      List.iter
        (fun (sp : Obs.span) ->
          let dur = sp.Obs.sp_dur_ns *. 1e-6 in
          match (sp.Obs.sp_cat, sp.Obs.sp_name) with
          | "phase", name -> (
            if name = "frontend" then
              bump "lang.frontend_kw"
                (Option.value ~default:0.0 (Hashtbl.find_opt frontend_kw r.W.source));
            match phase_layer name with Some l -> bump l dur | None -> ())
          | "compile", "compile" ->
            bump "compile.spans" dur;
            compile_end := Some (sp.Obs.sp_start_ns +. sp.Obs.sp_dur_ns)
          | "sim", "simulate" ->
            bump "sim.run_ms" dur;
            (* building the simulator sits between the compile span and
               the run loop when one [run_result] call does both *)
            Option.iter (fun e -> bump "sim.gap_ms" ((sp.Obs.sp_start_ns -. e) *. 1e-6)) !compile_end;
            compile_end := None
          | "pass", _ ->
            incr pass_spans;
            (match List.assoc_opt "changes" sp.Obs.sp_args with
            | Some (Obs.Int c) when c > 0 -> incr pass_changed
            | _ -> ())
          | _ -> ())
        (List.sort (fun (a : Obs.span) b -> compare a.Obs.sp_start_ns b.Obs.sp_start_ns) per_op.(k));
      let g key = Option.value ~default:0.0 (Hashtbl.find_opt op key) in
      let op_wall = W.ms r.W.t0 r.W.t1 in
      if Float.is_nan r.W.compile_ms then begin
        (* tune and served ops: the [Compile] calls happen out of reach of
           the benchmark's timers, so the spans measure them *)
        bump "compile.ms" (g "compile.spans");
        bump "sim.create_ms" (g "sim.gap_ms")
      end
      else begin
        bump "compile.ms" r.W.compile_ms;
        if not (Float.is_nan r.W.sim_ms) then bump "sim.create_ms" (r.W.sim_ms -. g "sim.run_ms")
      end;
      if served then begin
        bump "serve.roundtrip_ms" op_wall;
        bump "serve.outside_work_ms" (op_wall -. g "compile.spans" -. g "sim.run_ms")
      end;
      bump "compile.kw" r.W.compile_kw;
      bump "sim.kw" r.W.sim_kw;
      Hashtbl.iter add op;
      wall := !wall +. op_wall;
      covered := !covered +. List.fold_left (fun a l -> a +. g l) 0.0 (partition ~served);
      add "tune.evals" (float r.W.evals);
      add "tune.hits" (float r.W.tune_hits))
    results;
  let nf = float (max n 1) in
  let per_op key = get key /. nf in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let delta = counter_delta before after in
  let ctr name = delta (String.equal name) in
  let analysis_hits = ctr "analysis.cache_hits" in
  let sim_instrs = delta (starts_ends "sim.core" ".instrs") in
  let replies = ctr "serve.replies_ok" +. ctr "serve.replies_err" in
  let metrics =
    List.map (fun k -> (k, per_op k))
      [ "lang.frontend_ms"; "lang.frontend_kw"; "lang.recheck_ms";
        "patterns.detect_ms"; "transforms.parallelize_ms"; "ir.lower_ms";
        "ir.verify_ms"; "pipeline.optimize_ms" ]
    @ [
        ("pipeline.pass_runs", delta (starts_ends "pass." ".runs") /. nf);
        ("pipeline.pass_change_ratio", ratio (float !pass_changed) (float !pass_spans));
        ( "analysis.cache_hit_ratio",
          ratio analysis_hits (analysis_hits +. ctr "analysis.cache_misses") );
        ("power.passes_ms", per_op "power.passes_ms");
        ("compile.ms", per_op "compile.ms");
        ("compile.kw", per_op "compile.kw");
        ("sim.create_ms", per_op "sim.create_ms");
        ("sim.run_ms", per_op "sim.run_ms");
        ("sim.minstr_per_s", ratio sim_instrs (get "sim.run_ms" *. 1e3));
        ("sim.steps", ctr "sim.steps" /. nf);
        ("sim.kw", per_op "sim.kw");
        ("tune.evals_per_op", per_op "tune.evals");
        ("tune.cache_hit_ratio", ratio (get "tune.hits") (get "tune.hits" +. get "tune.evals"));
        ("tune.eval_ms", ratio !wall (get "tune.evals"));
        ("serve.roundtrip_ms", per_op "serve.roundtrip_ms");
        ("serve.outside_work_ms", per_op "serve.outside_work_ms");
        ("serve.cache_hit_ratio", ratio (ctr "serve.cache_replies") replies);
        ("serve.replies_err", ctr "serve.replies_err");
        ("gc.minor_collections_per_op", float minor_gcs /. nf);
        ("gc.major_collections_per_op", float major_gcs /. nf);
      ]
  in
  {
    metrics;
    ops = n;
    wall_ms = !wall;
    covered_ms = !covered;
    sim_geomeans =
      W.geomeans (Array.to_list (Array.map (fun r -> (r.W.energy_nj, r.W.cycles)) results));
  }

(** Metrics that must repeat bit-exactly when the same pass runs twice. *)
let deterministic =
  [ "lang.frontend_kw"; "compile.kw"; "sim.kw"; "sim.steps"; "pipeline.pass_runs";
    "pipeline.pass_change_ratio"; "analysis.cache_hit_ratio"; "tune.evals_per_op";
    "tune.cache_hit_ratio"; "serve.cache_hit_ratio"; "serve.replies_err" ]
