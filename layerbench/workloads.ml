(** The four workloads.  Each turns a seed into inputs, sets up (reference
    outputs, compile server, one untimed warm-up pass) and then performs
    one operation per call of [next], checking every output. *)

module Compile = Lowpower.Compile
module Pipeline = Lowpower.Pipeline
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Obs = Lp_obs.Obs
module Clock = Lp_obs.Clock
module Ledger = Lp_power.Energy_ledger
module Rng = Lp_util.Rng
module Diag = Lp_util.Diag
module Json = Lp_util.Json
module Domain_pool = Lp_util.Domain_pool
module Suite = Lp_workloads.Suite
module Workload = Lp_workloads.Workload
module Gen = Lp_robust.Gen
module Tune = Lp_tune.Tune
module P = Lp_serve.Protocol
module Server = Lp_serve.Server

(** One operation, as the benchmark saw it. *)
type result = {
  ok : bool;
  why : string;  (** what the oracle saw, when [not ok] *)
  t0 : float;
  t1 : float;  (** clock readings (ns) around the timed public call(s) *)
  energy_nj : float;  (** simulated energy of the op's result; nan: none *)
  cycles : float;
  key : string;  (** other deterministic output the warm-up pass pins *)
  source : string;  (** the program text the op compiled *)
  compile_ms : float;  (** around [compile_result]; nan: not called directly *)
  sim_ms : float;  (** around [simulate_compiled]; nan: not called directly *)
  compile_kw : float;
  sim_kw : float;
  evals : int;  (** tune: unique schedules evaluated *)
  tune_hits : int;  (** tune: proposals answered from the memo cache *)
}

let blank =
  {
    ok = true;
    why = "";
    t0 = 0.0;
    t1 = 0.0;
    energy_nj = Float.nan;
    cycles = Float.nan;
    key = "";
    source = "";
    compile_ms = Float.nan;
    sim_ms = Float.nan;
    compile_kw = 0.0;
    sim_kw = 0.0;
    evals = 0;
    tune_hits = 0;
  }

let fail r why = { r with ok = false; why }

(** A set-up workload, bound to one recorder. *)
type inst = {
  pass_len : int;  (** ops in one pass over the workload's inputs *)
  next : unit -> result;
  rebind : Obs.t -> result list;
      (** restart from the state right after set-up, recording into the
          given recorder from now on; the ops the restart ran *)
  warm : result list;  (** the warm-up pass *)
  sim_geomeans : float * float;
      (** simulated energy (nJ) and cycles, geometric means over the
          workload's reference cells *)
  close : unit -> unit;
}

type t = {
  name : string;
  inputs : seed:int -> string;  (** digest of everything the seed drives *)
  setup : seed:int -> expected:string -> inst;
}

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                       *)
(* ------------------------------------------------------------------ *)

(** Words allocated so far by this domain: minor plus direct major.
    [Gc.minor_words] is exact; the minor count of [Gc.counters] is not. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let measure f =
  let w0 = words () in
  let t0 = Clock.monotonic () in
  let r = f () in
  let t1 = Clock.monotonic () in
  (r, t0, t1, (words () -. w0) /. 1e3)

let ms t0 t1 = (t1 -. t0) *. 1e-6
let total_cycles (o : Sim.outcome) = float (Array.fold_left ( + ) 0 o.Sim.cycles_per_core)

(** Geometric means of the energies and cycles of the cells that
    simulated, independent of the cells' order. *)
let geomeans (cells : (float * float) list) =
  let ok = List.sort compare (List.filter (fun (e, _) -> Float.is_finite e && e > 0.0) cells) in
  (Lp_util.Stats.geomean (List.map fst ok), Lp_util.Stats.geomean (List.map snd ok))

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))
let machine name = Option.get (Machine.of_name name)

(** What a cell must produce: the reference outputs, or a diagnostic. *)
type expect = Outputs of { ret : string; md5 : string } | Fails_with of string

(** Whether [o] returned [ret] and left the [globals] arrays with digest
    [md5]. *)
let outputs_match ~ret ~md5 ~globals o =
  String.equal (Oracle.ret_string o) ret && String.equal (Oracle.outputs_md5 ~globals o) md5

let expect_of expected ~program ~machine:mname =
  let e = Oracle.find expected program in
  match List.assoc_opt mname e.Oracle.diags with
  | Some code -> Fails_with code
  | None -> Outputs { ret = e.Oracle.ret; md5 = e.Oracle.md5 }

(** Compile then simulate one cell through the public [Compile] API, timing and
    counting allocation around each call, and check the outputs. *)
let run_cell ~obs ~opts ~machine ~globals ~expect source =
  let ctx = Compile.make_ctx ~obs () in
  let c, t0, t1, compile_kw =
    measure (fun () -> Compile.compile_result ~ctx ~opts ~machine source)
  in
  let r = { blank with t0; t1; source; compile_ms = ms t0 t1; compile_kw } in
  match c with
  | Error d -> (
    match expect with
    | Fails_with code when code = d.Diag.code -> r
    | _ -> fail r ("compile failed: " ^ Diag.to_string d))
  | Ok c -> (
    let o, s0, s1, sim_kw =
      measure (fun () ->
          match Compile.simulate_compiled ~ctx c with
          | o -> Ok o
          | exception e -> (
            match Compile.diag_of_exn e with Some d -> Error d | None -> raise e))
    in
    let r = { r with t1 = s1; sim_ms = ms s0 s1; sim_kw } in
    match o with
    | Error d -> fail r ("simulation failed: " ^ Diag.to_string d)
    | Ok o -> (
      let r =
        { r with energy_nj = Ledger.total o.Sim.energy; cycles = total_cycles o }
      in
      match expect with
      | Outputs { ret; md5 } when outputs_match ~ret ~md5 ~globals o -> r
      | Outputs _ -> fail r "outputs differ from the reference"
      | Fails_with code -> fail r ("expected " ^ code ^ ", but the compile succeeded"))
    )

let same_output (a : result) (b : result) =
  Float.equal a.energy_nj b.energy_nj
  && Float.equal a.cycles b.cycles
  && String.equal a.key b.key

(** An instance over a fixed list of [n] ops run by index, in passes.
    Set-up runs the warm-up pass; every later op must reproduce its
    warm-up result exactly. *)
let pass_instance ~n ~(op : Obs.t -> int -> result) ~close =
  let obs = ref Obs.disabled and k = ref 0 in
  let warm = Array.init n (op Obs.disabled) in
  let next () =
    let i = !k in
    k := (i + 1) mod n;
    let r = op !obs i in
    if r.ok && not (same_output r warm.(i)) then
      fail r "simulated result differs from the warm-up pass"
    else r
  in
  let warm = Array.to_list warm in
  {
    pass_len = n;
    next;
    rebind =
      (fun o ->
        obs := o;
        k := 0;
        []);
    warm;
    sim_geomeans = geomeans (List.map (fun r -> (r.energy_nj, r.cycles)) warm);
    close;
  }

(* ------------------------------------------------------------------ *)
(* suite-sim                                                           *)
(* ------------------------------------------------------------------ *)

let suite_programs =
  [ "imgpipe"; "susan"; "jpegblocks"; "fir"; "fraciter"; "audio5"; "matmul";
    "stringsearch"; "prodcons"; "conv2d"; "tri" ]

let suite_cells ~seed =
  let cells =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun mname ->
            let m = machine mname in
            List.map
              (fun (cname, opts) -> (Suite.find_exn p, mname, m, cname, opts))
              [ ("baseline", Compile.baseline);
                ("pg_dvfs", Compile.pg_dvfs);
                ("full", Compile.full ~n_cores:(Machine.n_cores m)) ])
          Machine.names)
      suite_programs
  in
  Array.of_list (Rng.shuffle (Rng.create ~seed) cells)

let suite_sim =
  {
    name = "suite-sim";
    inputs =
      (fun ~seed ->
        digest_lines
          (Array.to_list
             (Array.map
                (fun ((w : Workload.t), m, _, c, _) -> w.Workload.name ^ "/" ^ m ^ "/" ^ c)
                (suite_cells ~seed))));
    setup =
      (fun ~seed ~expected ->
        let expected = Oracle.load expected in
        let cells =
          Array.map
            (fun ((w : Workload.t), mname, m, _, opts) ->
              (w, m, opts, expect_of expected ~program:w.Workload.name ~machine:mname))
            (suite_cells ~seed)
        in
        pass_instance ~n:(Array.length cells) ~close:ignore ~op:(fun obs i ->
            let w, machine, opts, expect = cells.(i) in
            run_cell ~obs ~opts ~machine ~globals:w.Workload.check_globals ~expect
              w.Workload.source));
  }

(* ------------------------------------------------------------------ *)
(* gen-compile                                                         *)
(* ------------------------------------------------------------------ *)

let gen_programs = 512

let gen_sources ~seed =
  let base = Rng.int (Rng.create ~seed) 1_000_000 in
  Array.init gen_programs (fun i -> Gen.generate ~seed:(base + i))

let gen_compile =
  {
    name = "gen-compile";
    inputs =
      (fun ~seed ->
        digest_lines
          (Array.to_list (Array.map (fun g -> g.Gen.source) (gen_sources ~seed))));
    setup =
      (fun ~seed ~expected:_ ->
        let machine = Machine.generic ~n_cores:4 () in
        let progs =
          Array.map
            (fun (g : Gen.t) ->
              let expect =
                match Oracle.reference ~globals:g.Gen.check_globals g.Gen.source with
                | Ok (ret, md5) -> Outputs { ret; md5 }
                | Error d -> Fails_with d.Diag.code
              in
              (g, expect))
            (gen_sources ~seed)
        in
        let configs = [| Compile.baseline; Compile.full ~n_cores:4 |] in
        pass_instance ~n:(2 * gen_programs) ~close:ignore ~op:(fun obs i ->
            let g, expect = progs.(i / 2) in
            run_cell ~obs ~opts:configs.(i mod 2) ~machine
              ~globals:g.Gen.check_globals ~expect g.Gen.source));
  }

(* ------------------------------------------------------------------ *)
(* tune-search                                                         *)
(* ------------------------------------------------------------------ *)

let tune_programs =
  [ "dotprod"; "fdotprod"; "iir"; "crc32"; "histogram"; "adpcm"; "peakdetect" ]

let tune_budget = 8

(** (program, tuner seed) pairs: three tuner seeds starting at [seed]. *)
let tune_ops ~seed =
  Array.of_list
    (List.concat_map
       (fun s -> List.map (fun p -> (Suite.find_exn p, s)) tune_programs)
       [ seed; seed + 1; seed + 2 ])

let tune_search =
  {
    name = "tune-search";
    inputs =
      (fun ~seed ->
        digest_lines
          (Array.to_list
             (Array.map
                (fun ((w : Workload.t), s) -> Printf.sprintf "%s/%d" w.Workload.name s)
                (tune_ops ~seed))));
    setup =
      (fun ~seed ~expected ->
        let expected = Oracle.load expected in
        let machine = Machine.generic ~n_cores:4 () in
        let pool = Domain_pool.create ~jobs:1 () in
        let ops = tune_ops ~seed in
        let specs = Array.make (Array.length ops) "" in
        let op obs i =
          let w, tseed = ops.(i) in
          let ctx = Compile.make_ctx ~obs () in
          let cfg = Tune.default_config ~budget:tune_budget ~seed:tseed ~machine () in
          let res, t0, t1, kw = measure (fun () -> Tune.tune_workload ~ctx ~pool cfg w) in
          (* the search is compile-bound, so its words count as compile's *)
          let r = { blank with t0; t1; source = w.Workload.source; compile_kw = kw } in
          match res with
          | Error d -> fail r ("tune failed: " ^ Diag.to_string d)
          | Ok tr ->
            specs.(i) <- tr.Tune.tw_best_spec;
            {
              r with
              energy_nj = tr.Tune.tw_best.Tune.energy_nj;
              cycles = float tr.Tune.tw_best.Tune.cycles;
              key =
                Printf.sprintf "%s|evaluated=%d|hits=%d|restarts=%d"
                  tr.Tune.tw_best_spec tr.Tune.tw_evaluated tr.Tune.tw_cache_hits
                  tr.Tune.tw_restarts;
              evals = tr.Tune.tw_evaluated;
              tune_hits = tr.Tune.tw_cache_hits;
            }
        in
        let inst =
          pass_instance ~n:(Array.length ops) ~op
            ~close:(fun () -> Domain_pool.shutdown pool)
        in
        (* reference outputs: the best schedule each search found must
           compute what the program's frozen baseline computes *)
        let warm =
          List.mapi
            (fun i (r : result) ->
              if not r.ok then r
              else
                let w, _ = ops.(i) in
                let expect =
                  expect_of expected ~program:w.Workload.name ~machine:"generic"
                in
                match Pipeline.parse specs.(i) with
                | Error d -> fail r ("best schedule does not parse: " ^ Diag.to_string d)
                | Ok p ->
                  let opts = Compile.Options.update ~pipeline:p Compile.baseline in
                  let c =
                    run_cell ~obs:Obs.disabled ~opts ~machine
                      ~globals:w.Workload.check_globals ~expect w.Workload.source
                  in
                  if c.ok then r else fail r ("best schedule: " ^ c.why))
            inst.warm
        in
        { inst with warm });
  }

(* ------------------------------------------------------------------ *)
(* serve-warm                                                          *)
(* ------------------------------------------------------------------ *)

let serve_configs = [ "baseline"; "pg+dvfs"; "full" ]
let serve_machines = [ "generic"; "pacduo"; "octa-leaky" ]

(** Popularity of tier [k] is proportional to [1 / (k + 1) ^ exponent].
    Every tier holds one (config, machine) of each program, and every
    pass sends each tier its fixed share of requests spread evenly over
    the programs, so the hot set mixes cheap and costly programs in the
    same proportions whatever the seed. *)
let serve_tier_exponent = 1.5

let serve_pass = 240

type entry = {
  program : Workload.t;
  config : string;
  mname : string;
  cores : int;  (** every core of the machine *)
}

let entry_label e = Printf.sprintf "%s/%s/%s" e.program.Workload.name e.config e.mname

(** The catalog as tiers, the warm-up order and the request stream's
    generator; the last two are drawn from [seed]. *)
let serve_plan ~seed =
  let rng = Rng.create ~seed in
  let combos =
    List.concat_map (fun c -> List.map (fun m -> (c, m)) serve_machines) serve_configs
  in
  (* program [i]'s tier-[k] pair is [combos.((k + i) mod 9)], so every
     tier holds each pair two or three times.  The rotation is fixed: a
     seeded one would put a different mix of costly pairs in the hot
     tiers, and the cost of a pass would hinge on the seed. *)
  let combos = Array.of_list combos in
  let programs = Array.of_list Suite.all in
  let tiers =
    Array.init (Array.length combos) (fun k ->
        Array.mapi
          (fun i w ->
            let config, mname = combos.((k + i) mod Array.length combos) in
            { program = w; config; mname; cores = Machine.n_cores (machine mname) })
          programs)
  in
  let warm_order = Rng.shuffle rng (List.concat_map Array.to_list (Array.to_list tiers)) in
  let weights =
    Array.init (Array.length tiers) (fun k ->
        1.0 /. Float.pow (float (k + 1)) serve_tier_exponent)
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let counts = Array.map (fun w -> int_of_float (float serve_pass *. w /. total)) weights in
  let rest = serve_pass - Array.fold_left ( + ) 0 counts in
  for k = 0 to rest - 1 do counts.(k) <- counts.(k) + 1 done;
  (* one pass of requests: tier [k]'s share cycles through its entries
     in a fresh seeded order, then the whole pass is shuffled *)
  let draw_pass rng =
    Rng.shuffle rng
      (List.concat
         (List.mapi
            (fun k n ->
              let order = Array.of_list (Rng.shuffle rng (Array.to_list tiers.(k))) in
              List.init n (fun i -> order.(i mod Array.length order)))
            (Array.to_list counts)))
  in
  (tiers, warm_order, rng, draw_pass)

let request_of ~id e =
  {
    P.default_request with
    P.id = Json.Num (float id);
    op = P.Run;
    src = P.Workload e.program.Workload.name;
    machine = e.mname;
    cores = e.cores;
    config = e.config;
  }

(** Canonical reply bytes: the id and cache provenance stripped, the two
    fields that legitimately differ between replies to one request. *)
let canonical_reply line =
  match P.reply_of_frame line with
  | Error msg -> "protocol error: " ^ msg
  | Ok r when not r.P.r_ok -> "error " ^ Option.value ~default:"?" r.P.r_code
  | Ok r -> (
    match r.P.r_payload with
    | Json.Obj fields ->
      Json.to_compact_string
        (Json.Obj (List.filter (fun (k, _) -> k <> "id" && k <> "cached") fields))
    | other -> Json.to_compact_string other)

type reference = {
  bytes : string;  (** canonical reply the server must send *)
  r_energy : float;
  r_cycles : float;
  r_ok : bool;
  r_why : string;
}

(** Compute a catalog entry's reply locally through one-shot [Compile.run_result]
    and check its outputs against the frozen file. *)
let serve_reference expected e =
  let req = request_of ~id:0 e in
  let expect = expect_of expected ~program:e.program.Workload.name ~machine:e.mname in
  let bad why = { bytes = ""; r_energy = Float.nan; r_cycles = Float.nan; r_ok = false; r_why = why } in
  match (P.resolve_target req, P.resolve_source req) with
  | Error d, _ | _, Error d -> bad (Diag.to_string d)
  | Ok (machine, opts), Ok (src, _) -> (
    match Compile.run_result ~opts ~machine src with
    | Error d ->
      let bytes = "error " ^ d.Diag.code in
      if expect = Fails_with d.Diag.code then
        { (bad "") with bytes; r_ok = true }
      else bad ("compile failed: " ^ Diag.to_string d)
    | Ok (c, o) -> (
      let bytes =
        Json.to_compact_string
          (Json.Obj
             (("ok", Json.Bool true) :: ("op", Json.Str (P.op_name P.Run))
             :: P.payload_of_run c o))
      in
      let good =
        { bytes; r_energy = Ledger.total o.Sim.energy; r_cycles = total_cycles o;
          r_ok = true; r_why = "" }
      in
      match expect with
      | Outputs { ret; md5 }
        when outputs_match ~ret ~md5 ~globals:e.program.Workload.check_globals o ->
        good
      | Outputs _ -> { good with r_ok = false; r_why = "outputs differ from the reference" }
      | Fails_with code ->
        { good with r_ok = false; r_why = "expected " ^ code ^ ", but the compile succeeded" }))

(** Where the benchmark writes inside the checkout: the server socket and
    the Chrome trace. *)
let out_dir = ".layerbench"

let ensure_out_dir () =
  try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let socket_path = Printf.sprintf "%s/lpccd-%d.sock" out_dir (Unix.getpid ())

let serve_warm =
  {
    name = "serve-warm";
    inputs =
      (fun ~seed ->
        let tiers, warm_order, rng, draw_pass = serve_plan ~seed in
        let stream = List.map entry_label (draw_pass rng) in
        digest_lines
          (List.concat_map
             (fun t -> List.map entry_label (Array.to_list t))
             (Array.to_list tiers)
          @ List.map entry_label warm_order @ stream));
    setup =
      (fun ~seed ~expected ->
        let expected = Oracle.load expected in
        let tiers, warm_order, rng, draw_pass = serve_plan ~seed in
        let refs = Hashtbl.create 256 in
        Array.iter
          (Array.iter (fun e -> Hashtbl.replace refs (entry_label e) (serve_reference expected e)))
          tiers;
        let stream0 = Rng.copy rng in
        let stream = ref (Rng.copy stream0) and queued = ref [] in
        let next_id = ref 0 in
        ensure_out_dir ();
        let server = ref None and client = ref None in
        let stop () =
          Option.iter Serve_client.close !client;
          Option.iter Server.stop !server;
          client := None;
          server := None
        in
        let send e =
          let reference = Hashtbl.find refs (entry_label e) in
          incr next_id;
          let frame = P.frame_of_request (request_of ~id:!next_id e) in
          let line, t0, t1, _ =
            measure (fun () -> Serve_client.call (Option.get !client) frame)
          in
          let r =
            { blank with t0; t1; source = e.program.Workload.source;
              energy_nj = reference.r_energy; cycles = reference.r_cycles }
          in
          if not reference.r_ok then fail r reference.r_why
          else if canonical_reply line <> reference.bytes then
            fail r ("reply differs from the one-shot result for " ^ entry_label e)
          else r
        in
        let start obs =
          stop ();
          let ctx = Compile.make_ctx ~obs () in
          server :=
            Some (Server.start ~ctx { (Server.default_opts ~socket_path) with Server.jobs = 1 });
          client := Some (Serve_client.connect socket_path);
          stream := Rng.copy stream0;
          queued := [];
          List.map send warm_order
        in
        let warm = start Obs.disabled in
        let energies =
          Hashtbl.fold (fun _ r acc -> (r.r_energy, r.r_cycles) :: acc) refs []
        in
        {
          pass_len = serve_pass;
          next =
            (fun () ->
              if !queued = [] then queued := draw_pass !stream;
              match !queued with
              | e :: rest ->
                queued := rest;
                send e
              | [] -> assert false);
          rebind = start;
          warm;
          sim_geomeans = geomeans energies;
          close = stop;
        });
  }

let all = [ suite_sim; gen_compile; tune_search; serve_warm ]
let find name = List.find_opt (fun w -> w.name = name) all
