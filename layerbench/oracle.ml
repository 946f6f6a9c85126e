(** Output oracle: what a simulated program computed, reduced to a
    comparable fingerprint, and the frozen expected-outputs file the
    suite cells are checked against. *)

module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Value = Lp_sim.Value
module Json = Lp_util.Json
module Suite = Lp_workloads.Suite
module Workload = Lp_workloads.Workload

let value_string = function
  | Value.Vint n -> string_of_int n
  | Value.Vfloat f -> Printf.sprintf "%h" f

let ret_string (o : Sim.outcome) =
  match o.Sim.ret with None -> "none" | Some v -> value_string v

(** The observable result: [main]'s return value and the final contents
    of every [globals] array, digested. *)
let outputs_md5 ~globals (o : Sim.outcome) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (ret_string o);
  List.iter
    (fun g ->
      Buffer.add_string b (";" ^ g ^ "=");
      match Sim.shared_array o g with
      | None -> Buffer.add_string b "missing"
      | Some a ->
        Array.iter
          (fun v ->
            Buffer.add_string b (value_string v);
            Buffer.add_char b ',')
          a)
    globals;
  Digest.to_hex (Digest.string (Buffer.contents b))

(** Expected result of one bundled program. *)
type expected = {
  ret : string;
  md5 : string;
  diags : (string * string) list;
      (** zoo machine -> diagnostic code the compile must fail with *)
}

let interpretive =
  { Sim.default_options with Sim.predecode = false }

(** Reference result of [source]: the baseline configuration on the
    generic machine, simulated by the interpretive stepper. *)
let reference ~globals source =
  let machine = Machine.generic ~n_cores:4 () in
  match
    Compile.run_result ~opts:Compile.baseline ~sim_opts:interpretive ~machine
      source
  with
  | Ok (_, o) -> Ok (ret_string o, outputs_md5 ~globals o)
  | Error d -> Error d

let schema = "layerbench-expected/1"

(** Recompute every bundled program's expected result and the machines
    whose baseline compile rejects it. *)
let freeze path =
  let programs =
    List.map
      (fun (w : Workload.t) ->
        let ret, md5 =
          match reference ~globals:w.Workload.check_globals w.Workload.source with
          | Ok r -> r
          | Error d ->
            failwith
              (Printf.sprintf "%s: reference run failed: %s" w.Workload.name
                 (Lp_util.Diag.to_string d))
        in
        let diags =
          List.filter_map
            (fun name ->
              let machine = Option.get (Machine.of_name name) in
              match
                Compile.compile_result ~opts:Compile.baseline ~machine
                  w.Workload.source
              with
              | Ok _ -> None
              | Error d -> Some (name, Json.Str d.Lp_util.Diag.code))
            Machine.names
        in
        ( w.Workload.name,
          Json.Obj
            ([ ("ret", Json.Str ret); ("outputs_md5", Json.Str md5) ]
            @ if diags = [] then [] else [ ("diag", Json.Obj diags) ]) ))
      Suite.all
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str schema);
        ( "frozen_from",
          Json.Str "baseline config, generic machine, interpretive stepper" );
        ("programs", Json.Obj programs);
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  close_out oc

let load path : (string, expected) Hashtbl.t =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let doc = Json.of_string text in
  if Json.member "schema" doc <> Some (Json.Str schema) then
    failwith (path ^ ": not a " ^ schema ^ " file");
  let tbl = Hashtbl.create 32 in
  let str j k =
    match Option.bind (Json.member k j) Json.to_string_opt with
    | Some s -> s
    | None -> failwith (Printf.sprintf "%s: missing %s" path k)
  in
  (match Json.member "programs" doc with
  | Some (Json.Obj progs) ->
    List.iter
      (fun (name, j) ->
        let diags =
          match Json.member "diag" j with
          | Some (Json.Obj ds) ->
            List.filter_map
              (fun (m, c) -> Option.map (fun c -> (m, c)) (Json.to_string_opt c))
              ds
          | _ -> []
        in
        Hashtbl.replace tbl name
          { ret = str j "ret"; md5 = str j "outputs_md5"; diags })
      progs
  | _ -> failwith (path ^ ": no programs"));
  tbl

let find tbl name =
  match Hashtbl.find_opt tbl name with
  | Some e -> e
  | None -> failwith ("expected-outputs file has no entry for " ^ name)
