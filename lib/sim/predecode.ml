(** Static pre-decode of IR functions for the simulator.

    The interpretive stepper used to re-derive, on every executed
    instruction, facts that are a pure function of the IR: the component
    an instruction occupies, its base latency, and (once per block
    entry) an [Array.of_list] copy of the block's instruction list.
    This module computes all of that exactly once per function, before
    simulation starts, so both simulator modes (closure-compiled and
    interpretive) fetch instructions from immutable arrays.

    Everything here is a pure function of the IR — no simulator state —
    which keeps the decode tables shareable between the two execution
    modes and trivially correct with respect to byte-identical output. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Component = Lp_power.Component

(** One decoded instruction: the original plus the per-opcode facts the
    stepper needs on every execution. *)
type dinstr = {
  di_instr : Ir.instr;
  di_comp : Component.t;   (** [Ir.component_of], precomputed *)
  di_comp_idx : int;       (** [Component.index di_comp] *)
  di_latency : int;        (** [Ir.base_latency], precomputed *)
}

type dblock = {
  db_label : Ir.label;
  db_instrs : dinstr array;
  db_runs : int array;
      (** [db_runs.(i)] = length of the maximal run of {e summable}
          instructions starting at [i] (0 when instruction [i] is not
          summable); see {!summable} *)
  db_term : Ir.term;
}

(** A decoded function.  [df_blocks] is indexed directly by block label
    (labels are dense, from the function's block id generator); a [None]
    hole marks a label with no block — entering it reproduces the
    [Prog.block] error of the undecoded interpreter. *)
type dfunc = {
  df_func : Prog.func;
  df_blocks : dblock option array;
  df_frame_idx : (string, int) Hashtbl.t;
      (** frame-array name -> position in [Prog.frame_arrays] order *)
  df_nblocks : int;  (** number of decoded blocks (array holes excluded) *)
}

(** Placeholder for lazily-initialised block caches; never executed. *)
let dummy_block =
  { db_label = -1; db_instrs = [||]; db_runs = [||]; db_term = Ir.Ret None }

let decode_instr (i : Ir.instr) : dinstr =
  let comp = Ir.component_of i in
  {
    di_instr = i;
    di_comp = comp;
    di_comp_idx = Component.index comp;
    di_latency = Ir.base_latency i;
  }

(** Is [i] {e summable}: core-local compute whose whole effect on
    simulated time and energy is a fixed number of cycles and one
    dynamic operation of its component (plus, for local memory, one
    local-store access)?  Registers and frame/ROM memory qualify.
    Power-state instructions do not (they change the leakage rate or
    the operating point), nor does anything touching shared memory, the
    bus, channels, barriers or the call stack.  The simulator keeps the
    cycles of a run of summable instructions pending and settles them
    into the clock once, at the end of the run. *)
let summable (i : Ir.instr) =
  match i.Ir.idesc with
  | Ir.Const _ | Ir.Move _ | Ir.Binop _ | Ir.Unop _ | Ir.Mac _ -> true
  | Ir.Load (_, s, _) | Ir.Store (s, _, _) -> (
    match s.Ir.sym_space with Ir.Rom | Ir.Frame -> true | Ir.Shared -> false)
  | Ir.Pg_off _ | Ir.Pg_on _ | Ir.Dvfs _ | Ir.Call _ | Ir.Send _ | Ir.Recv _
  | Ir.Barrier _ | Ir.Faa _ ->
    false

let summable_runs (instrs : dinstr array) =
  let n = Array.length instrs in
  let runs = Array.make n 0 in
  for i = n - 1 downto 0 do
    if summable instrs.(i).di_instr then
      runs.(i) <- (1 + if i + 1 < n then runs.(i + 1) else 0)
  done;
  runs

let decode_block (b : Ir.block) : dblock =
  let db_instrs = Array.of_list (List.map decode_instr b.Ir.instrs) in
  {
    db_label = b.Ir.bid;
    db_instrs;
    db_runs = summable_runs db_instrs;
    db_term = b.Ir.term;
  }

let decode_func (f : Prog.func) : dfunc =
  (* labels come from the function's block generator, so [peek] bounds
     them; tolerate foreign labels by sizing to the largest key seen *)
  let max_label =
    Hashtbl.fold (fun l _ acc -> max l acc) f.Prog.blocks
      (Lp_util.Id_gen.peek f.Prog.block_gen - 1)
  in
  let df_blocks = Array.make (max 1 (max_label + 1)) None in
  let count = ref 0 in
  Hashtbl.iter
    (fun l b ->
      if l >= 0 then begin
        df_blocks.(l) <- Some (decode_block b);
        incr count
      end)
    f.Prog.blocks;
  let df_frame_idx = Hashtbl.create 4 in
  List.iteri
    (fun k (name, _, _) -> Hashtbl.replace df_frame_idx name k)
    f.Prog.frame_arrays;
  { df_func = f; df_blocks; df_frame_idx; df_nblocks = !count }

(** Decode every function of a program; returns the table (by function
    name) and the total number of decoded blocks — which tests compare
    against the program's block count to prove decode work is
    per-function, not per-block-entry. *)
let decode_prog (prog : Prog.t) : (string, dfunc) Hashtbl.t * int =
  let table = Hashtbl.create 16 in
  let total = ref 0 in
  List.iter
    (fun (f : Prog.func) ->
      let df = decode_func f in
      total := !total + df.df_nblocks;
      Hashtbl.replace table f.Prog.fname df)
    (Prog.funcs prog);
  (table, !total)
