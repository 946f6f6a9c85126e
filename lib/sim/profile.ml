(** Source-level energy attribution.

    When profiling is on, every nanojoule the simulator charges to a
    core's {!Lp_power.Energy_ledger} is *also* attributed to a {e slot}
    keyed by (function name, source line): the simulator keeps a
    per-core current-slot pointer that the steppers update before
    executing each instruction.  Bus, gating and DVFS costs add the
    float the ledger is charged; compute cost (cycles, their leakage,
    dynamic operations, cache misses) is attributed as each instruction
    pends it, at the rates its later ledger charge uses, while the
    ledger charges a whole energy epoch at once — so per-line sums
    match the ledger to rounding, not bit for bit.  Attribution is a
    pure observer — ledgers, cycle counts and simulated state are
    byte-identical with profiling on or off, because no simulated value
    is read from or rounds through a slot.

    Line 0 means compiler-synthesised code with no surviving source
    provenance (see {!Lp_ir.Ir.loc}).  Two synthetic function names
    carry charges no instruction owns: ["(idle)"] (end-of-run alignment
    of early-halted cores) and ["(unused-cores)"] (leakage and gating of
    machine cores the program never occupied).

    Cross-mode byte-equality: within one core, the closure-compiled and
    interpretive steppers execute the same instruction sequence and
    make the same attributions in the same order (a profiling compiled
    run pends cost per instruction, like the interpreter), so each
    (core, slot) accumulates the identical float sums; {!collect} then merges across
    cores in core-id order and emits rows sorted by (function, line),
    making the final profile independent of slot-creation order — the
    compiled mode creates slots eagerly at compile time, the interpreter
    lazily at first execution, and all-zero rows (never-executed code)
    are dropped so both modes produce the same row set. *)

(** Fixed category axis, in [Lp_power.Energy_ledger.all_categories]
    order: dynamic=0, leak-active=1, leak-idle=2, gate-ovh=3, dvfs-ovh=4,
    comm=5. *)
let num_categories = 6

let category_names =
  [| "dynamic"; "leak-active"; "leak-idle"; "gate-ovh"; "dvfs-ovh"; "comm" |]

type slot = {
  sl_func : string;
  sl_line : int;  (** 1-based source line; 0 = synthesised *)
  sl_cat : float array;  (** nJ by ledger category index *)
  mutable sl_cycles : int;       (** compute cycles issued here *)
  mutable sl_instrs : int;       (** instructions retired here *)
  mutable sl_bus_txns : int;     (** shared-bus transactions *)
  mutable sl_bus_words : int;    (** words moved over the shared bus *)
  mutable sl_bus_wait_ns : float;  (** bus contention stall time *)
}

let fresh_slot fname line =
  {
    sl_func = fname;
    sl_line = line;
    sl_cat = Array.make num_categories 0.0;
    sl_cycles = 0;
    sl_instrs = 0;
    sl_bus_txns = 0;
    sl_bus_words = 0;
    sl_bus_wait_ns = 0.0;
  }

(** One core's attribution table. *)
type tab = { tslots : (string * int, slot) Hashtbl.t }

let create_tab () = { tslots = Hashtbl.create 64 }

(** Find-or-create the slot for ([fname], [line]). *)
let slot (tab : tab) fname line : slot =
  let key = (fname, line) in
  match Hashtbl.find_opt tab.tslots key with
  | Some s -> s
  | None ->
    let s = fresh_slot fname line in
    Hashtbl.replace tab.tslots key s;
    s

let slot_total (s : slot) =
  Array.fold_left ( +. ) 0.0 s.sl_cat

let is_zero (s : slot) =
  s.sl_cycles = 0 && s.sl_instrs = 0 && s.sl_bus_txns = 0
  && s.sl_bus_words = 0 && s.sl_bus_wait_ns = 0.0
  && Array.for_all (fun x -> x = 0.0) s.sl_cat

(** Merged profile: one row per (function, line), sorted by (function,
    line) ascending. *)
type t = slot array

(** Merge per-core tables into the final profile.  Floats are summed in
    core-array order per key, so the result is deterministic and
    mode-independent (a key missing from a core contributes nothing,
    which equals adding that core's all-zero slot: every accumulated
    value is non-negative and finite, so [x +. 0.0 = x] bit for bit). *)
let collect (tabs : tab array) : t =
  let keys = Hashtbl.create 256 in
  Array.iter
    (fun tab -> Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) tab.tslots)
    tabs;
  let klist =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) keys [])
  in
  let rows =
    List.filter_map
      (fun (fname, line) ->
        let acc = fresh_slot fname line in
        Array.iter
          (fun tab ->
            match Hashtbl.find_opt tab.tslots (fname, line) with
            | None -> ()
            | Some s ->
              for i = 0 to num_categories - 1 do
                acc.sl_cat.(i) <- acc.sl_cat.(i) +. s.sl_cat.(i)
              done;
              acc.sl_cycles <- acc.sl_cycles + s.sl_cycles;
              acc.sl_instrs <- acc.sl_instrs + s.sl_instrs;
              acc.sl_bus_txns <- acc.sl_bus_txns + s.sl_bus_txns;
              acc.sl_bus_words <- acc.sl_bus_words + s.sl_bus_words;
              acc.sl_bus_wait_ns <- acc.sl_bus_wait_ns +. s.sl_bus_wait_ns)
          tabs;
        if is_zero acc then None else Some acc)
      klist
  in
  Array.of_list rows

(** Sum of every row's attributed energy.  Partitioned sums round
    differently from the ledger's chronological accumulation, so this
    matches [Energy_ledger.total] only to ~1e-9 relative — reports quote
    the ledger's byte-exact total and use this for coverage checks. *)
let total (p : t) = Array.fold_left (fun a s -> a +. slot_total s) 0.0 p
