(** Energy accounting during simulation.

    The ledger tracks energy in nanojoules, broken down along two axes:
    by category (what the energy was spent on) and by component.  The
    benchmark harness uses the category breakdown for the energy-breakdown
    figure (F3) and the total for every energy table. *)

type category =
  | Dynamic          (** executing instructions *)
  | Leakage_active   (** leakage while the core is executing *)
  | Leakage_idle     (** leakage while the core is stalled/blocked *)
  | Gating_overhead  (** pg_on / pg_off transition energy *)
  | Dvfs_overhead    (** DVFS transition energy *)
  | Communication    (** bus transfers, channel operations *)

let all_categories =
  [ Dynamic; Leakage_active; Leakage_idle; Gating_overhead; Dvfs_overhead;
    Communication ]

let category_to_string = function
  | Dynamic -> "dynamic"
  | Leakage_active -> "leak-active"
  | Leakage_idle -> "leak-idle"
  | Gating_overhead -> "gate-ovh"
  | Dvfs_overhead -> "dvfs-ovh"
  | Communication -> "comm"

(* [category] is a closed enum, so the per-category axis is a plain
   float array indexed by [category_index]. *)
let category_index = function
  | Dynamic -> 0
  | Leakage_active -> 1
  | Leakage_idle -> 2
  | Gating_overhead -> 3
  | Dvfs_overhead -> 4
  | Communication -> 5

let category_count = 6

type t = {
  by_category : float array; (* indexed by category_index *)
  by_component : float array; (* indexed by Component.index *)
  (* one-element array rather than a [mutable float] field: in a mixed
     record a float field is boxed, so updating it on every charge
     would allocate; a float-array store writes the raw double *)
  total_cell : float array;
}

let create () =
  {
    by_category = Array.make category_count 0.0;
    by_component = Array.make Component.count 0.0;
    total_cell = Array.make 1 0.0;
  }

let charge t ~category ?component nj =
  if nj < 0.0 then invalid_arg "Energy_ledger.charge: negative energy";
  let ci = category_index category in
  t.by_category.(ci) <- t.by_category.(ci) +. nj;
  (match component with
  | Some c ->
    let i = Component.index c in
    t.by_component.(i) <- t.by_component.(i) +. nj
  | None -> ());
  t.total_cell.(0) <- t.total_cell.(0) +. nj

let charge_ops t ~unit_nj ops =
  for i = 0 to Component.count - 1 do
    let n = ops.(i) in
    if n > 0 then begin
      ops.(i) <- 0;
      let nj = float_of_int n *. unit_nj.(i) in
      if nj < 0.0 then invalid_arg "Energy_ledger.charge: negative energy";
      t.by_category.(0) <- t.by_category.(0) +. nj;
      t.by_component.(i) <- t.by_component.(i) +. nj;
      t.total_cell.(0) <- t.total_cell.(0) +. nj
    end
  done

let total t = t.total_cell.(0)

let of_category t category = t.by_category.(category_index category)

let of_component t c = t.by_component.(Component.index c)

(** Merge [src] into [dst] (used to aggregate per-core ledgers into a
    machine-wide ledger). *)
let merge_into ~dst ~src =
  List.iter
    (fun cat ->
      let e = of_category src cat in
      if e > 0.0 then charge dst ~category:cat e)
    all_categories;
  (* Component breakdown merged separately to avoid double-charging total. *)
  Array.iteri
    (fun i e -> dst.by_component.(i) <- dst.by_component.(i) +. e)
    src.by_component

let breakdown t =
  List.map (fun c -> (c, of_category t c)) all_categories

(** Per-component attribution, in [Component.all] order.  Only charges
    made with [~component] land here (leakage while idle, bus energy and
    transition overheads are core-level, not component-level). *)
let component_breakdown t =
  List.map (fun c -> (c, of_component t c)) Component.all

let pp fmt t =
  let nonzero to_s xs =
    String.concat "; "
      (List.filter_map
         (fun (c, e) ->
           if e > 0.0 then Some (Printf.sprintf "%s=%.1f" (to_s c) e)
           else None)
         xs)
  in
  Format.fprintf fmt "total=%.1fnJ [%s] {%s}" t.total_cell.(0)
    (nonzero category_to_string (breakdown t))
    (nonzero Component.to_string (component_breakdown t))

(** Machine-readable dump: total plus both breakdown axes, every
    category and component present (schema-stable even when zero). *)
let to_json t =
  let module J = Lp_util.Json in
  J.Obj
    [
      ("total_nj", J.Num t.total_cell.(0));
      ( "by_category",
        J.Obj
          (List.map
             (fun (c, e) -> (category_to_string c, J.Num e))
             (breakdown t)) );
      ( "by_component",
        J.Obj
          (List.map
             (fun (c, e) -> (Component.to_string c, J.Num e))
             (component_breakdown t)) );
    ]
