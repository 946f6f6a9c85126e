(** Energy accounting (nanojoules), broken down by spending category and
    by datapath component. *)

type category =
  | Dynamic          (** executing instructions *)
  | Leakage_active   (** leakage while the core executes *)
  | Leakage_idle     (** leakage while blocked / after halting *)
  | Gating_overhead  (** pg_on / pg_off transition energy *)
  | Dvfs_overhead    (** DVFS transition energy *)
  | Communication    (** bus transfers, channel operations *)

val all_categories : category list
val category_to_string : category -> string

type t

val create : unit -> t

(** Add [nj] nanojoules under [category] (and optionally attributed to a
    component).  Raises [Invalid_argument] on negative energy. *)
val charge : t -> category:category -> ?component:Component.t -> float -> unit

(** Charge a batch of dynamic operations and consume it: for every
    component index [i] with [ops.(i) > 0], one {!charge} of
    [float_of_int ops.(i) *. unit_nj.(i)] under [Dynamic] attributed to
    that component, in index order; [ops.(i)] is then reset to 0.  The
    charged value depends only on the counts, not on the order in which
    the operations were counted.  [unit_nj] and [ops] are indexed by
    [Component.index]. *)
val charge_ops : t -> unit_nj:float array -> int array -> unit

val total : t -> float
val of_category : t -> category -> float
val of_component : t -> Component.t -> float

(** Accumulate [src] into [dst] (used to aggregate per-core ledgers). *)
val merge_into : dst:t -> src:t -> unit

(** All categories with their totals, in [all_categories] order. *)
val breakdown : t -> (category * float) list

(** All components with their attributed totals, in [Component.all]
    order.  Core-level charges (idle leakage, bus transfers, transition
    overheads) carry no component and are absent from this axis. *)
val component_breakdown : t -> (Component.t * float) list

(** One line: total, then the non-zero categories in [[...]] and the
    non-zero per-component attributions in [{...}]. *)
val pp : Format.formatter -> t -> unit

(** Machine-readable dump ([total_nj], [by_category], [by_component]);
    every category and component is present even when zero, so the
    schema is stable (documented in docs/POWER_MODEL.md). *)
val to_json : t -> Lp_util.Json.t
