(** Host speed.  The benchmark shares its machine with other work, whose
    load makes the same op run up to a third slower from one minute to the
    next.  A fixed piece of reference work, timed after every 40 ms of
    op time, measures how fast the host is at that moment;
    op times are reported scaled to the speed at which the reference work
    takes {!nominal_ms}.

    The reference work runs in a helper process forked before the
    benchmark starts any domain, and is asked for over a pipe.  It has
    its own heap, so the op's garbage, its live data and the collector's
    pending work never fall inside a reference timing: a change that makes
    ops allocate or keep more slows the ops, not the reference.  Only what
    both processes share (CPU caches, memory bandwidth, the host's load)
    moves both. *)

(** A fixed OCaml source text: forty functions, record types and values. *)
let source =
  lazy
    (let b = Buffer.create 16384 in
     for i = 0 to 39 do
       Printf.bprintf b
         "let f%d x y = match x with\n\
         \  | [] -> y + %d\n\
         \  | h :: t -> if h > %d then f%d t (y * 3 - h)\n\
         \      else List.fold_left (fun a z -> a lxor (z + %d)) y t\n\n\
          type r%d = { a%d : int; b%d : string list; c%d : float array }\n\
          let v%d = { a%d = %d; b%d = [\"s%d\"; \"t\"]; c%d = [| %d.5; 2.0 |] }\n\n"
         i (i * 7) (i mod 13) ((i + 1) mod 40) i i i i i i i (i * 31) i i i i
     done;
     Buffer.contents b)

(** Lex, parse and pretty-print {!source} with the OCaml compiler's own
    front end (compiler-libs): a compiler's kind of work (table-driven
    lexing and parsing, tree building, formatting), but no repository
    code.  It runs for several milliseconds, long enough that the
    scheduler's time slices and the host's short bursts of load fall
    inside it in proportion, as they fall inside an op. *)
let work () =
  let ast = Parse.implementation (Lexing.from_string (Lazy.force source)) in
  let b = Buffer.create 16384 in
  let f = Format.formatter_of_buffer b in
  Pprintast.structure f ast;
  Format.pp_print_flush f ();
  Buffer.length b

(** One timed run of the reference work, in ms, after emptying the minor
    heap. *)
let time_work () =
  Gc.minor ();
  let t0 = Lp_obs.Clock.monotonic () in
  ignore (Sys.opaque_identity (work ()));
  (Lp_obs.Clock.monotonic () -. t0) *. 1e-6

type helper = { ask : Unix.file_descr; reply : Unix.file_descr; pid : int }

let helper = ref None

let rec really_read fd buf off len =
  if len > 0 then
    match Unix.read fd buf off len with
    | 0 -> raise End_of_file
    | k -> really_read fd buf (off + k) (len - k)

let write_all fd buf = ignore (Unix.write fd buf 0 (Bytes.length buf))

(** The helper: one timed run per request byte, until the pipe closes. *)
let serve ask reply =
  let req = Bytes.create 1 and out = Bytes.create 8 in
  (try
     while true do
       really_read ask req 0 1;
       Bytes.set_int64_le out 0 (Int64.bits_of_float (time_work ()));
       write_all reply out
     done
   with End_of_file | Unix.Unix_error _ -> ());
  Unix._exit 0

let stop () =
  Option.iter
    (fun h ->
      helper := None;
      Unix.close h.ask;
      Unix.close h.reply;
      ignore (Unix.waitpid [] h.pid))
    !helper

(** Fork the helper.  Call before any domain is spawned; {!stop} (also
    run at exit) closes its pipe and waits for it. *)
let start () =
  flush_all ();
  let ask_r, ask_w = Unix.pipe ~cloexec:true () in
  let reply_r, reply_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close ask_w;
    Unix.close reply_r;
    serve ask_r reply_w
  | pid ->
    Unix.close ask_r;
    Unix.close reply_w;
    helper := Some { ask = ask_w; reply = reply_r; pid };
    at_exit stop

(** One timed run of the reference work in the helper, in ms. *)
let reference_ms () =
  match !helper with
  | None -> invalid_arg "Host.reference_ms: helper not started"
  | Some h ->
    write_all h.ask (Bytes.make 1 'r');
    let b = Bytes.create 8 in
    really_read h.reply b 0 8;
    Int64.float_of_bits (Bytes.get_int64_le b 0)

(** [n] timed runs of the reference work. *)
let samples n = List.init n (fun _ -> reference_ms ())

(** The reference work's time, in ms, on the host the adjusted times are
    expressed for. *)
let nominal_ms = 8.0

(** Op time between two reference timings. *)
let interval_ms = 40.0

(** Reference timings within this many ms of an op's end adjust it. *)
let window_ms = 500.0

(** The reference timings taken during a run of ops: (clock reading in
    ns, reference time in ms), latest first. *)
type probe = { mutable since_ms : float; mutable taken : (float * float) list }

let take p = p.taken <- (Lp_obs.Clock.monotonic (), reference_ms ()) :: p.taken

(** A probe, with one reference timing taken before the first op. *)
let probe () =
  let p = { since_ms = 0.0; taken = [] } in
  take p;
  p

(** Call after each op, outside its timing, with its time: a reference
    timing follows every [interval_ms] of op time. *)
let after_op p ~ms =
  p.since_ms <- p.since_ms +. ms;
  if p.since_ms >= interval_ms then begin
    p.since_ms <- 0.0;
    take p
  end

(** The mean reference time over the whole probe, in ms. *)
let mean_ms p =
  List.fold_left (fun a (_, r) -> a +. r) 0.0 p.taken /. float (List.length p.taken)

(** [adjust p ~lat ~ends]: each op time in [lat] (ms) scaled by
    [nominal_ms] over the mean of the reference times taken within
    [window_ms] of that op's end ([ends], clock readings in ns, same
    order).  One last reference timing is taken first, so the last ops
    have one after them.

    The mean, not the median, and not the timing right after the op:
    the timings come at even steps of op time, so their mean weighs the
    host's slow and fast spells as the ops' own time does, whereas one
    timing after a long op, or the median of several, misses bursts
    shorter than the op. *)
let adjust p ~lat ~ends =
  take p;
  let ts = Array.of_list (List.rev p.taken) in
  let n = Array.length ts and w = window_ms *. 1e6 in
  let lo = ref 0 and hi = ref 0 and sum = ref 0.0 in
  Array.map2
    (fun x t ->
      while !hi < n && fst ts.(!hi) <= t +. w do
        sum := !sum +. snd ts.(!hi);
        incr hi
      done;
      while !lo < !hi && fst ts.(!lo) < t -. w do
        sum := !sum -. snd ts.(!lo);
        incr lo
      done;
      (* an op longer than the window may have none in it: the next one *)
      let m = if !hi > !lo then !sum /. float (!hi - !lo) else snd ts.(min !hi (n - 1)) in
      x *. nominal_ms /. m)
    lat ends
