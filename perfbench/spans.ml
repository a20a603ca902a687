(* In-memory wall-clock spans for the traced drive.

   A span records its name, start and end (seconds since the recorder
   was created), the span that encloses it, the epoch it belongs to and
   the minor words allocated while it was open. Spans stay in memory and
   are exported once, at the end, as Chrome trace JSON.

   Calls made once per transaction or per user are too many to record
   one by one. They are summed into an accumulator and flushed as one
   child of the enclosing span, placed at the end of that span's
   interval so nesting stays valid for trace viewers.

   A disabled recorder runs the wrapped function and records nothing, so
   the same drive code measures both the traced and the untraced run. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (* id of the enclosing span; -1 at top level *)
  epoch : int;
  words : float;  (* Gc.minor_words delta *)
}

type t = {
  enabled : bool;
  origin : float;
  mutable next : int;
  mutable open_ids : int list;  (* innermost first *)
  mutable closed : span list;  (* newest first *)
  mutable epoch : int;
}

let now = Unix.gettimeofday
let create ~enabled = { enabled; origin = now (); next = 0; open_ids = []; closed = []; epoch = -1 }
let set_epoch t e = t.epoch <- e
let spans t = List.rev t.closed
let current t = match t.open_ids with id :: _ -> id | [] -> -1

let open_span t =
  let id = t.next in
  t.next <- id + 1;
  let parent = current t in
  t.open_ids <- id :: t.open_ids;
  (id, parent)

let close_span t ~id ~parent ~name ~t0 ~w0 =
  let t1 = now () in
  let w1 = Gc.minor_words () in
  t.open_ids <- List.tl t.open_ids;
  t.closed <-
    { id; name; start = t0 -. t.origin; stop = t1 -. t.origin; parent;
      epoch = t.epoch; words = w1 -. w0 }
    :: t.closed

let span t name f =
  if not t.enabled then f ()
  else begin
    let id, parent = open_span t in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    match f () with
    | v -> close_span t ~id ~parent ~name ~t0 ~w0; v
    | exception e -> close_span t ~id ~parent ~name ~t0 ~w0; raise e
  end

(* Per-call sums. [sums] is a float array so updating it allocates
   nothing inside the measured interval. *)
type acc = { acc_name : string; sums : float array (* seconds; words *); mutable calls : int }

let acc name = { acc_name = name; sums = [| 0.0; 0.0 |]; calls = 0 }
let calls a = a.calls

let timed t a f x =
  if not t.enabled then begin
    a.calls <- a.calls + 1;
    f x
  end
  else begin
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let v = f x in
    a.sums.(0) <- a.sums.(0) +. (now () -. t0);
    a.sums.(1) <- a.sums.(1) +. (Gc.minor_words () -. w0);
    a.calls <- a.calls + 1;
    v
  end

(* Emit the accumulated time as one child of the innermost open span and
   reset the sums (the call count keeps running). *)
let flush t a =
  if t.enabled && (a.sums.(0) > 0.0 || a.sums.(1) > 0.0) then begin
    let stop = now () -. t.origin in
    let id = t.next in
    t.next <- id + 1;
    t.closed <-
      { id; name = a.acc_name; start = stop -. a.sums.(0); stop; parent = current t;
        epoch = t.epoch; words = a.sums.(1) }
      :: t.closed;
    a.sums.(0) <- 0.0;
    a.sums.(1) <- 0.0
  end

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

type self = { busy_s : float; self_words : float; count : int }

(* Self time per span name: each span's duration minus the durations of
   its direct children, summed by name (words likewise). *)
let self_times spans =
  let child_s = Hashtbl.create 256 and child_w = Hashtbl.create 256 in
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let add tbl k v = Hashtbl.replace tbl k (v +. get tbl k) in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_s s.parent (s.stop -. s.start);
        add child_w s.parent s.words
      end)
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self_s = s.stop -. s.start -. get child_s s.id in
      let self_w = s.words -. get child_w s.id in
      let prev =
        Option.value ~default:{ busy_s = 0.0; self_words = 0.0; count = 0 }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { busy_s = prev.busy_s +. self_s; self_words = prev.self_words +. self_w;
          count = prev.count + 1 })
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* Nearest rank of percentile p among n samples (1-based). *)
let rank n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))

(* Nearest-rank percentile of [xs] (p in 0..100); nan when empty. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan else a.(Stdlib.max 1 (Stdlib.min n (rank n p)) - 1)

(* The highest percentile of [ladder] that still has at least ten
   samples beyond it, with its value; [None] below 20 samples. *)
let tail_pick ?(ladder = [ 50.0; 90.0; 99.0; 99.9 ]) xs =
  let n = List.length xs in
  List.fold_left
    (fun best p -> if n - rank n p >= 10 then Some (p, percentile xs p) else best)
    None ladder

(* Chrome trace JSON on a wall-clock time base, in the repo's existing
   trace format. The layer (text before the first '.') is the category. *)
let to_chrome_json spans =
  let tr = Telemetry.Trace.create ~enabled:true () in
  List.iter
    (fun s ->
      let cat =
        match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name
      in
      Telemetry.Trace.complete tr ~cat
        ~args:
          [ ("epoch", Telemetry.Json.Int s.epoch); ("parent", Telemetry.Json.Int s.parent);
            ("minor_words", Telemetry.Json.Float s.words) ]
        ~name:s.name ~ts:s.start ~dur:(s.stop -. s.start) ())
    spans;
  Telemetry.Trace.to_chrome_json tr
