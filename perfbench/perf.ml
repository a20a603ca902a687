(* The benchmark's measuring program. perfbench/run.py calls it once per
   measured run, each time in a fresh process:

     perf.exe e2e   WORKLOAD SEED        one untraced System.run
     perf.exe setup WORKLOAD SEED        System.run with epochs = 0
     perf.exe trace WORKLOAD SEED OUT    System.run, then the drive
                                         untraced and traced; writes the
                                         drive's spans to OUT
     perf.exe calibrate                  the fixed reference load

   Each prints one JSON object on stdout and exits 1 when a correctness
   check fails. *)

open Ammboost
module Json = Telemetry.Json

let json fields = print_endline (Json.obj fields)
let num f = Json.float f
let int i = string_of_int i

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let digest_of (r : System.result) =
  let storage_words =
    match List.rev (Observe.Growth_ledger.rows r.System.growth) with
    | last :: _ -> Option.value ~default:0.0 (Observe.Growth_ledger.field last "bank.storage_words")
    | [] -> 0.0
  in
  { Result_digest.generated = r.System.generated; processed = r.System.processed;
    rejected = r.System.rejected; summary_user_entries = r.System.summary_user_entries;
    mc_gas_total = r.System.mc_gas_total; mc_tx_bytes = r.System.mc_tx_bytes;
    sc_cumulative_bytes = r.System.sc_cumulative_bytes;
    bank_storage_words = int_of_float storage_words }

(* The per-run correctness gate; fault-free workloads must also apply
   every epoch and end in normal mode. *)
let checks (w : Workloads.t) (r : System.result) =
  [ ("custody_consistent", r.System.custody_consistent);
    ("replay_consistent", r.System.replay_consistent);
    ("twin_consistent", r.System.twin_consistent);
    ("exit_conservation", r.System.exit_conservation) ]
  @
  if w.Workloads.fault_free then
    [ ("all_epochs_applied", r.System.epochs_applied = r.System.epochs_run);
      ("final_mode_normal", r.System.final_mode = "normal") ]
  else []

let report_checks cs =
  List.iter (fun (name, ok) -> if not ok then Printf.eprintf "perf: check failed: %s\n%!" name) cs;
  List.for_all snd cs

let e2e w ~seed =
  let cfg = Workloads.config w ~seed in
  let g0 = Gc.quick_stat () in
  let r, wall = time (fun () -> System.run cfg) in
  let g1 = Gc.quick_stat () in
  let alloc =
    g1.Gc.minor_words -. g0.Gc.minor_words +. (g1.Gc.major_words -. g0.Gc.major_words)
    -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)
  in
  let rss_kb = Experiments.peak_rss_kb () in
  let ok = report_checks (checks w r) in
  let d = digest_of r in
  json
    ([ ("ok", string_of_bool ok); ("wall_s", num wall);
       ("attempted", int (r.System.generated + 1)); ("alloc_words", num alloc);
       ("rss_kb", int rss_kb);
       ("digest", Json.string (Result_digest.to_hex d)) ]
    @ List.map (fun (k, v) -> (k, int v)) (Result_digest.fields d));
  ok

let setup w ~seed =
  let r, wall = time (fun () -> System.run (Workloads.setup_config w ~seed)) in
  let ok = report_checks (checks w r) in
  json [ ("ok", string_of_bool ok); ("setup_s", num wall) ];
  ok

(* ------------------------------------------------------------------ *)
(* GC pauses: every minor collection and major slice, one by one        *)
(* ------------------------------------------------------------------ *)

module Pauses = struct
  type t = {
    cursor : Runtime_events.cursor;
    mutable callbacks : Runtime_events.Callbacks.t;
    mutable open_at : (Runtime_events.runtime_phase * int64) list;
    mutable ms : float list;
  }

  let top (phase : Runtime_events.runtime_phase) =
    match phase with EV_MINOR | EV_MAJOR -> true | _ -> false

  let start () =
    Runtime_events.start ();
    let t =
      { cursor = Runtime_events.create_cursor None; callbacks = Runtime_events.Callbacks.create ();
        open_at = []; ms = [] }
    in
    let stamp ts = Runtime_events.Timestamp.to_int64 ts in
    t.callbacks <-
      Runtime_events.Callbacks.create
        ~runtime_begin:(fun _ ts phase ->
          if top phase then t.open_at <- (phase, stamp ts) :: t.open_at)
        ~runtime_end:(fun _ ts phase ->
          match List.assoc_opt phase t.open_at with
          | Some t0 when top phase ->
            t.open_at <- List.remove_assoc phase t.open_at;
            t.ms <- (Int64.to_float (Int64.sub (stamp ts) t0) /. 1e6) :: t.ms
          | _ -> ())
        ();
    t

  let poll t = while Runtime_events.read_poll t.cursor t.callbacks None > 0 do () done
end

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

let sum_selfs field selfs names =
  List.fold_left
    (fun acc n -> match List.assoc_opt n selfs with Some s -> acc +. field s | None -> acc)
    0.0 names

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Every per-layer metric, by name, from one traced drive. *)
let layer_metrics (d : Drive.result) ~pauses ~untraced_wall ~system_wall =
  let selfs = Spans.self_times d.Drive.spans in
  let c = d.Drive.counts in
  let b = sum_selfs (fun s -> s.Spans.busy_s) selfs in
  let w = sum_selfs (fun s -> s.Spans.self_words) selfs in
  let f = float_of_int in
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s.Spans.busy_s) 0.0 selfs in
  let traffic_txs = f d.Drive.generated in
  let processor_txs = f (c.Drive.processed + c.Drive.rejected) in
  let processor = [ "processor.process"; "processor.begin_epoch" ] in
  let pause_ms = pauses.Pauses.ms in
  [ ("traffic.txs", traffic_txs);
    ("traffic.busy_s", b [ "traffic" ]);
    ("traffic.alloc_words_per_tx", ratio (w [ "traffic" ]) traffic_txs);
    ("mempool.busy_s", b [ "mempool.push"; "mempool.take" ]);
    ("processor.txs", processor_txs);
    ("processor.rejected", f c.Drive.rejected);
    ("processor.busy_s", b processor);
    ("processor.alloc_words_per_tx", ratio (w processor) processor_txs);
    ("twin.record_ops", f d.Drive.twin_record_ops);
    ("twin.record_busy_s", b [ "twin.record" ]);
    ("summary.busy_s", b [ "summary.build" ]);
    ("summary.user_entries", f c.Drive.summary_entries);
    ("summary.candidates", f c.Drive.summary_candidates);
    ("summary.useful_frac", ratio (f c.Drive.summary_entries) (f c.Drive.summary_candidates));
    ("election.busy_s", b [ "election" ]);
    ("bls.keygen_busy_s", b [ "bls.keygen" ]);
    ("bls.sign_busy_s", b [ "bls.sign" ]);
    ("bls.partials_rejected", f c.Drive.partials_rejected);
    ("committee.rounds", f c.Drive.consensus_rounds);
    ("committee.busy_s", b [ "committee.agree"; "committee.latency_model" ]);
    ("committee.view_changes", f c.Drive.view_changes);
    ("committee.decided_frac", ratio (f c.Drive.decided) (f c.Drive.consensus_rounds));
    ("blocks.busy_s", b [ "blocks.append"; "blocks.prune" ]);
    ("blocks.pruned_epochs", f c.Drive.pruned);
    ("eth.busy_s", b [ "eth.advance_to"; "eth.submit" ]);
    ("eth.blocks_mined", f d.Drive.eth_blocks);
    ("eth.txs_included", f d.Drive.eth_included);
    ("eth.submits", f c.Drive.submits);
    ("token_bank.deposit_busy_s", b [ "token_bank.deposit" ]);
    ("token_bank.deposits", f c.Drive.deposits);
    ("token_bank.sync_busy_s", b [ "token_bank.sync"; "token_bank.release" ]);
    ("token_bank.syncs", f c.Drive.syncs);
    ("token_bank.sync_rejected", f c.Drive.sync_rejected);
    ("token_bank.snapshot_busy_s", b [ "token_bank.snapshot" ]);
    ("bootstrap.party_busy_s", b [ "bootstrap.party" ]);
    ("bootstrap.erc20_busy_s", b [ "bootstrap.erc20" ]);
    ("bootstrap.deposit_busy_s", b [ "bootstrap.deposit" ]);
    ("twin.bank_busy_s", b [ "twin.bank" ]);
    ("twin.audit_busy_s", b [ "twin.audit" ]);
    ("twin.audits", f d.Drive.twin_audits);
    ("twin.divergences", f d.Drive.twin_divergences);
    ("monitor.audit_busy_s", b [ "monitor.audit" ]);
    ("monitor.audits", f d.Drive.monitor_audits);
    ("monitor.violations", f c.Drive.monitor_violations);
    ("gc.pauses", f (List.length pause_ms));
    ("gc.pause_p99_ms", Spans.percentile pause_ms 99.0);
    ("gc.pause_max_ms", List.fold_left Float.max 0.0 pause_ms);
    ("gc.major_words_per_tx", ratio d.Drive.major_words processor_txs) ]
  @ List.map (fun (k, v) -> ("mem." ^ k ^ "_mw", v)) d.Drive.mem
  @ [ ("drive.wall_s", d.Drive.wall_s);
      ("drive.epoch_s_p50", Spans.percentile d.Drive.epoch_walls 50.0);
      ("drive.epoch_s_p90", Spans.percentile d.Drive.epoch_walls 90.0);
      ("drive.attributed_frac", attributed /. d.Drive.wall_s);
      ("drive.overhead_frac", (d.Drive.wall_s -. untraced_wall) /. untraced_wall);
      ("system.glue_s", system_wall -. untraced_wall) ]

(* The drive must do the work System.run does: on fault-free workloads
   every count matches; on chaos only the generated traffic. *)
let fidelity (w : Workloads.t) (r : System.result) (d : Drive.result) =
  let rows =
    [ ("generated", r.System.generated, d.Drive.generated, true);
      ("processed", r.System.processed, d.Drive.counts.Drive.processed, w.Workloads.fault_free);
      ("rejected", r.System.rejected, d.Drive.counts.Drive.rejected, w.Workloads.fault_free);
      ("summary_user_entries", r.System.summary_user_entries, d.Drive.counts.Drive.summary_entries,
       w.Workloads.fault_free);
      ("mc_gas_total", r.System.mc_gas_total, d.Drive.mc_gas_total, w.Workloads.fault_free) ]
  in
  List.for_all
    (fun (name, sys, drv, must) ->
      Printf.eprintf "fidelity %-22s system=%-12d drive=%-12d %s\n" name sys drv
        (if sys = drv then "equal" else if must then "MISMATCH" else "differs (not gated)");
      sys = drv || not must)
    rows

let trace w ~seed ~out =
  let cfg = Workloads.config w ~seed in
  let r, system_wall = time (fun () -> System.run cfg) in
  let ok_checks = report_checks (checks w r) in
  Gc.compact ();
  let untraced = Drive.run ~trace:false cfg in
  Gc.compact ();
  let pauses = Pauses.start () in
  let d = Drive.run ~trace:true ~on_epoch:(fun () -> Pauses.poll pauses) cfg in
  Pauses.poll pauses;
  if not w.Workloads.fault_free then
    Printf.eprintf "drive: faults not modeled: %s\n" (String.concat ", " Drive.unmodeled_faults);
  let ok_fidelity = fidelity w r d && fidelity w r untraced in
  let metrics = layer_metrics d ~pauses ~untraced_wall:untraced.Drive.wall_s ~system_wall in
  let attributed = List.assoc "drive.attributed_frac" metrics in
  let ok_attr = attributed >= 0.95 in
  if not ok_attr then
    Printf.eprintf "perf: named layer spans cover %.3f of the drive wall (< 0.95)\n" attributed;
  Printf.eprintf "drive: %d epochs timed; gc pauses: %d%s\n" (List.length d.Drive.epoch_walls)
    (List.length pauses.Pauses.ms)
    (match Spans.tail_pick pauses.Pauses.ms with
    | Some (p, v) ->
      Printf.sprintf " (p%g = %.3f ms is the highest percentile with 10 beyond it)" p v
    | None -> "");
  Out_channel.with_open_text out (fun oc -> output_string oc (Spans.to_chrome_json d.Drive.spans));
  let ok = ok_checks && ok_fidelity && ok_attr in
  json
    (("ok", string_of_bool ok) :: ("digest", Json.string (Result_digest.to_hex (digest_of r)))
    :: List.map (fun (k, v) -> (k, num v)) metrics);
  ok

(* The reference load: a fixed mix of allocation, hashing, sorting and
   digesting from the standard library only, so no change to the program
   moves it. run.py times it in its own process just before and after each
   measured run to track the shared host's speed, which drifts by ±20%
   within seconds. *)
let reference () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 300_000 do Hashtbl.replace h ((i * 7919) mod 100_003) (string_of_int i) done;
  let sorted = List.sort compare (List.init 300_000 (fun i -> (i * 48271) mod 2147483647)) in
  let b = Bytes.make 1_000_000 'x' in
  let d = ref (Digest.bytes b) in
  for _ = 1 to 20 do d := Digest.bytes (Bytes.cat b (Bytes.of_string !d)) done;
  Hashtbl.length h + List.length sorted + String.length !d

let calibrate () =
  let n, wall = time reference in
  json [ ("ok", string_of_bool (n = 400_019)); ("ref_s", num wall) ];
  n = 400_019

let () =
  let usage () =
    prerr_endline "usage: perf.exe (e2e|setup) WORKLOAD SEED | trace WORKLOAD SEED OUT | calibrate";
    exit 2
  in
  let ok =
    match Array.to_list Sys.argv |> List.tl with
    | [ "e2e"; w; seed ] -> e2e (Workloads.find w) ~seed
    | [ "setup"; w; seed ] -> setup (Workloads.find w) ~seed
    | [ "calibrate" ] -> calibrate ()
    | [ "trace"; w; seed; out ] -> trace (Workloads.find w) ~seed ~out
    | _ -> usage ()
  in
  exit (if ok then 0 else 1)
