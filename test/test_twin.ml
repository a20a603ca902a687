(* The state twin: unit-level audit semantics (clean pass, exact
   bisection to the culprit op index, out-of-band attribution, replica
   rejections, reorg symmetry, time travel, what-if isolation); the
   end-of-run verdict (Twin.compare_bank), checked against a from-scratch
   replay of the surviving ops over random op streams with rollbacks —
   then system-level equivalence: twin vs live over random fault
   interleavings (QCheck over chaos intensity and seed, covering halts,
   exits, reconciles and reorgs) with zero false positives, and scripted
   state corruption always detected in the epoch it lands. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Erc20 = Mainchain.Erc20
module Bls = Amm_crypto.Bls
module Token_bank = Tokenbank.Token_bank
module Sync_payload = Tokenbank.Sync_payload
module Pos_store = Tokenbank.Pos_store
module Position_id = Chain.Ids.Position_id
module Record = Durable.Record
module State_codec = Durable.State_codec
open Ammboost

let u = U256.of_string
let one_e18 = u "1000000000000000000"
let one_e21 = u "1000000000000000000000"

let alice = Address.of_label "alice"
let bob = Address.of_label "bob"
let carol = Address.of_label "carol"

(* ------------------------------------------------------------------ *)
(* Unit harness: a twin plus a mirror bank standing in for the live
   side. The mirror is deployed with the same genesis vk and pool fee,
   so as long as it sees the same op stream its meta section is
   byte-identical to the replica's — exactly the property the audit
   checks in production.                                                *)
(* ------------------------------------------------------------------ *)

type tenv = {
  tw : Twin.t;
  mirror : Token_bank.t;
  merc0 : Erc20.t;
  merc1 : Erc20.t;
  keys : (Bls.secret_key * Bls.public_key) array;
}

(* Committee keys, one per epoch (shared: keygen is not free). *)
let committee_keys =
  lazy
    (let rng = Amm_crypto.Rng.create "twin-tests" in
     Array.init 32 (fun _ -> Bls.keygen rng))

(* A funded bank standing in for the live contract (or for a
   from-scratch replay of it). *)
let make_bank ~vk =
  let erc0 = Erc20.deploy (Chain.Token.make ~id:0 ~symbol:"TKA") in
  let erc1 = Erc20.deploy (Chain.Token.make ~id:1 ~symbol:"TKB") in
  let bank = Token_bank.deploy ~token0:erc0 ~token1:erc1 ~genesis_committee_vk:vk in
  ignore (Token_bank.create_pool bank ~flash_fee_pips:3000);
  List.iter
    (fun who ->
      Erc20.mint erc0 who one_e21;
      Erc20.mint erc1 who one_e21;
      Erc20.approve erc0 ~owner:who ~spender:(Token_bank.address bank) U256.max_value;
      Erc20.approve erc1 ~owner:who ~spender:(Token_bank.address bank) U256.max_value)
    [ alice; bob; carol ];
  (bank, erc0, erc1)

(* [live_genesis] deploys the mirror under another committee's key — a
   live bank whose key chain the replica does not share. *)
let make_env ?(live_genesis = 0) () =
  let keys = Lazy.force committee_keys in
  let tw =
    Twin.create ~seed:"twin-tests" ~genesis_committee_vk:(snd keys.(0))
      ~flash_fee_pips:3000
  in
  let mirror, merc0, merc1 = make_bank ~vk:(snd keys.(live_genesis)) in
  { tw; mirror; merc0; merc1; keys }

let scalars = Bytes.of_string "pool-scalar-section"

(* Live closures over the mirror plus explicit sidechain tables. *)
let live ?(dep = fun _ -> None) ?(dep_dirty = fun () -> [])
    ?(pool_writes = fun () -> ([], [])) ?(pool_scalars = fun () -> scalars)
    ?(bank_meta = None) env () =
  { Twin.live_dep = dep;
    live_dep_dirty = dep_dirty;
    live_pool_pos = (fun _ -> None);
    live_pool_tick = (fun _ -> None);
    live_pool_writes = pool_writes;
    live_pool_scalars = pool_scalars;
    live_bank_meta =
      (match bank_meta with
      | Some f -> f
      | None -> fun () -> State_codec.bank_meta_bytes env.mirror);
    live_bank_pos = (fun _ -> None);
    live_bank_dirty = (fun () -> []) }

let seed_scalars env =
  Twin.record env.tw ~label:"seed" [ (Twin.Pool_scalars, Some scalars) ]

let dep_mirror env who amt =
  match Token_bank.deposit env.mirror ~user:who ~for_epoch:0 ~amount0:amt ~amount1:amt with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let dep_both env who amt =
  Twin.bank_deposit env.tw ~user:who ~for_epoch:0 ~amount0:amt ~amount1:amt;
  dep_mirror env who amt

(* ------------------------------------------------------------------ *)
(* Audit semantics                                                     *)
(* ------------------------------------------------------------------ *)

let test_clean_audit () =
  let env = make_env () in
  seed_scalars env;
  let row = Bytes.make 192 'a' in
  Twin.record env.tw ~label:"swap" [ (Twin.Dep_row alice, Some row) ];
  dep_both env alice one_e18;
  let lv =
    live env
      ~dep:(fun a -> if Address.equal a alice then Some row else None)
      ~dep_dirty:(fun () -> [ alice ])
      ()
  in
  Alcotest.(check (list string)) "no reports" []
    (List.map Twin.report_to_string (Twin.audit env.tw ~epoch:0 lv));
  Alcotest.(check int) "one audit" 1 (Twin.audits_run env.tw);
  Alcotest.(check int) "no divergences" 0 (Twin.divergences env.tw)

let test_bisects_exact_op_index () =
  let env = make_env () in
  seed_scalars env;
  let row_a = Bytes.make 192 'a' and row_b = Bytes.make 192 'b' in
  let row_c = Bytes.make 192 'c' in
  (* Global indices: 0 = seed, 1..3 below. *)
  Twin.record env.tw ~label:"swap" [ (Twin.Dep_row alice, Some row_a) ];
  Twin.record env.tw ~label:"mint" [ (Twin.Dep_row alice, Some row_b) ];
  Twin.record env.tw ~label:"swap" [ (Twin.Dep_row bob, Some row_c) ];
  let corrupted = Bytes.copy row_b in
  Bytes.set corrupted 7 '\255';
  let lv =
    live env
      ~dep:(fun a ->
        if Address.equal a alice then Some corrupted
        else if Address.equal a bob then Some row_c
        else None)
      ~dep_dirty:(fun () -> [ alice; bob ])
      ()
  in
  match Twin.audit env.tw ~epoch:0 lv with
  | [ r ] ->
    Alcotest.(check string) "key" ("dep:" ^ Address.to_hex alice)
      (Twin.key_to_string r.Twin.r_key);
    (* The culprit is the *last* op that wrote the row — global index 2,
       not the earlier write at index 1. *)
    Alcotest.(check (option (pair int string))) "exact culprit op"
      (Some (2, "mint")) r.Twin.r_culprit;
    Alcotest.(check bool) "expected is the op's after-image" true
      (r.Twin.r_expected = Some row_b);
    Alcotest.(check bool) "actual is the live bytes" true
      (r.Twin.r_actual = Some corrupted)
  | rs ->
    Alcotest.fail
      (Printf.sprintf "expected 1 report, got %d" (List.length rs))

let test_out_of_band_has_no_culprit () =
  let env = make_env () in
  seed_scalars env;
  (* Nothing ever wrote carol's row; the live side marks it dirty with
     garbage — silent corruption, attributable to no op. *)
  let garbage = Bytes.make 192 'z' in
  let lv =
    live env
      ~dep:(fun a -> if Address.equal a carol then Some garbage else None)
      ~dep_dirty:(fun () -> [ carol ])
      ()
  in
  (match Twin.audit env.tw ~epoch:0 lv with
  | [ r ] ->
    Alcotest.(check (option (pair int string))) "out-of-band" None r.Twin.r_culprit;
    Alcotest.(check string) "deposits layer" "deposits"
      (Twin.layer_to_string r.Twin.r_layer);
    (* An absent row compares as 192 zero bytes. *)
    Alcotest.(check bool) "expected zeros" true
      (r.Twin.r_expected = Some (Bytes.make 192 '\000'))
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 report, got %d" (List.length rs)));
  Alcotest.(check int) "counted" 1 (Twin.divergences env.tw)

let test_live_bank_drift_is_bank_layer_divergence () =
  let env = make_env () in
  seed_scalars env;
  dep_both env alice one_e18;
  (match Twin.audit env.tw ~epoch:0 (live env ()) with
  | [] -> ()
  | rs -> Alcotest.fail (Printf.sprintf "clean epoch diverged (%d)" (List.length rs)));
  (* Epoch 1: the live bank applies a deposit the twin never hears
     about. No window op wrote the meta section, so the divergence is
     out-of-band at the bank layer. *)
  dep_mirror env bob one_e18;
  match Twin.audit env.tw ~epoch:1 (live env ()) with
  | [ r ] ->
    Alcotest.(check string) "bank meta" "bank.meta" (Twin.key_to_string r.Twin.r_key);
    Alcotest.(check (option (pair int string))) "no window culprit" None r.Twin.r_culprit
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 report, got %d" (List.length rs))

let test_replica_rejection_surfaces () =
  let env = make_env () in
  seed_scalars env;
  dep_both env alice one_e18;
  (* Feed the twin a gapped sync (epoch 5 when 0 is expected). The
     replica rejects it; the audit must surface that as a bank-layer
     divergence bisected to the sync op even though the live meta bytes
     still agree. *)
  let p =
    { Sync_payload.epoch = 5; pool = 0; pool_balance0 = U256.zero;
      pool_balance1 = U256.zero; users = []; positions = [];
      next_committee_vk = snd env.keys.(1) }
  in
  let bad_sync_index = Twin.op_count env.tw in
  Twin.bank_sync env.tw [ (p, Bls.sign (fst env.keys.(0)) (Sync_payload.signing_bytes p)) ];
  let reports = Twin.audit env.tw ~epoch:0 (live env ()) in
  Alcotest.(check bool) "at least one report" true (reports <> []);
  Alcotest.(check bool) "bisected to the sync op" true
    (List.exists
       (fun r -> r.Twin.r_culprit = Some (bad_sync_index, "bank.sync"))
       reports)

let test_checkpoint_restore_reorg_symmetry () =
  let env = make_env () in
  seed_scalars env;
  dep_both env alice one_e18;
  let ck = Twin.checkpoint env.tw in
  let mck = Token_bank.checkpoint env.mirror in
  (* Both sides apply bob's deposit, then the chain reorgs it away. *)
  dep_both env bob one_e18;
  let before = Twin.op_count env.tw in
  Twin.restore env.tw ck;
  Token_bank.restore env.mirror mck;
  Alcotest.(check bool) "rollback op recorded" true (Twin.op_count env.tw > before);
  match Twin.audit env.tw ~epoch:0 (live env ()) with
  | [] -> ()
  | rs ->
    Alcotest.fail
      (Printf.sprintf "restore broke twin/live agreement: %s"
         (String.concat "; " (List.map Twin.report_to_string rs)))

(* ------------------------------------------------------------------ *)
(* End-of-run verdict                                                  *)
(* ------------------------------------------------------------------ *)

let signed_payload ?(users = []) ?(positions = []) ?(signer = fun e -> e) env ~epoch
    ~balance0 ~balance1 =
  let p =
    { Sync_payload.epoch; pool = 0; pool_balance0 = balance0;
      pool_balance1 = balance1; users; positions;
      next_committee_vk = snd env.keys.(epoch + 1) }
  in
  (p, Bls.sign (fst env.keys.(signer epoch)) (Sync_payload.signing_bytes p))

let alice_pays_in =
  [ { Sync_payload.user = alice; payin0 = one_e18; payin1 = one_e18;
      payout0 = U256.zero; payout1 = U256.zero } ]

let sync_both env signed =
  (match Token_bank.sync env.mirror ~signed with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("live sync rejected: " ^ Token_bank.rejection_to_string e));
  Twin.bank_sync env.tw signed

let check_verdict msg expect_ok env =
  match (Twin.compare_bank env.tw ~live:env.mirror, expect_ok) with
  | Ok (), true | Error _, false -> ()
  | Ok (), false -> Alcotest.fail (msg ^ ": divergence not flagged")
  | Error e, true -> Alcotest.fail (msg ^ ": " ^ e)

let test_verdict_faithful_stream () =
  let env = make_env () in
  dep_both env alice one_e18;
  dep_both env bob one_e18;
  sync_both env
    [ signed_payload ~users:alice_pays_in env ~epoch:0 ~balance0:one_e18 ~balance1:one_e18 ];
  check_verdict "faithful stream" true env

let test_verdict_phantom_deposit () =
  let env = make_env () in
  dep_both env alice one_e18;
  (* A phantom op the live bank never executed. *)
  Twin.bank_deposit env.tw ~user:bob ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero;
  check_verdict "phantom deposit" false env

let test_verdict_restore_then_resync () =
  let env = make_env () in
  dep_both env alice one_e18;
  let ck = Twin.checkpoint env.tw in
  let mck = Token_bank.checkpoint env.mirror in
  (* A fork's worth of history that later falls off the chain. *)
  dep_both env bob one_e18;
  let sync0 =
    signed_payload ~users:alice_pays_in env ~epoch:0 ~balance0:one_e18 ~balance1:one_e18
  in
  sync_both env [ sync0 ];
  Twin.restore env.tw ck;
  Token_bank.restore env.mirror mck;
  check_verdict "after rollback" true env;
  (* The surviving history can still be extended and re-checked. *)
  sync_both env [ sync0 ];
  check_verdict "after re-sync" true env

let test_verdict_bad_signature_reported () =
  (* The live bank was deployed under committee 7's key and accepts a
     summary committee 7 signed; the replica's genesis key is committee
     0's, so the same signature fails there and the verdict must say so
     even though both sides end on the same next-committee key. *)
  let env = make_env ~live_genesis:7 () in
  dep_both env alice one_e18;
  sync_both env
    [ signed_payload ~signer:(fun _ -> 7) ~users:alice_pays_in env ~epoch:0
        ~balance0:one_e18 ~balance1:one_e18 ];
  match Twin.compare_bank env.tw ~live:env.mirror with
  | Ok () -> Alcotest.fail "a signature the replica rejects passed the verdict"
  | Error e ->
    Alcotest.(check string) "names the rejected sync"
      "replica rejected op[1]:bank.sync: TokenBank.sync: bad committee signature for epoch 0"
      e

(* From-scratch replay as a test reference: random deposit / sync / halt
   / exit streams with checkpoint / restore / release interleaved go to
   the live bank and (when it accepts) the twin. At the end, the live
   bank, the twin's replica and a fresh bank fed only the surviving ops
   — rebuilt by truncation plus replay, never by Token_bank.restore —
   must agree on bank.meta and every position row. *)

let parties = [| alice; bob; carol |]
let milli k = U256.mul (U256.of_int k) (u "1000000000000000")
let qc_pos_id k = Position_id.of_hash (Amm_crypto.Sha256.digest_string (Printf.sprintf "qc-pos-%d" k))

let apply_op bank (op : Record.op) =
  let rej r = Result.map_error Token_bank.rejection_to_string r in
  match op with
  | Deposit { user; for_epoch; amount0; amount1 } ->
    Token_bank.deposit bank ~user ~for_epoch ~amount0 ~amount1
  | Sync signed -> rej (Result.map ignore (Token_bank.sync bank ~signed))
  | Halt { epoch } -> rej (Token_bank.halt bank ~epoch)
  | Exit { claimant } -> rej (Result.map ignore (Token_bank.emergency_exit bank ~claimant))
  | Reconcile signed -> rej (Result.map ignore (Token_bank.reconcile bank ~signed))

(* The next epoch's summary: every depositor pays in in full, one party
   is paid out of the pool, one position is written or deleted. *)
let random_sync env bank p =
  let epoch = Token_bank.last_synced_epoch bank + 1 in
  let b0, b1 =
    match Token_bank.pool bank 0 with
    | Some i -> (i.Token_bank.balance0, i.Token_bank.balance1)
    | None -> (U256.zero, U256.zero)
  in
  let deps = Token_bank.deposits_for_epoch bank ~epoch in
  let payout = U256.div b0 (U256.of_int (2 + (p mod 5))) in
  let users =
    List.mapi
      (fun i (user, (d0, d1)) ->
        { Sync_payload.user; payin0 = d0; payin1 = d1;
          payout0 = (if i = 0 then payout else U256.zero); payout1 = U256.zero })
      deps
  in
  let sum f = List.fold_left (fun a e -> U256.add a (f e)) U256.zero users in
  let in0 = sum (fun e -> e.Sync_payload.payin0) and in1 = sum (fun e -> e.Sync_payload.payin1) in
  let out0 = sum (fun e -> e.Sync_payload.payout0) in
  let pid = qc_pos_id (p mod 4) in
  let positions =
    [ { Sync_payload.pos_id = pid; owner = parties.(p mod 3); lower_tick = -60 * (1 + (p mod 3));
        upper_tick = 60 * (1 + (p mod 5)); liquidity = milli (p + 1);
        amount0 = milli (p mod 11); amount1 = milli (p mod 13); fees0 = milli (p mod 3);
        fees1 = U256.zero;
        deleted = p mod 5 = 0 && Token_bank.find_position bank pid <> None } ]
  in
  signed_payload ~users ~positions env ~epoch
    ~balance0:(U256.sub (U256.add b0 in0) out0)
    ~balance1:(U256.add b1 in1)

let bank_image bank =
  let store = Token_bank.positions_store bank in
  let ids =
    List.sort Position_id.compare
      (List.map (fun (e : Sync_payload.position_entry) -> e.Sync_payload.pos_id)
         (Token_bank.positions bank))
  in
  ( Bytes.to_string (State_codec.bank_meta_bytes bank),
    List.map
      (fun pid ->
        (Position_id.to_hex pid, Option.map Bytes.to_string (Pos_store.row_image store pid)))
      ids )

let qcheck_replay_reference =
  QCheck.Test.make ~count:50 ~name:"live, twin and fresh replay agree over rollbacks"
    QCheck.(list_of_size Gen.(5 -- 30) (pair (int_bound 7) (int_bound 1000)))
    (fun cmds ->
      let env = make_env () in
      let live = env.mirror in
      let surviving = ref [] (* newest first *) in
      let cks = ref [] (* newest first: bank, twin, surviving length *) in
      let run op =
        match apply_op live op with
        | Ok () ->
          Twin.bank_op env.tw op;
          surviving := op :: !surviving
        | Error _ -> ()
      in
      let synced () = Token_bank.last_synced_epoch live in
      List.iter
        (fun (kind, p) ->
          match kind with
          | 0 | 1 ->
            run
              (Deposit
                 { user = parties.(p mod 3); for_epoch = synced () + 1 + (p mod 2);
                   amount0 = milli (p + 1); amount1 = milli ((p mod 7) + 1) })
          | 2 -> if synced () + 2 < 32 then run (Sync [ random_sync env live p ])
          | 3 -> if p mod 3 = 0 then run (Halt { epoch = synced () })
          | 4 -> run (Exit { claimant = parties.(p mod 3) })
          | 5 ->
            cks :=
              (Token_bank.checkpoint live, Twin.checkpoint env.tw, List.length !surviving)
              :: !cks
          | 6 -> (
            match List.filteri (fun i _ -> i >= p mod (max 1 (List.length !cks))) !cks with
            | (bck, tck, n) :: older ->
              Token_bank.restore live bck;
              Twin.restore env.tw tck;
              surviving := List.filteri (fun i _ -> i >= List.length !surviving - n) !surviving;
              cks := older
            | [] -> ())
          | _ -> (
            (* Release a checkpoint: nothing older will be restored. *)
            let keep = 1 + (p mod max 1 (List.length !cks)) in
            match List.filteri (fun i _ -> i < keep) !cks with
            | [] -> ()
            | kept ->
              let bck, tck, _ = List.nth kept (List.length kept - 1) in
              Token_bank.release_checkpoint live bck;
              Twin.release env.tw tck;
              cks := kept))
        cmds;
      let fresh, _, _ = make_bank ~vk:(snd env.keys.(0)) in
      List.iter
        (fun op ->
          match apply_op fresh op with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "fresh replay rejected %s: %s"
                         (Record.describe (Record.Op op)) e)
        (List.rev !surviving);
      let want = bank_image live in
      if bank_image fresh <> want then QCheck.Test.fail_report "fresh replay differs from live";
      if Twin.what_if env.tw bank_image <> want then
        QCheck.Test.fail_report "twin replica differs from live";
      match Twin.compare_bank env.tw ~live with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "compare_bank: %s" e)

(* ------------------------------------------------------------------ *)
(* Time travel and what-if                                             *)
(* ------------------------------------------------------------------ *)

let test_time_travel () =
  let env = make_env () in
  seed_scalars env;
  let row = Bytes.make 192 'r' in
  Twin.record env.tw ~label:"swap" [ (Twin.Dep_row alice, Some row) ];
  dep_both env alice one_e18;
  let lv0 =
    live env
      ~dep:(fun a -> if Address.equal a alice then Some row else None)
      ~dep_dirty:(fun () -> [ alice ])
      ()
  in
  Alcotest.(check (list string)) "epoch 0 clean" []
    (List.map Twin.report_to_string (Twin.audit env.tw ~epoch:0 lv0));
  dep_both env bob (U256.mul one_e18 U256.two);
  Alcotest.(check (list string)) "epoch 1 clean" []
    (List.map Twin.report_to_string (Twin.audit env.tw ~epoch:1 (live env ())));
  let v = Twin.view env.tw in
  Alcotest.(check (list int)) "sealed epochs" [ 0; 1 ] (Twin.epochs_sealed v);
  (match Twin.custody_at v ~epoch:0 with
  | Some (c0, c1) ->
    Alcotest.(check string) "custody0 at epoch 0" (U256.to_string one_e18)
      (U256.to_string c0);
    Alcotest.(check string) "custody1 at epoch 0" (U256.to_string one_e18)
      (U256.to_string c1)
  | None -> Alcotest.fail "no custody at epoch 0");
  (match Twin.custody_at v ~epoch:1 with
  | Some (c0, _) ->
    Alcotest.(check string) "custody grew" (U256.to_string (U256.mul one_e18 (U256.of_int 3)))
      (U256.to_string c0)
  | None -> Alcotest.fail "no custody at epoch 1");
  Alcotest.(check bool) "row readable at its seal" true
    (Twin.read_at v ~epoch:0 (Twin.Dep_row alice) = Some row);
  (* Epoch-local deposit rows are dropped at the seal: the row is absent
     from the next epoch's snapshot. *)
  Alcotest.(check bool) "row absent next epoch" true
    (Twin.read_at v ~epoch:1 (Twin.Dep_row alice) = None);
  Alcotest.(check bool) "no custody at unsealed epoch" true
    (Twin.custody_at v ~epoch:9 = None)

let test_what_if_discards_effects () =
  let env = make_env () in
  seed_scalars env;
  dep_both env alice one_e18;
  (* Speculatively deposit against the replica: the value is observable
     inside the fork and gone afterwards. *)
  let spec =
    Twin.what_if env.tw (fun bank ->
        (match
           Token_bank.deposit bank ~user:alice ~for_epoch:1 ~amount0:one_e18
             ~amount1:U256.zero
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        fst (Token_bank.total_custody bank))
  in
  Alcotest.(check string) "fork saw the deposit"
    (U256.to_string (U256.mul one_e18 U256.two))
    (U256.to_string spec);
  (* The audit against the untouched mirror still passes: nothing
     leaked out of the fork. *)
  match Twin.audit env.tw ~epoch:0 (live env ()) with
  | [] -> ()
  | rs -> Alcotest.fail (Printf.sprintf "what_if leaked: %d reports" (List.length rs))

(* ------------------------------------------------------------------ *)
(* System-level equivalence                                            *)
(* ------------------------------------------------------------------ *)

let sys_base =
  { Config.default with
    epochs = 3;
    daily_volume = 30_000;
    users = 12;
    miners = 40;
    committee_size = 13;
    max_faulty = 4;
    seed = "twin-system-tests" }

let check_detection (r : System.result) =
  (* Every corruption that landed must be reported in the same epoch,
     keyed by the twin's own key string. *)
  List.iter
    (fun (e, k) ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d corruption of %s caught in-epoch" e k)
        true
        (List.exists
           (fun rep ->
             rep.Twin.r_epoch = e && Twin.key_to_string rep.Twin.r_key = k)
           r.System.twin_reports))
    r.System.twin_injections

let qcheck_twin_matches_live =
  QCheck.Test.make ~count:6 ~name:"twin equals live over random fault interleavings"
    QCheck.(pair (int_bound 1000) (int_bound 2))
    (fun (n, intensity_idx) ->
      (* Chaos exercises reorgs, sync drops, degraded signing and
         watchdog transitions; corruption stays off, so any divergence
         is a false positive. *)
      let faults =
        match intensity_idx with
        | 0 -> Faults.Fault_plan.none
        | 1 -> Faults.Fault_plan.chaos ~intensity:0.04 ()
        | _ -> Faults.Fault_plan.chaos ~intensity:0.08 ()
      in
      let cfg =
        { sys_base with
          Config.faults;
          mc_confirmations = (if intensity_idx = 0 then sys_base.Config.mc_confirmations else 3);
          seed = Printf.sprintf "twin-qc-%d-%d" n intensity_idx }
      in
      let r = System.run cfg in
      r.System.twin_audits > 0
      && r.System.twin_divergences = 0
      && r.System.twin_consistent
      && r.System.twin_injections = []
      && r.System.replay_consistent)

let test_scripted_corruption_detected () =
  let spr = sys_base.Config.sc_rounds_per_epoch in
  List.iter
    (fun (label, target) ->
      let cfg =
        { sys_base with
          Config.faults =
            { Faults.Fault_plan.none with
              Faults.Fault_plan.corruption =
                { Faults.Fault_plan.corruption_rate = 0.0;
                  corruption_script = [ (1, spr - 1, target) ] } };
          seed = sys_base.Config.seed ^ "-" ^ label }
      in
      let r = System.run cfg in
      Alcotest.(check bool) (label ^ " landed") true (r.System.twin_injections <> []);
      Alcotest.(check bool) (label ^ " flagged") false r.System.twin_consistent;
      check_detection r;
      Alcotest.(check bool) (label ^ " left normal mode") true
        (r.System.mode_transitions <> []))
    [ ("dep", Faults.Fault_plan.Deposit_row);
      ("pos", Faults.Fault_plan.Position_slab);
      ("tick", Faults.Fault_plan.Pool_tick) ]

let test_twin_covers_halt_exit_reconcile () =
  (* Quorum starvation: degraded → halted (exits served) → reconcile →
     normal. The twin replays the halt, every exit and the reconcile on
     its replica and must still match the live bank byte-for-byte. *)
  let cfg =
    { sys_base with
      Config.epochs = 8;
      faults =
        { Faults.Fault_plan.none with
          Faults.Fault_plan.scenario =
            { Faults.Fault_plan.quorum_starvation = Some (2, 5); committee_loss = None } };
      watchdog =
        { Config.default_watchdog with Config.wd_stall_degraded = 2; wd_stall_halted = 4 };
      seed = "twin-halt-cycle" }
  in
  let r = System.run cfg in
  Alcotest.(check string) "recovered" "normal" r.System.final_mode;
  Alcotest.(check bool) "exits happened" true (r.System.exits_served > 0);
  Alcotest.(check bool) "reconciliation applied" true (r.System.reconciliation <> None);
  Alcotest.(check int) "no twin divergence across the cycle" 0 r.System.twin_divergences;
  Alcotest.(check bool) "twin audited the run" true (r.System.twin_audits > 0);
  Alcotest.(check bool) "replay oracle (oracle of the oracle)" true
    r.System.replay_consistent

let test_twin_off_runs_clean () =
  let cfg = { sys_base with Config.twin_audit = false; seed = "twin-off" } in
  let r = System.run cfg in
  Alcotest.(check int) "no audits" 0 r.System.twin_audits;
  Alcotest.(check bool) "vacuously consistent" true r.System.twin_consistent;
  Alcotest.(check bool) "no view" true (r.System.twin_view = None);
  Alcotest.(check bool) "replay oracle still on" true r.System.replay_consistent

let () =
  Alcotest.run "twin"
    [ ( "audit",
        [ Alcotest.test_case "clean audit reports nothing" `Quick test_clean_audit;
          Alcotest.test_case "bisects to the exact op index" `Quick
            test_bisects_exact_op_index;
          Alcotest.test_case "out-of-band corruption has no culprit" `Quick
            test_out_of_band_has_no_culprit;
          Alcotest.test_case "live bank drift is bank-layer divergence" `Quick
            test_live_bank_drift_is_bank_layer_divergence;
          Alcotest.test_case "replica rejection surfaces" `Quick
            test_replica_rejection_surfaces;
          Alcotest.test_case "checkpoint/restore reorg symmetry" `Quick
            test_checkpoint_restore_reorg_symmetry ] );
      ( "verdict",
        [ Alcotest.test_case "faithful stream agrees" `Quick test_verdict_faithful_stream;
          Alcotest.test_case "phantom deposit flagged" `Quick test_verdict_phantom_deposit;
          Alcotest.test_case "restore then re-sync agrees" `Quick
            test_verdict_restore_then_resync;
          Alcotest.test_case "bad signature under the replica's key reported" `Quick
            test_verdict_bad_signature_reported;
          QCheck_alcotest.to_alcotest ~long:false qcheck_replay_reference ] );
      ( "time-travel",
        [ Alcotest.test_case "custody_at / read_at / epochs_sealed" `Quick
            test_time_travel;
          Alcotest.test_case "what_if discards effects" `Quick
            test_what_if_discards_effects ] );
      ( "system",
        [ QCheck_alcotest.to_alcotest ~long:false qcheck_twin_matches_live;
          Alcotest.test_case "scripted corruption detected in-epoch" `Slow
            test_scripted_corruption_detected;
          Alcotest.test_case "halt/exit/reconcile cycle stays consistent" `Slow
            test_twin_covers_halt_exit_reconcile;
          Alcotest.test_case "twin off: no audits, oracle intact" `Quick
            test_twin_off_runs_clean ] ) ]
