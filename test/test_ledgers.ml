(* Mainchain ledgers: the ERC20 contract and TokenBank's epoch deposit
   book. Golden pins of a full System.run's bank-op stream, replayed
   through a fresh TokenBank with checkpoints and reorg restores. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Erc20 = Mainchain.Erc20
module Bls = Amm_crypto.Bls
open Tokenbank

let tmp_dir () =
  let f = Filename.temp_file "ammboost-test-ledgers" "" in
  Sys.remove f;
  Durable.Fsio.mkdir_p f;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let u = U256.of_int
let check_u256 = Alcotest.testable U256.pp U256.equal

(* ------------------------------------------------------------------ *)
(* ERC20: flat slots vs the persistent-map reference                   *)
(* ------------------------------------------------------------------ *)

module R = Erc20_reference

let accounts = Array.init 6 (fun i -> Address.of_label (Printf.sprintf "ledger-acct-%d" i))

type erc_op =
  | Mint of int * int
  | Approve of int * int * int option  (* [None] = infinite *)
  | Transfer of int * int * int
  | Transfer_from of int * int * int * int  (* spender, source, dest, amount *)
  | Checkpoint
  | Restore of int  (* index into the restorable checkpoints *)
  | Release of int

let print_erc_op = function
  | Mint (a, x) -> Printf.sprintf "mint %d %d" a x
  | Approve (o, s, x) ->
    Printf.sprintf "approve %d->%d %s" o s
      (match x with Some x -> string_of_int x | None -> "inf")
  | Transfer (a, b, x) -> Printf.sprintf "transfer %d->%d %d" a b x
  | Transfer_from (sp, a, b, x) -> Printf.sprintf "transfer_from[%d] %d->%d %d" sp a b x
  | Checkpoint -> "checkpoint"
  | Restore i -> Printf.sprintf "restore %d" i
  | Release i -> Printf.sprintf "release %d" i

let gen_erc_op =
  let open QCheck2.Gen in
  let acct = int_range 0 5 and amt = int_range 0 300 in
  frequency
    [ (3, map2 (fun a x -> Mint (a, x)) acct (int_range 0 1000));
      (2, map3 (fun o s x -> Approve (o, s, x)) acct acct
            (frequency [ (3, map Option.some amt); (1, return None) ]));
      (4, map3 (fun a b x -> Transfer (a, b, x)) acct acct amt);
      (4, map2 (fun (sp, a, b) x -> Transfer_from (sp, a, b, x))
            (triple acct acct acct) (int_range 1 300));
      (2, return Checkpoint);
      (1, map (fun i -> Restore i) (int_range 0 7));
      (1, map (fun i -> Release i) (int_range 0 7)) ]

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r
let take n l = List.filteri (fun i _ -> i < n) l

let run_erc_stream ops =
  let tok = Chain.Token.make ~id:0 ~symbol:"TKA" in
  let flat = Erc20.deploy tok and refr = R.deploy tok in
  (* Restorable checkpoints, oldest first. *)
  let live = ref [] in
  let result_str = function Ok () -> "ok" | Error e -> e in
  List.iteri
    (fun step op ->
      let fail what a b =
        QCheck2.Test.fail_reportf "step %d (%s): %s: flat %s, reference %s" step
          (print_erc_op op) what a b
      in
      let same what a b = if a <> b then fail what a b in
      let m1 = Mainchain.Gas.meter () and m2 = Mainchain.Gas.meter () in
      (match op with
      | Mint (a, x) ->
        Erc20.mint flat accounts.(a) (u x);
        R.mint refr accounts.(a) (u x)
      | Approve (o, s, x) ->
        let x = match x with Some x -> u x | None -> U256.max_value in
        Erc20.approve ~meter:m1 flat ~owner:accounts.(o) ~spender:accounts.(s) x;
        R.approve ~meter:m2 refr ~owner:accounts.(o) ~spender:accounts.(s) x
      | Transfer (a, b, x) ->
        same "result"
          (result_str
             (Erc20.transfer ~meter:m1 flat ~source:accounts.(a) ~dest:accounts.(b) (u x)))
          (result_str
             (R.transfer ~meter:m2 refr ~source:accounts.(a) ~dest:accounts.(b) (u x)))
      | Transfer_from (sp, a, b, x) ->
        same "result"
          (result_str
             (Erc20.transfer_from ~meter:m1 flat ~spender:accounts.(sp)
                ~source:accounts.(a) ~dest:accounts.(b) (u x)))
          (result_str
             (R.transfer_from ~meter:m2 refr ~spender:accounts.(sp) ~source:accounts.(a)
                ~dest:accounts.(b) (u x)))
      | Checkpoint -> live := !live @ [ (Erc20.checkpoint flat, R.checkpoint refr) ]
      | Restore i ->
        if !live <> [] then begin
          let k = i mod List.length !live in
          let ck, rck = List.nth !live k in
          Erc20.restore flat ck;
          R.restore refr rck;
          live := take (k + 1) !live
        end
      | Release i ->
        if !live <> [] then begin
          let k = i mod List.length !live in
          Erc20.release flat (fst (List.nth !live k));
          live := drop k !live
        end);
      same "gas" (string_of_int (Mainchain.Gas.total m1))
        (string_of_int (Mainchain.Gas.total m2));
      same "total_supply" (U256.to_string (Erc20.total_supply flat))
        (U256.to_string (R.total_supply refr));
      Array.iteri
        (fun i a ->
          same (Printf.sprintf "balance %d" i) (U256.to_string (Erc20.balance_of flat a))
            (U256.to_string (R.balance_of refr a));
          Array.iteri
            (fun j b ->
              same (Printf.sprintf "allowance %d->%d" i j)
                (U256.to_string (Erc20.allowance flat ~owner:a ~spender:b))
                (U256.to_string (R.allowance refr ~owner:a ~spender:b)))
            accounts)
        accounts)
    ops;
  true

let prop_erc20_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"erc20 matches the persistent-map reference"
       ~print:(fun ops -> String.concat "; " (List.map print_erc_op ops))
       QCheck2.Gen.(list_size (int_range 1 80) gen_erc_op)
       run_erc_stream)

(* ------------------------------------------------------------------ *)
(* TokenBank deposit book vs an assoc-list model                       *)
(* ------------------------------------------------------------------ *)

type bank_op =
  | Deposit of int * int * int * int  (* user, epochs ahead of the frontier, amounts *)
  | Sync of (int * int * int * int * int) list
      (* per listed user: index, payin seeds (reduced to what the deposit
         plus payout can cover), payouts *)
  | B_checkpoint
  | B_restore of int
  | B_release of int

let print_bank_op = function
  | Deposit (w, ahead, a0, a1) -> Printf.sprintf "deposit %d +%d %d/%d" w ahead a0 a1
  | Sync users ->
    Printf.sprintf "sync [%s]"
      (String.concat ","
         (List.map (fun (w, i0, i1, o0, o1) -> Printf.sprintf "%d:%d/%d:%d/%d" w i0 i1 o0 o1)
            users))
  | B_checkpoint -> "checkpoint"
  | B_restore i -> Printf.sprintf "restore %d" i
  | B_release i -> Printf.sprintf "release %d" i

let gen_bank_op =
  let open QCheck2.Gen in
  let who = int_range 0 5 and amt = int_range 0 500 in
  frequency
    [ (6, map2 (fun (w, ahead) (a0, a1) -> Deposit (w, ahead, a0, a1))
            (pair who (int_range 0 2)) (pair amt amt));
      (2, map (fun l -> Sync l)
            (list_size (int_range 0 4)
               (map2 (fun (w, i0, i1) (o0, o1) -> (w, i0, i1, o0, o1))
                  (triple who (int_range 0 1000) (int_range 0 1000))
                  (pair (int_range 0 200) (int_range 0 200)))));
      (2, return B_checkpoint);
      (1, map (fun i -> B_restore i) (int_range 0 7));
      (1, map (fun i -> B_release i) (int_range 0 7)) ]

(* The model: pending deposits as an assoc list epoch -> user -> amounts,
   custody and pool balances as plain ints, the synced frontier. *)
type model = {
  deps : (int * (int * (int * int)) list) list;
  custody : int * int;
  pool : int * int;
  synced : int;
}

let bank_keys = lazy (let rng = Amm_crypto.Rng.create "ledger-model-keys" in
                      Array.init 48 (fun _ -> Bls.keygen rng))

let model_deposit m ~epoch ~user (a0, a1) =
  let book = Option.value ~default:[] (List.assoc_opt epoch m.deps) in
  let d0, d1 = Option.value ~default:(0, 0) (List.assoc_opt user book) in
  let book = (user, (d0 + a0, d1 + a1)) :: List.remove_assoc user book in
  let c0, c1 = m.custody in
  { m with deps = (epoch, book) :: List.remove_assoc epoch m.deps;
           custody = (c0 + a0, c1 + a1) }

let model_book m epoch =
  List.sort
    (fun (a, _) (b, _) -> Address.compare accounts.(a) accounts.(b))
    (Option.value ~default:[] (List.assoc_opt epoch m.deps))

let run_bank_stream ops =
  let keys = Lazy.force bank_keys in
  let erc0 = Erc20.deploy (Chain.Token.make ~id:0 ~symbol:"TKA") in
  let erc1 = Erc20.deploy (Chain.Token.make ~id:1 ~symbol:"TKB") in
  let bank = Token_bank.deploy ~token0:erc0 ~token1:erc1 ~genesis_committee_vk:(snd keys.(0)) in
  let pool_id = Token_bank.create_pool bank ~flash_fee_pips:3000 in
  Array.iter
    (fun a ->
      List.iter
        (fun erc ->
          Erc20.mint erc a (u 1_000_000_000);
          Erc20.approve erc ~owner:a ~spender:(Token_bank.address bank) U256.max_value)
        [ erc0; erc1 ])
    accounts;
  let m = ref { deps = []; custody = (0, 0); pool = (0, 0); synced = -1 } in
  let live = ref [] in
  List.iteri
    (fun step op ->
      let fail fmt =
        Printf.ksprintf
          (fun s -> QCheck2.Test.fail_reportf "step %d (%s): %s" step (print_bank_op op) s)
          fmt
      in
      (match op with
      | Deposit (w, ahead, a0, a1) ->
        let epoch = !m.synced + 1 + ahead in
        (match
           Token_bank.deposit bank ~user:accounts.(w) ~for_epoch:epoch ~amount0:(u a0)
             ~amount1:(u a1)
         with
        | Ok () -> m := model_deposit !m ~epoch ~user:w (a0, a1)
        | Error e -> fail "deposit rejected: %s" e)
      | Sync listed ->
        let epoch = !m.synced + 1 in
        let remaining = ref (Option.value ~default:[] (List.assoc_opt epoch !m.deps)) in
        let sent0 = ref 0 and sent1 = ref 0 in
        let in0 = ref 0 and in1 = ref 0 and out0 = ref 0 and out1 = ref 0 in
        let flow d payin payout =
          let short = max 0 (payin - d) and residual = max 0 (d - payin) in
          (max payout short - short) + residual
        in
        let users =
          List.map
            (fun (w, s0, s1, o0, o1) ->
              let d0, d1 = Option.value ~default:(0, 0) (List.assoc_opt w !remaining) in
              remaining := List.remove_assoc w !remaining;
              let i0 = s0 mod (d0 + o0 + 1) and i1 = s1 mod (d1 + o1 + 1) in
              sent0 := !sent0 + flow d0 i0 o0;
              sent1 := !sent1 + flow d1 i1 o1;
              in0 := !in0 + i0;
              in1 := !in1 + i1;
              out0 := !out0 + o0;
              out1 := !out1 + o1;
              { Sync_payload.user = accounts.(w); payin0 = u i0; payin1 = u i1;
                payout0 = u o0; payout1 = u o1 })
            listed
        in
        List.iter
          (fun (_, (d0, d1)) ->
            sent0 := !sent0 + d0;
            sent1 := !sent1 + d1)
          !remaining;
        let p0, p1 = !m.pool in
        let np0 = p0 + !in0 - !out0 and np1 = p1 + !in1 - !out1 in
        let payload =
          { Sync_payload.epoch; pool = pool_id; pool_balance0 = u (max 0 np0);
            pool_balance1 = u (max 0 np1); users; positions = [];
            next_committee_vk = snd keys.(epoch + 1) }
        in
        let signature = Bls.sign (fst keys.(epoch)) (Sync_payload.signing_bytes payload) in
        (match Token_bank.sync bank ~signed:[ (payload, signature) ] with
        | Ok _ when np0 >= 0 && np1 >= 0 ->
          let c0, c1 = !m.custody in
          m :=
            { deps = List.remove_assoc epoch !m.deps;
              custody = (c0 - !sent0, c1 - !sent1); pool = (np0, np1); synced = epoch }
        | Ok _ -> fail "sync accepted with payouts beyond the pool"
        | Error (Token_bank.Conservation_violation _) when np0 < 0 || np1 < 0 -> ()
        | Error r -> fail "sync rejected: %s" (Token_bank.rejection_to_string r))
      | B_checkpoint -> live := !live @ [ (Token_bank.checkpoint bank, !m) ]
      | B_restore i ->
        if !live <> [] then begin
          let k = i mod List.length !live in
          let ck, saved = List.nth !live k in
          Token_bank.restore bank ck;
          m := saved;
          live := take (k + 1) !live
        end
      | B_release i ->
        if !live <> [] then begin
          let k = i mod List.length !live in
          Token_bank.release_checkpoint bank (fst (List.nth !live k));
          live := drop k !live
        end);
      let entries = List.fold_left (fun acc (_, b) -> acc + List.length b) 0 !m.deps in
      if Token_bank.storage_words bank <> 6 + (3 * entries) then
        fail "storage_words %d, model %d" (Token_bank.storage_words bank) (6 + (3 * entries));
      let c0, c1 = Token_bank.total_custody bank in
      if not (U256.equal c0 (u (fst !m.custody)) && U256.equal c1 (u (snd !m.custody))) then
        fail "custody %s/%s, model %d/%d" (U256.to_string c0) (U256.to_string c1)
          (fst !m.custody) (snd !m.custody);
      for epoch = 0 to !m.synced + 4 do
        let expect =
          List.map (fun (w, (d0, d1)) -> (accounts.(w), (u d0, u d1))) (model_book !m epoch)
        in
        let got = Token_bank.deposits_for_epoch bank ~epoch in
        if
          List.length got <> List.length expect
          || not
               (List.for_all2
                  (fun (a, (x0, x1)) (b, (y0, y1)) ->
                    Address.equal a b && U256.equal x0 y0 && U256.equal x1 y1)
                  got expect)
        then fail "deposits_for_epoch %d differs from the model" epoch;
        let t0, t1 = Token_bank.deposit_totals bank ~epoch in
        let s0 = List.fold_left (fun acc (_, (d, _)) -> acc + d) 0 (model_book !m epoch) in
        let s1 = List.fold_left (fun acc (_, (_, d)) -> acc + d) 0 (model_book !m epoch) in
        if not (U256.equal t0 (u s0) && U256.equal t1 (u s1)) then
          fail "deposit_totals %d differs from the model" epoch
      done)
    ops;
  true

let prop_bank_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"deposit book matches an assoc-list model"
       ~print:(fun ops -> String.concat "; " (List.map print_bank_op ops))
       QCheck2.Gen.(list_size (int_range 1 60) gen_bank_op)
       run_bank_stream)

(* ------------------------------------------------------------------ *)
(* Journal bound                                                       *)
(* ------------------------------------------------------------------ *)

let test_journal_first_write_only () =
  let erc = Erc20.deploy (Chain.Token.make ~id:0 ~symbol:"TKA") in
  let a = accounts.(0) and b = accounts.(1) in
  Erc20.mint erc a (u 5_000);
  Erc20.mint erc b (u 7_000);
  Alcotest.(check int) "nothing journaled before a checkpoint" 0 (Erc20.journal_length erc);
  let ck = Erc20.checkpoint erc in
  for i = 1 to 1_000 do
    let source, dest = if i mod 2 = 0 then (a, b) else (b, a) in
    match Erc20.transfer erc ~source ~dest (u i) with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done;
  Alcotest.(check bool) "at most one entry per touched slot" true
    (Erc20.journal_length erc <= 2);
  Erc20.restore erc ck;
  Alcotest.check check_u256 "a restored" (u 5_000) (Erc20.balance_of erc a);
  Alcotest.check check_u256 "b restored" (u 7_000) (Erc20.balance_of erc b);
  Alcotest.check check_u256 "supply" (u 12_000) (Erc20.total_supply erc)

let test_bank_journal_bound () =
  let keys = Lazy.force bank_keys in
  let erc0 = Erc20.deploy (Chain.Token.make ~id:0 ~symbol:"TKA") in
  let erc1 = Erc20.deploy (Chain.Token.make ~id:1 ~symbol:"TKB") in
  let bank = Token_bank.deploy ~token0:erc0 ~token1:erc1 ~genesis_committee_vk:(snd keys.(0)) in
  ignore (Token_bank.create_pool bank ~flash_fee_pips:3000);
  let user = accounts.(2) in
  List.iter
    (fun erc ->
      Erc20.mint erc user (u 1_000_000);
      Erc20.approve erc ~owner:user ~spender:(Token_bank.address bank) U256.max_value)
    [ erc0; erc1 ];
  let deposit () =
    match Token_bank.deposit bank ~user ~for_epoch:0 ~amount0:(u 3) ~amount1:(u 4) with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  deposit ();
  Alcotest.(check int) "nothing journaled before a checkpoint" 0
    (Token_bank.journal_length bank);
  let ck = Token_bank.checkpoint bank in
  for _ = 1 to 1_000 do deposit () done;
  (* Two ERC20 slots per token (user, bank) plus the user's book slot. *)
  Alcotest.(check bool) "at most one entry per touched slot" true
    (Token_bank.journal_length bank <= 5);
  Token_bank.restore bank ck;
  let d0, d1 = Token_bank.deposit_of bank ~epoch:0 user in
  Alcotest.check check_u256 "deposit0" (u 3) d0;
  Alcotest.check check_u256 "deposit1" (u 4) d1;
  Alcotest.check check_u256 "custody" (u 3) (fst (Token_bank.total_custody bank));
  Alcotest.check check_u256 "user balance" (u 999_997) (Erc20.balance_of erc0 user)

(* ------------------------------------------------------------------ *)
(* Golden pins: a 200-user, 4-epoch run with one mainchain rollback    *)
(* ------------------------------------------------------------------ *)

let golden_cfg =
  { Ammboost.Config.default with
    Ammboost.Config.epochs = 4;
    users = 200;
    daily_volume = 20_000;
    miners = 20;
    committee_size = 7;
    max_faulty = 2;
    interruptions = [ Ammboost.Config.Mainchain_rollback 1 ];
    seed = "ledger-golden" }

let wal_records ~dir =
  List.concat_map
    (fun (_, path) ->
      match Durable.Wal.read_segment path with
      | Ok rr -> rr.Durable.Wal.rr_records
      | Error e -> Alcotest.fail e)
    (Durable.Wal.list ~dir)

(* The run's bank-op stream (the WAL), as the live TokenBank applied it. *)
let golden_stream =
  lazy
    (let dir = tmp_dir () in
     let s = Durable.Session.open_ ~dir ~snapshot_every:0 () in
     let r = Ammboost.System.run ~durable:s golden_cfg in
     let records = wal_records ~dir in
     rm_rf dir;
     (r, records))

let faucet = U256.of_string "1000000000000000000000000000000"

(* Replays the stream into a fresh bank. The run's committee keys are not
   observable from outside, so each summary is re-keyed onto a local key
   chain (next_committee_vk rewritten, re-signed); the vk never touches
   custody, storage words or deposits. Checkpoints are taken before each
   sync, paired with the op count, exactly as the system pairs them, and
   a [Truncate] restores the matching one. *)
let replay_stream records =
  let rng = Amm_crypto.Rng.create "ledger-golden-keys" in
  let keys = Array.init 40 (fun _ -> Bls.keygen rng) in
  let erc0 = Erc20.deploy (Chain.Token.make ~id:0 ~symbol:"TKA") in
  let erc1 = Erc20.deploy (Chain.Token.make ~id:1 ~symbol:"TKB") in
  let bank =
    Token_bank.deploy ~token0:erc0 ~token1:erc1 ~genesis_committee_vk:(snd keys.(0))
  in
  ignore (Token_bank.create_pool bank ~flash_fee_pips:golden_cfg.Ammboost.Config.fee_pips);
  let key_ix = ref 0 and ops = ref 0 and cks = ref [] in
  let trace = Buffer.create 65536 and lines = ref [] in
  let resign signed =
    List.map
      (fun (p, _) ->
        let p = { p with Sync_payload.next_committee_vk = snd keys.(!key_ix + 1) } in
        let s = Bls.sign (fst keys.(!key_ix)) (Sync_payload.signing_bytes p) in
        incr key_ix;
        (p, s))
      signed
  in
  let deposits_hex e =
    let b = Buffer.create 4096 in
    List.iter
      (fun (a, (d0, d1)) ->
        Buffer.add_string b (Address.to_hex a);
        Buffer.add_char b ':';
        Buffer.add_string b (U256.to_string d0);
        Buffer.add_char b ',';
        Buffer.add_string b (U256.to_string d1);
        Buffer.add_char b ';')
      (Token_bank.deposits_for_epoch bank ~epoch:e);
    String.sub (Amm_crypto.Sha256.hex (Buffer.contents b)) 0 16
  in
  (* Every op leaves custody and storage words in the trace digest; syncs
     and restores also pin each epoch's deposit book. *)
  let state label =
    let c0, c1 = Token_bank.total_custody bank in
    let line =
      Printf.sprintf "%s custody=%s,%s words=%d" label (U256.to_string c0)
        (U256.to_string c1) (Token_bank.storage_words bank)
    in
    Buffer.add_string trace line;
    Buffer.add_char trace '\n';
    line
  in
  let observe label =
    Printf.sprintf "%s deps=%s" (state label) (String.concat "," (List.init 7 deposits_hex))
  in
  let fund user =
    let spender = Token_bank.address bank in
    if U256.is_zero (Erc20.allowance erc0 ~owner:user ~spender) then begin
      Erc20.mint erc0 user faucet;
      Erc20.mint erc1 user faucet;
      Erc20.approve erc0 ~owner:user ~spender U256.max_value;
      Erc20.approve erc1 ~owner:user ~spender U256.max_value
    end
  in
  List.iter
    (function
      | Durable.Record.Truncate { keep } ->
        (match List.find_opt (fun (i, _, _) -> i = keep) !cks with
        | Some (_, ck, k) ->
          Token_bank.restore bank ck;
          key_ix := k
        | None -> Alcotest.failf "no checkpoint at op %d" keep);
        cks := List.filter (fun (i, _, _) -> i < keep) !cks;
        ops := keep;
        lines := observe (Printf.sprintf "truncate@%d" keep) :: !lines
      | Durable.Record.Op op ->
        (match op with
        | Durable.Record.Deposit { user; for_epoch; amount0; amount1 } ->
          fund user;
          (match Token_bank.deposit bank ~user ~for_epoch ~amount0 ~amount1 with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          ignore (state (Printf.sprintf "op%d" !ops))
        | Durable.Record.Sync signed ->
          cks := (!ops, Token_bank.checkpoint bank, !key_ix) :: !cks;
          (match Token_bank.sync bank ~signed:(resign signed) with
          | Ok _ -> ()
          | Error r -> Alcotest.fail (Token_bank.rejection_to_string r));
          lines :=
            observe
              (Printf.sprintf "sync@%d e=%d" !ops (Token_bank.last_synced_epoch bank))
            :: !lines
        | Durable.Record.Halt { epoch } ->
          ignore (Token_bank.halt bank ~epoch);
          ignore (state (Printf.sprintf "op%d" !ops))
        | Durable.Record.Exit { claimant } ->
          ignore (Token_bank.emergency_exit bank ~claimant);
          ignore (state (Printf.sprintf "op%d" !ops))
        | Durable.Record.Reconcile signed ->
          ignore (Token_bank.reconcile bank ~signed:(resign signed));
          ignore (state (Printf.sprintf "op%d" !ops)));
        incr ops)
    records;
  (List.rev !lines, Amm_crypto.Sha256.hex (Buffer.contents trace))

(* Captured from the persistent-map ledgers (Address.Map balances and
   deposit books) before the flat-slot rewrite; the flat ledgers must
   reproduce them exactly. *)
let golden_lines =
  [
      "sync@600 e=0 custody=5000017036821707870959742,5000017145949915292771891 words=1236 deps=e3b0c44298fc1c14,c47285aaa85bbcd7,c47285aaa85bbcd7,e3b0c44298fc1c14,e3b0c44298fc1c14,e3b0c44298fc1c14,e3b0c44298fc1c14";
      "sync@801 e=1 custody=5000022133996798154231582,5000020270127423978050283 words=1248 deps=e3b0c44298fc1c14,e3b0c44298fc1c14,c47285aaa85bbcd7,c47285aaa85bbcd7,e3b0c44298fc1c14,e3b0c44298fc1c14,e3b0c44298fc1c14";
      "truncate@801 custody=7000017036821707870959742,7000017145949915292771891 words=1836 deps=e3b0c44298fc1c14,c47285aaa85bbcd7,c47285aaa85bbcd7,c47285aaa85bbcd7,e3b0c44298fc1c14,e3b0c44298fc1c14,e3b0c44298fc1c14";
      "sync@801 e=1 custody=5000022133996798154231582,5000020270127423978050283 words=1248 deps=e3b0c44298fc1c14,e3b0c44298fc1c14,c47285aaa85bbcd7,c47285aaa85bbcd7,e3b0c44298fc1c14,e3b0c44298fc1c14,e3b0c44298fc1c14";
      "sync@1002 e=2 custody=5000030414403784322051379,5000037201183746968124294 words=1254 deps=e3b0c44298fc1c14,e3b0c44298fc1c14,e3b0c44298fc1c14,c47285aaa85bbcd7,c47285aaa85bbcd7,e3b0c44298fc1c14,e3b0c44298fc1c14";
      "sync@1203 e=3 custody=5000030997307241729004360,5000046548934974815460069 words=1260 deps=e3b0c44298fc1c14,e3b0c44298fc1c14,e3b0c44298fc1c14,e3b0c44298fc1c14,c47285aaa85bbcd7,c47285aaa85bbcd7,e3b0c44298fc1c14";
      "sync@1404 e=4 custody=5000031347307241729004360,5000046199982821560036254 words=1260 deps=e3b0c44298fc1c14,e3b0c44298fc1c14,e3b0c44298fc1c14,e3b0c44298fc1c14,e3b0c44298fc1c14,c47285aaa85bbcd7,c47285aaa85bbcd7";
  ]

let golden_digest = "b2bc2072029d50ba901d3ca60a5a8d52f3033b0ef7d9469432c3421ae8c4656c"

let test_golden_pins () =
  let r, records = Lazy.force golden_stream in
  Alcotest.(check int) "one rollback" 1 r.Ammboost.System.rollbacks;
  Alcotest.(check bool) "replay consistent" true r.Ammboost.System.replay_consistent;
  Alcotest.(check bool) "custody consistent" true r.Ammboost.System.custody_consistent;
  let lines, digest = replay_stream records in
  Alcotest.(check (list string)) "per-sync ledger state" golden_lines lines;
  Alcotest.(check string) "per-op ledger trace" golden_digest digest

let () =
  Alcotest.run "ledgers"
    [ ("differential", [ prop_erc20_differential; prop_bank_model ]);
      ( "journal",
        [ Alcotest.test_case "erc20 first write only" `Quick test_journal_first_write_only;
          Alcotest.test_case "bank first write only" `Quick test_bank_journal_bound ] );
      ("golden", [ Alcotest.test_case "200 users, rollback" `Quick test_golden_pins ]) ]
