(* The benchmark's drive: the same workload System.run simulates, driven
   from outside by calling each layer's public functions in the order
   System.run calls them, with a span around every call.

   It reproduces System.run's fault-free path: bootstrap, per-epoch
   election and committee keys, rounds of traffic → mempool → processor
   (with the state twin's op tap) → consensus → meta-blocks, the epoch
   summary, signing and Sync submission, the mainchain with its deposit
   and sync executions, pruning on confirmation, and the twin and
   monitor audits at epoch boundaries. The mainchain execute closures
   are the drive's own, so the TokenBank and twin work mined inside
   blocks gets its own spans, split out of Eth's self time.

   Left out on purpose: the end-of-run replay oracle, the growth ledger,
   lifecycle and metrics bookkeeping, and the liveness watchdog's mode
   machine. Their cost is what System.run spends beyond this drive.

   Faults: the drive asks the run's Fault_plan for the faults that land
   inside one layer call (crashed members, Byzantine proposers, network
   chaos, withheld and corrupted shares). Mainchain-level faults
   ([unmodeled_faults]) are not replayed, so on a chaos workload only
   the generated traffic matches System.run. *)

open Ammboost
module U256 = Amm_math.U256
module Rng = Amm_crypto.Rng
module Bls = Amm_crypto.Bls
module Tx = Chain.Tx
module Eth = Mainchain.Eth
module Erc20 = Mainchain.Erc20
module Gas = Mainchain.Gas
module Token_bank = Tokenbank.Token_bank
module Sync_payload = Tokenbank.Sync_payload
module Pos_store = Tokenbank.Pos_store
module Processor = Sidechain.Processor
module Blocks = Sidechain.Blocks
module Deposits = Sidechain.Deposits
module Fault_plan = Faults.Fault_plan
module Pool = Uniswap.Pool

let unmodeled_faults =
  [ "sync drops"; "quorum starvation"; "gas-limit congestion"; "mainchain reorgs";
    "silent sync leaders"; "corrupted syncs"; "committee loss"; "state corruption" ]

(* System.run's constants (not exported by System). *)
let genesis_liquidity = U256.of_string "1000000000000000000000000"
let faucet_amount = U256.of_string "1000000000000000000000000000000"
let deposit_lead_seconds = 96.0

type signer = Plain_key of Bls.secret_key | Shared of { shares : Bls.share list; threshold : int }
type keys = { vk : Bls.public_key; commitments : Bls.commitments; signer : signer }

type submission = { epochs : int list; mutable in_flight : bool }

type counts = {
  mutable processed : int;
  mutable rejected : int;
  mutable summary_entries : int;
  mutable summary_candidates : int;
  mutable summary_touches : int;
  mutable deposits : int;
  mutable syncs : int;
  mutable sync_rejected : int;
  mutable submits : int;
  mutable pruned : int;
  mutable consensus_rounds : int;
  mutable decided : int;
  mutable view_changes : int;
  mutable partials_rejected : int;
  mutable monitor_violations : int;
}

type result = {
  generated : int;
  counts : counts;
  mc_gas_total : int;
  wall_s : float;
  epoch_walls : float list;
  spans : Spans.span list;
  twin_record_ops : int;
  twin_audits : int;
  twin_divergences : int;
  monitor_audits : int;
  eth_blocks : int;
  eth_included : int;
  major_words : float;
  mem : (string * float) list;  (* live words per structure, megawords *)
}

type st = {
  cfg : Config.t;
  sp : Spans.t;
  c : counts;
  plan : Fault_plan.t;
  eth : Eth.t;
  bank : Token_bank.t;
  twin : Twin.t;
  pool : Pool.t;
  sc_chain : Blocks.t;
  traffic : Traffic.t;
  monitor : Monitor.t;
  users : Party.user array;
  mempool : Tx.t Chain.Mempool.t;
  rng_keys : Rng.t;
  committee_keys : (int, keys) Hashtbl.t;
  signed_payloads : (int, Sync_payload.t * Bls.signature) Hashtbl.t;
  mutable submissions : submission list;
  mutable pending_confirm : (int list * int) list;  (* epochs, inclusion height *)
  mutable checkpoints : (int * Token_bank.checkpoint * Twin.checkpoint) list;
  mutable deposits_until : int;
  mutable last_summary_epoch : int;
  mutable signing_streak : int;
  acc_deposit : Spans.acc;
  acc_twin_bank : Spans.acc;
}

let make_keys ~cfg ~rng_keys ~epoch =
  let rng = Rng.split rng_keys (Printf.sprintf "committee-%d" epoch) in
  if cfg.Config.threshold_signing then begin
    let n = cfg.Config.committee_size in
    let threshold = Stdlib.min n ((2 * cfg.Config.max_faulty) + 2) in
    let vk, commitments, shares = Bls.dkg rng ~n ~threshold in
    { vk; commitments; signer = Shared { shares; threshold } }
  end
  else
    let sk, vk = Bls.keygen rng in
    { vk; commitments = [||]; signer = Plain_key sk }

let committee_keys s ~epoch =
  match Hashtbl.find_opt s.committee_keys epoch with
  | Some k -> k
  | None ->
    let k =
      Spans.span s.sp "bls.keygen" (fun () -> make_keys ~cfg:s.cfg ~rng_keys:s.rng_keys ~epoch)
    in
    Hashtbl.replace s.committee_keys epoch k;
    k

(* Mining executes the drive's closures: their TokenBank and twin work
   is flushed as children of this span. *)
let advance s time =
  Spans.span s.sp "eth.advance_to" (fun () ->
      Eth.advance_to s.eth time;
      Spans.flush s.sp s.acc_deposit;
      Spans.flush s.sp s.acc_twin_bank)

let submit s ~at spec =
  s.c.submits <- s.c.submits + 1;
  Eth.submit s.eth ~at spec

let pending_signed s =
  let applied = Token_bank.last_synced_epoch s.bank in
  List.filter_map (Hashtbl.find_opt s.signed_payloads)
    (List.init (Stdlib.max 0 (s.last_summary_epoch - applied)) (fun i -> applied + 1 + i))

let deposit_execute s (u : Party.user) ~for_epoch amount _height =
  let meter = Gas.meter () in
  let deposit () =
    Token_bank.deposit ~meter s.bank ~user:u.Party.address ~for_epoch ~amount0:amount
      ~amount1:amount
  in
  match Spans.timed s.sp s.acc_deposit deposit () with
  | Ok () ->
    s.c.deposits <- s.c.deposits + 1;
    Spans.timed s.sp s.acc_twin_bank
      (fun () ->
        Twin.bank_deposit s.twin ~user:u.Party.address ~for_epoch ~amount0:amount ~amount1:amount)
      ()
  | Error e -> failwith ("drive: deposit failed: " ^ e)

let submit_epoch_deposits s ~for_epoch ~at =
  let size = Chain.Encoding.envelope_size + Chain.Encoding.selector_size + 64 in
  let amount = s.cfg.Config.deposit_per_epoch in
  Array.iter
    (fun u ->
      submit s ~at
        { Eth.label = "deposit"; size_bytes = size; gas = Gas_model.paper_deposit_gas;
          flow_txs = Gas_model.deposit_flow_txs; tag = None;
          execute = Some (deposit_execute s u ~for_epoch amount) })
    s.users

let maybe_submit_deposits s ~now =
  let dur = Config.epoch_duration s.cfg in
  let due e = (float_of_int e *. dur) -. deposit_lead_seconds -. dur in
  while due (s.deposits_until + 1) <= now do
    let e = s.deposits_until + 1 in
    Spans.span s.sp "eth.submit" (fun () -> submit_epoch_deposits s ~for_epoch:e ~at:now);
    s.deposits_until <- e
  done

let estimate_sync_gas payloads =
  List.fold_left
    (fun acc p ->
      let size = Sync_payload.abi_size p in
      acc + Gas.calldata_cost_of_size size + Gas.keccak_cost size + Gas.ec_mul + Gas.pairing_check
      + (Sync_payload.storage_words p * Gas.sstore_word)
      + (List.length p.Sync_payload.users * Gas.payout_transfer))
    Gas.tx_base payloads

let sync_execute s sub signed height =
  let result =
    Spans.span s.sp "token_bank.sync" (fun () ->
        let ck = Token_bank.checkpoint s.bank in
        (ck, Token_bank.sync s.bank ~signed))
  in
  sub.in_flight <- false;
  match result with
  | ck, Ok receipt ->
    s.c.syncs <- s.c.syncs + 1;
    let tck = Spans.span s.sp "twin.bank" (fun () ->
        let tck = Twin.checkpoint s.twin in
        Twin.bank_sync s.twin signed;
        tck)
    in
    s.checkpoints <- (height, ck, tck) :: s.checkpoints;
    s.pending_confirm <- (receipt.Token_bank.epochs_covered, height) :: s.pending_confirm
  | _, Error _ -> s.c.sync_rejected <- s.c.sync_rejected + 1

let submit_sync s ~epoch ~at =
  let applied = Token_bank.last_synced_epoch s.bank in
  let in_flight =
    List.concat_map (fun sub -> if sub.in_flight then sub.epochs else []) s.submissions
  in
  let wanted =
    List.filter
      (fun e -> (not (List.mem e in_flight)) && Hashtbl.mem s.signed_payloads e)
      (List.init (epoch - applied) (fun i -> applied + 1 + i))
  in
  if wanted <> [] then
    Spans.span s.sp "eth.submit" (fun () ->
        let signed = List.map (Hashtbl.find s.signed_payloads) wanted in
        let size = List.fold_left (fun acc (p, _) -> acc + Sync_payload.abi_size p) 0 signed in
        let tag = Printf.sprintf "sync-%d-%d" epoch (List.length s.submissions) in
        let sub = { epochs = wanted; in_flight = true } in
        s.submissions <- sub :: s.submissions;
        submit s ~at
          { Eth.label = "sync"; size_bytes = size; gas = estimate_sync_gas (List.map fst signed);
            flow_txs = Gas_model.sync_flow_txs; tag = Some tag;
            execute = Some (sync_execute s sub signed) })

let settle_confirmed s =
  let frontier = Eth.confirmed_height s.eth in
  let confirmed, still = List.partition (fun (_, h) -> h <= frontier) s.pending_confirm in
  if confirmed <> [] then
    Spans.span s.sp "blocks.prune" (fun () ->
        List.iter
          (fun (epochs, _) ->
            List.iter
              (fun e ->
                ignore (Blocks.prune_epoch s.sc_chain ~epoch:e);
                s.c.pruned <- s.c.pruned + 1)
              epochs)
          confirmed);
  s.pending_confirm <- still;
  let dead, live = List.partition (fun (h, _, _) -> h <= frontier) s.checkpoints in
  match dead with
  | (_, ck, tck) :: _ ->
    Spans.span s.sp "token_bank.release" (fun () -> Token_bank.release_checkpoint s.bank ck);
    Spans.span s.sp "twin.bank" (fun () -> Twin.release s.twin tck);
    s.checkpoints <- live
  | [] -> ()

(* The threshold-signing path of System.run, including the fault plan's
   withheld and corrupted shares. *)
let sign s ~epoch keys msg =
  match keys.signer with
  | Plain_key sk ->
    s.signing_streak <- 0;
    Bls.sign sk msg
  | Shared { shares; threshold } ->
    let n = List.length shares in
    let max_withheld = Stdlib.min s.cfg.Config.max_faulty (n - threshold) in
    let withheld = Fault_plan.withheld_shares s.plan ~epoch ~n ~max_withheld in
    let usable = List.filter (fun sh -> not (List.mem (Bls.share_index sh) withheld)) shares in
    let max_corrupted = Stdlib.min s.cfg.Config.max_faulty (List.length usable - threshold) in
    let corrupted = Fault_plan.corrupted_shares s.plan ~epoch ~n ~max_corrupted in
    let partials =
      List.map
        (fun sh ->
          let p = Bls.partial_sign sh msg in
          if List.mem (Bls.share_index sh) corrupted then Bls.tamper_partial p else p)
        usable
    in
    let verified = List.filter (Bls.verify_partial ~commitments:keys.commitments msg) partials in
    let caught = List.length partials - List.length verified in
    s.c.partials_rejected <- s.c.partials_rejected + caught;
    s.signing_streak <- (if withheld = [] && caught = 0 then 0 else s.signing_streak + 1);
    match Bls.combine ~threshold verified with
    | Some signature -> signature
    | None -> failwith "drive: threshold combine failed"

let twin_audit s ~deposits ~epoch =
  Spans.span s.sp "twin.audit" (fun () ->
      let store = Token_bank.positions_store s.bank in
      let live =
        { Twin.live_dep = (fun u -> Option.bind deposits (fun d -> Deposits.row_image d u));
          live_dep_dirty =
            (fun () -> match deposits with Some d -> Deposits.dirty_users d | None -> []);
          live_pool_pos = Pool.position_bytes s.pool;
          live_pool_tick = Pool.tick_bytes s.pool;
          live_pool_writes = (fun () -> Pool.audit_writes s.pool);
          live_pool_scalars = (fun () -> Durable.State_codec.pool_bytes s.pool);
          live_bank_meta = (fun () -> Durable.State_codec.bank_meta_bytes s.bank);
          live_bank_pos = Pos_store.row_image store;
          live_bank_dirty = (fun () -> Pos_store.dirty_ids store) }
      in
      ignore (Twin.audit s.twin ~epoch live);
      Pool.clear_audit_writes s.pool;
      Pos_store.clear_dirty store;
      Option.iter Deposits.clear_dirty deposits)

let pool_images s wpos wticks =
  (Twin.Pool_scalars, Some (Durable.State_codec.pool_bytes s.pool))
  :: (List.map (fun pid -> (Twin.Pool_pos pid, Pool.position_bytes s.pool pid)) wpos
     @ List.map (fun k -> (Twin.Pool_tick k, Pool.tick_bytes s.pool k)) wticks)

let genesis_mint_tx cfg (lp : Party.user) =
  let sign = if cfg.Config.sign_transactions then Some lp.Party.sk else None in
  Tx.create ?sign ~issuer:lp.Party.address ~issuer_pk:lp.Party.pk ~pool:0 ~issued_round:0
    ~issued_at:0.0
    (Tx.Mint
       { lower_tick = -887220; upper_tick = 887220; amount0_desired = genesis_liquidity;
         amount1_desired = genesis_liquidity; target = Tx.New_position })

(* ------------------------------------------------------------------ *)
(* Bootstrap: System.create                                            *)
(* ------------------------------------------------------------------ *)

let bootstrap ~sp ~cfg =
  let rng_root = Rng.create cfg.Config.seed in
  let rng_keys = Rng.split rng_root "keys" and rng_net = Rng.split rng_root "net" in
  let users, miners =
    Spans.span sp "bootstrap.party" (fun () ->
        ( Party.make_users (Rng.split rng_root "users") ~count:cfg.Config.users
            ~lp_fraction:cfg.Config.lp_fraction,
          Party.make_miners (Rng.split rng_root "miners") ~count:cfg.Config.miners ))
  in
  let token0 = Chain.Token.make ~id:0 ~symbol:"TKA" in
  let token1 = Chain.Token.make ~id:1 ~symbol:"TKB" in
  let erc0, erc1 =
    Spans.span sp "bootstrap.erc20" (fun () -> (Erc20.deploy token0, Erc20.deploy token1))
  in
  let keys0 = Spans.span sp "bls.keygen" (fun () -> make_keys ~cfg ~rng_keys ~epoch:0) in
  let s =
    Spans.span sp "bootstrap.deploy" (fun () ->
        let eth =
          Eth.create ~interval:cfg.Config.mc_block_interval ~gas_limit:cfg.Config.mc_gas_limit
            ~k_depth:cfg.Config.mc_confirmations ~rng:rng_net ()
        in
        let bank = Token_bank.deploy ~token0:erc0 ~token1:erc1 ~genesis_committee_vk:keys0.vk in
        let twin =
          Twin.create ~seed:cfg.Config.seed ~genesis_committee_vk:keys0.vk
            ~flash_fee_pips:cfg.Config.fee_pips
        in
        let pool =
          Pool.create
            ~pool_id:(Token_bank.create_pool bank ~flash_fee_pips:cfg.Config.fee_pips)
            ~token0 ~token1 ~fee_pips:cfg.Config.fee_pips ~tick_spacing:cfg.Config.tick_spacing
            ~sqrt_price:Amm_math.Q96.q96
        in
        { cfg; sp;
          c = { processed = 0; rejected = 0; summary_entries = 0; summary_candidates = 0;
                summary_touches = 0; deposits = 0; syncs = 0; sync_rejected = 0; submits = 0;
                pruned = 0; consensus_rounds = 0; decided = 0; view_changes = 0;
                partials_rejected = 0; monitor_violations = 0 };
          plan = Fault_plan.create ~seed:cfg.Config.seed cfg.Config.faults;
          eth; bank; twin; pool;
          sc_chain =
            Blocks.create
              ~mainchain_ref:(Amm_crypto.Sha256.digest_string (cfg.Config.seed ^ "/genesis"));
          traffic = Traffic.create ~rng:(Rng.split rng_root "traffic") ~cfg ~users;
          monitor =
            Monitor.create
              ~thresholds:
                { Monitor.lag_warning =
                    Stdlib.max 1 (cfg.Config.watchdog.Config.wd_stall_degraded - 1);
                  lag_degraded = cfg.Config.watchdog.Config.wd_stall_degraded;
                  signing_streak_degraded = cfg.Config.watchdog.Config.wd_signing_streak }
              (Telemetry.Report.sink ());
          users; mempool = Chain.Mempool.create ~size:(fun tx -> tx.Tx.wire_size); rng_keys;
          committee_keys = Hashtbl.create 16; signed_payloads = Hashtbl.create 16;
          submissions = []; pending_confirm = []; checkpoints = []; deposits_until = -1;
          last_summary_epoch = -1; signing_streak = 0;
          acc_deposit = Spans.acc "token_bank.deposit"; acc_twin_bank = Spans.acc "twin.bank" })
  in
  Hashtbl.replace s.committee_keys 0 keys0;
  Spans.span sp "bootstrap.erc20" (fun () ->
      let spender = Token_bank.address s.bank in
      Array.iter
        (fun (u : Party.user) ->
          Erc20.mint erc0 u.Party.address faucet_amount;
          Erc20.mint erc1 u.Party.address faucet_amount;
          Erc20.approve erc0 ~owner:u.Party.address ~spender U256.max_value;
          Erc20.approve erc1 ~owner:u.Party.address ~spender U256.max_value)
        users);
  Spans.span sp "bootstrap.deposit" (fun () ->
      Array.iter
        (fun (u : Party.user) ->
          let extra =
            if u.Party.user_index = 0 then U256.mul genesis_liquidity (U256.of_int 2) else U256.zero
          in
          let amount = U256.add cfg.Config.deposit_per_epoch extra in
          match
            Token_bank.deposit s.bank ~user:u.Party.address ~for_epoch:0 ~amount0:amount
              ~amount1:amount
          with
          | Ok () ->
            Spans.timed sp s.acc_twin_bank
              (fun () ->
                Twin.bank_deposit s.twin ~user:u.Party.address ~for_epoch:0 ~amount0:amount
                  ~amount1:amount)
              ()
          | Error e -> failwith ("drive: bootstrap deposit failed: " ^ e))
        users;
      Spans.flush sp s.acc_twin_bank);
  s.deposits_until <- 0;
  (s, miners, rng_net)

(* ------------------------------------------------------------------ *)
(* The epoch loop: System.run                                          *)
(* ------------------------------------------------------------------ *)

let elect s ~miners ~epoch =
  Spans.span s.sp "election" (fun () ->
      let randomness = Amm_crypto.Sha256.digest_string (s.cfg.Config.seed ^ "/randomness") in
      let seed = Consensus.Election.seed_for_epoch ~randomness ~epoch in
      let credentials =
        Array.to_list
          (Array.map
             (fun (m : Party.miner) ->
               Consensus.Election.credential ~sk:m.Party.m_sk ~miner:m.Party.m ~seed)
             miners)
      in
      ignore
        (Consensus.Election.elect ~credentials
           ~committee_size:(Stdlib.min s.cfg.Config.committee_size (Array.length miners))))

let agree s ~committee ~epoch ~round included =
  let b_t = s.cfg.Config.sc_round_duration in
  s.c.consensus_rounds <- s.c.consensus_rounds + 1;
  match committee with
  | Some c ->
    Spans.span s.sp "committee.agree" (fun () ->
        let digest =
          Amm_crypto.Sha256.concat
            (Bytes.of_string (Printf.sprintf "round-%d" round)
            :: List.map (fun tx -> Chain.Ids.Tx_id.to_bytes tx.Tx.id) included)
        in
        let members = Sidechain.Committee.members c in
        let silent =
          Fault_plan.crashed_members s.plan ~epoch ~round ~members
            ~max_faulty:(Sidechain.Committee.max_faulty c)
        in
        let invalid_proposer = Fault_plan.byzantine_proposer s.plan ~epoch ~round in
        let chaos = Fault_plan.net_chaos s.plan ~epoch ~round ~members in
        let o =
          Sidechain.Committee.agree ~silent ~invalid_proposer ?chaos c ~block_digest:digest
            ~horizon:b_t
        in
        if o.Sidechain.Committee.decided then s.c.decided <- s.c.decided + 1;
        s.c.view_changes <- s.c.view_changes + o.Sidechain.Committee.view_changes;
        o.Sidechain.Committee.view_changes)
  | None ->
    Spans.span s.sp "committee.latency_model" (fun () ->
        let size =
          Blocks.meta_header_size + List.fold_left (fun acc tx -> acc + tx.Tx.wire_size) 0 included
        in
        ignore (Consensus.Latency_model.consensus_latency s.cfg.Config.consensus ~block_bytes:size);
        s.c.decided <- s.c.decided + 1;
        0)

let run_epoch s ~miners ~committee ~acc_push ~acc_tap ~e =
  let cfg = s.cfg in
  let spr = cfg.Config.sc_rounds_per_epoch and b_t = cfg.Config.sc_round_duration in
  let epoch_start = float_of_int e *. Config.epoch_duration cfg in
  elect s ~miners ~epoch:e;
  advance s epoch_start;
  settle_confirmed s;
  let report =
    Spans.span s.sp "monitor.audit" (fun () ->
        Monitor.audit s.monitor ~epoch:e ~now:epoch_start ~bank:s.bank ~pool:s.pool
          ~last_summary_epoch:s.last_summary_epoch ~pending:(pending_signed s)
          ~deposit_horizon:s.deposits_until ~degraded_signing_streak:s.signing_streak
          ~committee_live:true)
  in
  s.c.monitor_violations <- s.c.monitor_violations + List.length report.Monitor.r_violations;
  let snapshot =
    Spans.span s.sp "token_bank.snapshot" (fun () -> Token_bank.snapshot s.bank ~epoch:e)
  in
  let processor =
    Spans.span s.sp "processor.begin_epoch" (fun () ->
        let pending = pending_signed s in
        let carry =
          List.concat_map
            (fun ((p : Sync_payload.t), _) ->
              List.map
                (fun (pe : Sync_payload.position_entry) -> pe.Sync_payload.pos_id)
                p.Sync_payload.positions)
            pending
        and user_carry =
          List.concat_map
            (fun ((p : Sync_payload.t), _) ->
              List.map
                (fun (u : Sync_payload.user_entry) -> u.Sync_payload.user)
                p.Sync_payload.users)
            pending
        in
        let p =
          Processor.begin_epoch ~pool:s.pool ~snapshot ~carry ~user_carry
            ~verify_signatures:cfg.Config.verify_signatures ()
        in
        let deposits = Processor.deposits p in
        Deposits.clear_dirty deposits;
        let record (label, user, ok) =
          let wpos, wticks = Pool.drain_op_writes s.pool in
          let label = if ok then label else label ^ "!rejected" in
          Twin.record s.twin ~label
            ((Twin.Dep_row user, Deposits.row_image deposits user) :: pool_images s wpos wticks)
        in
        Processor.set_tap p (fun ~label ~user ~ok ->
            Spans.timed s.sp acc_tap record (label, user, ok));
        p)
  in
  let push = Chain.Mempool.push s.mempool in
  let push_timed tx = Spans.timed s.sp acc_push push tx in
  for r = 0 to spr - 1 do
    let round = (e * spr) + r in
    let t_round = epoch_start +. (float_of_int r *. b_t) in
    let summary_round = r = spr - 1 in
    advance s t_round;
    settle_confirmed s;
    maybe_submit_deposits s ~now:t_round;
    if e < cfg.Config.epochs then
      Spans.span s.sp "traffic" (fun () ->
          ignore (Traffic.iter_round s.traffic ~round ~time:t_round push_timed);
          Spans.flush s.sp acc_push);
    let candidates =
      if summary_round then []
      else
        Spans.span s.sp "mempool.take" (fun () ->
            Chain.Mempool.take_up_to s.mempool ~max_bytes:cfg.Config.meta_block_bytes)
    in
    let included =
      Spans.span s.sp "processor.process" (fun () ->
          let inc =
            List.filter
              (fun tx ->
                match Processor.process processor ~current_round:round tx with
                | Ok () -> true
                | Error _ -> false)
              candidates
          in
          Spans.flush s.sp acc_tap;
          inc)
    in
    let view_changes = agree s ~committee ~epoch:e ~round included in
    Spans.span s.sp "blocks.append" (fun () ->
        let meta = Blocks.make_meta ~epoch:e ~round ~view_changes included in
        if not summary_round then Blocks.append_meta s.sc_chain meta)
  done;
  let epoch_end = float_of_int (e + 1) *. Config.epoch_duration cfg in
  let next_keys = committee_keys s ~epoch:(e + 1) in
  let payload =
    Spans.span s.sp "summary.build" (fun () ->
        s.c.summary_candidates <-
          s.c.summary_candidates + Deposits.candidate_count (Processor.deposits processor);
        Processor.build_payload processor ~epoch:e ~next_committee_vk:next_keys.vk)
  in
  s.c.summary_entries <- s.c.summary_entries + List.length payload.Sync_payload.users;
  Spans.span s.sp "twin.record" (fun () ->
      match Pool.drain_op_writes s.pool with
      | [], [] -> ()
      | wpos, wticks ->
        s.c.summary_touches <- s.c.summary_touches + 1;
        Twin.record s.twin ~label:"summary.build" (pool_images s wpos wticks));
  let keys = committee_keys s ~epoch:e in
  let signature =
    Spans.span s.sp "bls.sign" (fun () -> sign s ~epoch:e keys (Sync_payload.signing_bytes payload))
  in
  Hashtbl.replace s.signed_payloads e (payload, signature);
  s.last_summary_epoch <- e;
  Spans.span s.sp "blocks.append" (fun () ->
      Blocks.append_summary s.sc_chain
        { Blocks.s_epoch = e; s_payload = payload;
          s_size = Sidechain.Codec.summary_block_size payload;
          s_rounds_covered = (e * spr, ((e + 1) * spr) - 1) });
  submit_sync s ~epoch:e ~at:epoch_end;
  let stats = Processor.stats processor in
  s.c.processed <- s.c.processed + stats.Processor.processed;
  s.c.rejected <- s.c.rejected + stats.Processor.rejected;
  twin_audit s ~deposits:(Some (Processor.deposits processor)) ~epoch:e

let live_mw x = float_of_int (Obj.reachable_words (Obj.repr x)) /. 1e6

let run ?(on_epoch = ignore) ~trace cfg =
  let sp = Spans.create ~enabled:trace in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let wall0 = Spans.now () in
  let s, miners, rng_net = bootstrap ~sp ~cfg in
  let committee =
    if cfg.Config.message_level_consensus then
      Some
        (Sidechain.Committee.create ~rng:(Rng.split rng_net "committee-consensus")
           ~members:(Stdlib.min cfg.Config.committee_size 25)
           ~max_faulty:(Stdlib.min cfg.Config.max_faulty 8)
           ~delta:(2.0 *. cfg.Config.consensus.Consensus.Latency_model.mean_delay)
           ~timeout:(cfg.Config.sc_round_duration /. 4.0))
    else None
  in
  let acc_push = Spans.acc "mempool.push" and acc_tap = Spans.acc "twin.record" in
  Chain.Mempool.push s.mempool (genesis_mint_tx cfg s.users.(0));
  let epoch = ref 0 and epoch_walls = ref [] in
  while
    let e = !epoch in
    let t0 = Spans.now () in
    Spans.set_epoch sp e;
    run_epoch s ~miners ~committee ~acc_push ~acc_tap ~e;
    epoch_walls := (Spans.now () -. t0) :: !epoch_walls;
    on_epoch ();
    epoch := e + 1;
    not
      ((!epoch >= cfg.Config.epochs && Chain.Mempool.is_empty s.mempool)
      || !epoch >= cfg.Config.epochs + cfg.Config.max_drain_epochs)
  do () done;
  (* Drain: let the final syncs land, with bounded recovery passes. *)
  Spans.set_epoch sp !epoch;
  let interval = cfg.Config.mc_block_interval in
  let final_time = (float_of_int !epoch *. Config.epoch_duration cfg) +. (10.0 *. interval) in
  advance s final_time;
  submit_sync s ~epoch:(!epoch - 1) ~at:final_time;
  advance s (final_time +. (5.0 *. interval));
  let tries = ref 0 in
  while
    s.last_summary_epoch >= 0
    && Token_bank.last_synced_epoch s.bank < s.last_summary_epoch
    && !tries < 5
  do
    incr tries;
    submit_sync s ~epoch:s.last_summary_epoch ~at:(Eth.now s.eth);
    advance s (Eth.now s.eth +. (5.0 *. interval))
  done;
  settle_confirmed s;
  twin_audit s ~deposits:None ~epoch:!epoch;
  let wall_s = Spans.now () -. wall0 in
  let major_words = (Gc.quick_stat ()).Gc.major_words -. major0 in
  (* Live sizes are taken after the clock stops, outside every span. *)
  let mem =
    [ ("twin", live_mw s.twin); ("blocks", live_mw s.sc_chain); ("token_bank", live_mw s.bank);
      ("pool", live_mw s.pool); ("eth", live_mw s.eth) ]
  in
  { generated = Traffic.generated s.traffic; counts = s.c; mc_gas_total = Eth.gas_used_total s.eth;
    wall_s; epoch_walls = List.rev !epoch_walls; spans = Spans.spans sp;
    twin_record_ops = Spans.calls acc_tap + s.c.summary_touches;
    twin_audits = Twin.audits_run s.twin; twin_divergences = Twin.divergences s.twin;
    monitor_audits = Monitor.audits_run s.monitor; eth_blocks = Eth.height s.eth;
    eth_included = Eth.included_count s.eth; major_words; mem }
