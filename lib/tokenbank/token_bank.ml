module U256 = Amm_math.U256
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id
module Gas = Mainchain.Gas
module Erc20 = Mainchain.Erc20
module Bls = Amm_crypto.Bls
module Log = Telemetry.Log

let scope = "token_bank"

type pool_info = {
  pool_id : int;
  token0 : Chain.Token.t;
  token1 : Chain.Token.t;
  balance0 : U256.t;
  balance1 : U256.t;
  flash_fee_pips : int;
}

module Reg = Flatstore.Registry.Make (Address)

type exit_claim = {
  claimant : Address.t;
  claim0 : U256.t;
  claim1 : U256.t;
  refund0 : U256.t;
  refund1 : U256.t;
  positions_closed : int;
  exit_gas : Gas.meter;
}

(* Journal record for the (tiny) exit-claim table: the claim previously
   bound to the address, [None] when it was absent. *)
type exit_jentry = Address.t * exit_claim option

(* One epoch's deposit book. Users are dense slots of the bank-wide
   depositor registry; a book keeps both amounts per slot, a state byte
   (0 = never present, 1 = absent again, 2 = present) and, in [members],
   every slot that was ever present, in first-deposit order, so walking
   a book costs its own size, not the registry's. *)
type book = {
  mutable d0 : U256.t array;
  mutable d1 : U256.t array;
  mutable state : Bytes.t;
  mutable jgen : int array;  (* deposit generation of the slot's last pre-image *)
  mutable members : int array;
  mutable n_members : int;
  mutable live : int;
  born : int;  (* deposit generation the book was created in *)
}

(* Deposit-book undo journal. A slot's pre-image is recorded on its first
   write in each generation (generations advance at every checkpoint and
   restore). A book created in the current generation needs no slot
   entries at all: undoing its creation drops it whole. *)
type dep_jentry =
  | Dep_slot of { book : book; slot : int; p0 : U256.t; p1 : U256.t; present : bool }
  | Dep_created of int  (* epoch *)
  | Dep_retired of int * book

type t = {
  bank_address : Address.t;
  erc0 : Erc20.t;
  erc1 : Erc20.t;
  mutable pools : pool_info array;  (* indexed by pool_id *)
  mutable next_pool_id : int;
  depositors : Reg.t;
  books : (int, book) Hashtbl.t;  (* pending deposits, by epoch *)
  mutable consumed : int array;  (* per depositor slot: payload serial that listed it *)
  mutable payload_serial : int;
  mutable dgen : int;
  mutable djournal : dep_jentry array;
  mutable djlen : int;
  mutable djbase : int;  (* absolute index of djournal.(0) *)
  positions_store : Pos_store.t;
  mutable vk : Bls.public_key;
  mutable synced_epoch : int;
  (* Emergency-exit state. While [halted] no Sync or deposit is accepted;
     parties withdraw pro-rata against the reserves frozen at the halt. *)
  mutable halted : bool;
  mutable ever_halted : bool;
  mutable halt_epoch : int;
  mutable frozen_pools : pool_info list;
  mutable frozen_value0 : U256.t;  (* Σ position (amount + fees), token0 *)
  mutable frozen_value1 : U256.t;
  mutable custody_at_halt : U256.t * U256.t;
  mutable paid_out0 : U256.t;      (* custody dispensed since the halt *)
  mutable paid_out1 : U256.t;
  exit_table : (Address.t, exit_claim) Hashtbl.t;
  mutable exit_order : Address.t list;  (* newest first *)
  mutable exit_journal : exit_jentry list;
  mutable exit_journal_len : int;
}

let deploy ~token0 ~token1 ~genesis_committee_vk =
  { bank_address = Address.of_label "TokenBank";
    erc0 = token0; erc1 = token1;
    pools = [||]; next_pool_id = 0;
    depositors = Reg.create ~capacity:256 (); books = Hashtbl.create 8;
    consumed = [||]; payload_serial = 0;
    dgen = 0; djournal = [||]; djlen = 0; djbase = 0;
    positions_store = Pos_store.create ();
    vk = genesis_committee_vk;
    synced_epoch = -1;
    halted = false; ever_halted = false; halt_epoch = -1;
    frozen_pools = []; frozen_value0 = U256.zero; frozen_value1 = U256.zero;
    custody_at_halt = (U256.zero, U256.zero);
    paid_out0 = U256.zero; paid_out1 = U256.zero;
    exit_table = Hashtbl.create 16; exit_order = [];
    exit_journal = []; exit_journal_len = 0 }

let address t = t.bank_address

let create_pool t ~flash_fee_pips =
  let pool_id = t.next_pool_id in
  t.next_pool_id <- pool_id + 1;
  let info =
    { pool_id; token0 = Erc20.token t.erc0; token1 = Erc20.token t.erc1;
      balance0 = U256.zero; balance1 = U256.zero; flash_fee_pips }
  in
  let pools = Array.make (pool_id + 1) info in
  Array.blit t.pools 0 pools 0 pool_id;
  t.pools <- pools;
  pool_id

let pool t id =
  if id >= 0 && id < t.next_pool_id then Some t.pools.(id) else None

let set_pool_balances t id balance0 balance1 =
  if id >= 0 && id < t.next_pool_id then
    t.pools.(id) <- { (t.pools.(id)) with balance0; balance1 }

(* Newest-created first — the order the old cons-list exposed, which the
   emergency-exit drain and snapshots depend on. *)
let pools_newest_first t =
  let acc = ref [] in
  for id = 0 to t.next_pool_id - 1 do
    acc := t.pools.(id) :: !acc
  done;
  !acc

let committee_vk t = t.vk
let last_synced_epoch t = t.synced_epoch
let is_halted t = t.halted
let halt_epoch t = if t.ever_halted then Some t.halt_epoch else None

(* ------------------------------------------------------------------ *)
(* Rejections                                                          *)
(* ------------------------------------------------------------------ *)

type rejection =
  | Empty_submission
  | Bank_halted
  | Not_halted
  | Already_exited of Address.t
  | Bad_signature of { epoch : int }
  | Stale_epoch of { expected : int; got : int }
  | Contiguity_gap of { expected : int; got : int }
  | Conservation_violation of { epoch : int }

let rejection_class = function
  | Empty_submission -> "empty_submission"
  | Bank_halted -> "bank_halted"
  | Not_halted -> "not_halted"
  | Already_exited _ -> "already_exited"
  | Bad_signature _ -> "bad_signature"
  | Stale_epoch _ -> "stale_epoch"
  | Contiguity_gap _ -> "contiguity_gap"
  | Conservation_violation _ -> "conservation_violation"

let rejection_to_string = function
  | Empty_submission -> "TokenBank.sync: empty payload list"
  | Bank_halted -> "TokenBank: bank is halted (emergency-exit mode)"
  | Not_halted -> "TokenBank: bank is not halted"
  | Already_exited a ->
    Printf.sprintf "TokenBank.emergency_exit: %s already exited" (Address.to_hex a)
  | Bad_signature { epoch } ->
    Printf.sprintf "TokenBank.sync: bad committee signature for epoch %d" epoch
  | Stale_epoch { expected; got } ->
    Printf.sprintf "TokenBank.sync: stale epoch %d (expected %d)" got expected
  | Contiguity_gap { expected; got } ->
    Printf.sprintf "TokenBank.sync: contiguity gap, expected epoch %d, got %d"
      expected got
  | Conservation_violation { epoch } ->
    Printf.sprintf "TokenBank.sync: token conservation violated in epoch %d" epoch

(* ------------------------------------------------------------------ *)
(* Deposits                                                            *)
(* ------------------------------------------------------------------ *)

let djpush t e =
  if t.djlen = Array.length t.djournal then begin
    let grown = Array.make (Stdlib.max 16 (2 * t.djlen)) e in
    Array.blit t.djournal 0 grown 0 t.djlen;
    t.djournal <- grown
  end;
  t.djournal.(t.djlen) <- e;
  t.djlen <- t.djlen + 1

let is_present b s = s < Bytes.length b.state && Bytes.get b.state s = '\002'

let book_get b s =
  if is_present b s then (b.d0.(s), b.d1.(s)) else (U256.zero, U256.zero)

let new_book t =
  { d0 = [||]; d1 = [||]; state = Bytes.empty; jgen = [||];
    members = [||]; n_members = 0; live = 0; born = t.dgen }

let book_reserve b s =
  let cap = Array.length b.d0 in
  if s >= cap then begin
    let n = Stdlib.max (s + 1) (Stdlib.max 64 (2 * cap)) in
    let extend a fill = Array.append a (Array.make (n - cap) fill) in
    b.d0 <- extend b.d0 U256.zero;
    b.d1 <- extend b.d1 U256.zero;
    b.jgen <- extend b.jgen 0;
    b.state <- Bytes.extend b.state 0 (n - cap);
    Bytes.fill b.state cap (n - cap) '\000'
  end

(* Every slot write goes through here: journal the pre-image once per
   generation, then store. *)
let book_write t b s ~present v0 v1 =
  book_reserve b s;
  let was = is_present b s in
  if b.born < t.dgen && b.jgen.(s) < t.dgen then begin
    djpush t (Dep_slot { book = b; slot = s; p0 = b.d0.(s); p1 = b.d1.(s); present = was });
    b.jgen.(s) <- t.dgen
  end;
  if present && Bytes.get b.state s = '\000' then begin
    if b.n_members = Array.length b.members then
      b.members <- Array.append b.members (Array.make (Stdlib.max 16 b.n_members) 0);
    b.members.(b.n_members) <- s;
    b.n_members <- b.n_members + 1
  end;
  Bytes.set b.state s (if present then '\002' else '\001');
  if present && not was then b.live <- b.live + 1
  else if was && not present then b.live <- b.live - 1;
  b.d0.(s) <- v0;
  b.d1.(s) <- v1

let book_iter b f =
  for i = 0 to b.n_members - 1 do
    let s = b.members.(i) in
    if is_present b s then f s b.d0.(s) b.d1.(s)
  done

let book_for t epoch =
  match Hashtbl.find_opt t.books epoch with
  | Some b -> b
  | None ->
    let b = new_book t in
    Hashtbl.replace t.books epoch b;
    if t.dgen > 0 then djpush t (Dep_created epoch);
    b

(* A sync retires an epoch's book whole: one journal entry, and the
   book itself is never written by the sync. *)
let retire_book t epoch =
  match Hashtbl.find_opt t.books epoch with
  | Some b ->
    Hashtbl.remove t.books epoch;
    if t.dgen > 0 then djpush t (Dep_retired (epoch, b))
  | None -> ()

let depositor_slot t user =
  let s = Reg.intern t.depositors user in
  if s >= Array.length t.consumed then
    t.consumed <-
      Array.append t.consumed (Array.make (Stdlib.max 64 (Array.length t.consumed)) 0);
  s

let deposit_of t ~epoch user =
  match (Hashtbl.find_opt t.books epoch, Reg.find t.depositors user) with
  | Some b, Some s -> book_get b s
  | _ -> (U256.zero, U256.zero)

let deposits_for_epoch t ~epoch =
  match Hashtbl.find_opt t.books epoch with
  | None -> []
  | Some b ->
    let acc = ref [] in
    book_iter b (fun s d0 d1 -> acc := (Reg.key t.depositors s, (d0, d1)) :: !acc);
    List.sort (fun (a, _) (b, _) -> Address.compare a b) !acc

let deposit_totals t ~epoch =
  match Hashtbl.find_opt t.books epoch with
  | None -> (U256.zero, U256.zero)
  | Some b ->
    let t0 = ref U256.zero and t1 = ref U256.zero in
    book_iter b (fun _ d0 d1 ->
        t0 := U256.add !t0 d0;
        t1 := U256.add !t1 d1);
    (!t0, !t1)

(* The deposit a summary entry draws on while applying one payload. Each
   payload gets a fresh serial; a listed user's slot is stamped with it,
   so a repeated listing draws nothing and the residual refund skips it —
   the book itself stays untouched until it is retired. *)
let begin_payload t = t.payload_serial <- t.payload_serial + 1

let consume t book user =
  match (book, Reg.find t.depositors user) with
  | Some b, Some s ->
    if t.consumed.(s) = t.payload_serial then (U256.zero, U256.zero)
    else begin
      t.consumed.(s) <- t.payload_serial;
      book_get b s
    end
  | _ -> (U256.zero, U256.zero)

(* Deposits the payload left unlisted, for the aggregate residual refund. *)
let iter_unconsumed t book f =
  match book with
  | None -> ()
  | Some b ->
    book_iter b (fun s d0 d1 ->
        if t.consumed.(s) <> t.payload_serial then f (Reg.key t.depositors s) d0 d1)

let charge meter label amount =
  match meter with Some m -> Gas.charge m label amount | None -> ()

let ( let* ) = Result.bind

let deposit ?meter t ~user ~for_epoch ~amount0 ~amount1 =
  if t.halted then Error (rejection_to_string Bank_halted)
  else begin
  charge meter "base" Gas.tx_base;
  charge meter "calldata" (Gas.calldata_cost_of_size (Chain.Encoding.selector_size + 64));
  let* () =
    if U256.is_zero amount0 then Ok ()
    else Erc20.transfer_from ?meter t.erc0 ~spender:t.bank_address ~source:user
        ~dest:t.bank_address amount0
  in
  let* () =
    if U256.is_zero amount1 then Ok ()
    else Erc20.transfer_from ?meter t.erc1 ~spender:t.bank_address ~source:user
        ~dest:t.bank_address amount1
  in
  let b = book_for t for_epoch and s = depositor_slot t user in
  let d0, d1 = book_get b s in
  book_write t b s ~present:true (U256.add d0 amount0) (U256.add d1 amount1);
  charge meter "deposit.bookkeeping" (Gas.sload + (2 * Gas.sstore_update));
  (* Deposits are the hottest bank entry point (one per user per epoch at
     the big sweep cells): don't pay for hex/decimal rendering unless the
     debug level is actually on. *)
  if Log.enabled Log.Debug then
    Log.debug ~scope
      ~fields:
        [ ("user", Telemetry.Json.String (Address.to_hex user));
          ("for_epoch", Telemetry.Json.Int for_epoch);
          ("amount0", Telemetry.Json.String (U256.to_string amount0));
          ("amount1", Telemetry.Json.String (U256.to_string amount1)) ]
      "deposit recorded";
  Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Sync                                                                *)
(* ------------------------------------------------------------------ *)

type sync_receipt = {
  gas : Gas.meter;
  calldata_bytes : int;
  payouts_dispensed : int;
  positions_written : int;
  positions_deleted : int;
  epochs_covered : int list;
}

let conservation_ok ~balance0 ~balance1 payload =
  let sum f =
    List.fold_left (fun acc u -> U256.add acc (f u)) U256.zero payload.Sync_payload.users
  in
  let in0 = sum (fun u -> u.Sync_payload.payin0)
  and in1 = sum (fun u -> u.Sync_payload.payin1)
  and out0 = sum (fun u -> u.Sync_payload.payout0)
  and out1 = sum (fun u -> u.Sync_payload.payout1) in
  (* new = old + payins − payouts, per token; fails if payouts exceed
     what the pool plus payins can cover. *)
  let check old payin payout updated =
    let credited = U256.add old payin in
    U256.ge credited payout && U256.equal (U256.sub credited payout) updated
  in
  check balance0 in0 out0 payload.Sync_payload.pool_balance0
  && check balance1 in1 out1 payload.Sync_payload.pool_balance1

let apply_payload t (m : Gas.meter) payload =
  let open Sync_payload in
  (* Positions: write updates, delete withdrawn. *)
  let written = ref 0 and deleted = ref 0 in
  List.iter
    (fun p ->
      if p.deleted then begin
        Pos_store.remove t.positions_store p.pos_id;
        incr deleted
      end
      else begin
        Pos_store.set t.positions_store p;
        incr written
      end)
    payload.positions;
  Gas.charge m "storage" (storage_words payload * Gas.sstore_word);
  set_pool_balances t payload.pool payload.pool_balance0 payload.pool_balance1;
  (* Users: deduct payins, dispense payouts, refund residual deposits. *)
  let payouts_dispensed = ref 0 in
  (* Payout plus residual refund leave the bank in one transfer per
     token. *)
  let send ~dest erc amount ~token0 =
    if not (U256.is_zero amount) then begin
      match Erc20.transfer erc ~source:t.bank_address ~dest amount with
      | Ok () ->
        incr payouts_dispensed;
        (* After a halt-and-reconcile cycle, every dispensed token still
           counts against the custody frozen at the halt. *)
        if t.ever_halted then
          if token0 then t.paid_out0 <- U256.add t.paid_out0 amount
          else t.paid_out1 <- U256.add t.paid_out1 amount
      | Error e -> failwith ("TokenBank.sync: custody underflow: " ^ e)
    end
  in
  let book = Hashtbl.find_opt t.books payload.epoch in
  begin_payload t;
  List.iter
    (fun u ->
      let d0, d1 = consume t book u.user in
      (* Payin beyond the deposit is taken out of the payout (§4.2). *)
      let short0 = if U256.ge d0 u.payin0 then U256.zero else U256.sub u.payin0 d0 in
      let short1 = if U256.ge d1 u.payin1 then U256.zero else U256.sub u.payin1 d1 in
      let residual0 = if U256.ge d0 u.payin0 then U256.sub d0 u.payin0 else U256.zero in
      let residual1 = if U256.ge d1 u.payin1 then U256.sub d1 u.payin1 else U256.zero in
      let pay0 = U256.sub (U256.max u.payout0 short0) short0 in
      let pay1 = U256.sub (U256.max u.payout1 short1) short1 in
      send ~dest:u.user t.erc0 (U256.add pay0 residual0) ~token0:true;
      send ~dest:u.user t.erc1 (U256.add pay1 residual1) ~token0:false)
    payload.users;
  (* A delta payload lists only users with nonzero flows; every other
     deposit pending for this epoch is untouched in full. Refund the
     leftovers in aggregate and retire the epoch's book wholesale, so
     pending-deposit storage stays O(active), not O(population). *)
  iter_unconsumed t book (fun user d0 d1 ->
      send ~dest:user t.erc0 d0 ~token0:true;
      send ~dest:user t.erc1 d1 ~token0:false);
  retire_book t payload.epoch;
  Gas.charge m "payouts" (!payouts_dispensed * Gas.payout_transfer);
  t.vk <- payload.next_committee_vk;
  t.synced_epoch <- payload.epoch;
  (!written, !deleted, !payouts_dispensed)

(* Dry-run verification pass — nothing is applied unless every payload
   checks out. The committee key chain advances payload by payload: epoch
   e's signature verifies under the vk recorded by e−1. Shared between
   [sync] and [reconcile] (which verifies against the frozen balances). *)
let rec verify_all m ~vk ~expected_epoch ~balance0 ~balance1 = function
  | [] -> Ok ()
  | (p, signature) :: rest ->
    (* The epoch-ordering check comes first: it is a couple of sloads,
       so the contract rejects stale or gapped chains before paying for
       the pairing. *)
    if p.Sync_payload.epoch <> expected_epoch then begin
      if p.Sync_payload.epoch < expected_epoch then
        Error (Stale_epoch { expected = expected_epoch; got = p.Sync_payload.epoch })
      else
        Error (Contiguity_gap { expected = expected_epoch; got = p.Sync_payload.epoch })
    end
    else begin
      Gas.charge m "auth.hash_to_point"
        (Gas.keccak_cost (Sync_payload.abi_size p) + Gas.ec_mul);
      Gas.charge m "auth.pairing" Gas.pairing_check;
      if not (Bls.verify vk (Sync_payload.signing_bytes p) signature) then
        Error (Bad_signature { epoch = p.Sync_payload.epoch })
      else if not (conservation_ok ~balance0 ~balance1 p) then
        Error (Conservation_violation { epoch = p.Sync_payload.epoch })
      else
        verify_all m ~vk:p.Sync_payload.next_committee_vk
          ~expected_epoch:(expected_epoch + 1)
          ~balance0:p.Sync_payload.pool_balance0
          ~balance1:p.Sync_payload.pool_balance1 rest
    end

let log_rejected t ~payloads rejection =
  Log.warn ~scope
    ~fields:
      [ ("reason", Telemetry.Json.String (rejection_to_string rejection));
        ("class", Telemetry.Json.String (rejection_class rejection));
        ("payloads", Telemetry.Json.Int (List.length payloads));
        ("synced_epoch", Telemetry.Json.Int t.synced_epoch) ]
    "sync rejected: state unchanged";
  Error rejection

let sync t ~signed =
  match signed with
  | [] -> Error Empty_submission
  | _ when t.halted -> log_rejected t ~payloads:(List.map fst signed) Bank_halted
  | _ ->
    let payloads = List.map fst signed in
    let m = Gas.meter () in
    Gas.charge m "base" Gas.tx_base;
    let calldata_bytes =
      List.fold_left (fun acc p -> acc + Sync_payload.abi_size p) 0 payloads
    in
    Gas.charge m "calldata" (Gas.calldata_cost_of_size calldata_bytes);
    let balance0, balance1 =
      match payloads with
      | p :: _ ->
        (match pool t p.Sync_payload.pool with
        | Some info -> (info.balance0, info.balance1)
        | None -> (U256.zero, U256.zero))
      | [] -> (U256.zero, U256.zero)
    in
    let* () =
      match
        verify_all m ~vk:t.vk ~expected_epoch:(t.synced_epoch + 1)
          ~balance0 ~balance1 signed
      with
      | Ok () -> Ok ()
      | Error rejection -> log_rejected t ~payloads rejection
    in
    let written = ref 0 and deleted = ref 0 and paid = ref 0 in
    List.iter
      (fun p ->
        let w, d, pd = apply_payload t m p in
        written := !written + w;
        deleted := !deleted + d;
        paid := !paid + pd)
      payloads;
    let epochs_covered = List.map (fun p -> p.Sync_payload.epoch) payloads in
    Log.info ~scope
      ~fields:
        [ ("epochs",
           Telemetry.Json.String (String.concat "," (List.map string_of_int epochs_covered)));
          ("payouts", Telemetry.Json.Int !paid);
          ("positions_written", Telemetry.Json.Int !written);
          ("positions_deleted", Telemetry.Json.Int !deleted);
          ("calldata_bytes", Telemetry.Json.Int calldata_bytes);
          ("gas", Telemetry.Json.Int (Gas.total m)) ]
      "sync applied: committee key rotated";
    Ok
      { gas = m; calldata_bytes; payouts_dispensed = !paid;
        positions_written = !written; positions_deleted = !deleted;
        epochs_covered }

let sync_exn t ~signed =
  match sync t ~signed with
  | Ok receipt -> receipt
  | Error rejection -> failwith (rejection_to_string rejection)

let positions t = Pos_store.fold t.positions_store ~init:[] ~f:(fun acc p -> p :: acc)
let find_position t pid = Pos_store.find t.positions_store pid

(* Live contract storage footprint in 32-byte words: the quantity the
   paper's state-growth argument is about. 6 words per open position
   (owner, bounds, liquidity, amounts, fees packed as in
   [Sync_payload.storage_words]), 2 per pool (reserves), 4 for the
   committee vk, 3 per pending epoch-deposit entry (key + two amounts)
   and 6 per exit claim. *)
let storage_words t =
  let deposit_entries = Hashtbl.fold (fun _ b acc -> acc + b.live) t.books 0 in
  (6 * Pos_store.length t.positions_store)
  + (2 * t.next_pool_id)
  + 4
  + (3 * deposit_entries)
  + (6 * Hashtbl.length t.exit_table)

(* ------------------------------------------------------------------ *)
(* Flash loans                                                         *)
(* ------------------------------------------------------------------ *)

let flash ?meter t ~pool:pool_id ~borrower ~amount0 ~amount1 ~callback =
  if t.halted then Error (rejection_to_string Bank_halted)
  else
  match pool t pool_id with
  | None -> Error "TokenBank.flash: unknown pool"
  | Some p ->
    if U256.gt amount0 p.balance0 || U256.gt amount1 p.balance1 then
      Error "TokenBank.flash: exceeds pool reserves"
    else begin
      charge meter "base" Gas.tx_base;
      let fee_of a =
        U256.mul_div_rounding_up a (U256.of_int p.flash_fee_pips)
          (U256.of_int Amm_math.Swap_math.fee_denominator)
      in
      let fee0 = fee_of amount0 and fee1 = fee_of amount1 in
      (* The entire flash executes inside one transaction: on any failure
         every token movement — including whatever the callback did —
         reverts, exactly as the EVM unwinds state. *)
      let ck0 = Erc20.checkpoint t.erc0 and ck1 = Erc20.checkpoint t.erc1 in
      let revert () =
        Erc20.restore t.erc0 ck0;
        Erc20.restore t.erc1 ck1
      in
      let lend erc amount =
        if U256.is_zero amount then Ok ()
        else Erc20.transfer ?meter erc ~source:t.bank_address ~dest:borrower amount
      in
      let repay () =
        let pull erc amount =
          if U256.is_zero amount then Ok ()
          else Erc20.transfer ?meter erc ~source:borrower ~dest:t.bank_address amount
        in
        let* () = pull t.erc0 (U256.add amount0 fee0) in
        pull t.erc1 (U256.add amount1 fee1)
      in
      let outcome =
        let* () = lend t.erc0 amount0 in
        let* () = lend t.erc1 amount1 in
        let* () = callback ~fee0 ~fee1 in
        repay ()
      in
      match outcome with
      | Error e ->
        revert ();
        Error ("TokenBank.flash: reverted: " ^ e)
      | Ok () ->
        (* Fees accrue to the pool reserves. *)
        set_pool_balances t pool_id (U256.add p.balance0 fee0) (U256.add p.balance1 fee1);
        Ok (fee0, fee1)
    end

(* ------------------------------------------------------------------ *)
(* Emergency exit: halt / exit / reconcile                             *)
(* ------------------------------------------------------------------ *)

let total_custody t =
  (Erc20.balance_of t.erc0 t.bank_address, Erc20.balance_of t.erc1 t.bank_address)

(* Aggregate value the last confirmed summary attributes to open
   positions: principal plus uncollected fees, per token. The pro-rata
   denominator for exit claims. *)
let position_value t =
  Pos_store.fold t.positions_store ~init:(U256.zero, U256.zero)
    ~f:(fun (v0, v1) (p : Sync_payload.position_entry) ->
      ( U256.add v0 (U256.add p.Sync_payload.amount0 p.Sync_payload.fees0),
        U256.add v1 (U256.add p.Sync_payload.amount1 p.Sync_payload.fees1) ))

let halt t ~epoch =
  if t.halted then Error Bank_halted
  else begin
    let v0, v1 = position_value t in
    t.halted <- true;
    t.ever_halted <- true;
    t.halt_epoch <- epoch;
    t.frozen_pools <- pools_newest_first t;
    t.frozen_value0 <- v0;
    t.frozen_value1 <- v1;
    t.custody_at_halt <- total_custody t;
    t.paid_out0 <- U256.zero;
    t.paid_out1 <- U256.zero;
    Log.error ~scope
      ~fields:
        [ ("epoch", Telemetry.Json.Int epoch);
          ("position_value0", Telemetry.Json.String (U256.to_string v0));
          ("position_value1", Telemetry.Json.String (U256.to_string v1)) ]
      "bank halted: emergency-exit mode engaged";
    Ok ()
  end

let track_paid t ~token0 amount =
  if token0 then t.paid_out0 <- U256.add t.paid_out0 amount
  else t.paid_out1 <- U256.add t.paid_out1 amount

(* One outgoing transfer per token; an error here means the conservation
   invariant is already broken, which the dry-run verification rules out. *)
let pay_out t m ~dest ~label amount ~token0 =
  if not (U256.is_zero amount) then begin
    let erc = if token0 then t.erc0 else t.erc1 in
    match Erc20.transfer erc ~source:t.bank_address ~dest amount with
    | Ok () ->
      Gas.charge m label Gas.payout_transfer;
      track_paid t ~token0 amount
    | Error e -> failwith ("TokenBank: custody underflow: " ^ e)
  end

let emergency_exit t ~claimant =
  if not t.halted then Error Not_halted
  else if Hashtbl.mem t.exit_table claimant then Error (Already_exited claimant)
  else begin
    let m = Gas.meter () in
    Gas.charge m "base" Gas.tx_base;
    Gas.charge m "calldata"
      (Gas.calldata_cost_of_size (Chain.Encoding.selector_size + 32));
    (* The claimant's open positions, in id order, valued exactly as the
       last confirmed summary recorded them. *)
    let mine =
      Pos_store.fold t.positions_store ~init:[]
        ~f:(fun acc (p : Sync_payload.position_entry) ->
          if Address.equal p.Sync_payload.owner claimant then
            (p.Sync_payload.pos_id, p) :: acc
          else acc)
      |> List.sort (fun (a, _) (b, _) -> Position_id.compare a b)
    in
    Gas.charge m "exit.positions" (List.length mine * 8 * Gas.sload);
    let mine0, mine1 =
      List.fold_left
        (fun (v0, v1) (_, (p : Sync_payload.position_entry)) ->
          ( U256.add v0 (U256.add p.Sync_payload.amount0 p.Sync_payload.fees0),
            U256.add v1 (U256.add p.Sync_payload.amount1 p.Sync_payload.fees1) ))
        (U256.zero, U256.zero) mine
    in
    (* Pro-rata claim against the reserves frozen at the halt, floored so
       the sum over all claimants can never exceed those reserves. *)
    let frozen0, frozen1 =
      List.fold_left
        (fun (b0, b1) p -> (U256.add b0 p.balance0, U256.add b1 p.balance1))
        (U256.zero, U256.zero) t.frozen_pools
    in
    let share frozen mine total =
      if U256.is_zero total then U256.zero else U256.mul_div frozen mine total
    in
    let claim0 = share frozen0 mine0 t.frozen_value0 in
    let claim1 = share frozen1 mine1 t.frozen_value1 in
    (* Residual epoch deposits — never consumed by a sync — come back in
       full, regardless of which epoch they were scoped to. *)
    let refund0 = ref U256.zero and refund1 = ref U256.zero in
    (match Reg.find t.depositors claimant with
    | None -> ()
    | Some s ->
      Hashtbl.iter
        (fun _ b ->
          if is_present b s then begin
            refund0 := U256.add !refund0 b.d0.(s);
            refund1 := U256.add !refund1 b.d1.(s);
            book_write t b s ~present:false U256.zero U256.zero
          end)
        t.books);
    (* Drain the claim from the live pool balances, pool by pool,
       newest-created first (the historical list order). *)
    let rem0 = ref claim0 and rem1 = ref claim1 in
    for id = t.next_pool_id - 1 downto 0 do
      let p = t.pools.(id) in
      let take rem bal =
        let x = U256.min !rem bal in
        rem := U256.sub !rem x;
        U256.sub bal x
      in
      t.pools.(id) <-
        { p with balance0 = take rem0 p.balance0; balance1 = take rem1 p.balance1 }
    done;
    List.iter (fun (pid, _) -> Pos_store.remove t.positions_store pid) mine;
    Gas.charge m "exit.bookkeeping"
      ((List.length mine * Gas.sstore_update) + Gas.sstore_word);
    pay_out t m ~dest:claimant ~label:"exit.payout" (U256.add claim0 !refund0)
      ~token0:true;
    pay_out t m ~dest:claimant ~label:"exit.payout" (U256.add claim1 !refund1)
      ~token0:false;
    let claim =
      { claimant; claim0; claim1; refund0 = !refund0; refund1 = !refund1;
        positions_closed = List.length mine; exit_gas = m }
    in
    t.exit_journal <- (claimant, Hashtbl.find_opt t.exit_table claimant) :: t.exit_journal;
    t.exit_journal_len <- t.exit_journal_len + 1;
    Hashtbl.replace t.exit_table claimant claim;
    t.exit_order <- claimant :: t.exit_order;
    Log.warn ~scope
      ~fields:
        [ ("claimant", Telemetry.Json.String (Address.to_hex claimant));
          ("claim0", Telemetry.Json.String (U256.to_string claim0));
          ("claim1", Telemetry.Json.String (U256.to_string claim1));
          ("refund0", Telemetry.Json.String (U256.to_string !refund0));
          ("refund1", Telemetry.Json.String (U256.to_string !refund1));
          ("positions_closed", Telemetry.Json.Int claim.positions_closed);
          ("gas", Telemetry.Json.Int (Gas.total m)) ]
      "emergency exit served";
    Ok claim
  end

let has_exited t user = Hashtbl.mem t.exit_table user
let exit_of t user = Hashtbl.find_opt t.exit_table user
let exits t = List.rev_map (fun a -> Hashtbl.find t.exit_table a) t.exit_order
let exits_served t = Hashtbl.length t.exit_table

type reconciliation = {
  rec_epochs : int list;
  rec_users_applied : int;
  rec_users_voided : int;
  rec_positions_voided : int;
  rec_voided0 : U256.t;
  rec_voided1 : U256.t;
  rec_paid0 : U256.t;
  rec_paid1 : U256.t;
  rec_gas : Gas.meter;
}

let reconcile t ~signed =
  match signed with
  | [] -> Error Empty_submission
  | _ when not t.halted -> Error Not_halted
  | _ ->
    let payloads = List.map fst signed in
    let m = Gas.meter () in
    Gas.charge m "base" Gas.tx_base;
    let calldata_bytes =
      List.fold_left (fun acc p -> acc + Sync_payload.abi_size p) 0 payloads
    in
    Gas.charge m "calldata" (Gas.calldata_cost_of_size calldata_bytes);
    (* The recovered committee's summaries were built against the pre-halt
       state, so the chain verifies against the balances frozen at the
       halt — not the live ones the exits have since drained. *)
    let frozen_of pool_id =
      match List.find_opt (fun p -> p.pool_id = pool_id) t.frozen_pools with
      | Some info -> (info.balance0, info.balance1)
      | None -> (U256.zero, U256.zero)
    in
    let balance0, balance1 =
      match payloads with
      | p :: _ -> frozen_of p.Sync_payload.pool
      | [] -> (U256.zero, U256.zero)
    in
    let* () =
      match
        verify_all m ~vk:t.vk ~expected_epoch:(t.synced_epoch + 1) ~balance0
          ~balance1 signed
      with
      | Ok () -> Ok ()
      | Error rejection -> log_rejected t ~payloads rejection
    in
    let users_applied = ref 0 and users_voided = ref 0 in
    let positions_voided = ref 0 in
    let voided0 = ref U256.zero and voided1 = ref U256.zero in
    let paid0 = ref U256.zero and paid1 = ref U256.zero in
    (* Live per-pool balances, mutated as flows are applied. *)
    let live = Hashtbl.create 4 in
    Array.iter (fun p -> Hashtbl.replace live p.pool_id (p.balance0, p.balance1)) t.pools;
    List.iter
      (fun (p : Sync_payload.t) ->
        let open Sync_payload in
        let book = Hashtbl.find_opt t.books p.epoch in
        begin_payload t;
        List.iter
          (fun pe ->
            if Hashtbl.mem t.exit_table pe.owner then begin
              (* The owner already withdrew this position's value on-chain:
                 the summary's view of it is void. *)
              Pos_store.remove t.positions_store pe.pos_id;
              incr positions_voided
            end
            else if pe.deleted then Pos_store.remove t.positions_store pe.pos_id
            else Pos_store.set t.positions_store pe)
          p.positions;
        Gas.charge m "storage" (storage_words p * Gas.sstore_word);
        let b0, b1 =
          Option.value ~default:(U256.zero, U256.zero) (Hashtbl.find_opt live p.pool)
        in
        let b0 = ref b0 and b1 = ref b1 in
        List.iter
          (fun u ->
            if Hashtbl.mem t.exit_table u.user then begin
              incr users_voided;
              voided0 := U256.add !voided0 u.payout0;
              voided1 := U256.add !voided1 u.payout1
            end
            else begin
              incr users_applied;
              let d0, d1 = consume t book u.user in
              let short0 =
                if U256.ge d0 u.payin0 then U256.zero else U256.sub u.payin0 d0
              in
              let short1 =
                if U256.ge d1 u.payin1 then U256.zero else U256.sub u.payin1 d1
              in
              let residual0 =
                if U256.ge d0 u.payin0 then U256.sub d0 u.payin0 else U256.zero
              in
              let residual1 =
                if U256.ge d1 u.payin1 then U256.sub d1 u.payin1 else U256.zero
              in
              (* Credit the payin first, then cap the payout at what the
                 live (post-exit) reserves can actually cover. *)
              b0 := U256.add !b0 u.payin0;
              b1 := U256.add !b1 u.payin1;
              let want0 = U256.sub (U256.max u.payout0 short0) short0 in
              let want1 = U256.sub (U256.max u.payout1 short1) short1 in
              let pay0 = U256.min want0 !b0 and pay1 = U256.min want1 !b1 in
              if U256.lt pay0 want0 || U256.lt pay1 want1 then
                Log.warn ~scope
                  ~fields:
                    [ ("user", Telemetry.Json.String (Address.to_hex u.user));
                      ("epoch", Telemetry.Json.Int p.epoch) ]
                  "reconcile: payout capped by post-exit reserves";
              b0 := U256.sub !b0 pay0;
              b1 := U256.sub !b1 pay1;
              paid0 := U256.add !paid0 (U256.add pay0 residual0);
              paid1 := U256.add !paid1 (U256.add pay1 residual1);
              pay_out t m ~dest:u.user ~label:"reconcile.payout"
                (U256.add pay0 residual0) ~token0:true;
              pay_out t m ~dest:u.user ~label:"reconcile.payout"
                (U256.add pay1 residual1) ~token0:false
            end)
          p.users;
        (* Deposits the delta payload leaves unlisted are pure residuals
           (exited claimants were already drained by their exit): refund
           them in aggregate and retire the epoch's book, mirroring
           [apply_payload]. *)
        iter_unconsumed t book (fun user d0 d1 ->
            paid0 := U256.add !paid0 d0;
            paid1 := U256.add !paid1 d1;
            pay_out t m ~dest:user ~label:"reconcile.payout" d0 ~token0:true;
            pay_out t m ~dest:user ~label:"reconcile.payout" d1 ~token0:false);
        retire_book t p.epoch;
        Hashtbl.replace live p.pool (!b0, !b1);
        t.vk <- p.next_committee_vk;
        t.synced_epoch <- p.epoch)
      payloads;
    Hashtbl.iter (fun pool_id (b0, b1) -> set_pool_balances t pool_id b0 b1) live;
    t.halted <- false;
    let rec_epochs = List.map (fun p -> p.Sync_payload.epoch) payloads in
    let r =
      { rec_epochs; rec_users_applied = !users_applied;
        rec_users_voided = !users_voided; rec_positions_voided = !positions_voided;
        rec_voided0 = !voided0; rec_voided1 = !voided1;
        rec_paid0 = !paid0; rec_paid1 = !paid1; rec_gas = m }
    in
    Log.info ~scope
      ~fields:
        [ ("epochs",
           Telemetry.Json.String
             (String.concat "," (List.map string_of_int rec_epochs)));
          ("users_applied", Telemetry.Json.Int r.rec_users_applied);
          ("users_voided", Telemetry.Json.Int r.rec_users_voided);
          ("positions_voided", Telemetry.Json.Int r.rec_positions_voided);
          ("voided0", Telemetry.Json.String (U256.to_string r.rec_voided0));
          ("voided1", Telemetry.Json.String (U256.to_string r.rec_voided1));
          ("gas", Telemetry.Json.Int (Gas.total m)) ]
      "bank reconciled: halt lifted, committee key re-chained";
    Ok r

let exit_conservation_ok t =
  if not t.ever_halted then true
  else begin
    let c0h, c1h = t.custody_at_halt in
    let c0, c1 = total_custody t in
    U256.equal c0h (U256.add c0 t.paid_out0)
    && U256.equal c1h (U256.add c1 t.paid_out1)
  end

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_epoch : int;
  snap_deposits : (Address.t * (U256.t * U256.t)) list;
  snap_pool_balances : (int * (U256.t * U256.t)) list;
  snap_positions : Sync_payload.position_entry list;
}

let snapshot t ~epoch =
  { snap_epoch = epoch;
    snap_deposits = deposits_for_epoch t ~epoch;
    snap_pool_balances =
      List.map (fun p -> (p.pool_id, (p.balance0, p.balance1))) (pools_newest_first t);
    snap_positions = positions t }

(* A checkpoint is O(1) apart from the (tiny) pool array: the position
   store, both ERC-20s and the deposit books each keep an undo journal,
   and a checkpoint is a mark in each (the exit order is a persistent
   list pointer; the exit-claim table has its own small journal).
   [restore] rewinds every journal to its mark, so its cost is
   proportional to the state written since the checkpoint, not to the
   number of positions, accounts or pending deposits. *)
type checkpoint = {
  ck_pools : pool_info array;
  ck_next_pool_id : int;
  ck_dep_mark : int;
  ck_pos_mark : int;
  ck_exit_mark : int;
  ck_vk : Bls.public_key;
  ck_synced_epoch : int;
  ck_erc0 : Erc20.checkpoint;
  ck_erc1 : Erc20.checkpoint;
  ck_halted : bool;
  ck_ever_halted : bool;
  ck_halt_epoch : int;
  ck_frozen_pools : pool_info list;
  ck_frozen_value : U256.t * U256.t;
  ck_custody_at_halt : U256.t * U256.t;
  ck_paid_out : U256.t * U256.t;
  ck_exit_order : Address.t list;
}

let checkpoint t =
  t.dgen <- t.dgen + 1;
  { ck_pools = Array.copy t.pools; ck_next_pool_id = t.next_pool_id;
    ck_dep_mark = t.djbase + t.djlen;
    ck_pos_mark = Pos_store.mark t.positions_store;
    ck_exit_mark = t.exit_journal_len;
    ck_vk = t.vk; ck_synced_epoch = t.synced_epoch;
    ck_erc0 = Erc20.checkpoint t.erc0; ck_erc1 = Erc20.checkpoint t.erc1;
    ck_halted = t.halted; ck_ever_halted = t.ever_halted;
    ck_halt_epoch = t.halt_epoch; ck_frozen_pools = t.frozen_pools;
    ck_frozen_value = (t.frozen_value0, t.frozen_value1);
    ck_custody_at_halt = t.custody_at_halt;
    ck_paid_out = (t.paid_out0, t.paid_out1);
    ck_exit_order = t.exit_order }

let undo_deposits t mark =
  if mark > t.djbase + t.djlen then invalid_arg "Token_bank.restore: future deposit mark";
  if mark < t.djbase then invalid_arg "Token_bank.restore: released deposit mark";
  while t.djbase + t.djlen > mark do
    t.djlen <- t.djlen - 1;
    (match t.djournal.(t.djlen) with
    | Dep_slot { book = b; slot = s; p0; p1; present } ->
      let was = is_present b s in
      Bytes.set b.state s (if present then '\002' else '\001');
      if present && not was then b.live <- b.live + 1
      else if was && not present then b.live <- b.live - 1;
      b.d0.(s) <- p0;
      b.d1.(s) <- p1
    | Dep_created epoch -> Hashtbl.remove t.books epoch
    | Dep_retired (epoch, b) -> Hashtbl.replace t.books epoch b);
    (* Let the undone entry's book be collected. *)
    t.djournal.(t.djlen) <- Dep_created 0
  done;
  t.dgen <- t.dgen + 1

let restore t ck =
  Log.warn ~scope
    ~fields:
      [ ("from_epoch", Telemetry.Json.Int t.synced_epoch);
        ("to_epoch", Telemetry.Json.Int ck.ck_synced_epoch) ]
    "state restored to pre-sync checkpoint";
  t.pools <- Array.copy ck.ck_pools;
  t.next_pool_id <- ck.ck_next_pool_id;
  undo_deposits t ck.ck_dep_mark;
  Pos_store.undo_to t.positions_store ck.ck_pos_mark;
  t.vk <- ck.ck_vk;
  t.synced_epoch <- ck.ck_synced_epoch;
  Erc20.restore t.erc0 ck.ck_erc0;
  Erc20.restore t.erc1 ck.ck_erc1;
  t.halted <- ck.ck_halted;
  t.ever_halted <- ck.ck_ever_halted;
  t.halt_epoch <- ck.ck_halt_epoch;
  t.frozen_pools <- ck.ck_frozen_pools;
  (let v0, v1 = ck.ck_frozen_value in
   t.frozen_value0 <- v0;
   t.frozen_value1 <- v1);
  t.custody_at_halt <- ck.ck_custody_at_halt;
  (let p0, p1 = ck.ck_paid_out in
   t.paid_out0 <- p0;
   t.paid_out1 <- p1);
  (* Rewind the exit-claim journal to the checkpoint's mark. *)
  if ck.ck_exit_mark > t.exit_journal_len then
    invalid_arg "Token_bank.restore: future exit-journal mark";
  while t.exit_journal_len > ck.ck_exit_mark do
    (match t.exit_journal with
    | (claimant, prev) :: rest ->
      (match prev with
      | None -> Hashtbl.remove t.exit_table claimant
      | Some c -> Hashtbl.replace t.exit_table claimant c);
      t.exit_journal <- rest
    | [] -> invalid_arg "Token_bank.restore: exit journal underflow");
    t.exit_journal_len <- t.exit_journal_len - 1
  done;
  t.exit_order <- ck.ck_exit_order

let release_checkpoint t ck =
  let mark = Stdlib.min ck.ck_dep_mark (t.djbase + t.djlen) in
  if mark > t.djbase then begin
    let drop = mark - t.djbase in
    let keep = t.djlen - drop in
    Array.blit t.djournal drop t.djournal 0 keep;
    Array.fill t.djournal keep drop (Dep_created 0);
    t.djlen <- keep;
    t.djbase <- mark
  end;
  Pos_store.release_below t.positions_store ck.ck_pos_mark;
  Erc20.release t.erc0 ck.ck_erc0;
  Erc20.release t.erc1 ck.ck_erc1

let checkpoint_journal_bytes t = Pos_store.journal_bytes t.positions_store

let journal_length t = t.djlen + Erc20.journal_length t.erc0 + Erc20.journal_length t.erc1

let positions_bytes t = Pos_store.to_bytes t.positions_store
let positions_store t = t.positions_store
