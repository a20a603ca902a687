(* The persistent-map ERC20 ledger the flat-slot [Mainchain.Erc20] replaced,
   kept verbatim as a differential oracle (see test_ledgers.ml). *)

module Gas = Mainchain.Gas

module U256 = Amm_math.U256
module Address = Chain.Address

type t = {
  token : Chain.Token.t;
  mutable balances : U256.t Address.Map.t;
  mutable allowances : U256.t Address.Map.t Address.Map.t; (* owner -> spender -> amount *)
  mutable total_supply : U256.t;
}

let deploy token =
  { token; balances = Address.Map.empty; allowances = Address.Map.empty;
    total_supply = U256.zero }

let token t = t.token

let balance_of t addr =
  Option.value ~default:U256.zero (Address.Map.find_opt addr t.balances)

let total_supply t = t.total_supply

let set_balance t addr v = t.balances <- Address.Map.add addr v t.balances

let mint t addr amount =
  set_balance t addr (U256.add (balance_of t addr) amount);
  t.total_supply <- U256.add t.total_supply amount

let allowance t ~owner ~spender =
  match Address.Map.find_opt owner t.allowances with
  | None -> U256.zero
  | Some m -> Option.value ~default:U256.zero (Address.Map.find_opt spender m)

let charge meter label amount =
  match meter with Some m -> Gas.charge m label amount | None -> ()

let approve ?meter t ~owner ~spender amount =
  let m = Option.value ~default:Address.Map.empty (Address.Map.find_opt owner t.allowances) in
  t.allowances <- Address.Map.add owner (Address.Map.add spender amount m) t.allowances;
  charge meter "erc20.approve" (Gas.sload + Gas.sstore_update)

let transfer ?meter t ~source ~dest amount =
  charge meter "erc20.transfer" ((2 * Gas.sload) + (2 * Gas.sstore_update));
  let src_balance = balance_of t source in
  if U256.lt src_balance amount then
    Error
      (Printf.sprintf "erc20 %s: insufficient balance" (Chain.Token.symbol t.token))
  else begin
    set_balance t source (U256.sub src_balance amount);
    set_balance t dest (U256.add (balance_of t dest) amount);
    Ok ()
  end

type checkpoint = {
  c_balances : U256.t Address.Map.t;
  c_allowances : U256.t Address.Map.t Address.Map.t;
  c_supply : U256.t;
}

let checkpoint t =
  { c_balances = t.balances; c_allowances = t.allowances; c_supply = t.total_supply }

let restore t c =
  t.balances <- c.c_balances;
  t.allowances <- c.c_allowances;
  t.total_supply <- c.c_supply

let transfer_from ?meter t ~spender ~source ~dest amount =
  let allowed = allowance t ~owner:source ~spender in
  if U256.lt allowed amount then Error "erc20: insufficient allowance"
  else begin
    charge meter "erc20.allowance" (Gas.sload + Gas.sstore_update);
    match transfer ?meter t ~source ~dest amount with
    | Ok () ->
      (* Infinite approvals are never decremented (canonical ERC20
         behavior) — the deposit hot path skips two nested map rebuilds
         per token. Metering above is unchanged so gas baselines stay
         comparable. *)
      if not (U256.equal allowed U256.max_value) then begin
        let m = Address.Map.find source t.allowances in
        t.allowances <-
          Address.Map.add source (Address.Map.add spender (U256.sub allowed amount) m)
            t.allowances
      end;
      Ok ()
    | Error e -> Error e
  end
