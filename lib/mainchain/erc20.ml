module U256 = Amm_math.U256
module Address = Chain.Address

module Reg = Flatstore.Registry.Make (Address)

(* Accounts live in dense slots: the registry interns an address once,
   and its balance is an array cell. An allowance is a cell of its own;
   each owner slot heads a short chain of its cells (one per spender it
   ever approved — in practice the bank alone), so finding one costs no
   hashing beyond the owner's.

   Undo journal: a cell's pre-image is recorded on its first write after
   a checkpoint (or a restore). [gen] counts those boundaries and each
   cell remembers the generation it was last journaled in, so a cell
   written a thousand times between checkpoints costs one entry. Before
   the first checkpoint [gen] is 0 and nothing is journaled. Entries are
   two parallel arrays (cell code, pre-image) — a cell code is
   [2 * slot] for a balance, [2 * slot + 1] for an allowance. *)
type t = {
  token : Chain.Token.t;
  accounts : Reg.t;
  mutable bal : U256.t array;
  mutable bal_gen : int array;
  mutable first_cell : int array;  (* per owner slot; -1 = none *)
  mutable allow : U256.t array;
  mutable allow_gen : int array;
  mutable cell_spender : int array;
  mutable next_cell : int array;  (* the owner's next cell; -1 = end *)
  mutable allow_count : int;
  mutable total_supply : U256.t;
  mutable gen : int;
  mutable jcell : int array;
  mutable jprev : U256.t array;
  mutable jlen : int;
  mutable jbase : int;  (* absolute index of jcell.(0) *)
}

let deploy token =
  { token; accounts = Reg.create ~capacity:256 ();
    bal = [||]; bal_gen = [||]; first_cell = [||];
    allow = [||]; allow_gen = [||]; cell_spender = [||]; next_cell = [||];
    allow_count = 0;
    total_supply = U256.zero;
    gen = 0; jcell = [||]; jprev = [||]; jlen = 0; jbase = 0 }

let token t = t.token
let total_supply t = t.total_supply
let journal_length t = t.jlen

let grow_ints ?(fill = 0) a n = Array.append a (Array.make (Stdlib.max 64 n) fill)
let grow_u256 a n = Array.append a (Array.make (Stdlib.max 64 n) U256.zero)

(* The address's slot, interning it (with a zero balance) on first sight. *)
let slot t addr =
  let s = Reg.intern t.accounts addr in
  if s >= Array.length t.bal then begin
    let n = Array.length t.bal in
    t.bal <- grow_u256 t.bal n;
    t.bal_gen <- grow_ints t.bal_gen n;
    t.first_cell <- grow_ints ~fill:(-1) t.first_cell n
  end;
  s

let journal t cell prev =
  if t.jlen = Array.length t.jcell then begin
    t.jcell <- grow_ints t.jcell t.jlen;
    t.jprev <- grow_u256 t.jprev t.jlen
  end;
  t.jcell.(t.jlen) <- cell;
  t.jprev.(t.jlen) <- prev;
  t.jlen <- t.jlen + 1

let set_bal t s v =
  if t.bal_gen.(s) < t.gen then begin
    journal t (2 * s) t.bal.(s);
    t.bal_gen.(s) <- t.gen
  end;
  t.bal.(s) <- v

let set_allow t c v =
  if t.allow_gen.(c) < t.gen then begin
    journal t ((2 * c) + 1) t.allow.(c);
    t.allow_gen.(c) <- t.gen
  end;
  t.allow.(c) <- v

let balance_of t addr =
  match Reg.find t.accounts addr with Some s -> t.bal.(s) | None -> U256.zero

let mint t addr amount =
  let s = slot t addr in
  set_bal t s (U256.add t.bal.(s) amount);
  t.total_supply <- U256.add t.total_supply amount

(* The allowance cell of (owner slot, spender slot), or -1. *)
let cell_of t o s =
  let rec walk c = if c < 0 || t.cell_spender.(c) = s then c else walk t.next_cell.(c) in
  walk t.first_cell.(o)

let find_cell t ~owner ~spender =
  match Reg.find t.accounts owner with
  | None -> -1
  | Some o ->
    (match Reg.find t.accounts spender with Some s -> cell_of t o s | None -> -1)

let allowance t ~owner ~spender =
  let c = find_cell t ~owner ~spender in
  if c < 0 then U256.zero else t.allow.(c)

let charge meter label amount =
  match meter with Some m -> Gas.charge m label amount | None -> ()

let approve ?meter t ~owner ~spender amount =
  let o = slot t owner in
  let s = slot t spender in
  let c =
    match cell_of t o s with
    | -1 ->
      let c = t.allow_count in
      if c >= Array.length t.allow then begin
        t.allow <- grow_u256 t.allow c;
        t.allow_gen <- grow_ints t.allow_gen c;
        t.cell_spender <- grow_ints t.cell_spender c;
        t.next_cell <- grow_ints t.next_cell c
      end;
      t.allow_count <- c + 1;
      t.cell_spender.(c) <- s;
      t.next_cell.(c) <- t.first_cell.(o);
      t.first_cell.(o) <- c;
      c
    | c -> c
  in
  set_allow t c amount;
  charge meter "erc20.approve" (Gas.sload + Gas.sstore_update)

(* Debit the source slot, credit the destination — in that order, so a
   self-transfer nets to nothing. *)
let move t ~src ~dest amount =
  let src_balance = t.bal.(src) in
  if U256.lt src_balance amount then
    Error (Printf.sprintf "erc20 %s: insufficient balance" (Chain.Token.symbol t.token))
  else begin
    set_bal t src (U256.sub src_balance amount);
    let d = slot t dest in
    set_bal t d (U256.add t.bal.(d) amount);
    Ok ()
  end

let transfer ?meter t ~source ~dest amount =
  charge meter "erc20.transfer" ((2 * Gas.sload) + (2 * Gas.sstore_update));
  move t ~src:(slot t source) ~dest amount

(* A checkpoint is a journal mark plus the supply scalar. Taking one (or
   restoring one) opens a new generation, so every cell's next write
   records its pre-image again. *)
type checkpoint = { ck_mark : int; ck_supply : U256.t }

let checkpoint t =
  t.gen <- t.gen + 1;
  { ck_mark = t.jbase + t.jlen; ck_supply = t.total_supply }

let restore t c =
  if c.ck_mark > t.jbase + t.jlen then invalid_arg "Erc20.restore: future mark";
  if c.ck_mark < t.jbase then invalid_arg "Erc20.restore: released mark";
  while t.jbase + t.jlen > c.ck_mark do
    t.jlen <- t.jlen - 1;
    let cell = t.jcell.(t.jlen) and prev = t.jprev.(t.jlen) in
    if cell land 1 = 0 then t.bal.(cell lsr 1) <- prev else t.allow.(cell lsr 1) <- prev
  done;
  t.total_supply <- c.ck_supply;
  t.gen <- t.gen + 1

let release t c =
  let mark = Stdlib.min c.ck_mark (t.jbase + t.jlen) in
  if mark > t.jbase then begin
    let drop = mark - t.jbase in
    let keep = t.jlen - drop in
    Array.blit t.jcell drop t.jcell 0 keep;
    Array.blit t.jprev drop t.jprev 0 keep;
    (* Dropped pre-images stay reachable from the tail otherwise. *)
    Array.fill t.jprev keep drop U256.zero;
    t.jlen <- keep;
    t.jbase <- mark
  end

let transfer_from ?meter t ~spender ~source ~dest amount =
  let src = Reg.find t.accounts source in
  let cell =
    match (src, Reg.find t.accounts spender) with
    | Some o, Some s -> cell_of t o s
    | _ -> -1
  in
  let allowed = if cell < 0 then U256.zero else t.allow.(cell) in
  if U256.lt allowed amount then Error "erc20: insufficient allowance"
  else begin
    charge meter "erc20.allowance" (Gas.sload + Gas.sstore_update);
    charge meter "erc20.transfer" ((2 * Gas.sload) + (2 * Gas.sstore_update));
    let src = match src with Some s -> s | None -> slot t source in
    match move t ~src ~dest amount with
    | Ok () ->
      (* Infinite approvals are never decremented (canonical ERC20
         behavior). Metering above is unchanged so gas baselines stay
         comparable. *)
      if cell >= 0 && not (U256.equal allowed U256.max_value) then
        set_allow t cell (U256.sub allowed amount);
      Ok ()
    | Error e -> Error e
  end
