(** A standard ERC20 token contract: balances, allowances, transfers.
    Two instances provide the traded pair, exactly as the paper deploys
    two standard ERC20 contracts on Sepolia. *)

module U256 = Amm_math.U256
module Address = Chain.Address

type t

val deploy : Chain.Token.t -> t
val token : t -> Chain.Token.t

val mint : t -> Address.t -> U256.t -> unit
(** Test faucet: credits fresh supply. *)

val balance_of : t -> Address.t -> U256.t
val total_supply : t -> U256.t
val allowance : t -> owner:Address.t -> spender:Address.t -> U256.t

val approve : ?meter:Gas.meter -> t -> owner:Address.t -> spender:Address.t -> U256.t -> unit

val transfer :
  ?meter:Gas.meter -> t -> source:Address.t -> dest:Address.t -> U256.t -> (unit, string) result
(** Moves value; fails when the balance is insufficient. *)

(** {1 Checkpoints}

    Balances and allowances sit in dense per-account slots; rollback
    support is an undo journal that records a slot's pre-image on its
    first write after each checkpoint, so the journal grows with the
    slots touched, not with the writes. Nothing is journaled before the
    first checkpoint. Checkpoints nest: restoring one discards every
    newer one. *)

type checkpoint

val checkpoint : t -> checkpoint
(** O(1): a journal mark plus the total supply. Used to model mainchain
    rollbacks and to revert failed flash loans. *)

val restore : t -> checkpoint -> unit
(** Undoes every write made since the checkpoint — O(slots touched
    since). The checkpoint stays restorable; every newer one is
    discarded and must not be restored. Raises [Invalid_argument] for a
    released checkpoint. *)

val release : t -> checkpoint -> unit
(** Declares that no checkpoint older than this one will be restored,
    dropping the journal entries below its mark. The checkpoint itself
    (and any newer one) stays restorable. *)

val journal_length : t -> int
(** Pre-images currently held by the undo journal. *)

val transfer_from :
  ?meter:Gas.meter ->
  t -> spender:Address.t -> source:Address.t -> dest:Address.t -> U256.t ->
  (unit, string) result
(** Spends from an allowance, as the contracts' pit-stop deposits do. *)
