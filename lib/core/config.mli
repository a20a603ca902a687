(** Experiment configuration. The defaults reproduce the paper's setup
    (§6): 11 epochs of 10 mainchain rounds (30 sidechain rounds of 4 s),
    12 s mainchain blocks, 1 MB meta-blocks, 500-miner committees,
    100 users, and the measured Uniswap 2023 traffic distribution. *)

type distribution = {
  swap_pct : float;
  mint_pct : float;
  burn_pct : float;
  collect_pct : float;
}

val uniswap_distribution : distribution
(** Table 8, year 2023: 93.19 / 2.14 / 2.38 / 2.27. *)

(** Faults injected into a run (§4.2 "Handling interruptions"). *)
type interruption =
  | Silent_sync_leader of int
      (** the leader of this epoch never submits the Sync call *)
  | Invalid_sync of int
      (** the leader submits corrupted Sync inputs for this epoch *)
  | Mainchain_rollback of int
      (** a fork abandons the block carrying this epoch's sync *)
  | Censoring_committee of int
      (** this epoch's committee omits the first user's transactions
          (Lemma 2's DoS threat); committee rotation restores liveness *)

(** Liveness-watchdog thresholds ({!System}'s operating-mode machine).
    "Stall" counts produced-but-unapplied summary epochs at an epoch
    boundary; the steady-state pipeline depth is one epoch of lag, so
    meaningful thresholds start at 2. *)
type watchdog = {
  wd_stall_degraded : int;   (** stalled epochs before Normal → Degraded *)
  wd_stall_halted : int;     (** stalled epochs before → Halted *)
  wd_retry_degraded : int;   (** consecutive Sync retries before Degraded *)
  wd_retry_halted : int;     (** consecutive Sync retries before Halted *)
  wd_signing_streak : int;   (** consecutive degraded-quorum signings before
                                 Degraded *)
}

val default_watchdog : watchdog

type t = {
  seed : string;                   (** all randomness derives from this *)
  epochs : int;                    (** traffic-generation epochs *)
  sc_rounds_per_epoch : int;
  sc_round_duration : float;       (** seconds *)
  mc_block_interval : float;       (** seconds *)
  meta_block_bytes : int;
  mc_gas_limit : int;
  committee_size : int;
  miners : int;
  max_faulty : int;                (** f for the PBFT quorums *)
  users : int;
  lp_fraction : float;             (** users that also provide liquidity *)
  daily_volume : int;              (** V_D *)
  distribution : distribution;
  fee_pips : int;
  tick_spacing : int;
  verify_signatures : bool;        (** verify user signatures when processing *)
  threshold_signing : bool;        (** full DKG + t-of-n BLS for syncs; false =
                                       pre-generated committee key (the
                                       paper's PoC shortcut) *)
  message_level_consensus : bool;  (** run real PBFT per round instead of the
                                       latency model (small committees) *)
  self_audit : bool;               (** retain per-epoch state and replay every
                                       summary through {!Sidechain.Auditor} at
                                       the end of the run (small runs) *)
  twin_audit : bool;               (** run the state twin's epoch audit: a
                                       shadow copy of pool + deposit state
                                       captured from the live op stream and,
                                       with the replica bank, byte-compared
                                       against the flat stores at every epoch
                                       boundary (O(Δ) differential audit, with
                                       divergence bisection, watchdog
                                       escalation and corruption injection);
                                       on by default. The replica bank itself
                                       always runs: it gives the end-of-run
                                       verdict *)
  sign_transactions : bool;        (** generate real BLS signatures on traffic *)
  swap_deadline_rounds : int;      (** swap validity window in sc rounds *)
  max_positions_per_lp : int;      (** open-position cap per LP — bounds the
                                       summary size by the user population,
                                       the invariant behind Table 5 *)
  deposit_per_epoch : Amm_math.U256.t;  (** per token, per user, per epoch *)
  interruptions : interruption list;
  faults : Faults.Fault_plan.spec; (** probabilistic fault plan (chaos runs);
                                       {!Faults.Fault_plan.none} injects
                                       nothing *)
  mc_confirmations : int;          (** blocks burying a mainchain tx before it
                                       is final; raise for deeper-reorg chaos *)
  max_drain_epochs : int;          (** cap on queue-drain epochs after generation *)
  watchdog : watchdog;
  emergency_exit : bool;           (** serve per-party exits when Halted; false
                                       leaves the bank frozen awaiting
                                       reconciliation *)
  consensus : Consensus.Latency_model.params;
}

val default : t

val arrivals_per_round : t -> int
(** ρ = ⌈V_D · b_t / 86400⌉, the paper's constant arrival rate (§6). *)

val epoch_duration : t -> float
val generation_duration : t -> float
