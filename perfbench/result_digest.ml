(* The result digest: the simulation outputs a correct run must
   reproduce. Fixed for a workload's default seed (recorded in
   perfbench/spec.json); for any other seed, every run must agree. *)

type t = {
  generated : int;
  processed : int;
  rejected : int;
  summary_user_entries : int;
  mc_gas_total : int;
  mc_tx_bytes : int;
  sc_cumulative_bytes : int;
  bank_storage_words : int;
}

let fields d =
  [ ("generated", d.generated); ("processed", d.processed); ("rejected", d.rejected);
    ("summary_user_entries", d.summary_user_entries); ("mc_gas_total", d.mc_gas_total);
    ("mc_tx_bytes", d.mc_tx_bytes); ("sc_cumulative_bytes", d.sc_cumulative_bytes);
    ("bank_storage_words", d.bank_storage_words) ]

(* 16 hex digits of the MD5 of the canonical "name=value" lines. *)
let to_hex d =
  let canon = String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s=%d\n" k v) (fields d)) in
  String.sub (Digest.to_hex (Digest.string canon)) 0 16
