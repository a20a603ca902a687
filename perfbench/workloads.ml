(* The benchmark's workloads. Each is sized so one System.run takes a few
   seconds on a 2-core host, and the seed token from the command line is
   folded into the configuration seed, so the same token always gives the
   same inputs. perfbench/spec.json records why each was chosen. *)

module Config = Ammboost.Config

type t = {
  name : string;
  fault_free : bool;  (* no fault plan: the drive must match System.run exactly *)
  base : Config.t;
}

let sweep ~users ~epochs = { (Ammboost.Experiments.sweep_cfg ~users) with Config.epochs }

let all =
  [ { name = "population"; fault_free = true; base = sweep ~users:5_000 ~epochs:3 };
    { name = "hot-pool"; fault_free = true;
      base = { Config.default with Config.users = 200; daily_volume = 15_000_000; epochs = 3 } };
    { name = "long-haul"; fault_free = true; base = sweep ~users:1_000 ~epochs:20 };
    { name = "chaos"; fault_free = false;
      base =
        { Config.default with
          Config.users = 50; miners = 40; committee_size = 13; max_faulty = 4;
          threshold_signing = true; message_level_consensus = true; mc_confirmations = 3;
          faults = Faults.Fault_plan.chaos ~intensity:0.1 ();
          daily_volume = 500_000; epochs = 30 } } ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None -> failwith ("unknown workload: " ^ name)

let config w ~seed = { w.base with Config.seed = w.base.Config.seed ^ "/bench-" ^ seed }

(* The set-up run: every user's bootstrap plus the genesis epoch and its
   drain, with no traffic epochs. *)
let setup_config w ~seed = { (config w ~seed) with Config.epochs = 0 }
