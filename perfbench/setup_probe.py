"""Time a fresh process's set-up: import dpsim, build the scenario and controller.

Usage: python3 perfbench/setup_probe.py SCENARIO_JSON

Prints the seconds from just before ``import dpsim`` until the network
(RbfNetwork.grid, AdaptiveWeights.random_init, BackstepGains) or the
PidController exists.  run.py starts this in several fresh processes and
reports the median as ``setup_s``.
"""

import sys
import time

import env


def main(scenario_path) -> float:
    start = time.perf_counter()
    env.import_dpsim()
    from dpsim.approximators import AdaptiveWeights, RbfNetwork
    from dpsim.config import load_scenario
    from dpsim.controllers import BackstepGains, PidController, PidGains

    cfg = load_scenario(scenario_path)
    if cfg.controller_type == "pid":
        PidController(PidGains(cfg.kp, cfg.ki, cfg.kd), cfg.pid_frame)
    else:
        net = RbfNetwork.grid(cfg.rbf_ranges, cfg.points_per_dim, cfg.rbf_width,
                              cfg.node_ceiling)
        AdaptiveWeights.random_init(net.node_count, cfg.weight_seed)
        BackstepGains(cfg.k1, cfg.k2, cfg.gamma, cfg.sigma,
                      law=cfg.adaptation_law, node_count=net.node_count)
    return time.perf_counter() - start


if __name__ == "__main__":
    env.prepare()
    print(repr(main(sys.argv[1])))
