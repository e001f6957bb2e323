"""Alternating fresh-process A/B of perfbench's set-up probe between two source trees.

    python3 tools/setup_ab.py BASE [CHANGE] [--probes 30] [--workload pid-markov-io]

BASE and CHANGE are checkouts (CHANGE defaults to this one); a parent
commit can be unpacked with ``git archive``.  Each tree's own
``perfbench/setup_probe.py`` is run ``--probes`` times in fresh processes on
the workload's seed-1 scenario, as perfbench writes it, and the two trees
take turns going first, probe by probe.  That is the measurement behind
perfbench's ``setup_s`` (the median of a few such probes), taken often
enough, and close enough together in time, that a jump in one benchmark run
can be told from a change in the code: the probe imports dpsim and builds
the scenario's controller, so a tree whose imported modules did not change
should read level here.  It prints each tree's median and minimum in raw
host seconds, the ratio base / change of the medians and of the minimums
(above 1 means the change is faster), and the same numbers as JSON on its
last line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def scenario(name):
    """The scenario perfbench sends for workload ``name`` on seed ``SEED``."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench.workloads import WORKLOADS
    finally:
        del sys.path[:2]
    return WORKLOADS[name].scenario_for(SEED)


def probe(tree, scenario_path):
    """Seconds one fresh process of ``tree``'s set-up probe reports."""
    out = subprocess.run([sys.executable, str(tree / "perfbench" / "setup_probe.py"),
                          str(scenario_path)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--probes", type=int, default=30)
    parser.add_argument("--workload", default="pid-markov-io")
    args = parser.parse_args(argv)
    if args.probes < 1:
        parser.error("--probes must be at least 1")
    try:
        raw = scenario(args.workload)
    except KeyError:
        parser.error(f"unknown workload {args.workload!r}")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}

    times = {"base": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(raw))
        for i in range(args.probes):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                times[side].append(probe(trees[side], path))

    record = {"workload": args.workload, "seed": SEED, "probes": args.probes}
    print(f"{args.workload} seed {SEED}: {args.probes} fresh processes per tree")
    for side, got in times.items():
        record[f"{side}_median_s"] = statistics.median(got)
        record[f"{side}_min_s"] = min(got)
        print(f"{side}: median {record[f'{side}_median_s'] * 1e3:.2f} ms, "
              f"min {record[f'{side}_min_s'] * 1e3:.2f} ms")
    record["ratio"] = record["base_median_s"] / record["change_median_s"]
    record["min_ratio"] = record["base_min_s"] / record["change_min_s"]
    print(f"ratio base / change: median {record['ratio']:.4f}, min {record['min_ratio']:.4f}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
