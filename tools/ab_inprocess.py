"""In-process interleaved A/B of a scenario's parse and run between two source trees.

    python3 tools/ab_inprocess.py BASE [CHANGE] [--workload NAME ...] [--blocks 8]

BASE and CHANGE are checkouts, each with its own ``src/dpsim`` (CHANGE
defaults to this one); a parent commit can be unpacked with ``git archive``.
Both are imported into this one process, each under a module set of its
own, and run the scenarios that perfbench's ``--workload`` sends.
``--workload`` takes one or more names (default ``pid-markov-io``), which
run one after another, each checked and then timed as below.
The script first runs both trees on each of the workload's 64 reference
seeds (``perfbench.workloads.REFERENCE_SEEDS``) and checks that they give
the same trace CSV bytes (the ``# version:`` line left out) and, for a
network run, the same ``write_weight_csv`` bytes of the final weights; it
stops at the first seed where they do not.  Over the same runs it counts
the ``trace.data`` values and the final weights whose bits differ: a change
that keeps every CSV byte can still move binary values, by less than the 9
digits the CSV prints, and the counts show how many it moved.  It then times
``config.parse_scenario`` plus ``simulate.run_simulation`` on seed 1 with
``perf_counter``, in ``--blocks`` blocks of 50 runs per tree, after one
warm-up run of each.  The parse is timed because it builds the components
that the run uses; a config parsed once and run again would time no build
at all.  The same runs also time ``run_simulation`` alone, which is what
perfbench's ``steps_per_s`` times; the parse, which it leaves out, would
dilute a change to the run.  The two trees take turns going first, run by
run.  It prints each block's medians, then each tree's median over all
runs, the ratio base / change (above 1 means the change is faster), and how
many blocks the change won, and the medians and ratio of the run alone.  A
line of JSON closes each workload's output with the same numbers (the run
alone as ``run_base_ms``, ``run_change_ms`` and ``run_ratio``), the seeds
checked, the counts of moved and of all trace values (``moved_values``,
``values``) and of moved and of all final weights (``moved_weights``,
``weights``; 0 and 0 for PID).  numpy's BLAS threads are whatever the
environment sets (``OPENBLAS_NUM_THREADS`` and the like).

Both trees see the same host speed within a few milliseconds of each other,
so a 3-9 % difference shows here that the host's own speed swings between
separate processes hide.  It times no file read or write, so it is not a
request: it adds to perfbench's alternating pairs and does not replace them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
RUNS = 50               # runs per tree in a block


def _pop(packages):
    """Remove the modules of ``packages`` from ``sys.modules``; returns them."""
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name.split(".")[0] in packages}


def _isolated(paths, packages, load):
    """``load()`` with ``paths`` first on the import path and ``packages`` loaded afresh.

    The modules it imports stay bound to each other but leave ``sys.modules``,
    so the next tree imports its own.
    """
    outside = _pop(packages)
    sys.path[:0] = paths
    try:
        return load()
    finally:
        del sys.path[:len(paths)]
        _pop(packages)
        sys.modules.update(outside)


def load_tree(root):
    """``dpsim``'s approximators, config, simulate and traces modules from ``root/src``."""
    src = Path(root).resolve() / "src"

    def load():
        mods = {name: importlib.import_module(f"dpsim.{name}")
                for name in ("approximators", "config", "simulate", "traces")}
        if Path(mods["simulate"].__file__).resolve().parent.parent != src:
            raise ImportError(f"dpsim was imported from {mods['simulate'].__file__}, not {src}")
        return types.SimpleNamespace(**mods)

    return _isolated([str(src)], {"dpsim"}, load)


def workload_scenarios(name):
    """The scenarios perfbench sends for workload ``name`` on its reference seeds, in order."""
    def load():
        workloads = importlib.import_module("perfbench.workloads")
        return [workloads.WORKLOADS[name].scenario_for(seed)
                for seed in range(workloads.REFERENCE_SEEDS)]

    return _isolated([str(ROOT), str(ROOT / "src")], {"dpsim", "perfbench"}, load)


def outputs(tree, raw):
    """sha256 of the run's trace CSV without its version line and of its weight
    CSV (None without weights), the trace's values and the final weights."""
    trace, _ = tree.simulate.run_simulation(tree.config.parse_scenario(raw))
    theta = getattr(trace, "final_theta", None)
    weights = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        tree.traces.write_trace_csv(path, trace)
        lines = path.read_bytes().splitlines(keepends=True)
        if theta is not None:
            tree.approximators.write_weight_csv(path, theta)
            weights = hashlib.sha256(path.read_bytes()).hexdigest()
    body = b"".join(line for line in lines if not line.startswith(b"# version:"))
    return (hashlib.sha256(body).hexdigest(), weights), trace.data, theta


def moved_bits(base, change):
    """How many of two same-shaped float arrays' values differ in their bits."""
    return int(np.count_nonzero(base.view(np.uint64) != change.view(np.uint64)))


def moved_values(trees, scenarios):
    """(moved, total, moved_weights, weights): how many of the ``trace.data``
    values and of the final weights of ``scenarios`` differ in their bits
    between the trees, and how many there are.  None, after printing both
    trees' digests, at the first scenario whose trace or weight CSV bytes
    differ."""
    moved = total = moved_weights = weights = 0
    for seed, raw in enumerate(scenarios):
        (base, base_data, base_theta), (change, change_data, change_theta) = (
            outputs(tree, raw) for tree in trees)
        if base != change:
            print(f"the trees' outputs differ on seed {seed}: base {base}, change {change}",
                  file=sys.stderr)
            return None
        moved += moved_bits(base_data, change_data)
        total += base_data.size
        if base_theta is not None:
            moved_weights += moved_bits(base_theta, change_theta)
            weights += base_theta.size
    return moved, total, moved_weights, weights


def timed(tree, raw):
    """Seconds of the parse and the run together, and of the run alone."""
    start = time.perf_counter()
    cfg = tree.config.parse_scenario(raw)
    parsed = time.perf_counter()
    tree.simulate.run_simulation(cfg)
    end = time.perf_counter()
    return end - start, end - parsed


def ab(trees, name, scenarios, blocks):
    """Check and time workload ``name`` on its ``scenarios``; its JSON record, or
    None when the trees' outputs differ."""
    counts = moved_values(trees.values(), scenarios)
    if counts is None:
        return None
    moved, total, moved_weights, weights = counts
    print(f"{name} seeds 0-{len(scenarios) - 1}: same trace and weight CSV bytes; "
          f"{moved} of {total} trace values and {moved_weights} of {weights} final weights "
          f"differ in their bits")
    print(f"seed {SEED}: {blocks} blocks of {RUNS} runs per tree")

    raw = scenarios[SEED]
    for tree in trees.values():             # warm-up
        timed(tree, raw)
    times = {"base": [], "change": []}      # (parse and run, run alone) per run
    won = 0
    for block in range(blocks):
        got = {"base": [], "change": []}
        for run in range(RUNS):
            for side in ("base", "change") if run % 2 == 0 else ("change", "base"):
                got[side].append(timed(trees[side], raw))
        base, change = (statistics.median(t for t, _ in got[side]) for side in ("base", "change"))
        won += change < base
        for side in times:
            times[side] += got[side]
        print(f"block {block + 1}: base {base * 1e3:.3f} ms, change {change * 1e3:.3f} ms, "
              f"ratio {base / change:.4f}")
    (base, run_base), (change, run_change) = (
        map(statistics.median, zip(*times[side])) for side in ("base", "change"))
    print(f"median base {base * 1e3:.3f} ms, change {change * 1e3:.3f} ms, "
          f"ratio {base / change:.4f}, change won {won} of {blocks} blocks")
    print(f"run alone: median base {run_base * 1e3:.3f} ms, change {run_change * 1e3:.3f} ms, "
          f"ratio {run_base / run_change:.4f}")
    return {"workload": name, "seeds_checked": len(scenarios), "moved_values": moved,
            "values": total, "moved_weights": moved_weights, "weights": weights, "seed": SEED,
            "base_ms": base * 1e3, "change_ms": change * 1e3,
            "ratio": base / change, "run_base_ms": run_base * 1e3,
            "run_change_ms": run_change * 1e3, "run_ratio": run_base / run_change,
            "blocks_won": won, "blocks": blocks, "runs": RUNS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--workload", nargs="+", default=["pid-markov-io"])
    parser.add_argument("--blocks", type=int, default=8)
    args = parser.parse_args(argv)
    if args.blocks < 1:
        parser.error("--blocks must be at least 1")

    try:
        scenarios = {name: workload_scenarios(name) for name in args.workload}
    except KeyError as exc:
        parser.error(f"unknown workload {exc}")
    trees = {"base": load_tree(args.base), "change": load_tree(args.change)}
    for name, runs in scenarios.items():
        record = ab(trees, name, runs, args.blocks)
        if record is None:
            return 1
        print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
