"""The scripts under ``tools/``, run as a user runs them."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab_inprocess.py"
SETUP_AB = ROOT / "tools" / "setup_ab.py"
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def ab(*args):
    return subprocess.run([sys.executable, str(AB), *map(str, args), "--blocks", "1"],
                          capture_output=True, text=True, timeout=300, env=ENV)


def json_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_ab_times_two_trees_that_write_the_same_bytes():
    done = ab(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    [result] = json_lines(done.stdout)
    assert result == json.loads(done.stdout.splitlines()[-1])
    assert result["workload"] == "pid-markov-io" and result["seed"] == 1
    assert result["seeds_checked"] == 64 and result["moved_values"] == 0
    assert result["values"] > 0
    # a PID run has no weights
    assert result["moved_weights"] == 0 and result["weights"] == 0
    assert result["blocks"] == 1 and result["runs"] == 50
    assert 0 <= result["blocks_won"] <= 1 and result["ratio"] > 0
    # the run alone, timed inside the same runs, leaves the parse out
    assert 0 < result["run_base_ms"] < result["base_ms"]
    assert 0 < result["run_change_ms"] < result["change_ms"]
    assert result["run_ratio"] == pytest.approx(result["run_base_ms"] / result["run_change_ms"])
    assert f"run alone: median base {result['run_base_ms']:.3f} ms" in done.stdout


def test_ab_checks_and_times_each_named_workload():
    done = ab(ROOT, ROOT, "--workload", "nn-fixed-markov", "pid-markov-io")
    assert done.returncode == 0, done.stderr
    results = json_lines(done.stdout)
    assert [r["workload"] for r in results] == ["nn-fixed-markov", "pid-markov-io"]
    for result in results:
        assert result["seeds_checked"] == 64 and result["moved_values"] == 0
        assert result["values"] > 0 and result["ratio"] > 0 and result["run_ratio"] > 0
    # 64 seeds of 41 rows and of 1001 rows, 18 values each
    assert [r["values"] for r in results] == [64 * 41 * 18, 64 * 1001 * 18]
    # 64 seeds of 3 x 3^9 frozen weights, and none for PID
    assert [r["weights"] for r in results] == [64 * 3 * 3 ** 9, 0]
    assert [r["moved_weights"] for r in results] == [0, 0]


def test_ab_rejects_an_unknown_workload_before_running():
    done = ab(ROOT, ROOT, "--workload", "pid-markov-io", "no-such-workload")
    assert done.returncode == 2
    assert "unknown workload" in done.stderr and "seeds" not in done.stdout


def test_ab_stops_when_the_trees_write_different_bytes(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    config = tmp_path / "src" / "dpsim" / "config.py"
    text = config.read_text()
    assert "DEFAULT_KP = np.diag([3000.0," in text
    config.write_text(text.replace("DEFAULT_KP = np.diag([3000.0,", "DEFAULT_KP = np.diag([3001.0,"))
    done = ab(tmp_path, ROOT)
    assert done.returncode == 1
    assert "outputs differ" in done.stderr and "block" not in done.stdout


def test_ab_counts_weights_that_move_by_an_ulp(tmp_path):
    # a change that moves binary weights but no CSV byte is counted, not refused
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    kernels = tmp_path / "src" / "dpsim" / "kernels.py"
    text = kernels.read_text()
    assert text.count("    return work.theta\n") == 1
    # each fold moves the last weight up by one ulp
    kernels.write_text(text.replace(
        "    return work.theta\n",
        "    work.theta[-1, -1] = np.nextafter(work.theta[-1, -1], np.inf)\n"
        "    return work.theta\n"))
    done = ab(tmp_path, ROOT, "--workload", "adaptive-constant")
    assert done.returncode == 0, done.stderr
    [result] = json_lines(done.stdout)
    assert result["seeds_checked"] == 64 and result["weights"] == 64 * 3 * 3 ** 9
    # at least the nudged weight of each seed
    assert result["moved_weights"] >= 64
    assert (f"{result['moved_weights']} of {result['weights']} final weights differ"
            in done.stdout)


def test_setup_ab_probes_two_trees_in_turn():
    done = subprocess.run([sys.executable, str(SETUP_AB), ROOT, ROOT, "--probes", "2"],
                          capture_output=True, text=True, timeout=300, env=ENV)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["workload"] == "pid-markov-io" and result["probes"] == 2
    for side in ("base", "change"):
        assert 0 < result[f"{side}_min_s"] <= result[f"{side}_median_s"]
    assert result["ratio"] > 0 and result["min_ratio"] > 0
