"""The scripts under ``tools/``, run as a user runs them."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab_inprocess.py"


def ab(*args):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, str(AB), *map(str, args), "--blocks", "1"],
                          capture_output=True, text=True, timeout=300, env=env)


def test_ab_times_two_trees_that_write_the_same_bytes():
    done = ab(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["workload"] == "pid-markov-io" and result["seed"] == 1
    assert result["seeds_checked"] == 64 and result["moved_values"] == 0
    assert result["values"] > 0
    assert result["blocks"] == 1 and result["runs"] == 50
    assert 0 <= result["blocks_won"] <= 1 and result["ratio"] > 0


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
