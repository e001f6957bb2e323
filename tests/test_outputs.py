"""The bytes of the CLI's outputs, pinned by sha256 digests.

``output_digests.json`` holds the digests of the six ``dpsim figures`` traces
at a 20 s horizon on the default 3^9 grid, and of one decimated Markov
adaptive run's trace and weight snapshot, under ``saturated_pid`` those of
two 20 s full-rate PID traces under the Markov load, one per ``error_frame``,
with a ``tau_max`` that clips every axis, and under ``saturated_nn`` those of
20 s adaptive-nn and nn-fixed traces under the same load, also clipped on
every axis, which pin the network laws' per-stage path.  Under
``unstable_nn`` is a 20 s unstable-law adaptive-nn trace under the Markov
load, whose weight leak has the opposite sign, and under ``signed_zero_plant``
20 s PID and adaptive-nn traces under the same load from a plant whose
structural zeros are written ``-0.0``.  The ``# version:`` line is left out
of each digest, so a version bump moves none.  The adaptive runs pass through
BLAS products, whose last bits may differ under another numpy or BLAS, so the
file records the host line beside the digests.  The PID runs make no BLAS
call per step, since their law takes its gain products in floats, so their
digests do not depend on the BLAS build.  A change that moves a digest
re-records them: the failure message prints both host lines and the new
digests, ready to paste into the file; say why in CHANGES.md.  The BLAS
thread count is not on the host line: a network run gives the same binary
trace values and final weights, so the same CSV bytes, under one thread and
two.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpsim
from dpsim.cli import main as cli_main

DIGESTS = Path(__file__).with_name("output_digests.json")
SRC = Path(dpsim.__file__).resolve().parent.parent


def host_line():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}, {platform.machine()}"


def digest(path):
    """sha256 of the file's bytes without its ``# version:`` line."""
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(line for line in lines
                                   if not line.startswith(b"# version:"))).hexdigest()


def run_digest(tmp_path, scenario):
    """The digest of a full-rate ``dpsim run`` trace of ``scenario``."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    trace = tmp_path / "trace.csv"
    assert cli_main(["run", "--config", str(path), "--out", str(trace)]) == 0
    return digest(trace)


def test_cli_outputs_match_the_recorded_digests(tmp_path, capsys):
    assert cli_main(["figures", "--outdir", str(tmp_path / "figures"),
                     "--duration", "20"]) == 0
    run = tmp_path / "run"
    run.mkdir()
    assert cli_main(["run", "--disturbance", "markov", "--decimate", "8",
                     "--duration", "40", "--out", str(run / "trace.csv"),
                     "--weights-out", str(run / "weights.csv")]) == 0
    got = {f"{path.parent.name}/{path.name}": digest(path)
           for path in sorted(tmp_path.glob("*/*.csv"))}
    recorded = json.loads(DIGESTS.read_text())
    assert got == recorded["digests"], (
        f"recorded on: {recorded['host']}\nthis host:   {host_line()}\n"
        + json.dumps({"host": host_line(), "digests": got}, indent=2))


@pytest.mark.parametrize("frame", ["body", "earth"])
def test_saturated_pid_traces_match_the_recorded_digests(tmp_path, capsys, frame):
    # tau_max clips surge, sway and yaw in 90, 173 and 87 of the body-frame
    # run's 201 samples, and in 1, 166 and 87 of the earth-frame run's
    got = run_digest(tmp_path, {
        "controller": {"type": "pid", "error_frame": frame, "tau_max": [3e4, 7e4, 1e7]},
        "disturbance": {"type": "markov"}, "simulation": {"duration": 20.0}})
    recorded = json.loads(DIGESTS.read_text())
    assert got == recorded["saturated_pid"][frame], (
        f"recorded on: {recorded['host']}\nthis host:   {host_line()}")


@pytest.mark.parametrize("controller", ["adaptive-nn", "nn-fixed"])
def test_saturated_network_traces_match_the_recorded_digests(tmp_path, capsys, controller):
    # tau_max clips surge, sway and yaw in 67, 132 and 201 of the adaptive
    # run's 201 samples, and in 56, 121 and 64 of the nn-fixed run's
    got = run_digest(tmp_path, {
        "controller": {"type": controller, "tau_max": [2.2e4, 3e4, 7.5e3]},
        "disturbance": {"type": "markov"}, "simulation": {"duration": 20.0}})
    recorded = json.loads(DIGESTS.read_text())
    assert got == recorded["saturated_nn"][controller], (
        f"recorded on: {recorded['host']}\nthis host:   {host_line()}")


def test_unstable_law_trace_matches_the_recorded_digest(tmp_path, capsys):
    # the unstable law's leak gamma * sigma has the sign of its drive, so the
    # slope of a weight coordinate past its stage is +0.0, not the stable law's -0.0
    got = run_digest(tmp_path, {
        "controller": {"type": "adaptive-nn", "adaptation_law": "unstable"},
        "disturbance": {"type": "markov"}, "simulation": {"duration": 20.0}})
    recorded = json.loads(DIGESTS.read_text())
    assert got == recorded["unstable_nn"], (
        f"recorded on: {recorded['host']}\nthis host:   {host_line()}")


@pytest.mark.parametrize("controller", ["pid", "adaptive-nn"])
def test_signed_zero_plant_traces_match_the_recorded_digests(tmp_path, capsys, controller):
    # the entries that decouple surge from sway and yaw, written as -0.0; the
    # traces are those of the default plant (figures/pid_markov.csv and
    # figures/adaptive_nn_markov.csv)
    z = -0.0
    got = run_digest(tmp_path, {
        "plant": {"M": [[5.3122e6, z, z], [z, 8.2831e6, 0.0], [z, 0.0, 3.7454e9]],
                  "D": [[5.0242e4, z, z], [z, 2.7229e5, -4.3933e6],
                        [z, -4.3933e6, 4.1894e8]]},
        "controller": {"type": controller},
        "disturbance": {"type": "markov"}, "simulation": {"duration": 20.0}})
    recorded = json.loads(DIGESTS.read_text())
    assert got == recorded["signed_zero_plant"][controller], (
        f"recorded on: {recorded['host']}\nthis host:   {host_line()}")


def test_blas_thread_count_moves_no_csv_byte(tmp_path):
    # the adaptive law's weight products run through BLAS, whose threads may
    # split a sum differently; the %.9g CSVs must not see it
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-m", "dpsim.cli", "run", "--controller", "adaptive-nn",
             "--disturbance", "markov", "--duration", "20", "--out", str(out / "trace.csv"),
             "--weights-out", str(out / "weights.csv")],
            capture_output=True, text=True, timeout=300, env=env)
        assert done.returncode == 0, done.stderr
        written.append([(out / name).read_bytes() for name in ("trace.csv", "weights.csv")])
    assert written[0][0] == written[1][0], "the trace CSVs differ"
    assert written[0][1] == written[1][1], "the weight CSVs differ"


# writes the binary trace values and final weights of 20 s network runs under
# the Markov load into the directory argv[1]
NETWORK_RUNS = """
import sys
from pathlib import Path
from dpsim.config import parse_scenario
from dpsim.simulate import run_simulation
for controller in ("adaptive-nn", "nn-fixed"):
    trace, _ = run_simulation(parse_scenario({
        "controller": {"type": controller}, "disturbance": {"type": "markov"},
        "simulation": {"duration": 20.0}}))
    Path(sys.argv[1], controller + ".data").write_bytes(trace.data.tobytes())
    Path(sys.argv[1], controller + ".weights").write_bytes(trace.final_theta.tobytes())
"""


def test_blas_thread_count_moves_no_binary_value(tmp_path):
    # the network laws' weight products, norms and fold give the same doubles
    # under one BLAS thread and two, not only the same CSVs
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", NETWORK_RUNS, str(out)],
                              capture_output=True, text=True, timeout=300, env=env)
        assert done.returncode == 0, done.stderr
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert sorted(written[0]) == ["adaptive-nn.data", "adaptive-nn.weights",
                                  "nn-fixed.data", "nn-fixed.weights"]
    for name in written[0]:
        assert written[0][name] == written[1][name], f"{name} differs"
