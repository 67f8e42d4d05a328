"""Checks of the benchmark itself: ``python -m pytest perfbench -q``.

* A traced round reproduces every virtual number and row check of an
  untraced round, and no probe wrapper survives it.
* The same seed gives identical virtual outputs and matches the values
  recorded in ``expected.json``; a held-out seed gives different inputs
  that still pass the oracle.
* Without the package source the runner exits non-zero and prints no
  result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
from run import EXPECTED, failed_ops, ops_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
#: Never used while choosing the workloads' parameters.
HELD_OUT_SEED = 9001


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def rounds(request):
    workload = WORKLOADS[request.param]
    state = workload.setup(SEED)
    plain = workload.run_round(state)
    probes.install()
    try:
        traced = workload.run_round(state)
    finally:
        probes.uninstall()
    return request.param, workload, plain, traced


def test_traced_round_reproduces_untraced(rounds):
    _, _, plain, traced = rounds
    assert all(op.rows_ok for op in plain.ops)
    assert failed_ops(traced, plain, reference_ok=True) == 0
    assert traced.virtual == plain.virtual
    assert ops_digest(traced) == ops_digest(plain)
    assert probes.snapshot()["instances"]["sim.environment"]


def test_no_wrapper_survives(rounds):
    import repro.cluster
    import repro.relational.tup
    from repro.cluster import serialization
    from repro.jobs.queue import JobQueue

    assert probes.wrappers_left() == []
    assert repro.cluster.estimate_bytes is serialization.estimate_bytes
    assert repro.relational.tup.estimate_bytes is serialization.estimate_bytes
    assert not hasattr(serialization.estimate_bytes, "__wrapped__")
    assert not hasattr(JobQueue.__dict__["depth"].fget, "__wrapped__")


def test_same_seed_repeats_and_matches_record(rounds):
    name, workload, plain, _ = rounds
    again = workload.run_round(workload.setup(SEED))
    assert again.virtual == plain.virtual
    assert ops_digest(again) == ops_digest(plain)
    recorded = json.loads(EXPECTED.read_text())[name][str(SEED)]
    assert recorded == {"virtual": plain.virtual, "ops_digest": ops_digest(plain)}


def test_held_out_seed_differs_and_passes_oracle(rounds):
    _, workload, plain, _ = rounds
    other = workload.run_round(workload.setup(HELD_OUT_SEED))
    assert ops_digest(other) != ops_digest(plain)
    assert all(op.rows_ok for op in other.ops)
    again = workload.run_round(workload.setup(HELD_OUT_SEED))
    assert failed_ops(again, other, reference_ok=True) == 0


def test_runner_fails_without_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
