"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from calibration import REFERENCE_S, reference_seconds
from run import tail_percentile
from session import CROSS_CHECK, WORKLOADS, OracleRun, Session

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc, proc.stdout.strip().splitlines()


def smoke(seed, trace):
    proc, lines = bench("--workload", "smoke", "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_named_metric(trace, section):
    result = smoke(0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_second_seed_keeps_verdicts_and_size():
    first, second = smoke(0, 0), smoke(1, 0)
    assert second["correct"] and second["failed"] == 0
    a, b = (r["metrics"]["cert_bytes"]["value"] for r in (first, second))
    assert 0.5 < a / b < 2


def test_benchmark_json_names_the_real_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def make_session(tmp_path, seed=0):
    return Session(WORKLOADS["smoke"], seed, tmp_path)


def corrupt_coordinate(data):
    data["vertices"][0]["coords"][0] += 0.25


def corrupt_type(data):
    data["elements"] = 5  # the schema check iterates it and raises TypeError


def corrupt_m(data):
    data["m"] += 1


@pytest.mark.parametrize("corrupt", [corrupt_coordinate, corrupt_type, corrupt_m])
def test_corrupted_certificate_is_a_failure_not_a_crash(tmp_path, corrupt):
    session = make_session(tmp_path)
    session.certify("A4", 13)
    path = session.cert_path("A4", 13)
    data = json.loads(path.read_text())
    corrupt(data)
    path.write_text(json.dumps(data))
    session.verify("A4", 13)
    assert (session.attempted, session.failed) == (2, 1)


def test_unreadable_certificate_is_a_failure(tmp_path):
    session = make_session(tmp_path)
    session.certify("A4", 13)
    session.cert_path("A4", 13).write_text("{not json")
    session.verify("A4", 13)
    assert session.failed == 1


def test_changed_certificate_bytes_are_a_failure(tmp_path):
    session = make_session(tmp_path)
    session.certify("A4", 13)
    session.seed = 1  # other placement, other bytes
    session.certify("A4", 13)
    assert session.failed == 1 and "changed" in session.failures[0]


def test_wrong_oracle_expectation_is_a_failure(tmp_path):
    session = make_session(tmp_path)
    wrong = OracleRun(CROSS_CHECK.argv, 0, {**CROSS_CHECK.residues, "A4": frozenset({0})})
    session.oracle(wrong)
    assert session.failed == 1


def test_without_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("--workload", "smoke", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith('{"correct"') for line in lines)


def test_tail_percentile_leaves_ten_samples_above():
    assert tail_percentile([float(i) for i in range(20)]) is None
    p, value = tail_percentile([float(i) for i in range(100)])
    assert p == 90 and sum(1 for i in range(100) if i > value) >= 10


def test_reference_seconds_scale_by_the_kernel_speed():
    assert reference_seconds(3.0, [REFERENCE_S, REFERENCE_S]) == pytest.approx(3.0)
    assert reference_seconds(3.0, [2 * REFERENCE_S, 4 * REFERENCE_S]) == pytest.approx(1.0)
