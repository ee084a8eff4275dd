"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Run from the repository root; the smoke runs drive the real CLI.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_workload_names_match_the_plans():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in workloads.WORKLOADS:
        assert workloads.plan(w, 7) == workloads.plan(w, 7)
        assert workloads.plan(w, 7) != workloads.plan(w, 8)


def _report(args, doc):
    proc = subprocess.run([sys.executable, "-m", "nilcoh"] + args,
                          input=doc, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def dheis_reports():
    """Real reports of every operation kind on discrete_heisenberg(2)."""
    doc = _report(["gen", "--family", "paper-example", "--d", "2"], None)
    reports = {}
    for kind in workloads.KINDS:
        extra = ("--trials", "20") if kind in ("verify", "extend") else ()
        reports[kind] = _report(workloads._op(kind, "dheis-2", 1, *extra)["args"], doc)
    return reports


TAMPER = [
    ("h2", "agree = yes", "agree = no"),
    ("h2", "H^2 = Z^2 (+) Z_2", "H^2 = Z^3 (+) Z_2"),
    ("h2_r2", "H^2 = Z^4 (+) Z_2 (+) Z_2", "H^2 = Z^4 (+) Z_2"),
    ("cocycles", "cocycle 3", "coycle 3"),
    ("verify", "all passed", "verification failed"),
    ("extend", "PASS", "FAIL"),
    ("witness", "coboundary of u", "no witness"),
]


def _replay(reports, tamper=None):
    """Record one round of reports through the benchmark's own accounting."""
    plan = {"presentations": [{"name": "dheis-2", "family": "chain",
                               "args": {"d": [2]}}],
            "ops": [workloads._op(kind, "dheis-2", 1) for kind in workloads.KINDS]}
    bench = run.Run("torsion-witness", 1, plan)
    facts = {}
    for op in plan["ops"]:
        text = reports[op["kind"]]
        if tamper and tamper[0] == op["kind"]:
            assert tamper[1] in text
            text = text.replace(tamper[1], tamper[2])
        bench.record(0, op, 0, text.encode(), facts)
    return bench


def test_untampered_reports_pass(dheis_reports):
    bench = _replay(dheis_reports)
    assert (bench.attempted, bench.failed) == (len(workloads.KINDS), 0)


@pytest.mark.parametrize("tamper", TAMPER, ids=[t[0] + ":" + t[2] for t in TAMPER])
def test_tampered_report_counts_as_failed(dheis_reports, tamper):
    bench = _replay(dheis_reports, tamper)
    assert bench.failed >= 1
    assert any(f[1].startswith(tamper[0] + ":") for f in bench.failures)


def test_changed_report_between_rounds_counts_as_failed(dheis_reports):
    bench = _replay(dheis_reports)
    op = workloads._op("h2", "dheis-2", 1)
    facts = {}
    bench.record(1, op, 0, dheis_reports["h2"].encode() + b"\n", facts)
    assert bench.failed == 1


def test_nonzero_exit_and_deadline_miss_are_listed():
    plan = workloads.plan("torsion-witness", 1, smoke=True)
    bench = run.Run("torsion-witness", 1, plan)
    op = plan["ops"][0]
    bench.record(0, op, 1, b"", {})
    bench.record(0, op, None, b"", {})
    assert (bench.attempted, bench.failed, bench.missed) == (2, 1, 1)
    lines = list(bench.summary_lines())
    assert any("exit code 1" in ln for ln in lines)
    assert any("deadline" in ln for ln in lines)


def test_chain_h2_closed_form():
    assert run.chain_h2((1,)) == (2, ())
    assert run.chain_h2((3,)) == (2, (3,))
    assert run.chain_h2((2, 4)) == (5, (2,))
    assert run.chain_h2((3, 3, 6)) == (14, (3,))
    assert run.parse_group("Z^5 (+) Z_2") == (5, (2,))
    assert run.parse_group("0") == (0, ())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results",
                                                  "__pycache__"))
    proc = _bench(["--workload", "ladder-h2", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
