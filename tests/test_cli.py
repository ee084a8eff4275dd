"""Command line tests: end to end through ``python -m nilcoh``, and in
process through ``cli.main`` where hypothesis fuzzes documents and flags."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh import cli, families
from nilcoh.grouplaw import presentation_to_json


def run_cli(args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "nilcoh"] + args,
        input=stdin_text, capture_output=True, text=True)


@pytest.fixture
def heisenberg_file(tmp_path):
    path = tmp_path / "heisenberg.json"
    path.write_text(json.dumps(presentation_to_json(families.heisenberg())))
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    P = families.divisor_chain_group((2, 4))
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(presentation_to_json(P)))
    return str(path)


class TestReports:
    def test_h2_text_report(self, heisenberg_file):
        res = run_cli(["h2", "--input", heisenberg_file])
        assert res.returncode == 0
        assert "H^2 = Z^2" in res.stdout
        assert "agree = yes" in res.stdout

    def test_h1(self, heisenberg_file):
        res = run_cli(["h1", "--input", heisenberg_file])
        assert res.returncode == 0
        assert res.stdout == "H^1 = Z^2\n"

    def test_h1_coefficient_rank(self, heisenberg_file):
        res = run_cli(["h1", "--input", heisenberg_file, "--coeff-rank", "3"])
        assert res.stdout == "H^1 = Z^6\n"

    def test_homology_rank(self, chain_file):
        res = run_cli(["homology-rank", "--input", chain_file])
        assert res.returncode == 0
        assert res.stdout == "H_2 free rank = 5\n"

    def test_cocycles_listing(self, chain_file):
        res = run_cli(["cocycles", "--input", chain_file])
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert len(lines) == 6
        assert sum("[lemmax, order 2]" in line for line in lines) == 1
        assert sum("[lemmax, infinite order]" in line for line in lines) == 5

    def test_verify(self, heisenberg_file):
        res = run_cli(["verify", "--input", heisenberg_file, "--trials", "50"])
        assert res.returncode == 0
        assert "cocycle 1: PASS (50 trials)" in res.stdout
        assert res.stdout.rstrip().endswith("all passed")

    def test_extend(self, heisenberg_file):
        res = run_cli(["extend", "--input", heisenberg_file, "--trials", "100"])
        assert res.returncode == 0
        assert "central extension by Z^2 built from 2 cocycles" in res.stdout
        assert "PASS (100 trials)" in res.stdout

    def test_witness_without_torsion(self, heisenberg_file):
        res = run_cli(["witness", "--input", heisenberg_file])
        assert res.returncode == 0
        assert res.stdout == "no torsion classes; nothing to search\n"

    def test_witness_on_torsion(self, chain_file):
        res = run_cli(["witness", "--input", chain_file, "--trials", "200"])
        assert res.returncode == 0
        assert "order-2 class: 2 * cocycle = coboundary of u =" in res.stdout


class TestPipelines:
    def test_gen_piped_into_h2(self):
        gen = run_cli(["gen", "--family", "paper-example", "--n", "2",
                       "--d", "2,4"])
        assert gen.returncode == 0
        res = run_cli(["h2"], stdin_text=gen.stdout)
        assert res.returncode == 0
        assert "Z^5 (+) Z_2" in res.stdout.splitlines()[0]

    def test_gen_heisenberg_document(self):
        res = run_cli(["gen", "--family", "heisenberg"])
        assert res.returncode == 0
        assert json.loads(res.stdout) == {
            "n": 2, "m": 1, "brackets": [{"i": 1, "j": 2, "y": [1]}]}

    def test_gen_random_is_deterministic(self):
        a = run_cli(["gen", "--family", "random", "--n", "4", "--m", "2",
                     "--seed", "9"])
        b = run_cli(["gen", "--family", "random", "--n", "4", "--m", "2",
                     "--seed", "9"])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_out_flag_writes_file(self, heisenberg_file, tmp_path):
        target = tmp_path / "report.txt"
        res = run_cli(["h2", "--input", heisenberg_file, "--out", str(target)])
        assert res.returncode == 0
        assert res.stdout == ""
        assert "H^2 = Z^2" in target.read_text()


class TestJsonOutput:
    def test_round_trip_is_byte_identical(self, chain_file):
        res = run_cli(["h2", "--input", chain_file, "--format", "json"])
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == res.stdout
        assert doc["h2"]["total"] == {"free": 5, "torsion": [2]}
        assert doc["h2"]["agree"] is True

    def test_identical_invocations_identical_bytes(self, chain_file):
        runs = [run_cli(["cocycles", "--input", chain_file, "--format", "json"])
                for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout

    def test_validate_json(self, heisenberg_file):
        res = run_cli(["validate", "--input", heisenberg_file,
                       "--format", "json"])
        assert json.loads(res.stdout)["valid"] is True


class TestExitCodes:
    def test_validation_failure_is_exit_1(self):
        res = run_cli(["validate"], stdin_text='{"n": 1, "m": 1}')
        assert res.returncode == 1
        assert "rank(c) = 0 < m = 1" in res.stdout
        assert "invalid" in res.stdout

    def test_valid_presentation_is_exit_0(self):
        res = run_cli(["validate"],
                      stdin_text='{"n": 3, "m": 0, "brackets": []}')
        assert res.returncode == 0
        assert res.stdout == "valid\n"

    def test_invalid_presentation_rejected_by_h2(self):
        res = run_cli(["h2"], stdin_text='{"n": 1, "m": 1}')
        assert res.returncode == 1
        assert "rank(c) = 0 < m = 1" in res.stderr

    def test_malformed_json_is_exit_2(self):
        res = run_cli(["h2"], stdin_text="{not json")
        assert res.returncode == 2
        assert "malformed JSON" in res.stderr

    def test_schema_violation_names_field(self):
        res = run_cli(["h2"], stdin_text='{"n": 2}')
        assert res.returncode == 2
        assert "'m'" in res.stderr

    def test_duplicate_bracket_is_exit_2(self):
        doc = {"n": 2, "m": 1, "brackets": [
            {"i": 1, "j": 2, "y": [1]}, {"i": 1, "j": 2, "y": [2]}]}
        res = run_cli(["validate"], stdin_text=json.dumps(doc))
        assert res.returncode == 2
        assert "duplicate bracket pair (1,2)" in res.stderr

    def test_unreadable_file_is_exit_2(self):
        res = run_cli(["h2", "--input", "/nonexistent/path.json"])
        assert res.returncode == 2
        assert res.stderr.startswith("error:")

    def test_closed_stdin_is_exit_2(self):
        # the shell's <&- starts the process with file descriptor 0 closed
        res = subprocess.run(["sh", "-c", '"$0" -m nilcoh h2 <&-',
                              sys.executable], capture_output=True, text=True)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("error:")
        assert len(res.stderr.splitlines()) == 1

    def test_gen_inconsistent_flags_is_exit_2(self):
        res = run_cli(["gen", "--family", "paper-example", "--n", "3",
                       "--d", "2,4"])
        assert res.returncode == 2
        assert "--n disagrees" in res.stderr

    def test_gen_missing_family_is_exit_2(self):
        res = run_cli(["gen"])
        assert res.returncode == 2

    @pytest.mark.parametrize("args", [
        ["h2", "--coeff-rank", "-1"],
        ["h2", "--coeff-rank", "4097"],
        ["h2", "--coeff-rank", "1000000"],
        ["h1", "--coeff-rank", "1000000000"],
        ["verify", "--bound", "0"],
        ["verify", "--trials", "-1"],
        ["extend", "--bound", "0"],
        ["extend", "--trials", "-1"],
        ["gen", "--family", "random", "--n", "2", "--m", "3"],
        ["gen", "--family", "paper-example", "--d", "0,2"],
        ["gen", "--family", "abelian", "--n", "-1"],
        ["witness", "--max-weight", "-1"],
        ["witness", "--max-weight", "0"],
    ], ids=" ".join)
    def test_out_of_range_flag_is_exit_2(self, args):
        doc = json.dumps(presentation_to_json(families.heisenberg()))
        res = run_cli(args, stdin_text=doc)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert sum("error:" in line for line in res.stderr.splitlines()) == 1

    @pytest.mark.parametrize("source", ["stdin", "file"])
    @pytest.mark.parametrize("doc", [
        b"\xff\xfe{}",
        b"[" * 100000 + b"]" * 100000,
        b'{"n": ' + b"1" * 5000 + b', "m": 0}',
    ], ids=["not-utf8", "nested-100000-deep", "5000-digit-integer"])
    def test_undecodable_document_is_exit_2(self, doc, source, tmp_path):
        args = [sys.executable, "-m", "nilcoh", "h2"]
        if source == "file":
            path = tmp_path / "doc.json"
            path.write_bytes(doc)
            res = subprocess.run(args + ["--input", str(path)],
                                 capture_output=True)
        else:
            res = subprocess.run(args, input=doc, capture_output=True)
        err = res.stderr.decode("utf-8")
        assert res.returncode == 2
        assert res.stdout == b""
        assert "Traceback" not in err
        assert err.startswith("error:") and len(err.splitlines()) == 1


def run_in_process(args, stdin=b""):
    """cli.main on bytes for stdin; returns (exit code, stdout, stderr).

    An exception other than SystemExit escapes, as a traceback would.
    """
    out, err = io.StringIO(), io.StringIO()
    fake_stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    with mock.patch.object(sys, "stdin", fake_stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# small integers keep every document that happens to parse cheap to analyse
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6)
    | st.floats(allow_nan=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "m", "brackets", "i", "j", "y"])
        | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)

valid_documents = st.integers(0, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, comb(n, 2)),
                        st.integers(1, 3), st.integers(0, 99))).map(
    lambda a: json.dumps(presentation_to_json(
        families.random_presentation(*a))).encode())

documents = (st.binary(max_size=48)
             | json_values.map(lambda v: json.dumps(v).encode())
             | valid_documents)

flags = st.lists(st.sampled_from([
    ["--coeff-rank", "0"], ["--coeff-rank", "2"], ["--coeff-rank", "-1"],
    ["--coeff-rank", "4096"], ["--coeff-rank", "4097"],
    ["--format", "json"], ["--format", "xml"], ["--seed", "5"],
    ["--bound", "x"], ["--unknown"]]), max_size=2).map(
    lambda parts: [f for part in parts for f in part])


class TestFuzz:
    """In-process fuzzing of the exit-code contract: 0, 1 or 2, never a traceback."""

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from(["validate", "h1", "h2", "homology-rank"]),
           documents, flags)
    def test_documents_and_flags(self, command, doc, extra):
        code, _, err = run_in_process([command] + extra, doc)
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(["paper-example", "heisenberg", "abelian",
                            "random", "klein"]),
           st.fixed_dictionaries({}, optional={
               "--n": st.integers(-1, 5).map(str),
               "--m": st.integers(-1, 6).map(str),
               "--d": st.lists(st.integers(-1, 6), max_size=3).map(
                   lambda d: ",".join(map(str, d))),
               "--bound": st.integers(0, 3).map(str),
               "--seed": st.integers(0, 9).map(str)}))
    def test_gen_output_validates(self, family, options):
        args = ["gen", "--family", family]
        for flag, value in options.items():
            args += [flag, value]
        code, out, err = run_in_process(args)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 0:
            assert run_in_process(["validate"], out.encode()) == (0, "valid\n", "")


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps these names; one that is gone would crash
    # every traced run
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("nilcoh_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in tracer.TARGETS if not hasattr(owner, attr)]
    assert missing == []
