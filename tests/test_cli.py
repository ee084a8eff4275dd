"""End-to-end command line tests driving the installed entry point."""

import json
import subprocess
import sys

import pytest

from nilcoh import families
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


class TestSelftest:
    def test_selftest_passes(self):
        res = run_cli(["selftest"])
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[-1] == "selftest: all criteria passed"
        assert sum(line.startswith("PASS") for line in lines) == 9
