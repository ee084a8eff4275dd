"""The eight acceptance criteria, one test each, with a printed verdict line.

One ``python -m nilcoh selftest`` run feeds every test here, so each
criterion runs once, through the command line. Run with -s (or look at
captured stdout on failure) to see the lines:

    PASS 1 divisor-chain H^2 regression: ...
"""

import os
import re
import subprocess
import sys

import pytest

from nilcoh import acceptance, cli, cocycles, families
from nilcoh.acceptance import CRITERIA

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture(scope="module")
def selftest():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "nilcoh", "selftest"],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("name", [c[0] for c in CRITERIA],
                         ids=[c[0] for c in CRITERIA])
def test_criterion(selftest, name):
    lines = [line for line in selftest.stdout.splitlines()
             if line.startswith(("PASS %s:" % name, "FAIL %s:" % name))]
    print("\n".join(lines))
    assert len(lines) == 1, selftest.stdout + selftest.stderr
    assert lines[0].startswith("PASS "), lines[0]


def test_selftest_passes(selftest):
    assert selftest.returncode == 0, selftest.stderr
    lines = selftest.stdout.splitlines()
    assert lines[-1] == "selftest: all criteria passed"
    assert sum(line.startswith("PASS") for line in lines) == 8


def test_pass_details_carry_no_time(selftest):
    # selftest stdout is meant to be diffed; a time budget that holds
    # prints nothing that varies from run to run
    passes = [line for line in selftest.stdout.splitlines()
              if line.startswith("PASS")]
    assert passes, selftest.stdout + selftest.stderr
    for line in passes:
        assert not re.search(r"\d\.\d+ ?s\b", line), line


def test_raising_criterion_fails_alone(monkeypatch, capsys):
    def boom():
        raise ValueError("broken")

    monkeypatch.setattr(acceptance, "CRITERIA", (
        ("a", lambda: (True, "fine")), ("b", boom), ("c", lambda: (True, "fine"))))
    lines = []
    assert not acceptance.run_all(write=lines.append)
    assert lines == ["PASS a: fine", "FAIL b: raised ValueError: broken",
                     "PASS c: fine"]
    assert cli.main(["selftest"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == lines + ["selftest: FAILURES"]


def test_extension_soundness_names_the_presentation(monkeypatch):
    # one fiber of an all-cocycle extension is not a cocycle, built past
    # the proof in build_extension
    chain = families.divisor_chain_group((2, 4))
    bad = cocycles.CocycleLemmaY(phi=((1,), (0,), (0,), (0,)))
    all_cocycles = cocycles.all_cocycles

    def with_bad_fiber(P):
        ws = all_cocycles(P)
        return ws[:2] + [bad] + ws[2:] if P == chain else ws

    monkeypatch.setattr(cocycles, "all_cocycles", with_bad_fiber)
    monkeypatch.setattr(cocycles, "build_extension", cocycles.ExtensionGroup)
    assert acceptance.check_extension_soundness() == (
        False, "divisor-chain(2, 4): associativity fails at trial 0")
