"""The nilcoh benchmark: CLI timings per workload, and per-layer numbers when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Load model: a closed loop with one client and
one operation at a time; every operation is a fresh ``python -m nilcoh``
process with ``PYTHONPATH=src``. A round runs every operation of the
workload's plan once; rounds repeat until ``--seconds`` is used up.
``wall_s`` is the median round; a command's time is the sum over its
operations of each one's median over rounds. Every report is checked, and
its SHA-256 digest is recorded under ``perfbench/results/``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` untraced and traced rounds alternate (operations then run under
``perfbench/tracer.py``) and the last line carries the per-layer metrics,
including the tracing overhead. Deadline misses are listed and counted in
``fail_frac``; the result's ``failed`` counts operations that exited nonzero
or printed a wrong or unstable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from math import comb
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
STARTUP_REPEATS = 5

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
E2E_UNITS.update({kind + "_s": "s" for kind in workloads.KINDS})

LAYER_UNITS = {
    "exactlinalg.snf.calls": "count",
    "exactlinalg.snf.self_s": "s",
    "exactlinalg.snf.max_bits": "bits",
    "exactlinalg.snf.max_cells": "cells",
    "exactlinalg.snf.largest.rows": "count",
    "exactlinalg.snf.largest.cols": "count",
    "exactlinalg.snf.largest.max_bits": "bits",
    "exactlinalg.solve.self_s": "s",
    "exactlinalg.subquotient.s": "s",
    "cohomology.h2.s": "s",
    "cohomology.h2_via_complex.s": "s",
    "cohomology.snf_per_h2": "ratio",
    "grouplaw.validate.calls": "count",
    "grouplaw.validate.self_s": "s",
    "grouplaw.multiply.calls": "count",
    "grouplaw.multiply.self_s": "s",
    "cocycles.evaluate.calls": "count",
    "cocycles.evaluate.self_s": "s",
    "cocycles.ext_multiply.self_s": "s",
    "cocycles.render.self_s": "s",
    "cocycles.generators.s": "s",
    "cocycles.witness.self_s": "s",
    "cocycles.witness.found_per_attempt": "ratio",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
    "fail_frac": "ratio",
}


# --- checking reports ----------------------------------------------------

def parse_group(text):
    """'Z^5 (+) Z_2' -> (5, (2,)); '0' -> (0, ())."""
    free, torsion = 0, []
    if text.strip() == "0":
        return 0, ()
    for part in text.strip().split(" (+) "):
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            free += int(part[2:])
        elif part.startswith("Z_"):
            torsion.append(int(part[2:]))
        else:
            raise ValueError("not an abelian group: %r" % (text,))
    return free, tuple(torsion)


def chain_h2(d):
    """Known H^2(G, Z) of the divisor-chain group with chain d."""
    k = len(d)
    free = 2 if k == 1 else comb(2 * k, 2) - 1
    return free, ((d[0],) if d[0] > 1 else ())


def _fields(stdout):
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def check_report(op, stdout, facts, chains):
    """Why the report of a successful operation is wrong, or None.

    ``facts`` maps presentation name -> H^2(G, Z) as (free, torsion), filled
    by the round's h2 reports; ``chains`` maps the divisor-chain
    presentations to their chain.
    """
    lines = stdout.splitlines()
    pres, kind = op["pres"], op["kind"]
    if kind in ("h2", "h2_r2"):
        f = _fields(stdout)
        if f.get("agree") != "yes":
            return "h2 report does not say agree = yes"
        try:
            total = parse_group(f.get("H^2", ""))
            cross = parse_group(f.get("complex path", ""))
        except ValueError as exc:
            return str(exc)
        if total != cross:
            return "H^2 differs from the complex path"
        if kind == "h2":
            if pres in chains and total != chain_h2(chains[pres]):
                return "H^2 = %s, expected %s" % (total, chain_h2(chains[pres]))
            facts[pres] = total
        elif pres in facts:
            free, tor = facts[pres]
            want = (2 * free, tuple(sorted(tor + tor)))
            if total != want:
                return "H^2(Z^2) = %s, expected twice H^2(Z) = %s" % (total, want)
        return None
    if pres not in facts:
        return "no h2 report for %s in this round" % pres
    free, tor = facts[pres]
    count = free + len(tor)
    if kind == "cocycles":
        heads = [ln for ln in lines if ln.startswith("cocycle ")]
        orders = sorted(int(ln.split("order ")[1].split("]")[0])
                        for ln in heads if "order " in ln)
        if len(heads) != count:
            return "%d cocycles, expected %d" % (len(heads), count)
        if tuple(orders) != tuple(sorted(tor)):
            return "finite orders %s, expected %s" % (orders, tor)
        return None
    if kind == "verify":
        passed = [ln for ln in lines if ln.startswith("cocycle ") and ": PASS (" in ln]
        if len(passed) != count or lines[-1:] != ["all passed"]:
            return "verify did not pass all %d cocycles" % count
        return None
    if kind == "extend":
        head = "central extension by Z^%d built from %d cocycles" % (count, count)
        if lines[:1] != [head] or not lines[1:2] or \
                not lines[1].startswith("associativity and inverse laws: PASS"):
            return "extend report is not an ok Z^%d extension" % count
        return None
    if kind == "witness":
        if not tor:
            ok = lines == ["no torsion classes; nothing to search"]
            return None if ok else "witness report for a torsion-free H^2"
        found = sorted(int(ln.split("-")[1].split(" ")[0]) for ln in lines
                       if ln.startswith("order-") and "= coboundary of u =" in ln)
        if len(lines) != len(tor) or tuple(found) != tuple(sorted(tor)):
            return "no witness for every torsion class %s" % (tor,)
        return None
    return "unknown operation kind %r" % kind


# --- running operations ----------------------------------------------------

def run_process(argv, deadline, out_path, err_path, env):
    """Run argv to completion or deadline: (exit code or None, wall s, max RSS MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        waited = []
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            waited.append((perf_counter(), status, usage))

        reaper = threading.Thread(target=reap)
        reaper.start()
        reaper.join(deadline)
        missed = reaper.is_alive()
        if missed:
            proc.kill()
            reaper.join()
        t1, status, usage = waited[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
    if missed:
        return None, deadline, usage.ru_maxrss / 1024.0
    return proc.returncode, t1 - t0, usage.ru_maxrss / 1024.0


class Run:
    """Everything one benchmark run measured, and its failures."""

    def __init__(self, workload, seed, plan):
        self.workload, self.seed = workload, seed
        self.plan = plan
        self.chains = {p["name"]: tuple(p["args"]["d"])
                       for p in plan["presentations"] if p["family"] == "chain"}
        self.attempted = 0
        self.failed = 0
        self.missed = 0
        self.failures = []        # (round, op id, presentation, cause)
        self.digests = {}         # op id -> stdout SHA-256
        self.rounds = []          # untraced round summaries
        self.traced = []          # traced round summaries
        self.peak_rss_mb = 0.0

    def record(self, rnd, op, code, stdout, facts):
        """Count one finished (or deadline-killed, code None) operation."""
        self.attempted += 1
        if code is None:
            self.missed += 1
            self.failures.append((rnd, op["id"], op["pres"],
                                  "missed its %.1f s deadline" % op["deadline"]))
            return
        cause = ("exit code %d" % code) if code else \
            check_report(op, stdout.decode("utf-8", "replace"), facts, self.chains)
        digest = hashlib.sha256(stdout).hexdigest()
        if cause is None and self.digests.setdefault(op["id"], digest) != digest:
            cause = "report differs from the same operation's earlier report"
        if cause is not None:
            self.failed += 1
            self.failures.append((rnd, op["id"], op["pres"], cause))

    def summary_lines(self):
        for rnd, op_id, pres, cause in self.failures:
            yield ("failed op: workload=%s seed=%d round=%d presentation=%s "
                   "op=%s cause=%s" % (self.workload, self.seed, rnd, pres,
                                       op_id, cause))
        for op_id in sorted(self.digests):
            yield "digest %s %s" % (op_id, self.digests[op_id])


def run_round(run, rnd, workdir, env, traced):
    summary = {"wall": 0.0, "ops": {}, "traces": [], "cli_self": 0.0}
    facts = {}
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    trace_path = os.path.join(workdir, "trace.json")
    t0 = perf_counter()
    for op in run.plan["ops"]:
        argv = list(op["args"]) + ["--input",
                                   os.path.join(workdir, op["pres"] + ".json")]
        if traced:
            if os.path.exists(trace_path):
                os.remove(trace_path)
            argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                    trace_path] + argv
        else:
            argv = [sys.executable, "-m", "nilcoh"] + argv
        code, wall, rss = run_process(argv, op["deadline"], out_path,
                                      err_path, env)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        run.record(rnd, op, code, stdout, facts)
        summary["ops"][op["id"]] = wall
        if code is not None:
            run.peak_rss_mb = max(run.peak_rss_mb, rss)
            if traced and os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    tr = json.load(fh)
                summary["traces"].append(tr)
                summary["cli_self"] += wall - tr["outer_s"]
    summary["wall"] = perf_counter() - t0
    (run.traced if traced else run.rounds).append(summary)


def timed_setup(run, workdir, env, smoke):
    times = []
    argv = [sys.executable, os.path.join(HERE, "workloads.py"),
            run.workload, str(run.seed), workdir] + (["--smoke"] if smoke else [])
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        times.append(perf_counter() - t0)
        if proc.returncode:
            raise RuntimeError("set-up failed: %s" % proc.stderr.strip())
    return statistics.median(times)


def cli_startup(workdir, env):
    times = []
    argv = [sys.executable, "-m", "nilcoh", "gen", "--family", "heisenberg"]
    for _ in range(STARTUP_REPEATS):
        code, wall, _ = run_process(argv, workloads.DEFAULT_DEADLINE_S,
                                    os.path.join(workdir, "stdout"),
                                    os.path.join(workdir, "stderr"), env)
        if code != 0:
            raise RuntimeError("nilcoh gen failed with exit code %s" % code)
        times.append(wall)
    return statistics.median(times)


# --- metrics ---------------------------------------------------------------

def e2e_metrics(run, setup_s):
    values = {"setup_s": setup_s,
              "wall_s": statistics.median([r["wall"] for r in run.rounds]),
              "peak_rss_mb": run.peak_rss_mb}
    # a command's time is the sum over its operations of each one's median
    # over rounds, so one slow process in one round does not move it
    for kind in workloads.KINDS:
        values[kind + "_s"] = sum(
            statistics.median([r["ops"][op["id"]] for r in run.rounds])
            for op in run.plan["ops"] if op["kind"] == kind)
    return {k: {"value": values[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS}


def _layer_round(traces):
    """Per-layer values of one traced round, summed over its operations."""
    stats = {}
    for tr in traces:
        for key, (calls, total, self_s) in tr["stats"].items():
            st = stats.setdefault(key, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s

    def get(key, i):
        return stats.get(key, [0, 0.0, 0.0])[i]

    h2_calls = get("cohomology.h2", 0)
    solves = sum(tr["witness_solves"] for tr in traces)
    found = sum(tr["witness_found"] for tr in traces)
    return {
        "exactlinalg.snf.calls": get("exactlinalg.snf", 0),
        "exactlinalg.snf.self_s": get("exactlinalg.snf", 2),
        "exactlinalg.solve.self_s": get("exactlinalg.solve_in_lattice", 2)
        + get("exactlinalg.solve_many", 2),
        "exactlinalg.subquotient.s": get("exactlinalg.subquotient", 1),
        "cohomology.h2.s": get("cohomology.h2", 1),
        "cohomology.h2_via_complex.s": get("cohomology.h2_via_complex", 1),
        "cohomology.snf_per_h2": (sum(tr["snf_under_h2"] for tr in traces)
                                  / h2_calls if h2_calls else 0.0),
        "grouplaw.validate.calls": get("grouplaw.validate", 0),
        "grouplaw.validate.self_s": get("grouplaw.validate", 2),
        "grouplaw.multiply.calls": get("grouplaw.multiply", 0),
        "grouplaw.multiply.self_s": get("grouplaw.multiply", 2),
        "cocycles.evaluate.calls": get("cocycles.evaluate", 0),
        "cocycles.evaluate.self_s": get("cocycles.evaluate", 2),
        "cocycles.ext_multiply.self_s": get("cocycles.ext_multiply", 2)
        + get("cocycles.ext_inverse", 2),
        "cocycles.render.self_s": get("cocycles.render", 2),
        "cocycles.generators.s": get("cocycles.generators", 1),
        "cocycles.witness.self_s": get("cocycles.witness", 2),
        "cocycles.witness.found_per_attempt": found / solves if solves else 0.0,
    }


def layer_metrics(run, startup_s):
    per_round = [_layer_round(r["traces"]) for r in run.traced]
    values = {k: statistics.median([pr[k] for pr in per_round])
              for k in per_round[0]}
    traces = [tr for r in run.traced for tr in r["traces"]]
    largest = max((tr["snf_largest"] for tr in traces),
                  key=lambda s: s[0] * s[1], default=[0, 0, 0])
    values.update({
        "exactlinalg.snf.max_bits": max((tr["snf_max_bits"] for tr in traces),
                                        default=0),
        "exactlinalg.snf.max_cells": largest[0] * largest[1],
        "exactlinalg.snf.largest.rows": largest[0],
        "exactlinalg.snf.largest.cols": largest[1],
        "exactlinalg.snf.largest.max_bits": largest[2],
        "cli.startup_s": startup_s,
        "cli.self_s": statistics.median([r["cli_self"] for r in run.traced]),
        "trace.overhead": (statistics.median([r["wall"] for r in run.traced])
                           / statistics.median([r["wall"] for r in run.rounds])),
        "fail_frac": (run.failed + run.missed) / run.attempted,
    })
    return {k: {"value": values[k], "unit": LAYER_UNITS[k]} for k in LAYER_UNITS}


# --- main -----------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="only the smallest presentation of the workload")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nilcoh", "cli.py")):
        print("error: run from the repository root; src/nilcoh is missing",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(HERE, "work", "%s-%d" % (tag, os.getpid()))
    resultdir = os.path.join(HERE, "results")
    os.makedirs(workdir)
    os.makedirs(resultdir, exist_ok=True)
    run = Run(args.workload, args.seed,
              workloads.plan(args.workload, args.seed, args.smoke))
    try:
        setup_s = timed_setup(run, workdir, env, args.smoke)
        startup_s = cli_startup(workdir, env) if args.trace else 0.0
        t0 = perf_counter()
        rnd, traced = 0, False
        while True:
            run_round(run, rnd, workdir, env, traced)
            rnd += 1
            if args.trace:
                traced = not traced
            done = run.rounds and (run.traced or not args.trace)
            history = run.traced if traced else run.rounds
            next_s = history[-1]["wall"] if history else run.rounds[-1]["wall"]
            if done and perf_counter() - t0 + next_s > args.seconds:
                break
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = layer_metrics(run, startup_s) if args.trace else \
        e2e_metrics(run, setup_s)
    for line in run.summary_lines():
        print(line)
    print("rounds: %d untraced, %d traced; ops attempted %d, failed %d, "
          "deadline misses %d" % (len(run.rounds), len(run.traced),
                                  run.attempted, run.failed, run.missed))
    with open(os.path.join(resultdir, tag + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "digests": run.digests,
                   "failures": run.failures, "metrics": metrics},
                  fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
