"""Workload plans for the nilcoh benchmark, and the set-up step that writes them.

A plan lists the presentations a workload needs and the CLI operations one
round runs on them. Plans depend only on (workload, seed), so the same seed
gives the same inputs and the same command lines.

Importing this module does not import nilcoh; only the set-up step does:

    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD SEED OUTDIR [--smoke]

writes one presentation document per presentation of the plan into OUTDIR.
"""

from __future__ import annotations

import os
import sys
from math import comb

WORKLOADS = ("ladder-h2", "near-free-sampling", "torsion-witness")

# Operation kinds; each has its own end-to-end time metric "<kind>_s".
KINDS = ("h2", "h2_r2", "cocycles", "verify", "extend", "witness")

# Every operation runs under this deadline unless it names a shorter one.
DEFAULT_DEADLINE_S = 60.0
# chain(3,3,6) needs minutes to find its witness; it runs against this budget.
CLIFF_DEADLINE_S = 3.0

LADDER = (6, 7, 8, 9, 10, 11)   # random_presentation(n, (n+2)//3, 5)
LADDER_COPIES = 2               # presentations per rung, to average seed luck
LADDER_R2_MAX_N = 7             # --coeff-rank 2 runs on rungs n <= this
NEAR_FREE = ((3, 120), (4, 25), (5, 8))   # (n, verify/extend --trials)


def _pres(name, family, **args):
    return {"name": name, "family": family, "args": args}


def _op(kind, pres, seed, *extra, deadline=DEFAULT_DEADLINE_S):
    cmd = "h2" if kind == "h2_r2" else kind
    args = [cmd, "--seed", str(seed)]
    if kind == "h2_r2":
        args += ["--coeff-rank", "2"]
    args += list(extra)
    return {"id": "%s:%s" % (kind, pres), "kind": kind, "pres": pres,
            "args": args, "deadline": deadline}


def _companions(name, seed, kinds):
    """One light operation of each kind on a small presentation."""
    return [_op(kind, name, seed, *(("--trials", "100")
                                    if kind in ("verify", "extend") else ()))
            for kind in kinds]


def _ladder(seed):
    pres, ops = [], []
    for n in LADDER:
        for c in range(LADDER_COPIES):
            name = "rand-n%d-%d" % (n, c)
            pres.append(_pres(name, "random", n=n, m=(n + 2) // 3, bound=5,
                              seed=seed * 1000 + n * 10 + c))
            ops.append(_op("h2", name, seed))
            if n <= LADDER_R2_MAX_N:
                ops.append(_op("h2_r2", name, seed))
    for p in pres[:4]:
        ops += _companions(p["name"], seed,
                           ("cocycles", "verify", "extend", "witness"))
    return pres, ops


def _near_free(seed):
    pres = [_pres("heisenberg", "chain", d=[1])]
    trials = {"heisenberg": 300}
    for n, t in NEAR_FREE:
        name = "near-free-n%d" % n
        pres.append(_pres(name, "random", n=n, m=comb(n, 2), bound=3,
                          seed=seed * 1000 + n))
        trials[name] = t
    # witness is a light companion here: on a near-free draw its cost swings
    # 2x with the draw's torsion (n=4 needs over a minute), and its sampled
    # systems would make this workload SNF-bound. Discrete Heisenberg
    # groups have one small torsion class each and cost the same every seed.
    extra = [_pres("dheis-%d" % d, "chain", d=[d]) for d in (2, 3, 4, 5)]
    ops = [_op("h2", p["name"], seed) for p in pres + extra]
    ops += [_op("h2_r2", p["name"], seed) for p in pres]
    for p in pres:
        name = p["name"]
        ops.append(_op("cocycles", name, seed))
        ops.append(_op("verify", name, seed, "--trials", str(trials[name])))
        ops.append(_op("extend", name, seed, "--trials", str(trials[name])))
    ops += [_op("witness", p["name"], seed) for p in extra]
    return pres + extra, ops


def _torsion(seed):
    d = 2 + seed % 4                 # discrete Heisenberg groups d and d+1
    a, b = 2 + seed % 2, 2 + (seed // 2) % 2   # chain (a, a*b)
    pres = [_pres("dheis-%d" % d, "chain", d=[d]),
            _pres("dheis-%d" % (d + 1), "chain", d=[d + 1]),
            _pres("chain-%d-%d" % (a, a * b), "chain", d=[a, a * b]),
            _pres("chain-%d-%d" % (a + 1, a + 1), "chain", d=[a + 1, a + 1]),
            _pres("near-free-n3", "random", n=3, m=3, bound=3,
                  seed=seed * 1000 + 3),
            _pres("chain-3-3-6", "chain", d=[3, 3, 6])]
    ops = [_op("h2", p["name"], seed) for p in pres]
    for p in pres[:4]:
        ops += _companions(p["name"], seed,
                           ("h2_r2", "cocycles", "verify", "extend"))
    for p in pres:
        deadline = CLIFF_DEADLINE_S if p["name"] == "chain-3-3-6" \
            else DEFAULT_DEADLINE_S
        ops.append(_op("witness", p["name"], seed, deadline=deadline))
    return pres, ops


def plan(workload, seed, smoke=False):
    """Presentations and per-round operations of one workload.

    ``smoke`` keeps only the smallest presentation and the operations on it.
    Operations are ordered so that every h2 report precedes the operations
    whose checks read it.
    """
    builders = {"ladder-h2": _ladder, "near-free-sampling": _near_free,
                "torsion-witness": _torsion}
    if workload not in builders:
        raise ValueError("unknown workload %r" % (workload,))
    pres, ops = builders[workload](seed)
    if smoke:
        pres = pres[:1]
        ops = [op for op in ops if op["pres"] == pres[0]["name"]]
    ops.sort(key=lambda op: op["kind"] not in ("h2", "h2_r2"))
    return {"presentations": pres, "ops": ops}


def write_inputs(workload, seed, outdir, smoke=False):
    """Generate the plan's presentations and write one JSON document each."""
    from nilcoh import families
    from nilcoh.cli import dump_json
    from nilcoh.grouplaw import presentation_to_json

    for p in plan(workload, seed, smoke)["presentations"]:
        a = p["args"]
        if p["family"] == "chain":
            P = families.divisor_chain_group(a["d"])
        else:
            P = families.random_presentation(a["n"], a["m"], a["bound"],
                                             a["seed"])
        with open(os.path.join(outdir, p["name"] + ".json"), "w",
                  encoding="utf-8") as fh:
            fh.write(dump_json(presentation_to_json(P)))


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3],
                 smoke="--smoke" in sys.argv[4:])
