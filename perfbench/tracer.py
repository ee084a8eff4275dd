"""Run one nilcoh CLI invocation with spans around the calls into each layer.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE_OUT COMMAND [ARGS...]

behaves like ``python -m nilcoh COMMAND [ARGS...]`` (same stdout, stderr and
exit code) and afterwards writes the per-layer tallies to TRACE_OUT as JSON.
The wrappers live here, not in ``src/``: modules import functions by name
(``from .exactlinalg import smith_normal_form``), so each wrapper replaces
the name in every nilcoh module that holds the original function.

A span's self time is its duration minus the spans it encloses. Time spent
reading bit lengths off a returned decomposition is taken out of every
enclosing span, so probes do not count as layer time.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from nilcoh import cli, cocycles, cohomology, exactlinalg, grouplaw

# (owner, attribute, span key); owner is a module or a class.
TARGETS = (
    (exactlinalg, "smith_normal_form", "exactlinalg.snf"),
    (exactlinalg, "solve_in_lattice", "exactlinalg.solve_in_lattice"),
    (exactlinalg, "_solve_many", "exactlinalg.solve_many"),
    (exactlinalg, "subquotient_invariants", "exactlinalg.subquotient"),
    (cohomology, "h2", "cohomology.h2"),
    (cohomology, "h2_via_complex", "cohomology.h2_via_complex"),
    (grouplaw, "validate", "grouplaw.validate"),
    (grouplaw, "multiply", "grouplaw.multiply"),
    (grouplaw, "load_presentation", "grouplaw.load_presentation"),
    (cocycles, "evaluate", "cocycles.evaluate"),
    (cocycles.ExtensionGroup, "multiply", "cocycles.ext_multiply"),
    (cocycles.ExtensionGroup, "inverse", "cocycles.ext_inverse"),
    (cocycles, "render", "cocycles.render"),
    (cocycles, "lemmax_generators", "cocycles.generators"),
    (cocycles, "lemmay_basis", "cocycles.generators"),
    (cocycles, "verify_cocycle", "cocycles.verify_cocycle"),
    (cocycles, "build_extension", "cocycles.build_extension"),
    (cocycles, "coboundary_witness", "cocycles.witness"),
)


def _max_bits(M):
    return max((abs(x).bit_length() for x in M.entries), default=0)


class Tracer:
    """Span tallies for one process: key -> [calls, total_s, self_s]."""

    def __init__(self):
        self.stats = {}
        self.stack = []          # open spans: [key, child_s, probe_s]
        self.outer_s = 0.0       # time inside outermost spans
        self.snf_under_h2 = 0
        self.witness_solves = 0
        self.witness_found = 0
        self.snf_max_bits = 0
        self.snf_largest = (0, 0, 0)   # rows, cols, transform bits

    def _inside(self, key):
        return any(frame[0] == key for frame in self.stack)

    def _probe(self, key, args, result):
        if key == "exactlinalg.snf":
            A = args[0]
            bits = max(_max_bits(result.U), _max_bits(result.V))
            self.snf_max_bits = max(self.snf_max_bits, bits)
            if A.rows * A.cols > self.snf_largest[0] * self.snf_largest[1]:
                self.snf_largest = (A.rows, A.cols, bits)
            if self._inside("cohomology.h2"):
                self.snf_under_h2 += 1
        elif key == "exactlinalg.solve_in_lattice":
            if self._inside("cocycles.witness"):
                self.witness_solves += 1
        elif key == "cocycles.witness":
            self.witness_found += result is not None

    def wrap(self, key, fn):
        def traced(*args, **kwargs):
            frame = [key, 0.0, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0 - frame[2]
                self.stack.pop()
                st = self.stats.setdefault(key, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += elapsed
                st[2] += elapsed - frame[1]
                if self.stack:
                    self.stack[-1][1] += elapsed
                else:
                    self.outer_s += elapsed
            p0 = perf_counter()
            self._probe(key, args, result)
            probe_s = perf_counter() - p0 + frame[2]
            if self.stack:
                self.stack[-1][2] += probe_s
            return result
        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "nilcoh" or name.startswith("nilcoh.")]
        for owner, attr, key in TARGETS:
            orig = getattr(owner, attr)
            wrapped = self.wrap(key, orig)
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)

    def to_json(self):
        return {"stats": self.stats, "outer_s": self.outer_s,
                "snf_under_h2": self.snf_under_h2,
                "witness_solves": self.witness_solves,
                "witness_found": self.witness_found,
                "snf_max_bits": self.snf_max_bits,
                "snf_largest": list(self.snf_largest)}


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
