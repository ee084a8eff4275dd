"""Command line interface.

Commands read a presentation document from --input or stdin (``gen`` and
``selftest`` take no input) and write text or JSON to stdout or --out.
Exit codes: 0 success, 1 validation or verification failure, 2 malformed
input or invocation, or an input too large (past ``_MAX_GENERATORS``, or
for memory).

Each process runs one command, so a command imports the modules only it
needs (``cocycles``, ``acceptance``, ``families``) when it runs: an ``h2``
process loads ``cli``, ``grouplaw``, ``exactlinalg`` and ``cohomology``
and nothing else of the package.
"""

import argparse
import json
import sys

from .cohomology import h1, h2, second_homology_rank
from .grouplaw import (InvalidPresentationError, PresentationFormatError,
                       load_presentation, presentation_to_json, validate)


def dump_json(obj):
    """The one JSON writer: emitted documents re-serialize byte-identically."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_presentation(args):
    # bytes from both sources, so stdin decodes exactly as a file does
    if args.input_path is not None:
        with open(args.input_path, "rb") as fh:
            data = fh.read()
    elif sys.stdin is None:  # the process started with stdin closed
        raise PresentationFormatError("stdin is closed; give --input FILE")
    else:
        data = sys.stdin.buffer.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PresentationFormatError("input is not UTF-8: %s" % exc) from exc
    P = load_presentation(text)
    _refuse_too_large(P.n, P.m)
    return P


def _refuse_too_large(n, m):
    # every command enumerates the C(n,2) pairs before anything can fail
    if n + m > _MAX_GENERATORS:
        raise PresentationFormatError(
            "presentation too large: n + m = %d generators, the limit is %d"
            % (n + m, _MAX_GENERATORS))


def _cmd_validate(args):
    P = _read_presentation(args)
    rep = validate(P)
    if args.format == "json":
        text = dump_json({"group": presentation_to_json(P), "valid": rep.ok,
                          "failures": list(rep.failures)})
    else:
        lines = list(rep.failures) + ["valid" if rep.ok else "invalid"]
        text = "".join(line + "\n" for line in lines)
    return (0 if rep.ok else 1), text


def _cmd_h1(args):
    P = _read_presentation(args)
    g = h1(P, args.coeff_rank)
    if args.format == "json":
        return 0, dump_json({"group": presentation_to_json(P), "h1": g.to_json()})
    return 0, "H^1 = %s\n" % g


def _cmd_h2(args):
    P = _read_presentation(args)
    rep = h2(P, args.coeff_rank)
    if args.format == "json":
        text = dump_json({"group": presentation_to_json(P), "h2": rep.to_json()})
    else:
        text = ("H^2 = %s\n"
                "coker c* = %s\n"
                "hom part rank = %d\n"
                "ker c rank = %d\n"
                "ext part = %s\n"
                "complex path = %s\n"
                "agree = %s\n"
                % (rep.total, rep.coker_cstar, rep.hom_part_rank,
                   rep.ker_c_rank, rep.ext_part, rep.crosscheck,
                   "yes" if rep.agree else "no"))
    return (0 if rep.agree else 1), text


def _cmd_homology_rank(args):
    P = _read_presentation(args)
    k = second_homology_rank(P)
    if args.format == "json":
        return 0, dump_json({"group": presentation_to_json(P),
                             "second_homology_rank": k})
    return 0, "H_2 free rank = %d\n" % k


def _describe(P, idx, w):
    from .cocycles import cocycle_to_json, render
    kind = cocycle_to_json(w)["kind"]
    if kind == "lemmax" and w.order:
        head = "cocycle %d [lemmax, order %d]" % (idx, w.order)
    elif kind == "lemmax":
        head = "cocycle %d [lemmax, infinite order]" % idx
    else:
        head = "cocycle %d [%s]" % (idx, kind)
    return "%s: %s" % (head, render(P, w))


def _cmd_cocycles(args):
    from .cocycles import cocycle_to_json, lemmax_generators, lemmay_basis
    P = _read_presentation(args)
    ws = lemmax_generators(P) + lemmay_basis(P)
    if args.format == "json":
        return 0, dump_json({"group": presentation_to_json(P),
                             "cocycles": [cocycle_to_json(w) for w in ws]})
    lines = [_describe(P, i + 1, w) for i, w in enumerate(ws)]
    if not lines:
        lines = ["no cocycle generators (trivial H^2)"]
    return 0, "".join(line + "\n" for line in lines)


def _cmd_verify(args):
    from .cocycles import (cocycle_to_json, lemmax_generators, lemmay_basis,
                           prove_cocycles)
    P = _read_presentation(args)
    ws = lemmax_generators(P) + lemmay_basis(P)
    results = prove_cocycles(P, ws)
    ok = all(r.ok for r in results)
    if args.format == "json":
        text = dump_json({"group": presentation_to_json(P),
                          "verify": [{"cocycle": cocycle_to_json(w),
                                      "ok": r.ok, "message": r.message}
                                     for w, r in zip(ws, results)]})
    else:
        lines = ["cocycle %d: %s" % (i + 1, "PASS (proved)" if r.ok
                                     else "FAIL: %s" % r.message)
                 for i, r in enumerate(results)]
        lines.append("all passed" if ok else "verification failed")
        text = "".join(line + "\n" for line in lines)
    return (0 if ok else 1), text


def _cmd_extend(args):
    from .cocycles import build_extension, lemmax_generators, lemmay_basis
    P = _read_presentation(args)
    ws = lemmax_generators(P) + lemmay_basis(P)
    try:
        E = build_extension(P, ws)
    except ValueError as exc:
        message = "extension rejected: %s" % exc
        if args.format == "json":
            return 1, dump_json({"group": presentation_to_json(P),
                                 "extend": {"ok": False, "message": message}})
        return 1, message + "\n"
    if args.format == "json":
        text = dump_json({"group": presentation_to_json(P),
                          "extend": {"fiber_rank": E.fiber_rank, "ok": True}})
    else:
        text = ("central extension by Z^%d built from %d cocycles\n"
                "associativity and inverse laws: PASS (proved)\n"
                % (E.fiber_rank, len(ws)))
    return 0, text


def _cmd_witness(args):
    from .cocycles import coboundary_witness, lemmax_generators
    P = _read_presentation(args)
    finite = [w for w in lemmax_generators(P) if w.order]
    if not finite:
        if args.format == "json":
            return 0, dump_json({"group": presentation_to_json(P), "witness": []})
        return 0, "no torsion classes; nothing to search\n"
    lines, records, ok = [], [], True
    for w in finite:
        u = coboundary_witness(P, w.order * w)
        if u is None:
            # the order is wrong: d * f lies outside im(c^*)
            ok = False
            lines.append("order-%d class: %d * cocycle is not a coboundary"
                         % (w.order, w.order))
            records.append({"order": w.order, "found": False})
        else:
            lines.append("order-%d class: %d * cocycle = coboundary of u = %s"
                         % (w.order, w.order, u.render()))
            records.append({"order": w.order, "found": True,
                            "witness": u.render()})
    if args.format == "json":
        text = dump_json({"group": presentation_to_json(P), "witness": records})
    else:
        text = "".join(line + "\n" for line in lines)
    return (0 if ok else 1), text


def _cmd_gen(args):
    try:
        P = _gen_family(args)
    except PresentationFormatError:
        raise
    except ValueError as exc:  # a family rejects its parameters
        raise PresentationFormatError(str(exc)) from exc
    return 0, dump_json(presentation_to_json(P))


def _gen_family(args):
    from . import families
    if args.family == "heisenberg":
        return families.heisenberg()
    if args.family == "abelian":
        if args.n is None:
            raise PresentationFormatError("family 'abelian' needs --n")
        _refuse_too_large(args.n, 0)
        return families.abelian(args.n)
    if args.family == "paper-example":
        if not args.d:
            raise PresentationFormatError("family 'paper-example' needs --d d1,d2,...")
        if args.n is not None and args.n != len(args.d):
            raise PresentationFormatError("--n disagrees with the length of --d")
        _refuse_too_large(2 * len(args.d), 1)
        return families.divisor_chain_group(args.d)
    if args.family == "random":
        if args.n is None or args.m is None:
            raise PresentationFormatError("family 'random' needs --n and --m")
        _refuse_too_large(args.n, args.m)
        return families.random_presentation(args.n, args.m, args.bound, args.seed)
    raise PresentationFormatError("unknown family %r" % (args.family,))


def _cmd_selftest(args):
    from . import acceptance
    lines = []
    ok = acceptance.run_all(write=lines.append)
    lines.append("selftest: %s" % ("all criteria passed" if ok else "FAILURES"))
    return (0 if ok else 1), "".join(line + "\n" for line in lines)


_COMMANDS = {
    "validate": _cmd_validate,
    "h1": _cmd_h1,
    "h2": _cmd_h2,
    "homology-rank": _cmd_homology_rank,
    "cocycles": _cmd_cocycles,
    "verify": _cmd_verify,
    "extend": _cmd_extend,
    "witness": _cmd_witness,
    "gen": _cmd_gen,
    "selftest": _cmd_selftest,
}


def run(args):
    """Execute one parsed command line; returns the process exit code."""
    try:
        code, text = _COMMANDS[args.command](args)
        if args.out_path is not None:
            with open(args.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (PresentationFormatError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InvalidPresentationError as exc:
        for line in exc.report.failures:
            print(line, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return 2


def _chain(text):
    return tuple(int(x) for x in text.split(","))


# H^2(G, Z^r) is reported as r copies, so r bounds the report's size
_MAX_COEFF_RANK = 4096
# n + m of an input; past it a command refuses before building a matrix,
# and gen before building a bracket.
# h2 on the free class-2 group F(16) (n + m = 136) takes about 34 s, and
# is killed on F(20) (n + m = 210)
_MAX_GENERATORS = 200


def _int_at_least(least, most=None):
    """argparse type for an integer flag that must be >= least (and <= most)."""
    def parse(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError("must be >= %d, got %d" % (least, value))
        if most is not None and value > most:
            raise argparse.ArgumentTypeError("must be <= %d, got %d" % (most, value))
        return value
    parse.__name__ = "integer"  # argparse names it when int() fails
    return parse


def _build_parser():
    """The top-level parser and a map from each command to its subparser."""
    parser = argparse.ArgumentParser(
        prog="nilcoh",
        description="Exact H^1/H^2 and explicit 2-cocycles for torsion-free "
                    "class-2 nilpotent groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in _COMMANDS}

    def add(flag, names, **kwargs):
        for name in names:
            commands[name].add_argument(flag, **kwargs)

    # each command takes only the flags it reads, except --seed, which
    # every command that reads a presentation accepts so that one seed can
    # be passed to all of them, and --trials below
    inputs = ("validate", "h1", "h2", "homology-rank", "cocycles", "verify",
              "extend", "witness")
    add("--input", inputs, dest="input_path", metavar="FILE",
        help="presentation JSON (stdin when absent)")
    add("--format", inputs, choices=("text", "json"), default="text")
    add("--seed", inputs + ("gen",), type=int, default=0)
    add("--coeff-rank", ("h1", "h2"), dest="coeff_rank",
        type=_int_at_least(0, _MAX_COEFF_RANK), default=1,
        help="rank r of the trivial coefficient module Z^r, "
             "0 <= r <= %d" % _MAX_COEFF_RANK)
    # verify and extend prove their identities and sample nothing; they
    # keep --trials, unread, as the benchmark's command lines pass it
    add("--trials", ("verify", "extend"), type=_int_at_least(1), default=1000,
        help="no effect; kept so that existing command lines run")
    add("--bound", ("gen",), type=_int_at_least(1), default=10)
    add("--out", _COMMANDS, dest="out_path", metavar="FILE")
    gen = commands["gen"]
    gen.add_argument("--family", required=True,
                     choices=("paper-example", "heisenberg", "abelian", "random"))
    gen.add_argument("--n", type=_int_at_least(0))
    gen.add_argument("--m", type=_int_at_least(0))
    gen.add_argument("--d", type=_chain, metavar="d1,d2,...")
    return parser, commands


def main(argv=None):
    parser, commands = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the command's own usage lists the flags it does take
        commands[args.command].error("unrecognized arguments: %s"
                                     % " ".join(extra))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
