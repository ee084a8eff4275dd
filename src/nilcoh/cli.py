"""Command line interface.

A command that reads a presentation computes and returns its exit code,
its JSON record and its text lines; ``run`` reads the presentation once,
from --input or stdin, and writes either the JSON report
``{"group": <presentation>, **record}`` or the lines, to stdout or
--out. ``gen`` and ``selftest`` read no input and return their text.
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


def _cmd_validate(P, args):
    rep = validate(P)
    return ((0 if rep.ok else 1),
            {"valid": rep.ok, "failures": list(rep.failures)},
            list(rep.failures) + ["valid" if rep.ok else "invalid"])


def _cmd_h1(P, args):
    g = h1(P, args.coeff_rank)
    return 0, {"h1": g.to_json()}, ["H^1 = %s" % g]


def _cmd_h2(P, args):
    rep = h2(P, args.coeff_rank)
    return (0 if rep.agree else 1), {"h2": rep.to_json()}, [
        "H^2 = %s" % rep.total,
        "coker c* = %s" % rep.coker_cstar,
        "hom part rank = %d" % rep.hom_part_rank,
        "ker c rank = %d" % rep.ker_c_rank,
        "ext part = %s" % rep.ext_part,
        "complex path = %s" % rep.crosscheck,
        "agree = %s" % ("yes" if rep.agree else "no")]


def _cmd_homology_rank(P, args):
    k = second_homology_rank(P)
    return 0, {"second_homology_rank": k}, ["H_2 free rank = %d" % k]


def _cmd_cocycles(P, args):
    from .cocycles import CocycleLemmaX, all_cocycles, cocycle_to_json, render
    ws = all_cocycles(P)

    def describe(idx, w):
        if not isinstance(w, CocycleLemmaX):
            kind = "lemmay"
        elif w.order:
            kind = "lemmax, order %d" % w.order
        else:
            kind = "lemmax, infinite order"
        return "cocycle %d [%s]: %s" % (idx, kind, render(P, w))

    # rendered only when the text is written
    lines = ((describe(i, w) for i, w in enumerate(ws, 1)) if ws
             else ["no cocycle generators (trivial H^2)"])
    return 0, {"cocycles": [cocycle_to_json(w) for w in ws]}, lines


def _cmd_verify(P, args):
    from .cocycles import all_cocycles, cocycle_to_json, prove_cocycles
    ws = all_cocycles(P)
    results = prove_cocycles(P, ws)
    ok = all(r.ok for r in results)
    lines = ["cocycle %d: %s" % (i, "PASS (proved)" if r.ok
                                 else "FAIL: %s" % r.message)
             for i, r in enumerate(results, 1)]
    lines.append("all passed" if ok else "verification failed")
    return (0 if ok else 1), {"verify": [
        {"cocycle": cocycle_to_json(w), "ok": r.ok, "message": r.message}
        for w, r in zip(ws, results)]}, lines


def _cmd_extend(P, args):
    from .cocycles import all_cocycles, build_extension
    ws = all_cocycles(P)
    try:
        E = build_extension(P, ws)
    except ValueError as exc:
        message = "extension rejected: %s" % exc
        return 1, {"extend": {"ok": False, "message": message}}, [message]
    return 0, {"extend": {"fiber_rank": E.fiber_rank, "ok": True}}, [
        "central extension by Z^%d built from %d cocycles"
        % (E.fiber_rank, len(ws)),
        "associativity and inverse laws: PASS (proved)"]


def _cmd_witness(P, args):
    from .cocycles import coboundary_witness, lemmax_generators
    records, lines = [], []
    for w in lemmax_generators(P):
        d = w.order
        if not d:
            continue
        u = coboundary_witness(P, d * w)
        if u is None:   # the order is wrong: d * f lies outside im(c^*)
            records.append({"order": d, "found": False})
            lines.append("order-%d class: %d * cocycle is not a coboundary"
                         % (d, d))
        else:
            records.append({"order": d, "found": True, "witness": u.render()})
            lines.append("order-%d class: %d * cocycle = coboundary of u = %s"
                         % (d, d, u.render()))
    return ((0 if all(r["found"] for r in records) else 1), {"witness": records},
            lines or ["no torsion classes; nothing to search"])


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


# the commands that read a presentation: (P, args) -> (code, record, lines)
_REPORTS = {
    "validate": _cmd_validate,
    "h1": _cmd_h1,
    "h2": _cmd_h2,
    "homology-rank": _cmd_homology_rank,
    "cocycles": _cmd_cocycles,
    "verify": _cmd_verify,
    "extend": _cmd_extend,
    "witness": _cmd_witness,
}
# every command; gen and selftest: args -> (code, text)
_COMMANDS = dict(_REPORTS, gen=_cmd_gen, selftest=_cmd_selftest)


def run(args):
    """Execute one parsed command line; returns the process exit code."""
    try:
        if args.command in _REPORTS:
            P = _read_presentation(args)
            code, record, lines = _REPORTS[args.command](P, args)
            if args.format == "json":
                text = dump_json({"group": presentation_to_json(P), **record})
            else:
                text = "".join(line + "\n" for line in lines)
        else:
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
# and gen before building a bracket. h2 on the free class-2 group takes
# 0.09 s on F(14) and 0.16 s on F(16) (n + m = 136), in process on one
# core of an Intel Xeon
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


def _build_parser(argv):
    """The top-level parser and a map from each command to its subparser.

    Only the command that ``argv`` names gets its flags: the first
    argument that is not a flag, which argparse reads as the command,
    since the top-level parser takes no flag with a value.
    """
    parser = argparse.ArgumentParser(
        prog="nilcoh",
        description="Exact H^1/H^2 and explicit 2-cocycles for torsion-free "
                    "class-2 nilpotent groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in _COMMANDS}
    named = next((arg for arg in argv if not arg.startswith("-")), None)

    def add(flag, names, **kwargs):
        if named in names:
            commands[named].add_argument(flag, **kwargs)

    # each command takes only the flags it reads, except --seed, which
    # every command that reads a presentation accepts so that one seed can
    # be passed to all of them, and --trials below
    inputs = tuple(_REPORTS)
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
    add("--family", ("gen",), required=True,
        choices=("paper-example", "heisenberg", "abelian", "random"))
    add("--n", ("gen",), type=_int_at_least(0))
    add("--m", ("gen",), type=_int_at_least(0))
    add("--d", ("gen",), type=_chain, metavar="d1,d2,...")
    return parser, commands


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser(argv)
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the command's own usage lists the flags it does take
        commands[args.command].error("unrecognized arguments: %s"
                                     % " ".join(extra))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
