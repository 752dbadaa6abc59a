"""Command-line front door: solve, certify, construct, enumerate, bound
sweeps, n/5 construction with optional trace, and the property suites.

Exit codes: 0 all checks pass, 1 exceptions or violations found, 2 usage or
parse errors.  Machine output is JSON lines by default.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .constructive import (
    BudgetCertificationError,
    DisconnectedGraphError,
    ExceptionalGraphError,
    budget,
    isolating_set_n5,
)
from .enumerate_verify import (
    MAX_BUILTIN_ORDER,
    BoundSpec,
    attachment_invariance_suite,
    default_known_exceptions,
    enumerate_connected,
    verify_bound,
)
from .graph_core import (
    MAX_VERTICES,
    Graph6Error,
    bits,
    canonical_form,
    decode_g6,
    encode_g6,
    mask_of,
    parse_graph6_lines,
)
from .patterns import (
    DIAMOND,
    make_named,
    parse_family,
    verify_y_properties,
    y_graph,
)
from .solver import iota_exact, is_isolating

class _UsageError(ValueError):
    pass


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json-lines":
        print(json.dumps(record, sort_keys=True))
    else:
        print("  ".join(f"{k}={_short(v)}" for k, v in record.items()))


def _short(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return ",".join(str(x) for x in value) or "-"
    return str(value)


def _input_graphs(path: str):
    """Yield (line number, graph) from a graph6 file or stdin ('-')."""
    stream = sys.stdin if path == "-" else open(
        path, encoding="ascii", errors="surrogateescape")
    try:
        yield from parse_graph6_lines(stream)
    except Graph6Error as exc:
        raise _UsageError(f"{path}:{exc.line}: {exc.args[0]}") from exc
    finally:
        if stream is not sys.stdin:
            stream.close()


def _parse_ratio(text: str) -> tuple[int, int]:
    try:
        p_str, q_str = text.split("/")
        p, q = int(p_str), int(q_str)
    except ValueError:
        raise _UsageError(f"--ratio expects p/q, got {text!r}") from None
    if q <= 0 or p <= 0:
        raise _UsageError("--ratio parts must be positive")
    return p, q


def _parse_set(text: str) -> int:
    try:
        vertices = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise _UsageError(f"--set expects comma-separated vertices, got {text!r}") from None
    # before any shift: 1 << v for a huge v overflows or exhausts memory
    if not all(0 <= v < MAX_VERTICES for v in vertices):
        raise _UsageError(f"--set names a vertex outside 0..{MAX_VERTICES - 1}")
    return mask_of(vertices)


def _family(args):
    try:
        return parse_family(args.family)
    except ValueError as exc:
        raise _UsageError(f"--family: {exc}") from None


# --- subcommands ------------------------------------------------------------


def _cmd_solve(args) -> int:
    f = _family(args)
    for _, g in _input_graphs(args.input):
        res = iota_exact(g, f)
        _emit({"g6": encode_g6(g), "n": g.n, "iota": res.value,
               "witness": sorted(bits(res.witness)), "copies": res.copies_found,
               "nodes": res.nodes_explored,
               "elapsed": round(res.elapsed, 6)}, args.format)
    return 0


def _cmd_certify(args) -> int:
    f = _family(args)
    s = _parse_set(args.set)
    failures = 0
    for lineno, g in _input_graphs(args.input):
        if s & ~g.full_mask:
            raise _UsageError(
                f"--set names a vertex >= n for the graph on line {lineno}")
        ok = is_isolating(g, f, s)
        failures += not ok
        _emit({"g6": encode_g6(g), "n": g.n, "set": sorted(bits(s)),
               "isolating": ok}, args.format)
    return 1 if failures else 0


def _cmd_construct(args) -> int:
    try:
        g = make_named(args.name)
    except ValueError as exc:
        raise _UsageError(f"--name: {exc}") from None
    if args.format == "g6":
        print(encode_g6(g))
    else:
        _emit({"name": args.name, "g6": encode_g6(g), "n": g.n,
               "edges": g.edge_count()}, args.format)
    return 0


def _cmd_enumerate(args) -> int:
    if not 1 <= args.n <= MAX_BUILTIN_ORDER:
        raise _UsageError(f"--n must be between 1 and {MAX_BUILTIN_ORDER}")
    for g in enumerate_connected(args.n):
        if args.format == "g6":
            print(encode_g6(g))
        else:
            _emit({"g6": encode_g6(g), "n": g.n}, args.format)
    return 0


def _graphs_for_bound(args, min_n: int):
    if args.enumerate is not None:
        if not 1 <= args.enumerate <= MAX_BUILTIN_ORDER:
            raise _UsageError(
                f"--enumerate must be between 1 and {MAX_BUILTIN_ORDER}")
        for n in range(max(1, min_n), args.enumerate + 1):
            yield from enumerate_connected(n)
    else:
        for _, g in _input_graphs(args.input):
            yield g


def _cmd_bound(args) -> int:
    if args.workers < 1:
        raise _UsageError(f"--workers must be at least 1, got {args.workers}")
    f = _family(args)
    p, q = _parse_ratio(args.ratio)
    known = list(default_known_exceptions(f, p, q))
    for text in args.known or ():
        try:
            known.append(canonical_form(decode_g6(text)))
        except Graph6Error as exc:
            raise _UsageError(f"--known: {exc}") from None
    spec = BoundSpec(f, p, q, tuple(known), min_n=args.min_n)
    sink = (lambda rec: _emit(rec, args.format)) if not args.quiet else None
    report = verify_bound(_graphs_for_bound(args, spec.min_n), spec,
                          workers=args.workers, record_sink=sink)
    _emit(report.summary_dict(), args.format)
    if not report.exceptions:
        return 0
    found = {canonical_form(decode_g6(f.g6)) for f in report.exceptions}
    return 0 if args.allow_known and found <= set(spec.known_exceptions) else 1


def _cmd_n5(args) -> int:
    violations = 0
    for _, g in _input_graphs(args.input):
        record = {"g6": encode_g6(g), "n": g.n, "budget": budget(g.n)}
        try:
            s, trace = isolating_set_n5(g)
        except ExceptionalGraphError:
            record.update(error="exceptional-graph")
            violations += 1
        except DisconnectedGraphError:
            record.update(error="disconnected-graph")
            violations += 1
        except BudgetCertificationError as exc:
            record.update(error="certification-failed", offender=exc.g6)
            violations += 1
        else:
            record.update(set=sorted(bits(s)), size=s.bit_count(), ok=True)
            if args.with_trace:
                if args.format == "json-lines":
                    record["trace"] = trace.to_dict()["steps"]
                else:
                    _emit(record, args.format)
                    print(trace.to_text())
                    continue
        _emit(record, args.format)
    return 1 if violations else 0


def _cmd_attach_check(args) -> int:
    try:
        report = attachment_invariance_suite(samples=args.samples,
                                             max_n=args.max_n, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(f"lemma5-check: {exc}") from None
    for v in report.violations:
        _emit({"g6": v.g6, "vertex": v.vertex, "kind": v.kind,
               "before": v.before, "after": v.after,
               "status": "violation"}, args.format)
    _emit({"summary": True, "samples": report.samples,
           "by_kind": report.by_kind,
           "violations": len(report.violations),
           "passed": report.passed}, args.format)
    return 0 if report.passed else 1


def _cmd_y_check(args) -> int:
    y = y_graph()
    value = iota_exact(y, DIAMOND).value
    checks = {
        **dataclasses.asdict(verify_y_properties(y)),
        "isolation_number_is_2": value == 2,
        "violates_fifth_bound": value > budget(y.n),
    }
    _emit({"g6": encode_g6(y), "n": y.n, "iota": value, **checks,
           "passed": all(checks.values())}, args.format)
    return 0 if all(checks.values()) else 1


# --- parser -----------------------------------------------------------------


def _add_common(sub, with_input=True, with_family=False):
    sub.add_argument("--format", choices=("json-lines", "table"),
                     default="json-lines", help="output format")
    if with_input:
        sub.add_argument("--input", default="-", metavar="PATH",
                         help="graph6 file, or - for stdin (default)")
    if with_family:
        sub.add_argument("--family", default="diamond",
                         help="pattern family: k1 k2 p3 diamond anycycle "
                              "k:K star:K book:P custom:G6")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isolation",
        description="Exact isolation numbers, certified n/5 diamond-isolating "
                    "sets, and exhaustive bound sweeps over small graphs.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("solve", help="exact isolation number per input graph")
    _add_common(sp, with_family=True)
    sp.set_defaults(func=_cmd_solve)

    sp = subs.add_parser("certify", help="check a user-supplied isolating set")
    _add_common(sp, with_family=True)
    sp.add_argument("--set", required=True, metavar="V,V,...",
                    help="comma-separated vertex indices")
    sp.set_defaults(func=_cmd_certify)

    sp = subs.add_parser("construct", help="emit a named graph as graph6")
    sp.add_argument("--name", required=True,
                    help="diamond | y | h15 | path:N | cycle:N | complete:N | "
                         "complete_bipartite:P,Q | book:P | circulant:N:D,D")
    sp.add_argument("--format", choices=("g6", "json-lines", "table"),
                    default="g6")
    sp.set_defaults(func=_cmd_construct)

    sp = subs.add_parser("enumerate", help="stream the connected census for one order")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--format", choices=("g6", "json-lines", "table"),
                    default="g6")
    sp.set_defaults(func=_cmd_enumerate)

    sp = subs.add_parser("bound", help="sweep a population against iota <= floor(p*n/q)")
    _add_common(sp, with_family=True)
    sp.add_argument("--ratio", required=True, metavar="P/Q")
    sp.add_argument("--enumerate", type=int, metavar="NMAX",
                    help="sweep the built-in census up to this order instead "
                         "of reading --input")
    sp.add_argument("--min-n", type=int, default=1, dest="min_n",
                    help="ignore graphs below this order (default 1)")
    sp.add_argument("--known", action="append", metavar="G6",
                    help="extra known exception (repeatable)")
    sp.add_argument("--allow-known", action="store_true",
                    help="exit 0 when every exception is a known one")
    sp.add_argument("--workers", type=int, default=1,
                    help="parallel solvers, at most the number of CPUs "
                         "(default 1)")
    sp.add_argument("--quiet", action="store_true",
                    help="emit only the summary record")
    sp.set_defaults(func=_cmd_bound)

    sp = subs.add_parser("n5", help="construct a certified size<=n//5 isolating set")
    _add_common(sp)
    sp.set_defaults(func=_cmd_n5, with_trace=False)

    sp = subs.add_parser("trace", help="n5 plus the full construction trace")
    _add_common(sp)
    sp.set_defaults(func=_cmd_n5, with_trace=True)

    sp = subs.add_parser("lemma5-check",
                         help="verify that pendant/triangle/bridged-triangle "
                              "attachments preserve the diamond isolation number")
    _add_common(sp, with_input=False)
    sp.add_argument("--samples", type=int, default=500)
    sp.add_argument("--max-n", type=int, default=12, dest="max_n")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_attach_check)

    sp = subs.add_parser("y-check",
                         help="verify the structural gates of the exceptional "
                              "9-vertex graph Y")
    _add_common(sp, with_input=False)
    sp.set_defaults(func=_cmd_y_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head``): that is not an error; send
        # what is still buffered to devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (_UsageError, Graph6Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
