"""Command-line front end: CSV (default) or JSON rows on stdout, manifest on stderr.

Exit codes: 0 success, 1 usage/validation error, 2 capacity/domain error,
3 integrity error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time

from . import __version__
from .audit import audit_range, default_params
from .equations import EquationSpec, Kind, search
from .errors import DomainError, IntegrityError, UsageError
from .parametric import (
    classify,
    consecutive_multiperfect_search,
    derive_family,
    enumerate_families,
    generate,
)
from .smoothness import bound_main, smooth_report


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


def _spec_from(args: argparse.Namespace) -> EquationSpec:
    return EquationSpec(Kind(args.fn), args.a1, args.b1, args.a2, args.b2)


def _equation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fn", required=True, choices=("sigma", "phi"))
    parser.add_argument("--a1", required=True, type=int)
    parser.add_argument("--b1", required=True, type=int)
    parser.add_argument("--a2", required=True, type=int)
    parser.add_argument("--b2", required=True, type=int)


def _cmd_search(args):
    spec = _spec_from(args)
    rows = []
    for rec in search(spec, args.max, threads=args.threads):
        label = "unclassified"
        if args.classify:
            label = "parametric" if classify(spec, rec.n) is not None else "sporadic"
        rows.append([rec.n, rec.arg1, rec.arg2, rec.value, label])
    return ["n", "A1", "A2", "value", "class"], rows


def _cmd_families(args):
    spec = _spec_from(args)
    rows = [[fam.k1, fam.k2, fam.m1, fam.m2] for fam in enumerate_families(spec, args.kmax)]
    return ["k1", "k2", "m1", "m2"], rows


def _cmd_generate(args):
    spec = _spec_from(args)
    family = derive_family(spec, args.k1, args.k2)
    if family is None:
        raise UsageError(f"(k1={args.k1}, k2={args.k2}) yields no family for this equation")
    # generate raises IntegrityError on any witness that fails verify_witness
    rows = [[w.l, w.q1, w.q2, w.n, True] for w in generate(family, args.lmax)]
    return ["l", "q1", "q2", "n", "verified"], rows


def _cmd_classify(args):
    spec = _spec_from(args)
    witness = classify(spec, args.n)
    if witness is None:
        row = ["sporadic", None, None, None, None, None, None, None]
    else:
        fam = witness.family
        row = ["parametric", witness.l, witness.q1, witness.q2, fam.k1, fam.k2, fam.m1, fam.m2]
    return ["verdict", "l", "q1", "q2", "k1", "k2", "m1", "m2"], [row]


def _cmd_smooth(args):
    report = smooth_report(args.which, args.x, args.y, include_bound=args.bounds)
    if args.bounds:
        print("note: bound is leading-order (asymptotic factors dropped)", file=sys.stderr)
    row = [report.x, report.y, report.count, report.bound_value, report.ratio]
    return ["x", "y", "count", "bound", "ratio"], [row]


def _cmd_audit(args):
    spec = _spec_from(args)
    params, audited = audit_range(spec, args.max, y=args.y, z=args.z, threads=args.threads)
    rows = []
    for rec, verdict in audited:
        dec = verdict.decomposition
        if verdict.boundary:
            print(f"note: boundary case P(f(A1)) == y at n={rec.n}", file=sys.stderr)
        if dec is None:
            rows.append([rec.n, verdict.bucket.value] + [None] * 5 + [params.overridden])
        else:
            rows.append(
                [rec.n, verdict.bucket.value, dec.p, dec.m1, dec.k1, dec.m2, dec.k2,
                 params.overridden]
            )
    return ["n", "bucket", "p", "m1", "k1", "m2", "k2", "overridden"], rows


def _cmd_multiperfect(args):
    rows = [[m] for m in consecutive_multiperfect_search(args.max, threads=args.threads)]
    return ["m"], rows


def _cmd_bounds(args):
    params = default_params(args.x)
    return ["y", "z", "u", "bound_main"], [[params.y, params.z, params.u, bound_main(args.x)]]


@functools.cache  # one parser per process: building it takes ~2 ms, parsing leaves it as it was
def _build_parser() -> _Parser:
    parser = _Parser(prog="sigmaphi")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, equation=False, threads=False):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true")
        if equation:
            _equation_flags(p)
        if threads:
            p.add_argument("--threads", type=int, default=1)
        return p

    p = add("search", _cmd_search, equation=True, threads=True)
    p.add_argument("--max", required=True, type=int)
    p.add_argument("--classify", action="store_true")

    p = add("families", _cmd_families, equation=True)
    p.add_argument("--kmax", required=True, type=int)

    p = add("generate", _cmd_generate, equation=True)
    p.add_argument("--k1", required=True, type=int)
    p.add_argument("--k2", required=True, type=int)
    p.add_argument("--lmax", required=True, type=int)

    p = add("classify", _cmd_classify, equation=True)
    p.add_argument("--n", required=True, type=int)

    p = add("smooth", _cmd_smooth)
    p.add_argument("--which", required=True, choices=("psi", "s", "phi", "sigma"))
    p.add_argument("--x", required=True, type=int)
    p.add_argument("--y", required=True, type=int)
    p.add_argument("--bounds", action="store_true")

    p = add("audit", _cmd_audit, equation=True, threads=True)
    p.add_argument("--max", required=True, type=int)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--z", type=float, default=None)

    p = add("multiperfect", _cmd_multiperfect, threads=True)
    p.add_argument("--max", required=True, type=int)

    p = add("bounds", _cmd_bounds)
    p.add_argument("--x", required=True, type=int)

    return parser


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit(header: list[str], rows: list[list], as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps([dict(zip(header, row)) for row in rows]))
        sys.stdout.write("\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])


def _peak_rss_mib() -> float | None:
    """This process's peak resident set size in MiB, from getrusage; None off Unix.

    ru_maxrss is in KiB on Linux and in bytes on macOS.
    """
    try:
        import resource  # here, so that importing the CLI costs no more
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def _manifest(command: str, args: argparse.Namespace, elapsed_ms: int, rows: int) -> dict:
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "command")
    }
    return {
        "command": command,
        "params": params,
        "version": __version__,
        "elapsed_ms": elapsed_ms,
        "rows": rows,
        "stats": {"peak_rss_mib": _peak_rss_mib()},
    }


def run(argv: list[str] | None = None) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    started = time.perf_counter()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        header, rows = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, DomainError) as exc:  # CapacityError, or an x past float range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    _emit(header, rows, args.json)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    print(json.dumps(_manifest(args.command, args, elapsed_ms, len(rows))), file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
