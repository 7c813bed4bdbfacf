"""Command-line surface: one thin subcommand per library operation.

Rows go to stdout as CSV (default) or JSON; progress and summaries go to
stderr so stdout stays machine-clean. No numeric logic lives here.

Exit codes: 0 success, 1 violated precondition (the diagnostic names it),
2 usage error, 3 internal-invariant failure (one "internal error:" line on
stderr, no traceback).
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field

from . import artin, charsum, special_primes
from .arith import DomainError
from .factorize import factor
from .primroot import is_primitive_root_prime, lift_primitive_root, multiplicative_order

SCHEMA_VERSION = "1"

# Fixed column order per subcommand; any change bumps SCHEMA_VERSION.
COLUMNS = {
    "order": ("u", "n", "order", "lambda", "primitive"),
    "is-primroot": ("u", "p", "primitive"),
    "lift": ("u", "n", "primitive"),
    "germain": ("p", "s", "r"),
    "germain-test": ("q", "p", "s", "r", "passes"),
    "fermat-test": ("q", "f", "passes"),
    "k2n": ("n", "p"),
    "psi": ("u", "p", "method", "value", "raw_re", "raw_im", "residual"),
    "interval": ("z", "q", "psi_sum", "trivial_term", "error_term", "li_prediction"),
    "artin-constant": ("cutoff", "value", "tail_bound"),
    "density": ("q", "x", "pi_x", "pi_q_x", "density", "artin_reference", "c_estimate"),
    "least-prime": ("q", "cap", "least_p", "exhausted"),
    "scan": ("q", "least_p", "bound_value", "ratio", "germain_hit"),
}


@dataclass
class OutputRecord:
    schema_version: str
    command: str
    parameters: dict
    rows: list = field(default_factory=list)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def emit(record: OutputRecord, fmt: str, out=None):
    out = out or sys.stdout
    columns = COLUMNS[record.command]
    if fmt == "json":
        doc = {
            "schema_version": record.schema_version,
            "command": record.command,
            "parameters": {k: _json_value(v) for k, v in record.parameters.items()},
            "rows": [{c: _json_value(row[c]) for c in columns} for row in record.rows],
        }
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in record.rows:
            writer.writerow([_csv_cell(row[c]) for c in columns])


def _cmd_order(args):
    res = multiplicative_order(args.u, args.n)
    return [{"u": res.u, "n": res.n, "order": res.order,
             "lambda": res.group_exponent, "primitive": res.is_lambda_primitive}]


def _cmd_is_primroot(args):
    return [{"u": args.u, "p": args.p,
             "primitive": is_primitive_root_prime(args.u, args.p)}]


def _cmd_lift(args):
    return [{"u": args.u, "n": args.n,
             "primitive": lift_primitive_root(args.u, factor(args.n))}]


def _cmd_germain(args):
    rows = []
    for p in special_primes.sieve_primes(args.limit):
        if p < 3:
            continue
        form = special_primes.germain_decompose(p)
        if form is not None and (args.s is None or form.s == args.s):
            rows.append({"p": form.p, "s": form.s, "r": form.r})
    return rows


def _cmd_germain_test(args):
    form = special_primes.germain_decompose(args.p)
    if form is None:
        raise DomainError(f"p = {args.p} is not a generalized Germain prime")
    return [{"q": args.q, "p": form.p, "s": form.s, "r": form.r,
             "passes": special_primes.germain_primitive_root_test(args.q, form)}]


def _cmd_fermat_test(args):
    return [{"q": args.q, "f": args.f,
             "passes": special_primes.fermat_primitive_root_test(args.q, args.f)}]


def _cmd_k2n(args):
    result = special_primes.enumerate_k_pow2_primes(args.k, args.nmax)
    if result.truncated_at is not None:
        print(f"note: enumeration truncated at n = {result.truncated_at} "
              "(candidate exceeded the integer ceiling)", file=sys.stderr)
    return [{"n": n, "p": p} for n, p in result.entries]


def _cmd_psi(args):
    if args.method == "divisor":
        res = charsum.psi_divisor_dependent(args.u, args.p)
    else:
        res = charsum.psi_divisor_free(args.u, args.p, literal=args.literal)
    return [{"u": res.u, "p": res.p, "method": res.method, "value": res.value,
             "raw_re": res.raw.real, "raw_im": res.raw.imag,
             "residual": res.residual}]


def _cmd_interval(args):
    d = charsum.decompose_interval(args.z, args.q)
    return [{"z": d.z, "q": d.q, "psi_sum": d.psi_sum,
             "trivial_term": d.trivial_term, "error_term": d.error_term,
             "li_prediction": d.li_prediction}]


def _cmd_artin_constant(args):
    a = artin.artin_constant(args.cutoff)
    return [{"cutoff": a.truncation, "value": a.value, "tail_bound": a.tail_bound}]


def _cmd_density(args):
    rep = artin.prime_counts(args.q, args.x)
    return [{"q": rep.q, "x": rep.x, "pi_x": rep.pi_x, "pi_q_x": rep.pi_q_x,
             "density": rep.density, "artin_reference": rep.artin_reference,
             "c_estimate": rep.c_estimate}]


def _cmd_least_prime(args):
    p = artin.least_prime_with_primitive_root(args.q, args.cap)
    return [{"q": args.q, "cap": args.cap, "least_p": p, "exhausted": p is None}]


def _cmd_scan(args):
    span = args.qmax - args.qmin + 1
    progress = None
    if span >= 1000:
        def progress(done, total):
            print(f"scan: {done}/{total} bases processed", file=sys.stderr, flush=True)
    records = artin.conjecture_scan(args.qmin, args.qmax, cap=args.cap,
                                    threads=args.threads, progress=progress)
    summary = artin.summarize_scan(records)
    max_ratio = "undefined" if summary.max_ratio is None else f"{summary.max_ratio:.12g}"
    print(f"scan summary: {summary.records} rows, {summary.exhausted} exhausted, "
          f"max ratio {max_ratio} (at q = {summary.max_ratio_q}), "
          f"germain fraction {summary.germain_fraction:.12g}", file=sys.stderr)
    return [{"q": r.q, "least_p": r.least_p, "bound_value": r.bound_value,
             "ratio": r.ratio, "germain_hit": r.germain_hit} for r in records]


_HANDLERS = {
    "order": _cmd_order,
    "is-primroot": _cmd_is_primroot,
    "lift": _cmd_lift,
    "germain": _cmd_germain,
    "germain-test": _cmd_germain_test,
    "fermat-test": _cmd_fermat_test,
    "k2n": _cmd_k2n,
    "psi": _cmd_psi,
    "interval": _cmd_interval,
    "artin-constant": _cmd_artin_constant,
    "density": _cmd_density,
    "least-prime": _cmd_least_prime,
    "scan": _cmd_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primroots",
        description="Primitive-root tests, special prime families, character "
                    "sums, and least-prime scans.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", parents=[common],
                       help="multiplicative order of u mod n")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("is-primroot", parents=[common],
                       help="primitive-root test mod a prime")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("lift", parents=[common],
                       help="lift the test through the prime-power divisors of n")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("germain", parents=[common],
                       help="generalized Germain primes up to a limit")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--s", type=int, default=None,
                   help="restrict to one power-of-two exponent")

    p = sub.add_parser("germain-test", parents=[common],
                       help="two-exponentiation test for a Germain prime")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("fermat-test", parents=[common],
                       help="nonresidue test for a Fermat prime")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", type=int, required=True)

    p = sub.add_parser("k2n", parents=[common],
                       help="primes k*2^n + 1 for fixed odd prime k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("psi", parents=[common],
                       help="primitive-element indicator via character sums")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--method", choices=("divisor", "free"), required=True)
    p.add_argument("--literal", action="store_true",
                   help="evaluate every complex exponential (free method)")

    p = sub.add_parser("interval", parents=[common],
                       help="main/error decomposition over [z, 2z]")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("artin-constant", parents=[common],
                       help="truncated Euler product for a1")
    p.add_argument("--cutoff", type=int, required=True)

    p = sub.add_parser("density", parents=[common],
                       help="pi_q(x) / pi(x) against the Artin reference")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=int, required=True)

    p = sub.add_parser("least-prime", parents=[common],
                       help="least prime with q as primitive root")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--cap", type=int, default=artin.DEFAULT_SCAN_CAP)

    p = sub.add_parser("scan", parents=[common],
                       help="least-prime scan over a base range")
    p.add_argument("--qmin", type=int, required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--cap", type=int, default=artin.DEFAULT_SCAN_CAP)
    p.add_argument("--threads", type=int, default=1)

    return parser


def _execute(args) -> OutputRecord:
    rows = _HANDLERS[args.command](args)
    parameters = {k: v for k, v in vars(args).items()
                  if k not in ("command", "format")}
    return OutputRecord(schema_version=SCHEMA_VERSION, command=args.command,
                        parameters=parameters, rows=rows)


def run(argv) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        record = _execute(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    emit(record, args.format)
    return 0


def render(argv, fmt=None) -> str:
    """run() with stdout captured; used by tests to diff CLI against library."""
    args = build_parser().parse_args(argv)
    buf = io.StringIO()
    emit(_execute(args), fmt or args.format, out=buf)
    return buf.getvalue()


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
