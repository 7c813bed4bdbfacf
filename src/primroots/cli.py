"""Command-line surface: one thin subcommand per library operation.

Rows go to stdout as CSV (default) or JSON; progress and summaries go to
stderr so stdout stays machine-clean. No numeric logic lives here.

Exit codes: 0 success, 1 violated precondition (the diagnostic names it),
2 usage error, 3 internal-invariant failure (one "internal error:" line on
stderr, no traceback).
"""

import argparse
import io
import json
import sys
from collections import namedtuple
from contextlib import redirect_stdout

from . import artin, charsum, special_primes
from .arith import DomainError
from .primroot import is_primitive_root_prime, lift_primitive_root, multiplicative_order

SCHEMA_VERSION = "1"

# One subcommand. Flags are (name, argparse keywords); @command reads a bare
# name as a required int flag. The handler returns rows as tuples in column
# order; any change to the columns bumps SCHEMA_VERSION.
Command = namedtuple("Command", "help flags columns handler")

# Every subcommand, in --help order. Filled by @command.
COMMANDS = {}
# The parser: built by the first run(), through build_parser, and reused.
_parser = None

_REQUIRED_INT = {"type": int, "required": True}
_CAP = ("cap", {"type": int, "default": artin.DEFAULT_SCAN_CAP})
_FORMAT = ("format", {"choices": ("csv", "json"), "default": "csv",
                      "help": "output format (default csv)"})


def command(name, help, flags, columns):
    flags = [flag if isinstance(flag, tuple) else (flag, _REQUIRED_INT) for flag in flags]

    def register(handler):
        COMMANDS[name] = Command(help, flags, tuple(columns.split()), handler)
        return handler
    return register


# One invocation's result: flag values and rows as tuples in column order.
OutputRecord = namedtuple("OutputRecord", "command parameters rows")


def _cell(value, fmt):
    """One cell as CSV or JSON text, floats at 12 significant digits. A JSON
    float is repr(float(f"{v:.12g}")), which is json's own encoding of a
    finite float; no float cell is infinite or NaN."""
    if value is None:
        return "null" if fmt == "json" else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(f"{value:.12g}")) if fmt == "json" else f"{value:.12g}"
    return json.dumps(value) if fmt == "json" and isinstance(value, str) else str(value)


def emit(record: OutputRecord, fmt: str, out=None):
    """Write the record row by row, as csv.writer or json.dumps(indent=2)
    would; no CSV cell needs quoting (numbers, bools, empty, method names)."""
    out = out or sys.stdout
    columns = COMMANDS[record.command].columns
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in record.rows:
            out.write(",".join([_cell(v, fmt) for v in row]) + "\n")
        return
    head = json.dumps({"schema_version": SCHEMA_VERSION, "command": record.command,
                       "parameters": record.parameters}, indent=2)
    out.write(head[:-2] + ',\n  "rows": [')  # the head minus its closing brace
    keys = [f'\n      "{c}": ' for c in columns]
    closing = "]\n}\n"
    for i, row in enumerate(record.rows):
        cells = ",".join([key + _cell(v, fmt) for key, v in zip(keys, row)])
        out.write(("," if i else "") + "\n    {" + cells + "\n    }")
        closing = "\n  ]\n}\n"
    out.write(closing)


@command("order", "multiplicative order of u mod n", ["u", "n"],
         "u n order lambda primitive")
def _cmd_order(args):
    res = multiplicative_order(args.u, args.n)
    return [(res.u, res.n, res.order, res.group_exponent, res.is_lambda_primitive)]


@command("is-primroot", "primitive-root test mod a prime", ["u", "p"], "u p primitive")
def _cmd_is_primroot(args):
    return [(args.u, args.p, is_primitive_root_prime(args.u, args.p))]


@command("lift", "lift the test through the prime-power divisors of n", ["u", "n"],
         "u n primitive")
def _cmd_lift(args):
    return [(args.u, args.n, lift_primitive_root(args.u, args.n))]


@command("germain", "generalized Germain primes up to a limit",
         ["limit", ("s", {"type": int, "help": "restrict to one power-of-two exponent"})],
         "p s r")
def _cmd_germain(args):
    p, s, r = special_primes.germain_forms(args.limit)
    return [row for row in zip(p.tolist(), s.tolist(), r.tolist()) if args.s in (None, row[1])]


@command("germain-test", "two-exponentiation test for a Germain prime", ["q", "p"],
         "q p s r passes")
def _cmd_germain_test(args):
    form = special_primes.germain_decompose(args.p)
    if form is None:
        raise DomainError(f"p = {args.p} is not a generalized Germain prime")
    return [(args.q, form.p, form.s, form.r,
             special_primes.germain_primitive_root_test(args.q, form))]


@command("fermat-test", "nonresidue test for a Fermat prime", ["q", "f"], "q f passes")
def _cmd_fermat_test(args):
    return [(args.q, args.f, special_primes.fermat_primitive_root_test(args.q, args.f))]


@command("k2n", "primes k*2^n + 1 for fixed odd prime k", ["k", "nmax"], "n p")
def _cmd_k2n(args):
    result = special_primes.enumerate_k_pow2_primes(args.k, args.nmax)
    if result.truncated_at is not None:
        print(f"note: enumeration truncated at n = {result.truncated_at} "
              "(candidate exceeded the integer ceiling)", file=sys.stderr)
    return list(result.entries)


@command("psi", "primitive-element indicator via character sums",
         ["u", "p", ("method", {"choices": ("divisor", "free"), "required": True}),
          ("literal", {"action": "store_true",
                       "help": "evaluate every complex exponential (free method)"})],
         "u p method value raw_re raw_im residual")
def _cmd_psi(args):
    if args.method == "divisor":
        res = charsum.psi_divisor_dependent(args.u, args.p)
    else:
        res = charsum.psi_divisor_free(args.u, args.p, literal=args.literal)
    return [(res.u, res.p, res.method, res.value, res.raw.real, res.raw.imag, res.residual)]


@command("interval", "main/error decomposition over [z, 2z]", ["z", "q"],
         "z q psi_sum trivial_term error_term li_prediction")
def _cmd_interval(args):
    d = charsum.decompose_interval(args.z, args.q)
    return [(d.z, d.q, d.psi_sum, d.trivial_term, d.error_term, d.li_prediction)]


@command("artin-constant", "truncated Euler product for a1", ["cutoff"],
         "cutoff value tail_bound")
def _cmd_artin_constant(args):
    a = artin.artin_constant(args.cutoff)
    return [(a.truncation, a.value, a.tail_bound)]


@command("density", "pi_q(x) / pi(x) against the Artin reference", ["q", "x"],
         "q x pi_x pi_q_x density artin_reference c_estimate")
def _cmd_density(args):
    rep = artin.prime_counts(args.q, args.x)
    return [(rep.q, rep.x, rep.pi_x, rep.pi_q_x, rep.density, rep.artin_reference,
             rep.c_estimate)]


@command("least-prime", "least prime with q as primitive root", ["q", _CAP],
         "q cap least_p exhausted")
def _cmd_least_prime(args):
    p = artin.least_prime_with_primitive_root(args.q, args.cap)
    return [(args.q, args.cap, p, p is None)]


@command("scan", "least-prime scan over a base range",
         ["qmin", "qmax", _CAP, ("threads", {"type": int, "default": 1})],
         "q least_p bound_value ratio germain_hit")
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
    return [(r.q, r.least_p, r.bound_value, r.ratio, r.germain_hit) for r in records]


COLUMNS = {name: cmd.columns for name, cmd in COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primroots",
        description="Primitive-root tests, special prime families, character "
                    "sums, and least-prime scans.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for flag, kwargs in (_FORMAT, *cmd.flags):
            p.add_argument(f"--{flag}", **kwargs)
    return parser


def _execute(args) -> OutputRecord:
    rows = COMMANDS[args.command].handler(args)
    parameters = {k: v for k, v in vars(args).items()
                  if k not in ("command", "format")}
    return OutputRecord(args.command, parameters, rows)


def run(argv) -> int:
    """Dispatch one invocation; returns the process exit code."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
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
    """run() with stdout captured; raises unless it exits 0."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run([*argv, "--format", fmt] if fmt else argv)
    if code != 0:
        raise RuntimeError(f"primroots {' '.join(argv)} exited {code}")
    return buf.getvalue()


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
