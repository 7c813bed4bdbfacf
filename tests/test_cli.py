import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from primroots import DomainError, artin, charsum, cli, factorize, primroot
from primroots.artin import SCAN_SPAN_LIMIT
from primroots.charsum import LITERAL_LIMIT, TABLE_LIMIT
from primroots.cli import COLUMNS, COMMANDS, SCHEMA_VERSION, render, run
from primroots.factorize import SIEVE_LIMIT, factor
from primroots.primroot import multiplicative_order
from primroots.special_primes import enumerate_k_pow2_primes, sieve_primes


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in data]


def test_order_example(capsys):
    assert run(["order", "--u", "2", "--n", "5"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == list(COLUMNS["order"])
    assert rows == [{"u": "2", "n": "5", "order": "4", "lambda": "4",
                     "primitive": "true"}]


def test_least_prime_square_is_domain_error(capsys):
    assert run(["least-prime", "--q", "4"]) == 1
    err = capsys.readouterr().err
    assert "perfect square" in err


def test_usage_errors_exit_2(capsys):
    assert run(["no-such-command"]) == 2
    assert run(["order", "--u", "2"]) == 2           # missing --n
    assert run(["psi", "--u", "2", "--p", "5", "--method", "bogus"]) == 2
    capsys.readouterr()


def test_artin_constant_value(capsys):
    assert run(["artin-constant", "--cutoff", "1000000"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert abs(float(rows[0]["value"]) - 0.3739558136) <= 1e-6


def test_csv_and_json_values_match():
    argv = ["interval", "--z", "50", "--q", "2"]
    _, csv_rows = parse_csv(render(argv, fmt="csv"))
    doc = json.loads(render(argv, fmt="json"))
    assert doc["schema_version"] == "1"
    assert doc["command"] == "interval"
    assert doc["parameters"]["z"] == 50
    assert len(csv_rows) == len(doc["rows"]) == 1
    for csv_row, json_row in zip(csv_rows, doc["rows"]):
        for key, json_value in json_row.items():
            if isinstance(json_value, bool):
                assert csv_row[key] == ("true" if json_value else "false")
            elif isinstance(json_value, float):
                assert float(csv_row[key]) == json_value
            else:
                assert csv_row[key] == str(json_value)


def test_cli_is_thin_adapter_over_library():
    # golden routing: same values through the library and through the CLI
    res = multiplicative_order(7, 30)
    _, rows = parse_csv(render(["order", "--u", "7", "--n", "30"]))
    assert int(rows[0]["order"]) == res.order
    assert int(rows[0]["lambda"]) == res.group_exponent

    d = charsum.decompose_interval(100, 3)
    _, rows = parse_csv(render(["interval", "--z", "100", "--q", "3"]))
    assert int(rows[0]["psi_sum"]) == d.psi_sum
    assert float(rows[0]["trivial_term"]) == float(f"{d.trivial_term:.12g}")
    assert float(rows[0]["error_term"]) == float(f"{d.error_term:.12g}")

    rep = artin.prime_counts(2, 1000)
    _, rows = parse_csv(render(["density", "--q", "2", "--x", "1000"]))
    assert int(rows[0]["pi_x"]) == rep.pi_x
    assert int(rows[0]["pi_q_x"]) == rep.pi_q_x

    ev = charsum.psi_divisor_free(3, 101, literal=True)
    _, rows = parse_csv(render(
        ["psi", "--u", "3", "--p", "101", "--method", "free", "--literal"]))
    assert int(rows[0]["value"]) == ev.value
    assert float(rows[0]["residual"]) == float(f"{ev.residual:.12g}")


def test_germain_listing():
    _, rows = parse_csv(render(["germain", "--limit", "100"]))
    assert [(int(r["p"]), int(r["s"]), int(r["r"])) for r in rows] == [
        (7, 1, 3), (11, 1, 5), (13, 2, 3), (23, 1, 11), (29, 2, 7), (41, 3, 5),
        (47, 1, 23), (53, 2, 13), (59, 1, 29), (83, 1, 41), (89, 3, 11), (97, 5, 3)]
    _, rows = parse_csv(render(["germain", "--limit", "100", "--s", "2"]))
    assert [int(r["p"]) for r in rows] == [13, 29, 53]


def test_germain_and_fermat_test_commands(capsys):
    assert run(["germain-test", "--q", "3", "--p", "7"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["passes"] == "true"
    assert run(["germain-test", "--q", "2", "--p", "127"]) == 1  # not Germain
    capsys.readouterr()
    assert run(["fermat-test", "--q", "2", "--f", "17"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["passes"] == "false"


def test_k2n_rows_and_truncation_note(capsys):
    assert run(["k2n", "--k", "3", "--nmax", "6"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert [(int(r["n"]), int(r["p"])) for r in rows] == \
        list(enumerate_k_pow2_primes(3, 6).entries)

    assert run(["k2n", "--k", "3", "--nmax", "80"]) == 0
    captured = capsys.readouterr()
    assert "truncated at n = 62" in captured.err


def test_is_primroot_and_lift(capsys):
    assert run(["is-primroot", "--u", "4", "--p", "5"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["primitive"] == "false"
    assert run(["lift", "--u", "2", "--n", "15"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["primitive"] == "true"
    assert run(["lift", "--u", "4", "--n", "15"]) == 1
    capsys.readouterr()


def test_scan_rows_match_library(capsys):
    assert run(["scan", "--qmin", "2", "--qmax", "40"]) == 0
    out = capsys.readouterr().out
    header, rows = parse_csv(out)
    assert header == ["q", "least_p", "bound_value", "ratio", "germain_hit"]
    records = artin.conjecture_scan(2, 40)
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert int(row["q"]) == rec.q
        assert int(row["least_p"]) == rec.least_p
        if rec.bound_value is None:
            assert row["bound_value"] == "" and row["ratio"] == ""
        else:
            assert float(row["bound_value"]) == float(f"{rec.bound_value:.12g}")
        assert row["germain_hit"] == ("true" if rec.germain_hit else "false")


def test_scan_is_bit_stable(capsys):
    assert run(["scan", "--qmin", "2", "--qmax", "100"]) == 0
    first = capsys.readouterr().out
    assert run(["scan", "--qmin", "2", "--qmax", "100", "--threads", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_least_prime_exhausted_row(capsys):
    assert run(["least-prime", "--q", "510", "--cap", "43"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["least_p"] == "" and rows[0]["exhausted"] == "true"


@pytest.mark.parametrize("argv", [
    ["density", "--q", "2", "--x", str(SIEVE_LIMIT + 1)],
    ["interval", "--z", str(SIEVE_LIMIT // 2 + 1), "--q", "2"],
    ["germain", "--limit", str(SIEVE_LIMIT + 1)],
    ["artin-constant", "--cutoff", str(SIEVE_LIMIT + 1)],
    ["least-prime", "--q", "2", "--cap", str(SIEVE_LIMIT + 1)],
    ["scan", "--qmin", "2", "--qmax", "3", "--cap", str(SIEVE_LIMIT + 1)],
], ids=["density-x", "interval-z", "germain-limit", "artin-cutoff",
        "least-prime-cap", "scan-cap"])
def test_table_sizes_past_the_ceiling_are_refused(argv, capsys):
    table_size = len(factorize._spf)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"SIEVE_LIMIT = {SIEVE_LIMIT}" in captured.err
    assert len(factorize._spf) == table_size  # refused before the table grew


@pytest.mark.parametrize("argv, message", [
    (["artin-constant", "--cutoff", "1"], "cutoff must be >= 2, got 1"),
    (["k2n", "--k", "3", "--nmax", "-1"], "nmax must be nonnegative, got -1"),
    (["scan", "--qmin", "-5", "--qmax", "10"], "qmin must be nonnegative, got -5"),
], ids=["artin-cutoff", "k2n-nmax", "scan-qmin"])
def test_refusals_name_the_flag(argv, message, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_scan_refuses_threads_below_one(capsys):
    for threads in ("0", "-4"):
        assert run(["scan", "--qmin", "2", "--qmax", "10", "--threads", threads]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threads must be an integer >= 1" in captured.err


def test_scan_checks_cap_before_any_base_or_fork(monkeypatch, capsys):
    # [4, 4] holds no admissible base; the cap is refused all the same.
    assert run(["scan", "--qmin", "4", "--qmax", "4", "--cap", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cap must be >= 3, got 2\n"

    def no_fork(max_workers):
        raise AssertionError("worker pool started before the cap was checked")

    monkeypatch.setattr(artin, "ProcessPoolExecutor", no_fork)
    monkeypatch.setattr(artin.os, "cpu_count", lambda: 2)
    with pytest.raises(DomainError, match="cap must be >= 3, got 2"):
        artin.conjecture_scan(2, 400, cap=2, threads=2)


def test_lift_refuses_u_before_factoring_n(monkeypatch, capsys):
    # n is the 63-bit semiprime (2^31 - 1) * 3037000493: factoring it runs Pollard rho.
    real_factor = factorize.factor

    def no_factor(n):
        raise AssertionError(f"n = {n} was factored before u was checked")

    for module in (cli, primroot, factorize):
        if getattr(module, "factor", None) is real_factor:
            monkeypatch.setattr(module, "factor", no_factor)
    assert run(["lift", "--u", str(2**63), "--n", "6521908894648437971"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: u = {2**63} exceeds the ceiling {2**63 - 1}\n"


def test_internal_invariant_failures_exit_3(monkeypatch, capsys):
    # The lift's final re-check fails although every prime-power test passed.
    monkeypatch.setattr(primroot, "is_lambda_primitive_root", lambda u, n: n != 15)
    assert run(["lift", "--u", "2", "--n", "15"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: lift inconsistency")
    assert captured.err.count("\n") == 1

    # A character-sum accumulator lands outside the rounding tolerance.
    monkeypatch.setattr(charsum, "ROUNDING_TOLERANCE", -1.0)
    assert run(["psi", "--u", "2", "--p", "5", "--method", "divisor"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: accumulator")
    assert captured.err.count("\n") == 1


def test_scan_refuses_a_span_past_the_limit(capsys):
    assert run(["scan", "--qmin", "0", "--qmax", str(2**63 - 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: qmax = {2**63 - 1} spans {2**63} bases from qmin = 0, "
                            f"past SCAN_SPAN_LIMIT = {SCAN_SPAN_LIMIT}\n")


def test_run_builds_the_parser_once(monkeypatch, capsys):
    build, builds = cli.build_parser, []

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    assert run(["order", "--u", "2", "--n", "5"]) == 0
    assert run(["order", "--u", "2"]) == 2
    assert run(["order", "--u", "2", "--n", "4"]) == 1
    with pytest.raises(RuntimeError, match="exited 1"):
        render(["order", "--u", "2", "--n", "4"])
    assert render(["order", "--u", "2", "--n", "5"], fmt="json").startswith("{")
    assert len(builds) == 1
    capsys.readouterr()


# Every subcommand, plus empty results, null cells and string cells.
ENCODED = [
    ["order", "--u", "7", "--n", "30"],
    ["is-primroot", "--u", "3", "--p", "7"],
    ["lift", "--u", "2", "--n", "15"],
    ["germain", "--limit", "100"],
    ["germain", "--limit", "100", "--s", "9"],
    ["germain-test", "--q", "2", "--p", "13"],
    ["fermat-test", "--q", "3", "--f", "257"],
    ["k2n", "--k", "3", "--nmax", "20"],
    ["k2n", "--k", "3", "--nmax", "0"],
    ["psi", "--u", "3", "--p", "101", "--method", "divisor"],
    ["psi", "--u", "3", "--p", "101", "--method", "free", "--literal"],
    ["interval", "--z", "100", "--q", "3"],
    ["artin-constant", "--cutoff", "1000"],
    ["density", "--q", "2", "--x", "1000"],
    ["least-prime", "--q", "510", "--cap", "43"],
    ["scan", "--qmin", "2", "--qmax", "60"],
]


def _rounded(value):
    return float(f"{value:.12g}") if isinstance(value, float) else value


def _csv_text(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def test_encoded_cases_cover_every_subcommand():
    assert {argv[0] for argv in ENCODED} == set(COMMANDS)


@pytest.mark.parametrize("argv", ENCODED, ids=" ".join)
def test_emit_matches_the_stdlib_encoders(argv, capsys):
    record = cli._execute(cli.build_parser().parse_args(argv))
    columns = COLUMNS[record.command]
    doc = {"schema_version": SCHEMA_VERSION, "command": record.command,
           "parameters": record.parameters,
           "rows": [{c: _rounded(v) for c, v in zip(columns, row)} for row in record.rows]}
    assert render(argv, "json") == json.dumps(doc, indent=2) + "\n"
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([[_csv_text(v) for v in row] for row in record.rows])
    assert render(argv, "csv") == text.getvalue()
    capsys.readouterr()


# Boundary values for every int flag. Table sizes skip TABLE_LIMIT + 1, a
# legal size that takes seconds; the others are desk scale or refused.
# 5003 is the least prime past LITERAL_LIMIT.
BOUNDARY = (0, 1, 2, -1, 49, 3, 5, 7, 97, 2**63 - 1, 2**63, SIEVE_LIMIT + 1,
            TABLE_LIMIT + 1, LITERAL_LIMIT + 1, 5003, SCAN_SPAN_LIMIT + 1)
TABLE_SIZES = {"x", "z", "limit", "cutoff", "cap"}


def _flag_values(flag, kwargs):
    if kwargs.get("action") == "store_true":
        return st.booleans()
    if "choices" in kwargs:
        return st.sampled_from((None, *kwargs["choices"], "bogus"))
    if flag == "threads":
        return st.sampled_from((None, -1, 0, 1, 2))
    values = [v for v in BOUNDARY if flag not in TABLE_SIZES or v != TABLE_LIMIT + 1]
    return st.sampled_from([None, *values])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_subcommand_answers_or_refuses(package_caches, data):
    name = data.draw(st.sampled_from(list(COMMANDS)))
    argv, drawn = [name], {}
    for flag, kwargs in COMMANDS[name].flags:
        drawn[flag] = value = data.draw(_flag_values(flag, kwargs), label=flag)
        if value is True:
            argv.append(f"--{flag}")
        elif value not in (None, False):
            argv += [f"--{flag}", str(value)]
    if name == "scan":  # an accepted span of more than 10^4 bases takes seconds
        qmin, qmax = drawn["qmin"], drawn["qmax"]
        assume(qmin is None or qmax is None or not 10**4 < qmax - qmin + 1 <= SCAN_SPAN_LIMIT)
    argv += ["--format", data.draw(st.sampled_from(("csv", "json")))]
    out, err = io.StringIO(), io.StringIO()
    # Start from the import-time SPF table and empty caches, so that a
    # refusal that grows a table shows; the table is put back afterwards.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorize, "_spf", np.zeros(2, dtype=np.uint16))
        mp.setattr(factorize, "_primes", np.zeros(0, dtype=np.int64))
        for cache in package_caches:
            cache.cache_clear()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        table_size = len(factorize._spf)
    power_tables = charsum._power_table.cache_info().currsize
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 0:
        if argv[-1] == "json":
            assert json.loads(out)["command"] == name
        else:
            assert out.split("\n", 1)[0] == ",".join(COLUMNS[name])
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert table_size == 2 and power_tables == 0  # refused before any table
