import contextlib
import csv
import io
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellymarket.cli import SWEEP_MAX_POINTS, main, sweep_records

GOLDEN_SIMULATE = (
    '{"N": 10, "p": 0.6, "f": 0.2, "Q": 0, "paths": 2000, "seed": 42, '
    '"mean_log_growth_per_step": 0.0202166065723105, '
    '"std_error": 0.0014058002436868, '
    '"analytic_growth_rate": 0.0201355135506888, '
    '"threshold_hit_fraction": 0.361, "exact_prob_below": 0.3668967424, '
    '"z_score": -0.547164549412224}\n'
)


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_cli(*argv):
    """``main`` with stdout and stderr captured, for use under hypothesis
    (which cannot share a function-scoped capsys across examples)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def strict_json_lines(text):
    """Every line parsed as strict JSON: the Infinity and NaN tokens that
    json.loads would otherwise accept are refused too."""
    lines = text.splitlines()
    assert lines
    return [json.loads(line, parse_constant=_reject_constant) for line in lines]


class TestFraction:
    def test_standard(self, capsys):
        code, out = invoke(capsys, "fraction", "--q", "0.7", "--p", "0.6")
        assert code == 0
        record = json.loads(out)
        assert record["fraction"] == pytest.approx(0.25, abs=1e-12)

    def test_no_edge(self, capsys):
        code, out = invoke(capsys, "fraction", "--q", "0.5", "--p", "0.5")
        assert code == 0
        assert json.loads(out)["fraction"] == 0.0

    def test_power_payout(self, capsys):
        code, out = invoke(
            capsys, "fraction", "--q", "0.9", "--p", "0.8", "--alpha", "0.5"
        )
        assert code == 0
        assert json.loads(out)["fraction"] == pytest.approx(0.7, abs=1e-12)

    def test_round_trip_parameters(self, capsys):
        _, out = invoke(capsys, "fraction", "--q", "0.7", "--p", "0.6")
        record = json.loads(out)
        assert (record["q"], record["p"], record["alpha"]) == (0.7, 0.6, 1)

    def test_subnormal_price(self, capsys):
        # f (1-p)/p overflows; the utility at f = 1 is log(1/p)
        code, out = invoke(capsys, "fraction", "--q", "1", "--p", "1e-320")
        assert code == 0
        (record,) = strict_json_lines(out)
        assert record["fraction"] == 1
        assert record["utility_at_fraction"] == pytest.approx(
            -math.log(1e-320), rel=1e-14)
        assert record["utility_at_fraction"] == pytest.approx(736.83, abs=5e-3)

    def test_bad_price_exits_2(self, capsys):
        code, _ = invoke(capsys, "fraction", "--q", "0.5", "--p", "1.0")
        assert code == 2


class TestClear:
    def test_csv_population(self, tmp_path, capsys):
        path = tmp_path / "pop.csv"
        path.write_text("capital,belief\n3,0.6\n1,0\n")
        code, out = invoke(capsys, "clear", str(path))
        assert code == 0
        record = json.loads(out)
        assert record["price"] == pytest.approx(0.4, abs=1e-9)
        assert record["mean_belief"] == pytest.approx(0.45, abs=1e-12)
        assert record["gap"] == pytest.approx(0.05, abs=1e-9)
        assert len(record["exposures"]) == 2

    def test_json_population(self, tmp_path, capsys):
        # p/(p-q) = 1.5 dollars at belief 0.2 offset one confident-yes
        # dollar under the complement-contract convention, clearing at 0.6
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(
            [{"capital": 1.5, "belief": 0.2}, {"capital": 1.0, "belief": 1.0}]
        ))
        code, out = invoke(capsys, "clear", str(path))
        assert code == 0
        record = json.loads(out)
        assert record["price"] == pytest.approx(0.6, abs=1e-9)
        assert record["mean_belief"] == pytest.approx(0.52, abs=1e-12)

    def test_degenerate_population(self, tmp_path, capsys):
        path = tmp_path / "pop.csv"
        path.write_text("capital,belief\n1,0.3\n2,0.3\n")
        code, out = invoke(capsys, "clear", str(path))
        assert code == 0
        record = json.loads(out)
        assert record["price"] == 0.3
        assert record["gap"] == 0.0

    def test_no_interior_clearing_exits_3(self, tmp_path, capsys):
        path = tmp_path / "pop.csv"
        path.write_text("capital,belief\n1,0\n2,0\n")
        code, _ = invoke(capsys, "clear", str(path))
        assert code == 3

    @pytest.mark.parametrize("capital", ["1e308", "1e-320"])
    def test_extreme_capitals(self, tmp_path, capsys, capital):
        # the default tolerance overflowed at $1e308 and underflowed at $1e-320
        path = tmp_path / "pop.csv"
        path.write_text(f"capital,belief\n{capital},0.3\n{capital},0.7\n")
        code, out = invoke(capsys, "clear", str(path))
        assert code == 0
        (record,) = strict_json_lines(out)
        assert record["price"] == 0.5

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pop.csv"
        path.write_text("wealth,opinion\n1,0.5\n")
        code, _ = invoke(capsys, "clear", str(path))
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _ = invoke(capsys, "clear", "/nonexistent/pop.csv")
        assert code == 2

    @pytest.mark.parametrize("name, text, detail", [
        ("pop.json", '[{"capital": 1.0, "belief": 0.5},\n', "invalid JSON"),
        ("pop.json", '[{"capital": 1.0, "belief": 0.5}, {"capital": 2.0}]',
         "row 2: no 'belief' field"),
        ("pop.json", '[{"belief": 0.5}]', "row 1: no 'capital' field"),
        ("pop.json", '[7]', "row 1: no 'capital' field"),
        ("pop.json", '[{"capital": "lots", "belief": 0.5}]',
         "row 1: capital is not a number"),
        ("pop.csv", "capital,belief\n1,0.5\n2,abc\n",
         "row 2: belief is not a number"),
        ("pop.csv", "capital,belief\n1,0.5\n2\n", "row 2: belief is not a number"),
        ("pop.csv", "capital,belief\n1,0.5\n2,1.5\n", "row 2: belief must lie"),
        # the first bad row is named, whichever check it fails
        ("pop.csv", "capital,belief\n-1,0.5\n2,abc\n",
         ": row 1: capital must be a positive finite number, got -1.0\n"),
        ("pop.csv", "capital,belief\n", "at least one investor"),
        # float() of a JSON integer this large raises OverflowError
        pytest.param("pop.json", '[{"capital": 1' + "0" * 400 + ', "belief": 0.5}]',
                     ": row 1: capital is beyond the float range\n",
                     id="json-integer-beyond-the-float-range"),
        # json.loads refuses an integer past the int-string digit limit
        # with a plain ValueError, not a JSONDecodeError
        pytest.param("pop.json", '[{"capital": 1' + "0" * 5000 + ', "belief": 0.5}]',
                     ": invalid JSON: Exceeds the limit",
                     id="json-integer-past-the-digit-limit"),
    ])
    def test_bad_contents_exit_2_naming_the_file(self, tmp_path, capsys, name,
                                                 text, detail):
        path = tmp_path / name
        path.write_text(text)
        code = main(["clear", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(path) in err
        assert detail in err


class TestBounds:
    def test_record_fields(self, capsys):
        code, out = invoke(capsys, "bounds", "--N", "10", "--p", "0.6", "--k", "4")
        assert code == 0
        record = json.loads(out)
        assert record["upper"] == pytest.approx(0.4444, abs=1e-4)
        assert record["lower"] == pytest.approx(0.09938, abs=1e-5)
        assert record["lower"] <= record["exact_cdf"] <= record["upper"]

    def test_upper_is_one_at_the_mean(self, capsys):
        _, out = invoke(capsys, "bounds", "--N", "10", "--p", "0.5", "--k", "5")
        assert json.loads(out)["upper"] == 1

    def test_k_zero_has_no_lower_bound(self, capsys):
        code, out = invoke(capsys, "bounds", "--N", "10", "--p", "0.6", "--k", "0")
        assert code == 0
        record = json.loads(out)
        assert record["exact_cdf"] == pytest.approx(0.4 ** 10, rel=1e-9)
        assert record["lower"] is None

    def test_out_of_validity_exits_2(self, capsys):
        code, _ = invoke(capsys, "bounds", "--N", "10", "--p", "0.4", "--k", "9")
        assert code == 2

    @pytest.mark.parametrize("k", ["9", "-1"])
    def test_upper_bound_checks_k_first(self, capsys, k):
        code = main(["bounds", "--N", "10", "--p", "0.4", "--k", k])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", f"error: bound requires 0 <= k <= N*p = 4, got k = {k}\n")

    @pytest.mark.parametrize("argv", [["bounds", "--p", "0.5", "--k", "3"],
                                      ["kq", "--f", "0.5", "--Q", "0"]],
                             ids=["bounds", "kq"])
    def test_steps_beyond_the_float_range_exit_2(self, capsys, argv):
        code = main([*argv, "--N", "1" + "0" * 400])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "error: steps is beyond the float range\n")

    @pytest.mark.filterwarnings("error")
    def test_tail_below_the_float_range_exits_2(self, capsys):
        # every pmf term underflows: the tail is 0 and its rate infinite
        code = main(["bounds", "--N", "1" + "0" * 308, "--p", "0.99999",
                     "--k", "0"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "error: rate_per_step is not finite: inf\n")

    def test_window_past_the_cap_exits_2_naming_n(self, capsys):
        code = main(["bounds", "--N", "1" + "0" * 15, "--p", "0.5", "--k", "4" + "9" * 14])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert re.fullmatch(r"error: N = 1000000000000000 steps: [^\n]*cap[^\n]*\n",
                            captured.err)

    def test_largest_float_step_count(self, capsys):
        n = int(sys.float_info.max)
        code, out = invoke(capsys, "bounds", "--N", str(n), "--p", "0.5", "--k", "3")
        assert (code, out) == (0, (
            f'{{"N": {n}, "p": 0.5, "k": 3, "exact_cdf": 0, "upper": 0, '
            '"lower": 0, "kl": 0.693147180559945, '
            '"rate_per_step": 0.693147180559945}\n'))


class TestKqAndSensitivity:
    def test_kq(self, capsys):
        code, out = invoke(capsys, "kq", "--f", "0.5", "--N", "10", "--Q", "0")
        assert code == 0
        assert json.loads(out)["k_q"] == pytest.approx(6.309, abs=1e-3)

    def test_sensitivity_bias(self, capsys):
        code, out = invoke(
            capsys, "sensitivity", "--mode", "bias", "--N", "10", "--k", "4",
            "--p", "0.6", "--eps", "0.01",
        )
        assert code == 0
        assert json.loads(out)["first_order"] == pytest.approx(0.008333, abs=1e-6)

    def test_sensitivity_fraction_shows_both_coefficients(self, capsys):
        code, out = invoke(
            capsys, "sensitivity", "--mode", "fraction", "--p", "0.6",
            "--eps", "0.05",
        )
        assert code == 0
        record = json.loads(out)
        assert record["quadratic_coefficient"] == pytest.approx(
            -1.0 / (8.0 * 0.24), abs=1e-9
        )
        assert record["alt_quadratic_coefficient"] == pytest.approx(
            -1.0 / (4.0 * 0.24), abs=1e-9
        )
        assert record["alt_quadratic_coefficient"] == pytest.approx(
            2.0 * record["quadratic_coefficient"], abs=1e-12
        )

    # 2 - 2p rounds to 1.5 at this p, so 1 - f - eps in floats is 0 and
    # 2^-52 where it is 2^-53 and 3 * 2^-53; the values are 400-digit
    # mpmath's, rounded to 15 digits
    @pytest.mark.parametrize("eps, exact", [
        ("1.4999999999999996", -27.510125668059),
        ("1.4999999999999993", -26.6861664515579),
    ])
    def test_sensitivity_fraction_next_to_a_full_stake(self, capsys, eps, exact):
        code, out = invoke(
            capsys, "sensitivity", "--mode", "fraction",
            "--p", "0.25000000000000017", "--eps", eps,
        )
        assert code == 0
        assert strict_json_lines(out)[0]["exact"] == exact

    def test_sensitivity_bias_at_a_subnormal_price(self, capsys):
        code, out = invoke(
            capsys, "sensitivity", "--mode", "bias", "--N", "10", "--k", "3",
            "--p", "2.2250738585e-313", "--eps", "0",
        )
        assert code == 0
        assert strict_json_lines(out)[0]["exact"] == 0

    def test_bias_mode_needs_k(self, capsys):
        code, _ = invoke(
            capsys, "sensitivity", "--mode", "bias", "--p", "0.6", "--eps", "0.01"
        )
        assert code == 2


class TestSimulate:
    def test_golden_record(self, capsys):
        code, out = invoke(
            capsys, "simulate", "--N", "10", "--p", "0.6", "--f", "0.2",
            "--Q", "0", "--paths", "2000", "--seed", "42",
        )
        assert code == 0
        assert out == GOLDEN_SIMULATE

    def test_workers_do_not_change_bytes(self, capsys):
        args = ["simulate", "--N", "10", "--p", "0.6", "--f", "0.2",
                "--Q", "0", "--paths", "2000", "--seed", "42"]
        _, base = invoke(capsys, *args)
        _, threaded = invoke(capsys, *args, "--workers", "4")
        assert threaded == base

    def test_simulates_once(self, capsys, monkeypatch):
        from kellymarket import montecarlo

        calls = []
        real_run = montecarlo.run

        def counted_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "run", counted_run)
        code, out = invoke(
            capsys, "simulate", "--N", "10", "--p", "0.6", "--f", "0.2",
            "--Q", "0", "--paths", "2000", "--seed", "42",
        )
        assert (code, out) == (0, GOLDEN_SIMULATE)
        assert len(calls) == 1

    def test_paths_beyond_one_spawn_key_word_exit_2(self, capsys):
        code = main(["simulate", "--N", "10", "--p", "0.6", "--f", "0.2",
                     "--paths", str(2 ** 32), "--seed", "1"])
        assert code == 2
        assert "paths" in capsys.readouterr().err

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--N", "10", "--p", "0.6", "--f", "0.2",
                  "--paths", "100"])
        assert err.value.code == 2


def q_option(value, spaced):
    """``--Q`` as one token (``--Q=value``) or two (``--Q value``)."""
    return ("--Q", value) if spaced else (f"--Q={value}",)


def run_cli_exit(*argv):
    """:func:`run_cli`, but an argparse refusal is returned, with its exit
    code and message, instead of raised.  (:func:`run_cli` lets it raise,
    so that the property tests cannot take a refusal such as "--Q:
    expected one argument" for a rejection that names Q.)"""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCommandLineRefusals:
    """What argparse refuses prints one ``error:`` line, like every other
    failure, and no usage line."""

    @pytest.mark.parametrize("argv, message", [
        (("bounds", "--N", "x", "--p", "0.5", "--k", "3"),
         "argument --N: invalid int value: 'x'"),
        (("bounds", "--p", "0.5", "--k", "3"),
         "the following arguments are required: --N"),
        (("--csv", "--json", "fraction", "--q", "0.6", "--p", "0.5"),
         "argument --json: not allowed with argument --csv"),
    ])
    def test_one_error_line_and_exit_2(self, argv, message):
        assert run_cli_exit(*argv) == (2, "", f"error: {message}\n")

    def test_help_still_exits_0(self):
        code, out, err = run_cli_exit("bounds", "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: kellymarket bounds")


class TestNegativeValues:
    """Every numeric option takes a value in exponent notation, or -inf,
    after a space as well as after '='."""

    COMMANDS = {
        "fraction": ("--q", "0.6", "--p", "0.5", "--alpha", "1"),
        "bounds": ("--N", "100", "--p", "0.6", "--k", "40"),
        "kq": ("--f", "0.5", "--N", "10", "--Q", "0"),
        "sensitivity": ("--mode", "bias", "--N", "100", "--k", "40",
                        "--p", "0.6", "--eps", "0.01"),
        "simulate": ("--N", "10", "--p", "0.6", "--f", "0.2", "--Q", "0",
                     "--paths", "50", "--seed", "3", "--workers", "1"),
    }
    CASES = [(command, option)
             for command, argv in COMMANDS.items()
             for option in argv[::2] if option != "--mode"]

    @pytest.mark.parametrize("value", ["-1e-3", "-inf"])
    @pytest.mark.parametrize("command, option", CASES)
    def test_space_form_reads_like_equals_form(self, command, option, value):
        argv = list(self.COMMANDS[command])
        at = argv.index(option)
        spaced = run_cli_exit(command, *argv[:at], option, value,
                              *argv[at + 2:])
        joined = run_cli_exit(command, *argv[:at], f"{option}={value}",
                              *argv[at + 2:])
        assert spaced == joined
        assert "expected one argument" not in spaced[2]

    def test_clear_tolerance(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("capital,belief\n1,0.3\n2,0.6\n", encoding="utf-8")
        for value in ("-1e-9", "1e-9"):
            assert run_cli_exit("clear", str(path), "--tol", value) == \
                run_cli_exit("clear", str(path), f"--tol={value}")

    def test_kq_in_exponent_notation(self):
        code, out, _ = run_cli("kq", "--f", "0.5", "--N", "10", "--Q", "-1e-3")
        assert code == 0
        assert strict_json_lines(out)[0]["Q"] == -1e-3


class TestNonFiniteQ:
    Q_COMMANDS = pytest.mark.parametrize("argv", [
        ("kq", "--f", "0.5", "--N", "10"),
        ("simulate", "--N", "10", "--p", "0.6", "--f", "0.2", "--paths", "50",
         "--seed", "3"),
    ], ids=["kq", "simulate"])

    @Q_COMMANDS
    @pytest.mark.parametrize("q", ["inf", "-inf", "nan"])
    def test_exit_2_naming_q(self, capsys, argv, q):
        code = main([*argv, f"--Q={q}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert re.search(r"\bQ\b", captured.err)

    @Q_COMMANDS
    @pytest.mark.parametrize("q", ["inf", "-inf", "nan"])
    def test_exit_2_naming_q_after_a_space(self, capsys, argv, q):
        code = main([*argv, "--Q", q])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert re.search(r"\bQ\b.*finite", captured.err)

    @given(f=st.floats(1e-9, 1.0 - 1e-9), n=st.integers(1, 10 ** 6),
           q=st.floats(allow_nan=False, allow_infinity=False),
           spaced=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_kq_prints_json_at_every_finite_q(self, f, n, q, spaced):
        code, out, err = run_cli("kq", "--f", repr(f), "--N", str(n),
                                 *q_option(repr(q), spaced))
        if code == 0:
            (record,) = strict_json_lines(out)
            assert math.isfinite(record["k_q"])
        else:
            # only a target so large that k_q overflows is refused
            assert code == 2 and out == "" and re.search(r"\bQ\b", err)

    @given(n=st.integers(1, 80), p=st.floats(0.01, 0.99),
           f=st.floats(0.0, 0.99), q=st.floats(-1e3, 1e3),
           seed=st.integers(0, 2 ** 64 - 1), spaced=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_simulate_prints_json_at_every_finite_q(self, n, p, f, q, seed,
                                                    spaced):
        code, out, err = run_cli("simulate", "--N", str(n), "--p", repr(p),
                                 "--f", repr(f), *q_option(repr(q), spaced),
                                 "--paths", "40", "--seed", str(seed))
        if code == 0:
            (record,) = strict_json_lines(out)
            assert record["Q"] == pytest.approx(q, rel=1e-14, abs=0.0)
        else:
            # a tiny f makes k_q overflow, which is refused as for kq
            assert code == 2 and out == "" and re.search(r"\bQ\b", err)


class TestSweep:
    def test_fraction_sweep_monotone(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "command": "fraction", "variable": "q",
            "range": [0.55, 0.95, 0.05], "fixed": {"p": 0.5},
        }))
        code, out = invoke(capsys, "sweep", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,p,alpha,fraction,utility_at_fraction"
        assert len(lines) == 10
        fracs = [float(line.split(",")[3]) for line in lines[1:]]
        assert fracs == sorted(fracs)

    def test_growth_sweep_peaks_at_kelly(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "command": "growth", "variable": "f",
            "range": [0.05, 0.35, 0.05], "fixed": {"p": 0.6},
        }))
        code, out = invoke(capsys, "sweep", str(path))
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        best = max(rows, key=lambda r: float(r[2]))
        assert float(best[1]) == pytest.approx(0.2)

    def test_alpha_sweep_decreasing_at_high_price(self):
        records = sweep_records({
            "command": "fraction", "variable": "alpha",
            "range": [0.25, 2.0, 1.75], "fixed": {"q": 0.9, "p": 0.85},
        })
        assert records[0]["fraction"] > records[-1]["fraction"]

    def test_bad_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "command": "fraction", "variable": "q",
            "range": [0.9, 1.5, 0.1], "fixed": {"p": 0.5},
        }))
        code, _ = invoke(capsys, "sweep", str(path))
        assert code == 2


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        args = ["fraction", "--q", "0.123456789", "--p", "0.6"]
        _, first = invoke(capsys, *args)
        _, second = invoke(capsys, *args)
        assert first == second


def write_sweep(path, spec):
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec),
                    encoding="utf-8")
    return str(path)


class TestSweepFileChecks:
    @pytest.mark.parametrize("text, detail", [
        ('{"command": "growth", "variable": "f", "range": [0, Infinity, 0.1],'
         ' "fixed": {"p": 0.6}}', r"bad range .*inf"),
        ('{"command": "growth", "variable": "f", "range": [0, NaN, 0.1],'
         ' "fixed": {"p": 0.6}}', r"bad range .*nan"),
        ('{"command": "growth", "variable": "f", "range": [0, 1e300, 1e-300],'
         ' "fixed": {"p": 0.6}}', r"range .* spans more than 10000 points"),
        ('{"command": "growth", "variable": "f", "range": [0, 1e9, 1],'
         ' "fixed": {"p": 0.6}}', r"range .* spans more than 10000 points"),
        ('{"command": "growth", "variable": "f", "range": [0, 1],'
         ' "fixed": {"p": 0.6}}', r"range must be \[start, stop, step\]"),
        ('{"command": "growth", "variable": "f", "range": "0:1:0.1",'
         ' "fixed": {"p": 0.6}}', r"range must be \[start, stop, step\]"),
        ('{"variable": "f", "range": [0, 0.5, 0.1], "fixed": {"p": 0.6}}',
         r"no 'command' field"),
        ('{"command": "growth", "range": [0, 0.5, 0.1]}', r"no 'variable' field"),
        ('{"command": "growth", "variable": "f"}', r"no 'range' field"),
        ('[{"command": "growth"}]', r"expected a JSON object, got list"),
        ('{"command": "growth", "variable": "x", "range": [0, 0.5, 0.1],'
         ' "fixed": {"p": 0.6}}', r"variable 'x' is not a parameter of growth"),
        ('{"command": "growth", "variable": "f", "range": [0, 0.5, 0.1],'
         ' "fixed": {"p": 0.6, "z": 1}}', r"fixed 'z' is not a parameter"),
        ('{"command": "growth", "variable": "f", "range": [0, 0.5, 0.1],'
         ' "fixed": [["p", 0.6]]}', r"fixed must be a JSON object"),
        ('{"command": ["growth"], "variable": "f", "range": [0, 0.5, 0.1]}',
         r"unknown sweep command \['growth'\]"),
        ('{"command": "simulate", "variable": "f", "range": [0, 0.5, 0.1]}',
         r"unknown sweep command 'simulate'"),
        ('{"command": ', r"Expecting value"),
    ])
    def test_exit_2_naming_the_file_and_field(self, tmp_path, capsys, text,
                                              detail):
        path = write_sweep(tmp_path / "sweep.json", text)
        code = main(["sweep", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: {path}: ")
        assert re.search(detail, captured.err)

    # JSON reads 1e400 as inf, and int() of inf or NaN names no parameter
    @pytest.mark.parametrize("command, variable, fixed, message", [
        ("bounds", "p", '{"N": 1e400, "k": 2}',
         "steps must be a positive integer, got inf"),
        ("bounds", "p", '{"N": NaN, "k": 2}',
         "steps must be a positive integer, got nan"),
        ("bounds", "p", '{"N": 10, "k": 1e400}', "k must be an integer, got inf"),
        ("kq", "f", '{"N": 1e400, "Q": 0}',
         "steps must be a positive integer, got inf"),
        ("kq", "f", '{"N": -1e400, "Q": 0}',
         "steps must be a positive integer, got -inf"),
        ("sensitivity", "p", '{"mode": "bias", "N": 10, "k": NaN, "eps": 0.01}',
         "k must be an integer in [0, 10], got nan"),
        ("bounds", "p", '{"N": 10, "k": NaN}', "k must be an integer, got nan"),
    ])
    def test_non_finite_integer_exits_2_naming_it(self, tmp_path, capsys, command,
                                                  variable, fixed, message):
        path = write_sweep(tmp_path / "sweep.json", (
            f'{{"command": "{command}", "variable": "{variable}", '
            f'"range": [0.5, 0.6, 0.1], "fixed": {fixed}}}'))
        code = main(["sweep", path])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    # int() and float() name no parameter for a string, None or a list,
    # float() of a JSON integer past the float range raises OverflowError,
    # and int() of one past Python's digit limit raises ValueError
    @pytest.mark.parametrize("command, variable, fixed, message", [
        ("bounds", "p", '{"N": "ten", "k": 2}',
         "steps must be a positive integer, got 'ten'"),
        ("bounds", "p", '{"N": 10, "k": "2"}', "k must be an integer, got '2'"),
        ("bounds", "p", '{"N": null, "k": 2}',
         "steps must be a positive integer, got None"),
        ("fraction", "q", '{"p": null}', "p is not a number: None"),
        ("fraction", "q", '{"p": "abc"}', "p is not a number: 'abc'"),
        ("fraction", "q", '{"p": 0.5, "alpha": "x"}', "alpha is not a number: 'x'"),
        ("sensitivity", "p", '{"mode": "fraction", "eps": [0.1]}',
         "eps is not a number: [0.1]"),
        ("kq", "Q", '{"f": "x", "N": 10}', "f is not a number: 'x'"),
        ("fraction", "q", '{"p": 1' + "0" * 400 + "}", "p is beyond the float range"),
        ("kq", "f", '{"N": 10, "Q": 1' + "0" * 400 + "}",
         "Q (log-wealth target) is beyond the float range"),
        ("bounds", "p", '{"N": 1' + "0" * 400 + ', "k": 2}',
         "steps is beyond the float range"),
        ("fraction", "q", '{"p": 1' + "0" * 5000 + "}", "p must be finite, got inf"),
        ("bounds", "p", '{"N": 1' + "0" * 5000 + ', "k": 2}',
         "steps must be a positive integer, got inf"),
        ("bounds", "p", '{"N": 10, "k": -1' + "0" * 5000 + "}",
         "k must be an integer, got -inf"),
    ], ids=["N-string", "k-string", "N-null", "p-null", "p-string",
            "alpha-string", "eps-list", "f-string", "p-beyond-float",
            "Q-beyond-float", "N-beyond-float", "p-past-digit-limit",
            "N-past-digit-limit", "k-past-digit-limit"])
    def test_any_value_exits_2_naming_it(self, tmp_path, capsys, command,
                                         variable, fixed, message):
        path = write_sweep(tmp_path / "sweep.json", (
            f'{{"command": "{command}", "variable": "{variable}", '
            f'"range": [0.5, 0.5, 0.1], "fixed": {fixed}}}'))
        code = main(["sweep", path])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("position", range(3))
    def test_range_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys,
                                                        position):
        bounds = ["0", "1", "1"]
        bounds[position] = "1" + "0" * 400
        path = write_sweep(tmp_path / "sweep.json", (
            '{"command": "fraction", "variable": "q", '
            f'"range": [{", ".join(bounds)}], "fixed": {{"p": 0.5}}}}'))
        code = main(["sweep", path])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", f"error: {path}: range holds a number beyond the float range\n")

    def test_grid_cap(self, tmp_path, capsys):
        spec = {"command": "kq", "variable": "Q", "fixed": {"f": 0.5, "N": 10},
                "range": [0, SWEEP_MAX_POINTS - 1, 1]}
        code = main(["sweep", write_sweep(tmp_path / "full.json", spec)])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == SWEEP_MAX_POINTS + 1
        spec["range"] = [0, SWEEP_MAX_POINTS, 1]
        code = main(["sweep", write_sweep(tmp_path / "over.json", spec)])
        assert code == 2
        assert "spans more than" in capsys.readouterr().err

    def test_errors_at_a_grid_point_keep_their_message(self, tmp_path, capsys):
        path = write_sweep(tmp_path / "sweep.json", {
            "command": "growth", "variable": "p", "range": [0.5, 1.5, 0.25],
            "fixed": {"f": 0.2}})
        assert main(["sweep", path]) == 2
        assert capsys.readouterr().err == \
            "error: p must lie in [0, 1], got 1.25\n"


class TestOutputPolicy:
    def test_non_finite_value_exits_2_naming_the_field(self, capsys):
        # the first-order term, -0.3 * 0.5 / 1e-320, is beyond the float range
        for fmt in ([], ["--csv"]):
            code = main([*fmt, "sensitivity", "--mode", "bias", "--N", "10",
                         "--k", "3", "--p", "1e-320", "--eps", "0.5"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err == "error: first_order is not finite: -inf\n"

    def test_strings_stay_quoted(self, tmp_path, capsys):
        path = write_sweep(tmp_path / "sweep.json", {
            "command": "fraction", "variable": "q", "range": [0.6, 0.7, 0.1],
            "fixed": {"p": "0.5"}})
        assert main(["--json", "sweep", path]) == 0
        records = strict_json_lines(capsys.readouterr().out)
        assert [r["p"] for r in records] == ["0.5", "0.5"]

    def test_power_payout_beyond_the_float_range(self, capsys):
        code, out = invoke(capsys, "fraction", "--q", "0.9", "--p", "0.01",
                           "--alpha", "200")
        assert code == 0
        (record,) = strict_json_lines(out)
        assert record["fraction"] == 0.9
        assert record["utility_at_fraction"] == pytest.approx(826.796490050835)
        code, out = invoke(capsys, "fraction", "--q", "0.9", "--p", "0.99",
                           "--alpha", "400")
        assert code == 0
        assert strict_json_lines(out)[0]["fraction"] == 0

    def test_alpha_beyond_the_log_range_exits_2_naming_alpha(self, capsys):
        code = main(["fraction", "--q", "0.9", "--p", "0.01", "--alpha", "1e308"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert re.search(r"^error: alpha\b", captured.err)

    def test_clear_default_tolerance_on_a_large_market(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        rows = "".join(f"{1e6 * (1.0 + c)!r},{q!r}\n" for c, q in zip(
            rng.pareto(1.5, 200).tolist(), rng.uniform(0, 1, 200).tolist()))
        path = tmp_path / "pop.csv"
        path.write_text("capital,belief\n" + rows, encoding="utf-8")
        code, out = invoke(capsys, "clear", str(path))
        assert code == 0
        assert len(strict_json_lines(out)[0]["exposures"]) == 200
        assert main(["clear", str(path), "--tol", "1e-9"]) == 2


# -- every subcommand, hypothesis-drawn: valid output or an error line ------

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
    [0.0, 1.0, 5e-324, 1e-320, 1.0 - 2.0 ** -53]), ANY_FLOAT)
FORMAT = st.sampled_from([(), ("--json",), ("--csv",)])


def check_outcome(argv, fmt):
    """Run the CLI; it must exit 0 with strict JSON lines (or, for --csv and
    sweeps without --json, a rectangular CSV of finite numbers), or exit 2
    or 3 with an ``error:`` line and nothing on stdout."""
    code, out, err = run_cli(*fmt, *argv)
    if code != 0:
        assert code in (2, 3) and out == ""
        assert re.fullmatch(r"error: .+\n", err)
        return
    assert err == ""
    if "--csv" in fmt or (argv[0] == "sweep" and "--json" not in fmt):
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2 and len({len(row) for row in rows}) == 1
        for cell in (cell for row in rows[1:] for cell in row):
            for part in cell.split(";"):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(part))
    else:
        assert all(isinstance(r, dict) for r in strict_json_lines(out))


def opt(name, value):
    return (f"--{name}", repr(value) if isinstance(value, float) else str(value))


class TestEveryCommandPrintsValidOutput:
    @given(q=UNIT, p=UNIT, alpha=st.one_of(
        st.none(), st.floats(0.0, 1e3), st.floats(0.0, 1e308), ANY_FLOAT),
        fmt=FORMAT)
    @settings(max_examples=300, deadline=None)
    def test_fraction(self, q, p, alpha, fmt):
        argv = ["fraction", *opt("q", q), *opt("p", p)]
        if alpha is not None:
            argv += opt("alpha", alpha)
        check_outcome(argv, fmt)

    @given(n=st.integers(1, 3000), p=UNIT, k=st.integers(-2, 3100), fmt=FORMAT)
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, n, p, k, fmt):
        check_outcome(["bounds", *opt("N", n), *opt("p", p), *opt("k", k)], fmt)

    @given(mode=st.sampled_from(["bias", "fraction"]), n=st.integers(1, 500),
           k=st.integers(-1, 501), p=UNIT, eps=ANY_FLOAT, fmt=FORMAT)
    @settings(max_examples=150, deadline=None)
    def test_sensitivity(self, mode, n, k, p, eps, fmt):
        argv = ["sensitivity", "--mode", mode, *opt("p", p), *opt("eps", eps)]
        if mode == "bias":
            argv += [*opt("N", n), *opt("k", k)]
        check_outcome(argv, fmt)

    @given(capitals=st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=40),
           data=st.data(), fmt=FORMAT)
    @settings(max_examples=60, deadline=None)
    def test_clear(self, tmp_path_factory, capitals, data, fmt):
        beliefs = data.draw(st.lists(
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
            min_size=len(capitals), max_size=len(capitals)))
        path = tmp_path_factory.mktemp("clear") / "pop.csv"
        path.write_text("capital,belief\n" + "".join(
            f"{c!r},{q!r}\n" for c, q in zip(capitals, beliefs)))
        check_outcome(["clear", str(path)], fmt)

    SWEEP_FIXED = {
        "fraction": {"q": 0.7, "p": 0.5, "alpha": 1.0},
        "bounds": {"N": 50, "p": 0.6, "k": 20},
        "kq": {"f": 0.3, "N": 20, "Q": 0.5},
        "growth": {"p": 0.6, "f": 0.2},
        "sensitivity": {"mode": "bias", "N": 20, "k": 5, "p": 0.6, "eps": 0.01},
    }

    @given(command=st.sampled_from(sorted(SWEEP_FIXED)), data=st.data(),
           start=st.floats(-2.0, 60.0), step=st.floats(1e-3, 10.0),
           points=st.integers(0, 40),
           odd_range=st.sampled_from([None, [0, math.inf, 0.1], [0, math.nan, 1],
                                      [0, 1e300, 1e-300], [0, 1e9, 1], [1, 0, 1],
                                      [0, 1, 0], [0, 1, -1], [0, 1]]),
           fmt=FORMAT)
    @settings(max_examples=200, deadline=None)
    def test_sweep(self, tmp_path_factory, command, data, start, step, points,
                   odd_range, fmt):
        fixed = dict(self.SWEEP_FIXED[command])
        if command == "sensitivity":
            fixed["mode"] = data.draw(st.sampled_from(["bias", "fraction"]))
        variable = data.draw(st.sampled_from([*fixed, "x"]))
        if data.draw(st.booleans()):
            fixed.pop(data.draw(st.sampled_from(sorted(fixed))))
        bounds = odd_range or [start, start + points * step, step]
        spec = {"command": command, "variable": variable, "range": bounds,
                "fixed": fixed}
        path = tmp_path_factory.mktemp("sweep") / "sweep.json"
        path.write_text(json.dumps(spec))  # inf, nan as Infinity, NaN
        check_outcome(["sweep", str(path)], fmt)

    @given(n=st.integers(1, 60), p=UNIT, f=st.floats(0.0, 0.999),
           q=st.one_of(st.none(), ANY_FLOAT), paths=st.integers(1, 40),
           seed=st.integers(0, 2 ** 64 - 1), fmt=FORMAT)
    @settings(max_examples=40, deadline=None)
    def test_simulate(self, n, p, f, q, paths, seed, fmt):
        argv = ["simulate", *opt("N", n), *opt("p", p), *opt("f", f),
                *opt("paths", paths), *opt("seed", seed)]
        if q is not None:
            argv += opt("Q", q)
        check_outcome(argv, fmt)

    @given(f=st.floats(0.0, 1.0), n=st.integers(1, 10 ** 6), q=ANY_FLOAT,
           fmt=FORMAT)
    @settings(max_examples=100, deadline=None)
    def test_kq(self, f, n, q, fmt):
        check_outcome(["kq", *opt("f", f), *opt("N", n), *opt("Q", q)], fmt)
