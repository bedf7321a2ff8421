import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellymarket.cli import main, sweep_records

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
        ("pop.csv", "capital,belief\n", "at least one investor"),
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
