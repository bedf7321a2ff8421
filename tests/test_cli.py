import argparse
import contextlib
import csv
import inspect
import io
import json
import math
import pathlib
import re
import shlex
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellymarket.cli import (COMMANDS, SWEEP_MAX_POINTS, _record_sweep,
                             build_parser, main)
from kellymarket.montecarlo import _MAX_STEPS

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
        pytest.param("pop.csv", b"capital,belief\n1,0.5\n\xff,0.3\n",
                     ": 'utf-8' codec can't decode byte 0xff in position 21",
                     id="not-utf-8"),
        pytest.param("pop.csv", "capital,belief\n1,0.5\n"
                     + "1" * (csv.field_size_limit() + 1) + ",0.3\n",
                     ": row 2: field larger than field limit",
                     id="csv-field-past-the-size-limit"),
        pytest.param("pop.csv", "capital,belief" + "x" * csv.field_size_limit()
                     + "\n1,0.5\n", ": header: field larger than field limit",
                     id="csv-header-past-the-size-limit"),
        # the csv module refuses a NUL before Python 3.11, and reads it after
        pytest.param("pop.csv", "capital,belief\n1,0.5\n2\0,0.3\n",
                     ": row 2: line contains NUL\n" if sys.version_info < (3, 11)
                     else ": row 2: capital is not a number: '2\\x00'\n",
                     id="csv-nul"),
        pytest.param("pop.json", "[" * 100_000,
                     ": invalid JSON: maximum recursion depth exceeded",
                     id="json-nested-past-the-recursion-limit"),
        pytest.param("pop.json", '[{"capital": true, "belief": 0.5}]',
                     ": row 1: capital is not a number: True\n", id="json-boolean"),
    ])
    def test_bad_contents_exit_2_naming_the_file(self, tmp_path, capsys, name,
                                                 text, detail):
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
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

    @pytest.mark.parametrize("steps", [_MAX_STEPS + 1, 10 ** 9])
    def test_walk_over_the_step_cap_exits_2_naming_n(self, capsys, steps):
        # refused before a flip is drawn, so no walk of this size is held
        code = main(["simulate", "--N", str(steps), "--p", "0.5", "--f", "0.1",
                     "--paths", "1", "--seed", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert re.fullmatch(rf"error: N = {steps} steps is over the cap [^\n]*\n",
                            captured.err)

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


def prefix_spellings():
    """``(command, option, prefix)`` for each proper prefix of a long option,
    of the top-level parser or a subcommand's, that starts no other option:
    the abbreviations argparse reads unless ``allow_abbrev`` is off."""
    parser = build_parser()
    subparsers, = (action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
    for command, each in [((), parser), *(((name,), sub) for name, sub
                                          in subparsers.choices.items())]:
        options = [option for action in each._actions
                   for option in action.option_strings if option.startswith("--")]
        for option in options:
            for end in range(3, len(option)):
                if sum(o.startswith(option[:end]) for o in options) == 1:
                    yield command, option, option[:end]


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

    def test_required_options_follow_the_builders_signatures(self):
        # an option is required exactly where its builder has no default
        subparsers, = (action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
        assert set(subparsers.choices) == {
            name for name, command in COMMANDS.items() if command.help}
        for name, parser in subparsers.choices.items():
            params = inspect.signature(COMMANDS[name].build).parameters
            required = {action.dest: action.required
                        for action in parser._actions if action.dest in params}
            assert required == {
                option: params[option].default is inspect.Parameter.empty
                for option in params}, name

    # a command line that runs, for each parser, naming each of its options
    # but --help, --json and --csv, which go right after the command
    FULL = {
        (): ("fraction", "--q", "0.7", "--p", "0.6"),
        ("fraction",): ("--q", "0.9", "--p", "0.8", "--alpha", "0.5"),
        ("clear",): ("--tol", "1e-6", "population.csv"),
        ("bounds",): ("--N", "10", "--p", "0.6", "--k", "4"),
        ("kq",): ("--f", "0.5", "--N", "10", "--Q", "0"),
        ("sensitivity",): ("--mode", "bias", "--N", "10", "--k", "4", "--p", "0.6",
                           "--eps", "0.01"),
        ("simulate",): ("--N", "10", "--p", "0.6", "--f", "0.2", "--Q", "0",
                        "--paths", "100", "--seed", "1", "--workers", "1"),
        ("sweep",): ("sweep.json",),
    }
    PREFIXES = list(prefix_spellings())

    def test_prefix_spellings_span_every_parser(self):
        # --help, --json and --csv at the top, --help in each subcommand, and
        # --alpha, --tol, --mode, --eps, --paths, --seed, --workers
        assert len(self.PREFIXES) == 52
        assert {command for command, _, _ in self.PREFIXES} == set(self.FULL)

    @pytest.mark.parametrize(
        "command, option, prefix", PREFIXES,
        ids=[" ".join(["kellymarket", *c, p]) for c, _, p in PREFIXES])
    def test_an_option_is_read_by_its_full_name_only(self, tmp_path, monkeypatch,
                                                     command, option, prefix):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "population.csv").write_text("capital,belief\n3,0.6\n1,0\n")
        write_sweep(tmp_path / "sweep.json", readme_block("json"))
        full = [*command, *self.FULL[command]]
        assert run_cli_exit(*full)[0] == 0
        argv = [prefix if token == option else token for token in full] \
            if option in full else [*command, prefix, *self.FULL[command]]
        code, out, err = run_cli_exit(*argv)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: [^\n]+\n", err)
        # an unrecognized prefix, or the required option it left out
        assert {prefix, option} & set(err.replace(",", " ").split())

    USAGE = {
        (): "[-h] [--json | --csv] "
            "{fraction,clear,bounds,kq,sensitivity,simulate,sweep} ...",
        ("fraction",): "[-h] --q Q --p P [--alpha ALPHA]",
        ("clear",): "[-h] [--tol TOL] population_file",
        ("bounds",): "[-h] --N N --p P --k K",
        ("kq",): "[-h] --f F --N N --Q Q",
        ("sensitivity",):
            "[-h] --mode {bias,fraction} [--N N] [--k K] --p P --eps EPS",
        ("simulate",): "[-h] --N N --p P --f F [--Q Q] --paths PATHS "
                       "--seed SEED [--workers WORKERS]",
        ("sweep",): "[-h] sweep_file",
    }

    def test_help_still_exits_0(self):
        # usage lines wrap to the terminal width, so whitespace is collapsed
        for command, usage in self.USAGE.items():
            code, out, err = run_cli_exit(*command, "--help")
            assert (code, err) == (0, "")
            printed = " ".join(out.split("\n\n")[0].split())
            assert printed == " ".join(
                ["usage: kellymarket", *command, usage]), command


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

    @pytest.mark.parametrize("spaced", [True, False], ids=["spaced", "joined"])
    def test_digit_separator_is_refused(self, spaced):
        # argparse reads "-1_0" after a space as an option, not as a value
        code, out, err = run_cli_exit("kq", "--f", "0.5", "--N", "10",
                                      *q_option("-1_0", spaced))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: argument --Q: [^\n]+\n", err)


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")
FULLWIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14"
                                        "\uff15\uff16\uff17\uff18\uff19")


def other_spellings(text):
    """Spellings of the number ``text`` (which ends in two digits) that
    ``int()`` or ``float()`` read as ``text``, but that are no number here:
    a digit separator, Arabic-Indic and fullwidth digits, and a space, tab
    or newline before or after."""
    return [text[:-1] + "_" + text[-1], text.translate(ARABIC_INDIC),
            text.translate(FULLWIDTH),
            *(pad + text for pad in " \t\n"), *(text + pad for pad in " \t\n")]


# a command line that runs, each numeric value ending in two digits
SPELLING_RUNS = {
    "fraction": ("--q", "0.75", "--p", "0.65", "--alpha", "0.55"),
    "clear": ("--tol", "0.01", "population.csv"),
    "bounds": ("--N", "20", "--p", "0.65", "--k", "10"),
    "kq": ("--f", "0.55", "--N", "10", "--Q", "0.25"),
    "sensitivity": ("--mode", "bias", "--N", "20", "--k", "10",
                    "--p", "0.65", "--eps", "0.01"),
    "simulate": ("--N", "10", "--p", "0.65", "--f", "0.25", "--Q", "0.15",
                 "--paths", "10", "--seed", "11", "--workers", "11"),
}
# a sweep over each target's first option, fixing the rest
SPELLING_SWEEPS = {
    "fraction": {"q": 0.75, "p": 0.65, "alpha": 0.55},
    "bounds": {"p": 0.65, "N": 20, "k": 10},
    "kq": {"f": 0.55, "N": 10, "Q": 0.25},
    "growth": {"p": 0.65, "f": 0.25},
    "sensitivity": {"p": 0.65, "eps": 0.01, "mode": "bias", "N": 20, "k": 10},
}


class TestOneSpellingPerNumber:
    """A number that a command line or a file gives as text is ASCII, with
    no ``_`` and no surrounding whitespace; every other spelling that
    Python reads exits 2 with the message a value that is no number gets."""

    OPTIONS = [(name, option, kind) for name, command in COMMANDS.items()
               if command.help
               for option, kind in command.build.__annotations__.items()
               if kind in (int, float)]
    SPELLINGS = [(name, option, kind, spelling)
                 for name, option, kind in OPTIONS
                 for spelling in other_spellings(SPELLING_RUNS[name][
                     SPELLING_RUNS[name].index(f"--{option}") + 1])]

    @pytest.fixture
    def population(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "population.csv").write_text("capital,belief\n3,0.6\n1,0\n")

    def test_every_numeric_option_is_tried(self, population):
        assert len(self.OPTIONS) == 21
        for name, argv in SPELLING_RUNS.items():
            code, _, err = run_cli_exit(name, *argv)
            assert (code, err) == (0, ""), name

    @pytest.mark.parametrize(
        "name, option, kind, spelling", SPELLINGS,
        ids=[f"{n}--{o}={s!r}" for n, o, _, s in SPELLINGS])
    def test_option_value(self, population, name, option, kind, spelling):
        argv = list(SPELLING_RUNS[name])
        argv[argv.index(f"--{option}") + 1] = spelling
        assert run_cli_exit(name, *argv) == (2, "", (
            f"error: argument --{option}: invalid {kind.__name__} value: "
            f"{spelling!r}\n"))

    FIXED = [(name, option, spelling)
             for name, values in SPELLING_SWEEPS.items()
             for option, kind in COMMANDS[name].build.__annotations__.items()
             if kind is float and option != next(iter(values))
             for spelling in other_spellings(repr(values[option]))]

    def sweep(self, tmp_path, name, bounds=None, **fixed):
        variable, *rest = values = SPELLING_SWEEPS[name]
        return write_sweep(tmp_path / "sweep.json", {
            "command": name, "variable": variable,
            "range": bounds or [values[variable]] * 2 + [0.01],
            "fixed": {**{key: values[key] for key in rest}, **fixed}})

    def test_every_sweep_runs(self, tmp_path):
        for name in SPELLING_SWEEPS:
            assert run_cli_exit("sweep", self.sweep(tmp_path, name))[0] == 0, name

    @pytest.mark.parametrize("name, option, spelling", FIXED,
                             ids=[f"{n}-{o}={s!r}" for n, o, s in FIXED])
    def test_sweep_fixed_string(self, tmp_path, name, option, spelling):
        path = self.sweep(tmp_path, name, **{option: spelling})
        variable = next(iter(SPELLING_SWEEPS[name]))
        code, out, err = run_cli_exit("sweep", path)
        assert (code, out) == (2, "")
        assert re.fullmatch(
            f"error: {re.escape(path)}: point 1 \\({variable} = [^)]+\\): "
            f"[^\n]+ is not a number: {re.escape(repr(spelling))}\n", err)

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("spelling", other_spellings("0.75"))
    def test_sweep_range_entry(self, tmp_path, position, spelling):
        bounds = ["0.75", "0.85", "0.05"]
        bounds[position] = spelling
        path = self.sweep(tmp_path, "fraction", bounds)
        assert run_cli_exit("sweep", path) == (2, "", (
            f"error: {path}: range must be [start, stop, step], got {bounds!r}\n"))

    @pytest.mark.parametrize("field", ["capital", "belief"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
    @pytest.mark.parametrize("spelling", other_spellings("0.25"))
    def test_population_cell(self, tmp_path, field, as_json, spelling):
        rows = [{"capital": "0.75", "belief": "0.35"},
                {"capital": "0.25", "belief": "0.65"}]
        rows[0][field] = spelling
        path = tmp_path / f"pop.{'json' if as_json else 'csv'}"
        if as_json:
            path.write_text(json.dumps(rows))
        else:
            with path.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, ["capital", "belief"])
                writer.writeheader()
                writer.writerows(rows)
        assert run_cli_exit("clear", str(path)) == (2, "", (
            f"error: {path}: row 1: {field} is not a number: {spelling!r}\n"))


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

    def test_alpha_sweep_decreasing_at_high_price(self, tmp_path):
        records = _record_sweep(sweep_file=write_sweep(tmp_path / "sweep.json", {
            "command": "fraction", "variable": "alpha",
            "range": [0.25, 2.0, 1.75], "fixed": {"q": 0.9, "p": 0.85},
        }))
        assert records[0]["fraction"] > records[-1]["fraction"]

    def test_rounded_span_past_stop_stops_at_stop(self, tmp_path):
        # (0.9 - 0.5) / 0.15 = 2.67 rounds to 3 steps, and 0.95 is past stop
        records = _record_sweep(sweep_file=write_sweep(tmp_path / "sweep.json", {
            "command": "fraction", "variable": "q",
            "range": [0.5, 0.9, 0.15], "fixed": {"p": 0.5},
        }))
        assert [record["q"] for record in records] == [0.5, 0.65, 0.8]

    def test_bad_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "command": "fraction", "variable": "q",
            "range": [0.9, 1.5, 0.1], "fixed": {"p": 0.5},
        }))
        code, _ = invoke(capsys, "sweep", str(path))
        assert code == 2


def printed(out, field):
    """The token printed for ``field``, as written."""
    return re.search(f'"{field}": ([^,}}]+)', out).group(1)


class TestPrintedDigits:
    """Printed tokens of the losses, the tail bounds and the threshold
    check, compared whole, as text."""

    @pytest.mark.parametrize("argv, field, token", [
        (("sensitivity", "--mode", "fraction", "--p", "0.5", "--eps", "1e-8"),
         "exact", format(0.5 * math.log1p(-1e-16), ".15g")),
        (("bounds", "--N", "1000000", "--p", "0.3", "--k", "299999"),
         "kl", "2.3809538925441e-12"),
        # mpmath's correctly rounded tail at a million steps
        (("bounds", "--N", "1000000", "--p", "0.5", "--k", "499750"),
         "exact_cdf", "0.308889703025232"),
        # a billion steps: a window of about 1.4 x 10^5 terms, mpmath's digits too
        (("bounds", "--N", "1000000000", "--p", "0.5", "--k", "499999999"),
         "exact_cdf", "0.499987384337393"),
        # Q is the log-wealth after 6 of 10 up-steps: the hits and the exact
        # tail count that outcome alike
        (("simulate", "--N", "10", "--p", "0.6", "--f", "0.2",
          "--Q", "0.20135513550688855", "--paths", "2000", "--seed", "42"),
         "z_score", "-0.547164549412224"),
    ], ids=["sensitivity-fraction-at-one-half", "bounds-kl", "bounds-exact-cdf-1e6",
            "bounds-exact-cdf-1e9", "simulate-boundary-target"])
    def test_token(self, capsys, argv, field, token):
        code, out = invoke(capsys, *argv)
        assert code == 0
        assert printed(out, field) == token


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_block(language):
    """The first ``language`` code block in README.md's CLI section."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    return re.search(f"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_cli_examples_run_as_written(tmp_path, monkeypatch):
    """Each ``kellymarket`` line of the README's CLI block, run through
    ``main`` next to the files it names, exits 0 and prints strict JSON,
    or a CSV table for ``sweep`` (and strict JSON with ``--json``)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "population.csv").write_text("capital,belief\n3,0.6\n1,0\n",
                                              encoding="utf-8")
    (tmp_path / "sweep.json").write_text(readme_block("json"), encoding="utf-8")
    lines = [shlex.split(line, comments=True)
             for line in readme_block("sh").splitlines()]
    assert {argv[1] for argv in lines} == {
        name for name, command in COMMANDS.items() if command.help}
    for program, *argv in lines:
        assert program == "kellymarket"
        code, out, err = run_cli_exit(*argv)
        assert (code, err) == (0, ""), argv
        if argv[0] != "sweep":
            strict_json_lines(out)
            continue
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2 and len({len(row) for row in rows}) == 1
        assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row)
        code, out, err = run_cli_exit("--json", *argv)
        assert (code, err) == (0, "")
        assert len(strict_json_lines(out)) == len(rows) - 1


class TestByteOrderMark:
    """Spreadsheet tools begin a UTF-8 file with a byte-order mark."""

    @pytest.mark.parametrize("command, name, text", [
        ("clear", "pop.csv", "capital,belief\n3,0.6\n1,0\n"),
        ("clear", "pop.json", '[{"capital": 1, "belief": 0.3}, '
                              '{"capital": 2, "belief": 0.9}]'),
        ("sweep", "sweep.json", '{"command": "fraction", "variable": "q", '
                                '"range": [0.55, 0.95, 0.05], "fixed": {"p": 0.5}}'),
    ], ids=["csv-population", "json-population", "sweep"])
    def test_prints_what_the_file_without_one_prints(self, tmp_path, command, name,
                                                     text):
        plain, marked = tmp_path / f"plain-{name}", tmp_path / f"marked-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        expected = run_cli(command, str(plain))
        assert expected[0] == 0
        assert run_cli(command, str(marked)) == expected


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        args = ["fraction", "--q", "0.123456789", "--p", "0.6"]
        _, first = invoke(capsys, *args)
        _, second = invoke(capsys, *args)
        assert first == second


def write_sweep(path, spec):
    if isinstance(spec, bytes):
        path.write_bytes(spec)
    else:
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
        ('{"command": "fraction", "variable": "q", "range": [0.5, 0.6, 0.1]}',
         r"fixed must set 'p', a required parameter of fraction"),
        ('{"command": ', r"Expecting value"),
        pytest.param("[" * 100_000, r"maximum recursion depth exceeded",
                     id="nested-past-the-recursion-limit"),
        pytest.param(b'{"command": "\xff"}', r"'utf-8' codec can't decode byte 0xff",
                     id="not-utf-8"),
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
        assert (code, captured.out, captured.err) == (
            2, "", f"error: {path}: point 1 ({variable} = 0.5): {message}\n")

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
        # a JSON boolean is an int to Python, but not a number here
        ("bounds", "p", '{"N": true, "k": 0}',
         "steps must be a positive integer, got True"),
        ("bounds", "p", '{"N": 10, "k": true}', "k must be an integer, got True"),
        ("kq", "f", '{"N": 10, "Q": true}',
         "Q (log-wealth target) is not a number: True"),
        ("fraction", "q", '{"p": 0.5, "alpha": true}', "alpha is not a number: True"),
        ("fraction", "q", '{"p": 0.5, "alpha": false}',
         "alpha is not a number: False"),
        ("fraction", "q", '{"p": false}', "p is not a number: False"),
    ], ids=["N-string", "k-string", "N-null", "p-null", "p-string",
            "alpha-string", "eps-list", "f-string", "p-beyond-float",
            "Q-beyond-float", "N-beyond-float", "p-past-digit-limit",
            "N-past-digit-limit", "k-past-digit-limit", "N-true", "k-true",
            "Q-true", "alpha-true", "alpha-false", "p-false"])
    def test_any_value_exits_2_naming_it(self, tmp_path, capsys, command,
                                         variable, fixed, message):
        path = write_sweep(tmp_path / "sweep.json", (
            f'{{"command": "{command}", "variable": "{variable}", '
            f'"range": [0.5, 0.5, 0.1], "fixed": {fixed}}}'))
        code = main(["sweep", path])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", f"error: {path}: point 1 ({variable} = 0.5): {message}\n")

    # a JSON boolean is an int to Python, but no range entry; a string is
    # one if it is plainly spelled
    @pytest.mark.parametrize("bounds", [
        [True, True, 1], [0.5, True, 0.1], [0.5, 0.6, True], [False, 0.6, 0.1],
        ["0.5", "0.6", "0_1"], ["0.5", " 0.6", "0.1"],
    ], ids=["start-stop-true", "stop-true", "step-true", "start-false",
            "step-digit-separator", "stop-padded"])
    def test_range_entry_that_is_no_number_exits_2(self, tmp_path, capsys, bounds):
        path = write_sweep(tmp_path / "sweep.json", {
            "command": "fraction", "variable": "q", "range": bounds,
            "fixed": {"p": 0.5}})
        code = main(["sweep", path])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", (
            f"error: {path}: range must be [start, stop, step], got {bounds!r}\n"))

    def test_range_of_plain_strings_reads_as_numbers(self, tmp_path, capsys):
        spec = {"command": "fraction", "variable": "q", "range": [0.5, 0.6, 0.1],
                "fixed": {"p": 0.5}}
        expected = invoke(capsys, "sweep", write_sweep(tmp_path / "a.json", spec))
        spec["range"] = ["0.5", "0.6", "1e-1"]
        assert invoke(capsys, "sweep", write_sweep(tmp_path / "b.json", spec)) == \
            expected
        assert expected[0] == 0

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
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: {path}: point 4 (p = 1.25): p must lie in [0, 1], got 1.25\n"

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_non_finite_record_names_the_point(self, tmp_path, capsys, fmt):
        # at p = 1e-320 the first-order term is beyond the float range
        path = write_sweep(tmp_path / "sweep.json", {
            "command": "sensitivity", "variable": "eps", "range": [0.25, 0.5, 0.25],
            "fixed": {"mode": "bias", "N": 10, "k": 3, "p": 1e-320}})
        code = main([*fmt, "sweep", path])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", (
            f"error: {path}: point 1 (eps = 0.25): first_order is not finite: -inf\n"))

    @pytest.mark.parametrize("command, variable, bounds, fixed, point", [
        # an integer option's points are rounded, and name the rounded value
        ("bounds", "k", [0, 20, 2.5], {"N": 10, "p": 0.6}, "point 4 (k = 8)"),
        ("sensitivity", "eps", [0.1, 0.7, 0.2], {"mode": "fraction", "p": 0.8},
         "point 3 (eps = 0.5)"),
        ("fraction", "q", [0.5, 0.9, 0.2], {"p": 0.5, "alpha": -1}, "point 1 (q = 0.5)"),
    ])
    def test_first_failing_point_is_named(self, tmp_path, capsys, command,
                                          variable, bounds, fixed, point):
        path = write_sweep(tmp_path / "sweep.json", {
            "command": command, "variable": variable, "range": bounds,
            "fixed": fixed})
        assert main(["sweep", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {path}: {point}: ")


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
NUMERIC_TEXT = st.one_of(st.integers(-5, 100), ANY_FLOAT).map(str)
# numeric text, of values most options admit, that Python reads but that
# is no number here: a digit separator, non-ASCII digits, or surrounding
# whitespace
OTHER_SPELLING = st.tuples(
    st.one_of(UNIT, st.integers(0, 100)).map(str), st.sampled_from([
        lambda t: re.sub(r"(\d)(\d|$)", r"\1_0\2", t, count=1),
        lambda t: t.translate(ARABIC_INDIC), lambda t: t.translate(FULLWIDTH),
        lambda t: " " + t, lambda t: t + "\t", lambda t: t + "\n",
    ])).map(lambda pair: pair[1](pair[0]))
# every kind of value a population or sweep file can hold where a number
# belongs: numbers, numeric strings, booleans, null and lists
FILE_VALUE = st.one_of(
    st.integers(-5, 100), ANY_FLOAT, NUMERIC_TEXT, OTHER_SPELLING,
    st.booleans(), st.none(), st.lists(st.floats(0.0, 1.0), max_size=2))


def plainly_spelled(text):
    """Whether ``text``, if Python reads it as a number, is ASCII with no
    ``_`` and no surrounding whitespace."""
    try:
        float(text)
    except ValueError:
        return True
    return text.isascii() and "_" not in text and text == text.strip()


def check_outcome(argv, fmt, refused=False):
    """Run the CLI; it must exit 0 with strict JSON lines (or, for --csv and
    sweeps without --json, a rectangular CSV of finite numbers), each number
    plainly spelled, or exit 2 or 3 with an ``error:`` line and nothing on
    stdout; exit 2 if ``refused``."""
    code, out, err = run_cli(*fmt, *argv)
    assert code == 2 or not refused
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
                assert plainly_spelled(part)
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(part))
    else:
        records = strict_json_lines(out)
        assert all(isinstance(r, dict) for r in records)
        assert all(plainly_spelled(v) for r in records for v in r.values()
                   if isinstance(v, str))


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
        rows = [[c, q] for c, q in zip(capitals, beliefs)]
        cell = None
        if data.draw(st.booleans()):
            cell = data.draw(FILE_VALUE)
            data.draw(st.sampled_from(rows))[data.draw(st.integers(0, 1))] = cell
        as_json = data.draw(st.booleans())
        path = tmp_path_factory.mktemp("clear") / f"pop.{'json' if as_json else 'csv'}"
        if as_json:
            path.write_text(json.dumps(
                [{"capital": c, "belief": q} for c, q in rows]))
        else:  # each cell as str() writes it
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows([["capital", "belief"], *rows])
        check_outcome(["clear", str(path)], fmt,
                      refused=isinstance(cell, str) and not plainly_spelled(cell))

    SWEEP_FIXED = {
        "fraction": {"q": 0.7, "p": 0.5, "alpha": 1.0},
        "bounds": {"N": 50, "p": 0.6, "k": 20},
        "kq": {"f": 0.3, "N": 20, "Q": 0.5},
        "growth": {"p": 0.6, "f": 0.2},
        "sensitivity": {"mode": "bias", "N": 20, "k": 5, "p": 0.6, "eps": 0.01},
    }

    @given(command=st.sampled_from(sorted(SWEEP_FIXED)), data=st.data(),
           # grids inside [0, 1] as well, where probabilities and fractions
           # run, and a well-formed range half the time
           start=st.one_of(st.floats(0.0, 1.0), st.floats(-2.0, 60.0)),
           step=st.one_of(st.floats(1e-3, 0.02), st.floats(1e-3, 10.0)),
           points=st.integers(0, 40),
           odd_range=st.one_of(st.none(), st.sampled_from([
               [0, math.inf, 0.1], [0, math.nan, 1], [0, 1e300, 1e-300],
               [0, 1e9, 1], [1, 0, 1], [0, 1, 0], [0, 1, -1], [0, 1]])),
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
        key = value = None
        if fixed and data.draw(st.booleans()):
            key, value = data.draw(st.sampled_from(sorted(fixed))), data.draw(FILE_VALUE)
            fixed[key] = value
        bounds = odd_range or [start, start + points * step, step]
        spec = {"command": command, "variable": variable, "range": bounds,
                "fixed": fixed}
        path = tmp_path_factory.mktemp("sweep") / "sweep.json"
        path.write_text(json.dumps(spec))  # inf, nan as Infinity, NaN
        # every float option is read unless the variable overrides it
        # (sensitivity's fraction mode reads no N or k)
        read = key != variable and \
            COMMANDS[command].build.__annotations__.get(key) is float
        check_outcome(["sweep", str(path)], fmt, refused=read and
                      isinstance(value, str) and not plainly_spelled(value))

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
