import json
import os
import subprocess
import sys

import pytest

import kellymarket
from kellymarket import clearing, growth, kelly, montecarlo


def test_exports_are_the_modules_public_names():
    modules = (clearing, growth, kelly, montecarlo)
    names = [name for module in modules for name in module.__all__]
    assert kellymarket.__all__ == sorted(names)
    assert len(set(names)) == len(names) == 40
    for module in modules:
        for name in module.__all__:
            assert getattr(kellymarket, name) is getattr(module, name)


# What a fresh interpreter runs: cli.main on argv with its output
# swallowed, then the exit code and whether numpy was imported.
_RUN_MAIN = """
import contextlib, io, json, sys
from kellymarket.cli import main
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, "numpy" in sys.modules]))
"""

_SWEEP = {"fraction": ("q", [0.55, 0.95, 0.05], {"p": 0.5}),
          "kq": ("N", [10, 100, 10], {"f": 0.3, "Q": 0.5}),
          "growth": ("f", [0.0, 0.8, 0.1], {"p": 0.6}),
          "sensitivity": ("eps", [0.01, 0.1, 0.01], {"mode": "fraction", "p": 0.6}),
          "bounds": ("k", [1, 30, 1], {"N": 60, "p": 0.55})}

_FILES = {
    **{f"{command}.json": json.dumps({"command": command, "variable": variable,
                                      "range": bounds, "fixed": fixed})
       for command, (variable, bounds, fixed) in _SWEEP.items()},
    "population.csv": "capital,belief\n3,0.6\n1,0\n",
    "header.csv": "cap,bel\n1.0,0.5\n",
    "belief.csv": "capital,belief\n2.0,0.4\n1.0,1.5\n",
    "malformed.json": '[{"capital": 1.0, "belief": 0.5},\n',
}


def run_python(code, *args):
    """stdout of ``python -c code args`` in a fresh interpreter that
    imports this kellymarket."""
    src = os.path.dirname(os.path.dirname(kellymarket.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def run_main(tmp_path, argv):
    """``cli.main(argv)`` in a fresh interpreter, file names in argv taken
    under ``tmp_path``: its exit code and whether it imported numpy."""
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a) if a.endswith((".csv", ".json")) else a
            for a in argv]
    return tuple(json.loads(run_python(_RUN_MAIN, json.dumps(argv))))


SCALAR_ARGV = {
    "fraction": ["fraction", "--q", "0.7", "--p", "0.6"],
    "fraction-alpha": ["fraction", "--q", "0.9", "--p", "0.8", "--alpha", "0.5"],
    "kq": ["kq", "--f", "0.5", "--N", "10", "--Q", "0"],
    "sensitivity-bias": ["sensitivity", "--mode", "bias", "--N", "10", "--k", "4",
                         "--p", "0.6", "--eps", "0.01"],
    "sensitivity-fraction": ["sensitivity", "--mode", "fraction", "--p", "0.6",
                             "--eps", "0.05"],
    **{f"sweep-{command}": ["sweep", f"{command}.json"]
       for command in ("fraction", "kq", "growth", "sensitivity")},
}

REJECTED_ARGV = {
    "kq-Q-inf": ["kq", "--f", "0.5", "--N", "10", "--Q", "inf"],
    "simulate-Q-nan": ["simulate", "--N", "20", "--p", "0.6", "--f", "0.2",
                       "--Q", "nan", "--paths", "1000", "--seed", "1"],
    "bounds-k-above-Np": ["bounds", "--N", "10", "--p", "0.4", "--k", "9"],
    "fraction-p-1": ["fraction", "--q", "0.5", "--p", "1.0"],
    "clear-missing-file": ["clear", "absent.csv"],
    "clear-bad-header": ["clear", "header.csv"],
    "clear-bad-belief": ["clear", "belief.csv"],
    "clear-malformed-json": ["clear", "malformed.json"],
}

ARRAY_ARGV = {
    "bounds": ["bounds", "--N", "10", "--p", "0.6", "--k", "4"],
    "sweep-bounds": ["sweep", "bounds.json"],
    "simulate": ["simulate", "--N", "10", "--p", "0.6", "--f", "0.2", "--Q", "0",
                 "--paths", "2000", "--seed", "42"],
    "clear": ["clear", "population.csv"],
}


def test_import_leaves_numpy_out():
    assert run_python("import sys, kellymarket, kellymarket.cli; "
                      "print('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize("argv, expected", [
    *((argv, 0) for argv in SCALAR_ARGV.values()),
    *((argv, 2) for argv in REJECTED_ARGV.values()),
], ids=[*SCALAR_ARGV, *REJECTED_ARGV])
def test_scalar_commands_start_without_numpy(tmp_path, argv, expected):
    assert run_main(tmp_path, argv) == (expected, False)


@pytest.mark.parametrize("argv", ARRAY_ARGV.values(), ids=list(ARRAY_ARGV))
def test_array_commands_import_numpy(tmp_path, argv):
    assert run_main(tmp_path, argv) == (0, True)
