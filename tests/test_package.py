import collections
import json
import os
import subprocess
import sys

import pytest

import kellymarket
from kellymarket import clearing, growth, kelly, montecarlo
from kellymarket._walks import BULK_MAX_STEPS


def test_exports_are_the_modules_public_names():
    modules = (clearing, growth, kelly, montecarlo)
    names = [name for module in modules for name in module.__all__]
    assert kellymarket.__all__ == sorted(names)
    assert len(set(names)) == len(names) == 40
    for module in modules:
        for name in module.__all__:
            assert getattr(kellymarket, name) is getattr(module, name)


# What a fresh interpreter runs: cli.main on argv with its output
# swallowed, then the exit code, whether numpy was imported, the
# kellymarket modules loaded, and whether dataclasses, numpy.random,
# inspect and csv were imported.
_RUN_MAIN = """
import contextlib, io, json, sys
from kellymarket.cli import main
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, "numpy" in sys.modules,
                  sorted(m for m in sys.modules if m.startswith("kellymarket.")),
                  *(m in sys.modules for m in ["dataclasses", "numpy.random",
                                               "inspect", "csv"])]))
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
    "no-interior.csv": "capital,belief\n1,0\n2,0\n",
}


def run_python(code, *args, **environ):
    """stdout of ``python -c code args`` in a fresh interpreter that
    imports this kellymarket, with ``environ`` added to its environment;
    a child that runs past 120 s, far beyond any call here, fails the test."""
    src = os.path.dirname(os.path.dirname(kellymarket.__file__))
    env = dict(os.environ, **environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout


Started = collections.namedtuple(
    "Started", "code numpy modules dataclasses numpy_random inspect csv")


def run_main(tmp_path, argv):
    """``cli.main(argv)`` in a fresh interpreter, file names in argv taken
    under ``tmp_path``: its exit code, whether it imported numpy, the
    kellymarket submodules it loaded, and whether it imported dataclasses,
    numpy.random, inspect and csv."""
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a) if a.endswith((".csv", ".json")) else a
            for a in argv]
    return Started(*json.loads(run_python(_RUN_MAIN, json.dumps(argv))))


SCALAR_ARGV = {
    "fraction": ["fraction", "--q", "0.7", "--p", "0.6"],
    "fraction-alpha": ["fraction", "--q", "0.9", "--p", "0.8", "--alpha", "0.5"],
    "kq": ["kq", "--f", "0.5", "--N", "10", "--Q", "0"],
    "sensitivity-bias": ["sensitivity", "--mode", "bias", "--N", "10", "--k", "4",
                         "--p", "0.6", "--eps", "0.01"],
    "sensitivity-fraction": ["sensitivity", "--mode", "fraction", "--p", "0.6",
                             "--eps", "0.05"],
    "bounds": ["bounds", "--N", "10", "--p", "0.6", "--k", "4"],
    "bounds-1000": ["bounds", "--N", "1000", "--p", "0.6", "--k", "550"],
    **{f"sweep-{command}": ["sweep", f"{command}.json"]
       for command in ("fraction", "kq", "growth", "sensitivity", "bounds")},
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
    "simulate": ["simulate", "--N", "10", "--p", "0.6", "--f", "0.2", "--Q", "0",
                 "--paths", "2000", "--seed", "42"],
    "clear": ["clear", "population.csv"],
}


@pytest.mark.parametrize("module", ["cli", "kelly", "growth", "clearing", "montecarlo"])
def test_import_leaves_numpy_out(module):
    assert run_python(f"import sys, kellymarket, kellymarket.{module}; "
                      "print('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize("argv, expected", [
    *((argv, 0) for argv in SCALAR_ARGV.values()),
    *((argv, 2) for argv in REJECTED_ARGV.values()),
], ids=[*SCALAR_ARGV, *REJECTED_ARGV])
def test_scalar_commands_start_without_numpy(tmp_path, argv, expected):
    assert run_main(tmp_path, argv)[:2] == (expected, False)


@pytest.mark.parametrize("argv", ARRAY_ARGV.values(), ids=list(ARRAY_ARGV))
def test_array_commands_import_numpy(tmp_path, argv):
    assert run_main(tmp_path, argv)[:2] == (0, True)


@pytest.mark.parametrize("argv", [
    ["bounds", "--N", "31", "--p", "0.95", "--k", "25"],
    ["simulate", "--N", "10", "--p", "0.3", "--f", "0.2", "--Q", "0.8095527976691352",
     "--paths", "2000", "--seed", "42"],
], ids=["bounds", "simulate"])
def test_output_does_not_depend_on_numpys_cpu_dispatch(argv):
    # numpy picks its loops by CPU, its own SIMD exp on AVX512 and libm's
    # below; limited to AVX2 (X86_V3), a run must print the same bytes
    code = "import sys; from kellymarket.cli import main; sys.exit(main())"
    printed = run_python(code, *argv)
    assert printed
    assert run_python(code, *argv, NPY_ENABLE_CPU_FEATURES="X86_V3") == printed


_PRINT_LOADED = "print(sorted(m for m in sys.modules if m.startswith('kellymarket')))"


def test_import_loads_no_submodule():
    assert run_python("import sys, kellymarket; " + _PRINT_LOADED) == "['kellymarket']\n"


def test_cli_import_loads_no_library_module():
    assert run_python("import sys\nfrom kellymarket import cli\n" + _PRINT_LOADED) \
        == "['kellymarket', 'kellymarket._validation', 'kellymarket.cli']\n"


def test_private_name_is_not_searched_for():
    assert run_python(
        "import sys, kellymarket\ntry:\n    kellymarket._no_such_name\n"
        "except AttributeError as exc:\n    print(exc)\n" + _PRINT_LOADED) \
        == "module 'kellymarket' has no attribute '_no_such_name'\n['kellymarket']\n"


def test_star_import_binds_every_public_name():
    listed, names = json.loads(run_python(
        "import json, kellymarket\nlisted = dir(kellymarket)\nnames = {}\n"
        "exec('from kellymarket import *', names)\n"
        "print(json.dumps([listed, sorted(set(names) - {'__builtins__'})]))"))
    assert names == kellymarket.__all__
    assert len(names) == 40
    assert set(names) <= set(listed)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        kellymarket.no_such_name
    assert not hasattr(kellymarket, "no_such_name")


# The kellymarket submodules each command loads, past cli and _validation;
# a refusal loads no more than a result.
LOADED = {
    **dict.fromkeys(["fraction", "fraction-alpha", "sweep-fraction", "sweep-growth",
                     "fraction-p-1"], ["kelly"]),
    **dict.fromkeys(["kq", "sensitivity-bias", "sensitivity-fraction", "bounds",
                     "bounds-1000", "sweep-kq", "sweep-sensitivity", "sweep-bounds",
                     "kq-Q-inf"],
                    ["growth", "_exact"]),
}


@pytest.mark.parametrize("name, loaded", LOADED.items(), ids=list(LOADED))
def test_commands_load_only_the_modules_they_use(tmp_path, name, loaded):
    started = run_main(tmp_path, {**SCALAR_ARGV, **REJECTED_ARGV}[name])
    assert started.code == (0 if name in SCALAR_ARGV else 2)
    assert started.modules == sorted(
        f"kellymarket.{module}" for module in ["cli", "_validation", *loaded])
    assert not (started.dataclasses or started.inspect)
    # sweeps print CSV; every other command here prints JSON or refuses
    assert started.csv is name.startswith("sweep-")


@pytest.mark.parametrize("argv, expected", [
    (ARRAY_ARGV["clear"], 0),
    # the exception class is mapped to exit 3 without main importing clearing
    (["clear", "no-interior.csv"], 3),
    (REJECTED_ARGV["clear-bad-belief"], 2),
], ids=["clear", "clear-no-interior", "clear-bad-belief"])
def test_clear_loads_neither_growth_nor_montecarlo(tmp_path, argv, expected):
    started = run_main(tmp_path, argv)
    assert started.code == expected
    assert "kellymarket.clearing" in started.modules
    assert not {"kellymarket.growth", "kellymarket.montecarlo"} & set(started.modules)


@pytest.mark.parametrize("steps, native", [
    (10, False), (BULK_MAX_STEPS, False), (BULK_MAX_STEPS + 1, True),
])
def test_simulate_imports_numpy_random_only_for_the_native_kernel(tmp_path, steps,
                                                                  native):
    started = run_main(tmp_path, ["simulate", "--N", str(steps), "--p", "0.6",
                                  "--f", "0.2", "--Q", "0", "--paths", "2000",
                                  "--seed", "42"])
    # whether a bare `import numpy` loads numpy.random is numpy's choice:
    # numpy 2 defers it to first use
    preloaded = run_python("import sys, numpy; print('numpy.random' in sys.modules)")
    assert started.code == 0
    assert "kellymarket.clearing" not in started.modules
    assert started.numpy_random is (native or preloaded == "True\n")
