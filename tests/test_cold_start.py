"""Cold start: no command imports scipy; importing the CLI does not
import dataclasses, whose classes generate their methods with exec, nor
hashlib and datetime, which only a result record needs; the input stage
rejects malformed input before numpy is imported; and ``mde`` leaves
numpy.ma out.

Each check of ``sys.modules`` runs in a fresh interpreter, because this
test process may already have the module loaded.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tribell

SRC = Path(__file__).resolve().parents[1] / "src"

# runs the argv lists given as JSON in argv[1] through tribell.cli.main, then
# prints, per command, its exit code and whether the module named in argv[2]
# was loaded after it
RUN_COMMANDS = """
import json, sys
from tribell.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    results.append([code, sys.argv[2] in sys.modules])
print(json.dumps(results))
"""

NUMERIC_MODULES = ["tribell.detector", "tribell.families", "tribell.inequality",
                   "tribell.polytope", "tribell.qcore", "tribell.search"]


def fresh_python(tmp_path, *args) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def run_commands(tmp_path, *commands, watched="scipy") -> list:
    return json.loads(fresh_python(tmp_path, "-c", RUN_COMMANDS, json.dumps(commands), watched))


def test_import_leaves_scipy_out(tmp_path):
    for module in ("tribell", "tribell.cli"):
        loaded = fresh_python(tmp_path, "-c",
                              f"import sys, {module}; print('scipy' in sys.modules)")
        assert loaded == "False", module


def test_import_leaves_dataclasses_out(tmp_path):
    # numpy, argparse, json and hashlib do not load it either
    loaded = fresh_python(tmp_path, "-c",
                          "import sys, tribell.cli; print('dataclasses' in sys.modules)")
    assert loaded == "False"


def test_commands_without_an_optimizer_leave_scipy_out(tmp_path):
    results = run_commands(
        tmp_path,
        ["bounds", "verify", "--inequality", "svetlichny"],
        ["bounds", "verify", "--inequality", "t2"],
        ["evaluate", "--theta", "0.3"],
        ["cde", "--theta", "0.3", "--inequality", "t2"],
        ["sweep", "--theta-grid", "0.1:1:5", "--p-grid", "0:0.02:3", "--out", "sweep.csv"],
        ["evaluate", "--theta", "4"],
        ["evaluate", "--theta", "0.3", "--eta", "a,b,c"],
        ["mde", "--inequality", "t2", "--restarts", "0"],
    )
    assert results == [[0, False]] * 5 + [[2, False]] * 3


def test_mde_leaves_scipy_out(tmp_path):
    results = run_commands(
        tmp_path,
        ["mde", "--inequality", "t2", "--restarts", "1", "--max-iterations", "1500",
         "--out", "mde.json"],
    )
    assert results == [[0, False]]


def test_malformed_input_exits_before_numpy_loads(tmp_path):
    for module in ("tribell", "tribell.cli"):
        loaded = fresh_python(tmp_path, "-c",
                              f"import sys, {module}; print('numpy' in sys.modules)")
        assert loaded == "False", module
    (tmp_path / "bad-state.json").write_text(json.dumps(
        {"explicit": {"state": 5, "measurements": [[0.0, 0.0]] * 6}}))
    results = run_commands(
        tmp_path,
        ["--help"],
        ["evaluate", "--theta", "0.3", "--eta", "a,b,c"],
        ["evaluate", "--theta", "0.3", "--eta", "1.2,1,1"],
        ["evaluate", "--theta", "0.3", "--p", "nan"],
        ["mde", "--inequality", "t2", "--restarts", "0"],
        ["evaluate", "--settings", "bad-state.json"],
        watched="numpy",
    )
    assert results == [[0, False]] + [[2, False]] * 5


def test_import_leaves_hashlib_and_datetime_out(tmp_path):
    loaded = fresh_python(tmp_path, "-c", "import sys, tribell.cli; "
                          "print([m in sys.modules for m in ('hashlib', 'datetime')])")
    assert loaded == "[False, False]"


def test_domain_errors_exit_before_numpy_loads(tmp_path):
    (tmp_path / "theta-4.json").write_text(json.dumps(
        {"family": {"name": "theta", "parameters": {"theta": 4.0}}}))
    results = run_commands(
        tmp_path,
        ["evaluate", "--theta", "4"],
        ["cde", "--theta", "-1", "--inequality", "t2"],
        ["sweep", "--theta-grid", "0:1:5", "--out", "sweep.csv"],
        ["sweep", "--p-grid", "0:2:3", "--out", "sweep.csv"],
        ["evaluate", "--settings", "theta-4.json"],
        watched="numpy",
    )
    assert results == [[2, False]] * 5


def test_non_finite_grid_ends_exit_before_numpy_loads(tmp_path):
    # np.linspace(lo, inf, 1) warns and makes the one point NaN; the input
    # stage rejects such an end first
    commands = [["sweep", "--theta-grid", "0.1:inf:1", "--out", "sweep.csv"],
                ["sweep", "--theta-grid", "0.1:nan:1", "--out", "sweep.csv"],
                ["sweep", "--p-grid", "0:inf:1", "--out", "sweep.csv"]]
    done = subprocess.run([sys.executable, "-c", RUN_COMMANDS, json.dumps(commands), "numpy"],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert json.loads(done.stdout.strip().splitlines()[-1]) == [[2, False]] * 3
    assert "RuntimeWarning" not in done.stderr


def test_mde_leaves_numpy_ma_out(tmp_path):
    results = run_commands(
        tmp_path,
        ["mde", "--inequality", "t2", "--restarts", "1", "--max-iterations", "1500",
         "--out", "mde.json"],
        watched="numpy.ma",
    )
    assert results == [[0, False]]


def test_a_command_loads_every_numeric_module(tmp_path):
    script = ("import json, sys\n"
              "from tribell.cli import main\n"
              "before = sorted(m for m in sys.modules if m.startswith('tribell.'))\n"
              "code = main(['evaluate', '--theta', '0.3'])\n"
              "after = sorted(m for m in sys.modules if m.startswith('tribell.'))\n"
              "print(json.dumps([code, before, after]))")
    code, before, after = json.loads(fresh_python(tmp_path, "-c", script))
    assert code == 0
    assert not set(NUMERIC_MODULES) & set(before)
    assert set(NUMERIC_MODULES) <= set(after)


def test_public_names_resolve_to_their_definitions():
    for name in tribell.__all__:
        value = getattr(tribell, name)
        if isinstance(value, (type, types.FunctionType)):
            home = importlib.import_module(value.__module__)
            assert home.__name__.startswith("tribell."), name
        else:  # a constant: the one numeric module that holds it
            (home,) = [m for m in map(importlib.import_module, NUMERIC_MODULES)
                       if getattr(m, name, None) is value]
        assert getattr(home, name) is value, name
    with pytest.raises(AttributeError):
        getattr(tribell, "no_such_name")


def test_numeric_names_are_the_package_exports():
    import tribell.cli as cli

    for name in cli._NUMERIC_NAMES[1:]:
        assert getattr(cli, name) is getattr(tribell, name), name
