"""Cold start: scipy is imported by the MDE search alone.

Each check runs in a fresh interpreter, because this test process may
already have scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from tribell import search

SRC = Path(__file__).resolve().parents[1] / "src"

# runs the argv lists given as JSON in argv[1] through tribell.cli.main, then
# prints, per command, its exit code and whether scipy was loaded after it
RUN_COMMANDS = """
import json, sys
from tribell.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    results.append([code, "scipy" in sys.modules])
print(json.dumps(results))
"""


def fresh_python(tmp_path, *args) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def run_commands(tmp_path, *commands) -> list:
    return json.loads(fresh_python(tmp_path, "-c", RUN_COMMANDS, json.dumps(commands)))


def test_import_leaves_scipy_out(tmp_path):
    for module in ("tribell", "tribell.cli"):
        loaded = fresh_python(tmp_path, "-c",
                              f"import sys, {module}; print('scipy' in sys.modules)")
        assert loaded == "False", module


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


def test_mde_loads_scipy(tmp_path):
    results = run_commands(
        tmp_path,
        ["mde", "--inequality", "t2", "--restarts", "1", "--max-iterations", "1500",
         "--out", "mde.json"],
    )
    assert results == [[0, True]]


def test_local_search_calls_the_module_level_minimize(monkeypatch):
    # the benchmark's spans wrap search.minimize by name to count objective calls
    original = search.minimize
    calls = []

    def counted(fun, x0, **kwargs):
        calls.append(kwargs["method"])
        return original(fun, x0, **kwargs)

    monkeypatch.setattr(search, "minimize", counted)
    cfg = search.SearchConfig(restarts=1, max_iterations=5)
    fun, x = search._local_search(lambda v: float(v @ v), np.ones(3), cfg)
    assert calls == ["Nelder-Mead", "Nelder-Mead"]
    assert fun == float(x @ x)
