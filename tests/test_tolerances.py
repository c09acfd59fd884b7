"""The tolerance table of `qcore`: its boundary rules, and that it is the
only place a tolerance is written."""

import ast
import pathlib

import numpy as np
import pytest

import tribell
from tribell.errors import NoViolationError
from tribell.families import NoiseLevel, ThetaSetting, theta_measurements, theta_state
from tribell.inequality import (
    SvetlichnyCoefficients,
    svetlichny_cutoff,
    t2_cutoff_symmetric,
    t2_triple_and_pair_sums,
    t2_value,
)
from tribell.qcore import VIOLATION_TOL, behavior_from_settings, density_from_pure
from tribell.search import noisy_t2_min_efficiency, sweep_t2_noise


@pytest.mark.parametrize("theta, cutoff, cutoff_tol, crossing", [
    # T = Q to rounding: the closed cutoff reads the boundary, 1.0, while the
    # strict noise crossing finds no eta <= 1 that violates
    (np.pi / 3, 1.0, 1e-9, None),
    # T - Q = 3.2e-11, below VIOLATION_TOL: no violation verdict, yet both
    # ratios Q/T, which have no absolute floor, report the crossing
    (0.02, 0.750075005001835, 1e-12, 0.750075005001835),
])
def test_boundary_rules(theta, cutoff, cutoff_tol, crossing):
    setting = ThetaSetting(theta)
    tensor = behavior_from_settings(density_from_pure(theta_state(setting)),
                                    theta_measurements(setting))
    triple, pair = t2_triple_and_pair_sums(tensor)
    assert 0.0 <= triple - pair < VIOLATION_TOL
    assert not t2_value(tensor).violated
    assert t2_cutoff_symmetric(tensor) == pytest.approx(cutoff, abs=cutoff_tol)
    noisy = noisy_t2_min_efficiency(setting, NoiseLevel(0.0))
    (row,) = sweep_t2_noise([theta], [0.0])
    if crossing is None:
        assert noisy is None and row.eta_min is None
    else:
        assert noisy == pytest.approx(crossing, abs=1e-12)
        # the sweep's pure-state Born rule moves the 12th decimal at small theta
        assert row.eta_min == pytest.approx(crossing, abs=1e-11)


def test_svetlichny_cutoff_needs_a_margin_above_violation_tol():
    # unlike the ratio Q/T, the correlator cutoff refuses margins at the floor
    with pytest.raises(NoViolationError):
        svetlichny_cutoff(SvetlichnyCoefficients(alpha=0.0, beta=1.0, gamma=1.0 - 0.5e-9))
    cutoff = svetlichny_cutoff(SvetlichnyCoefficients(alpha=0.0, beta=1.0, gamma=1.0 - 2e-9))
    assert cutoff == pytest.approx(1.0, abs=1e-8)


def test_tolerance_literals_live_in_the_table():
    package = pathlib.Path(tribell.__file__).parent
    qcore_lines = (package / "qcore.py").read_text().splitlines()
    first = next(i for i, line in enumerate(qcore_lines, 1)
                 if line.startswith("# Tolerance table."))
    last = qcore_lines.index("# end of the tolerance table") + 1
    stray = []
    for path in sorted(package.glob("*.py")):
        table = range(first, last) if path.name == "qcore.py" else range(0)
        # comments are not in the tree, and docstrings are strings
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0.0 < node.value <= 1e-6 and node.lineno not in table):
                stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not stray, "tolerance literals outside the table of qcore: " + ", ".join(stray)


def test_every_table_entry_is_used():
    # a tolerance that nothing reads is a dead rule; drop it from the table
    package = pathlib.Path(tribell.__file__).parent
    qcore_lines = (package / "qcore.py").read_text().splitlines()
    first = next(i for i, line in enumerate(qcore_lines, 1)
                 if line.startswith("# Tolerance table."))
    last = qcore_lines.index("# end of the tolerance table") + 1
    defined, used = set(), set()
    for path in sorted(package.glob("*.py")):
        table = range(first, last) if path.name == "qcore.py" else range(0)
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Name):
                continue
            if node.lineno not in table:
                used.add(node.id)
            elif isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    assert len(defined) > 10
    assert not defined - used, f"tolerances nothing reads: {sorted(defined - used)}"
