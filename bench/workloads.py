"""The three workloads: their inputs, the CLI commands of one round, and the
checks of every output.

A round is a fixed list of operations.  Each operation is one ``tribell``
command line and a check of its output; the runner executes it either as
a fresh process or in process.  A check returns a list of problems (empty
when the output is right).  An operation *fails* when the command does
not do what it must (a nonzero exit, or for a malformed-input probe
anything but a clean usage error); ``correct`` speaks only of operations
that did not fail.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# default grids of ``tribell sweep``: 200 theta values x 100 noise weights
SWEEP_THETAS = np.linspace(0.01, np.pi / 3, 200)
SWEEP_PS = np.linspace(0.0, 0.02, 100)

MDE_RESTARTS = 2  # per inequality; restart i uses seed + i

SHORT = "short"   # a short command whose wall time is a CLI latency sample
PROBE = "probe"   # a malformed input that must end in a clean exit 2


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    wall_s: float
    maxrss_mb: float | None = None
    ref_s: float | None = None     # calibration time around the command (see run.Paced)


@dataclass
class Operation:
    kind: str                      # SHORT, PROBE or the name of a long command
    args: list[str]
    check: Callable[[CliResult], list[str]] | None = None


@dataclass
class OpOutcome:
    kind: str
    args: list[str]
    result: CliResult
    failed: bool
    problems: list[str] = field(default_factory=list)


def _record(result: CliResult) -> dict:
    return json.loads(result.out.strip().splitlines()[-1])


def _close(name: str, got, want, tol: float) -> list[str]:
    if got is None or want is None or not abs(float(got) - float(want)) <= tol:
        return [f"{name}: got {got}, expected {want} within {tol:g}"]
    return []


def _directions(explicit: dict) -> list[tuple[float, float]]:
    return [(float(polar), float(az)) for polar, az in explicit["measurements"]]


def _explicit_behavior(explicit: dict, p: float = 0.0) -> np.ndarray:
    amps = [complex(re, im) for re, im in explicit["state"]]
    return oracle.behavior(oracle.with_white_noise(oracle.pure_density(amps), p),
                           _directions(explicit))


def _evaluate_check(ideal: np.ndarray, etas=None):
    """Check ``evaluate --json`` against the oracle to 1e-9."""
    want = {"ideal_t2": oracle.t2_statistic(ideal),
            "ideal_svetlichny": oracle.correlator_statistic(ideal)}
    if etas is not None:
        seen = oracle.lossy(ideal, etas)
        want["observed_t2"] = oracle.t2_statistic(seen)
        want["observed_svetlichny"] = oracle.correlator_statistic(seen)

    def check(result: CliResult) -> list[str]:
        outputs = _record(result)["outputs"]
        problems = []
        for key, value in want.items():
            problems += _close(f"evaluate {key}", outputs.get(key), value, 1e-9)
        return problems

    return check


def _cde_check(name: str, want: float, tol: float):
    def check(result: CliResult) -> list[str]:
        return _close(name, _record(result)["outputs"].get("cde"), want, tol)

    return check


def probe_passed(result: CliResult) -> bool:
    """A malformed input must end in exit 2 with an ``error:`` line and no traceback."""
    lines = result.err.splitlines()
    return (result.code == 2
            and any(line.startswith("error:") for line in lines)
            and "Traceback" not in result.err)


class Workload:
    """Inputs are made from the seed on construction; ``operations`` lists one round."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def write_json(self, name: str, payload: dict) -> str:
        path = self.path(name)
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return path

    def operations(self) -> list[Operation]:
        raise NotImplementedError


class MdeWorkload(Workload):
    """Both MDE searches at a few restarts, then ``cde`` on each dumped file."""

    name = "mde"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.ghz_cutoff = oracle.symmetric_cutoff("svetlichny", oracle.ghz_behavior())
        self.best: dict[str, float] = {}   # best_eta of the first round, per inequality

    def _mde_check(self, kind: str):
        settings_file = self.path(f"mde-{kind}.json")

        def check(result: CliResult) -> list[str]:
            best = _record(result)["outputs"]["best_eta"]
            problems = []
            if kind == "svetlichny":
                if not best <= 0.881:
                    problems.append(f"correlator best_eta {best} above 0.881")
                if not best < self.ghz_cutoff:
                    problems.append(f"correlator best_eta {best} not below GHZ {self.ghz_cutoff}")
            elif not 0.75 - 1e-6 <= best <= 0.755:
                problems.append(f"t2 best_eta {best} outside [0.75, 0.755]")
            explicit = json.loads(Path(settings_file).read_text())["explicit"]
            again = oracle.symmetric_cutoff(kind, _explicit_behavior(explicit))
            problems += _close(f"oracle cutoff of the {kind} dump", again, best, 1e-6)
            first = self.best.setdefault(kind, best)
            if best != first:
                problems.append(f"{kind} search not deterministic: {best} after {first}")
            return problems

        return check

    def _cde_of_dump(self, kind: str):
        def check(result: CliResult) -> list[str]:
            return _close(f"cde of the {kind} dump", _record(result)["outputs"]["cde"],
                          self.best.get(kind), 1e-9)

        return check

    def operations(self) -> list[Operation]:
        ops = []
        for kind in ("svetlichny", "t2"):
            ops.append(Operation(f"mde_{kind}", [
                "mde", "--inequality", kind, "--restarts", str(MDE_RESTARTS),
                "--seed", str(self.seed), "--out", self.path(f"mde-{kind}.json"), "--json",
            ], self._mde_check(kind)))
        for kind in ("svetlichny", "t2"):
            ops.append(Operation(SHORT, [
                "cde", "--settings", self.path(f"mde-{kind}.json"), "--inequality", kind,
                "--json",
            ], self._cde_of_dump(kind)))
        return ops


class SweepWorkload(Workload):
    """The 200 x 100 noise sweep, plus two short theta-family commands whose
    points are drawn from the sweep grid by the seed."""

    name = "sweep"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        # below the last grid point, where the family stops violating at p = 0
        i, j = self.rng.integers(0, len(SWEEP_THETAS) - 1, size=2)
        self.cde_theta = float(SWEEP_THETAS[i])
        self.eval_theta = float(SWEEP_THETAS[j])
        self.eval_p = float(SWEEP_PS[self.rng.integers(0, len(SWEEP_PS))])
        self.csv = self.path("sweep.csv")
        self.expected = oracle.theta_eta_min(SWEEP_THETAS[None, :], SWEEP_PS[:, None])

    def _check_csv(self, result: CliResult) -> list[str]:
        with open(self.csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["theta", "p", "eta_min"]:
            return [f"sweep header {rows[0]}"]
        rows = rows[1:]
        if len(rows) != SWEEP_THETAS.size * SWEEP_PS.size:
            return [f"sweep has {len(rows)} rows"]
        theta = np.array([float(r[0]) for r in rows])
        p = np.array([float(r[1]) for r in rows])
        eta = np.array([math.nan if r[2] == "none" else float(r[2]) for r in rows])
        problems = []
        # rows are ordered by (p, theta)
        if not (np.array_equal(theta, np.tile(SWEEP_THETAS, SWEEP_PS.size))
                and np.array_equal(p, np.repeat(SWEEP_PS, SWEEP_THETAS.size))):
            problems.append("sweep grid or row order differs from the default grids")
        want = self.expected.reshape(-1)
        both = ~np.isnan(eta) & ~np.isnan(want)
        err = np.abs(eta[both] - want[both])
        if err.size and err.max() > 1e-9:
            problems.append(f"sweep eta_min deviates from the closed form by {err.max():.3g}")
        # a cell may be none on one side only when its crossing is within 1e-9 of 1
        ratio = np.divide(*oracle.theta_sums(theta, p)[::-1])
        lone = np.isnan(eta) != np.isnan(want)
        if np.any(np.abs(ratio[lone] - 1.0) > 1e-9):
            problems.append(f"{int(lone.sum())} sweep cells differ in feasibility")
        capped = p[~np.isnan(eta) & (eta <= 0.92)]
        top = capped.max() if capped.size else None
        if top is None or not 0.013 <= top <= 0.019:
            problems.append(f"largest p with eta_min <= 0.92 is {top}")
        record = _record(result)["outputs"]
        if record.get("rows") != len(rows):
            problems.append(f"sweep record says {record.get('rows')} rows")
        return problems

    def operations(self) -> list[Operation]:
        t = self.cde_theta
        return [
            Operation("sweep", ["sweep", "--out", self.csv, "--json"], self._check_csv),
            Operation(SHORT, ["cde", "--theta", repr(t), "--inequality", "t2", "--json"],
                      _cde_check("theta-family cde", 0.75 * (1 + math.tan(t / 2) ** 2), 1e-9)),
            Operation(SHORT, ["evaluate", "--theta", repr(self.eval_theta),
                              "--p", repr(self.eval_p), "--json"],
                      _evaluate_check(oracle.theta_behavior(self.eval_theta, self.eval_p))),
        ]


class CertifyWorkload(Workload):
    """Exact bounds, evaluate and cde on three kinds of input, and the
    malformed-input probes; every command is short."""

    name = "certify"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = self.rng
        self.ghz = self.write_json("ghz.json", {"family": {"name": "ghz"}})
        self.thetas = [float(t) for t in rng.uniform(0.05, 1.0, size=2)]
        self.theta_eta = float(rng.uniform(0.85, 1.0))
        # GHZ with a seeded relative phase, equatorial settings that undo it
        # on party C, and seeded tilts of every measurement direction
        phase = float(rng.uniform(0.0, 2 * math.pi))
        state = [[0.0, 0.0] for _ in range(8)]
        state[0] = [1 / math.sqrt(2), 0.0]
        state[7] = [math.cos(phase) / math.sqrt(2), math.sin(phase) / math.sqrt(2)]
        azimuths = list(oracle.GHZ_AZIMUTHS)
        azimuths[4] += phase
        azimuths[5] += phase
        tilt = rng.uniform(-0.1, 0.1, size=(6, 2))
        explicit = {"state": state, "measurements": [
            [math.pi / 2 + tilt[i, 0], azimuths[i] + tilt[i, 1]] for i in range(6)]}
        self.noise_p = float(rng.uniform(0.01, 0.05))
        self.etas = sorted(float(e) for e in rng.uniform(0.85, 1.0, size=3))
        self.noisy = self.write_json("noisy.json", {
            "explicit": explicit, "noise_p": self.noise_p, "efficiencies": self.etas})
        self.noisy_ideal = _explicit_behavior(explicit, self.noise_p)
        self.ghz_ideal = oracle.ghz_behavior()
        self.bad_state = self.write_json("bad-state.json", {
            "explicit": {"state": 5, "measurements": [[0.0, 0.0]] * 6}})

    @staticmethod
    def _bounds_check(maximum: int, vertices: int):
        def check(result: CliResult) -> list[str]:
            outputs = _record(result)["outputs"]
            if (outputs.get("maximum"), outputs.get("vertex_count")) != (maximum, vertices):
                return [f"bound {outputs.get('maximum')} over {outputs.get('vertex_count')} "
                        f"vertices, expected {maximum} over {vertices}"]
            return []

        return check

    def operations(self) -> list[Operation]:
        ops = [
            Operation(SHORT, ["bounds", "verify", "--inequality", "svetlichny", "--json"],
                      self._bounds_check(4, 3072)),
            Operation(SHORT, ["bounds", "verify", "--inequality", "t2", "--json"],
                      self._bounds_check(0, 768)),
            Operation(SHORT, ["evaluate", "--settings", self.ghz, "--json"],
                      _evaluate_check(self.ghz_ideal)),
            Operation(SHORT, ["cde", "--settings", self.ghz, "--inequality", "svetlichny",
                              "--json"],
                      _cde_check("GHZ cde", oracle.symmetric_cutoff(
                          "svetlichny", self.ghz_ideal), 1e-6)),
        ]
        eta = self.theta_eta
        for theta in self.thetas:
            ops += [
                Operation(SHORT, ["evaluate", "--theta", repr(theta),
                                  "--eta", f"{eta!r},{eta!r},{eta!r}", "--json"],
                          _evaluate_check(oracle.theta_behavior(theta), (eta, eta, eta))),
                Operation(SHORT, ["cde", "--theta", repr(theta), "--inequality", "t2", "--json"],
                          _cde_check("theta-family cde",
                                     0.75 * (1 + math.tan(theta / 2) ** 2), 1e-9)),
            ]
        ops += [
            Operation(SHORT, ["evaluate", "--settings", self.noisy, "--json"],
                      _evaluate_check(self.noisy_ideal, self.etas)),
            Operation(SHORT, ["cde", "--settings", self.noisy, "--inequality", "svetlichny",
                              "--json"],
                      _cde_check("noisy explicit cde", oracle.symmetric_cutoff(
                          "svetlichny", self.noisy_ideal), 1e-6)),
        ]
        probes = [
            ["evaluate", "--theta", "4"],
            ["evaluate", "--theta", "0.3", "--eta", "a,b,c"],
            ["evaluate", "--theta", "0.3", "--eta", "1.2,1,1"],
            ["evaluate", "--theta", "0.3", "--p", "nan"],
            ["mde", "--inequality", "t2", "--restarts", "0", "--out", self.path("probe.json")],
            ["sweep", "--theta-grid", "0:1:5", "--out", self.path("probe.csv")],
            ["evaluate", "--settings", self.bad_state],
        ]
        return ops + [Operation(PROBE, args) for args in probes]


WORKLOADS = {w.name: w for w in (MdeWorkload, SweepWorkload, CertifyWorkload)}


def run_round(workload: Workload, runner) -> list[OpOutcome]:
    """Execute one round with ``runner(args) -> CliResult`` and check it."""
    outcomes = []
    for op in workload.operations():
        result = runner(op.args)
        if op.kind == PROBE:
            outcomes.append(OpOutcome(op.kind, op.args, result, not probe_passed(result)))
            continue
        failed = result.code != 0
        problems = []
        if not failed and op.check is not None:
            try:
                problems = op.check(result)
            except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        outcomes.append(OpOutcome(op.kind, op.args, result, failed, problems))
    return outcomes
