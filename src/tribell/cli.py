"""Command-line front end.

Subcommands:

* ``bounds verify``  - enumerate deterministic strategies and check the
  classical bound of one inequality exactly;
* ``evaluate``       - evaluate both inequalities on a settings file;
* ``cde``            - cutoff efficiency of fixed settings;
* ``mde``            - multi-start minimization of the cutoff, dumping the
  best settings for independent re-verification;
* ``sweep``          - (theta, p, eta_min) CSV over a parameter grid.

All angles are radians.  Exit codes: 0 success, 1 verification or
violation-expectation failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .detector import EfficiencyTriple, observe
from .errors import NoViolationError, TribellError
from .families import (
    GHZ_OPTIMAL_AZIMUTHS,
    NoiseLevel,
    ThetaSetting,
    ghz_setting,
    mix_white_noise,
    theta_measurements,
    theta_state,
)
from .inequality import (
    svetlichny_coefficients,
    svetlichny_corr_value,
    svetlichny_cutoff,
    t2_cutoff_symmetric,
    t2_triple_and_pair_sums,
    t2_value,
)
from .polytope import classical_max, enumerate_svetlichny_vertices, enumerate_t2_vertices
from .qcore import (
    BehaviorTensor,
    PureState,
    SettingsTriple,
    behavior_from_settings,
    density_from_pure,
)
from .search import (
    SearchConfig,
    minimize_svetlichny_cutoff,
    minimize_t2_cutoff,
    sweep_t2_noise,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


class SettingsFileError(TribellError):
    """Settings file fails schema validation."""


@dataclass(frozen=True)
class SettingsSpec:
    """Parsed settings file: quantum setting plus optional noise/efficiencies."""

    state: PureState
    settings: SettingsTriple
    noise: NoiseLevel | None
    etas: EfficiencyTriple | None
    payload: dict


def _canonical_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def settings_digest(payload: dict) -> str:
    return hashlib.sha256(_canonical_bytes(payload)).hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SettingsFileError(message)


def _finite(value) -> float:
    """A settings number as a float.  Only JSON numbers are read: strings
    and booleans, NaN, infinities and integers too large for a float are
    usage errors."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:
        raise SettingsFileError(f"number out of range: {exc}") from exc
    _require(np.isfinite(number), f"number {value!r} is not finite")
    return number


def _pairs(raw, count: int, what: str, pair: str) -> np.ndarray:
    """``count`` JSON lists of two numbers, as a (count, 2) float array."""
    _require(isinstance(raw, list) and len(raw) == count,
             f"explicit {what} must list {count} {pair} pairs")
    for i, entry in enumerate(raw):
        _require(isinstance(entry, list) and len(entry) == 2, f"{what} entry {i} must be {pair}")
    return np.array([[_finite(entry[0]), _finite(entry[1])] for entry in raw])


@contextmanager
def _usage_errors(context: str):
    """Report a malformed value met while building inputs as a usage error.

    The domain checks of the library raise bare ``ValueError`` (a number
    out of range, a string that is not a number) or ``TypeError`` (a value
    of the wrong JSON type); inside this block they become
    `SettingsFileError`, which exits 2.  Package errors pass unchanged.
    """
    try:
        yield
    except TribellError:
        raise
    except (ValueError, TypeError) as exc:
        raise SettingsFileError(f"{context}: {exc}") from exc


def parse_settings_payload(payload: dict) -> SettingsSpec:
    with _usage_errors("invalid settings"):
        return _parse_settings_payload(payload)


def _parse_settings_payload(payload: dict) -> SettingsSpec:
    _require(isinstance(payload, dict), "settings must be a JSON object")
    has_family = "family" in payload
    has_explicit = "explicit" in payload
    _require(has_family != has_explicit, "exactly one of 'family' or 'explicit' is required")
    known = {"family", "explicit", "noise_p", "efficiencies"}
    unknown = set(payload) - known
    _require(not unknown, f"unknown settings keys: {sorted(unknown)}")

    if has_family:
        fam = payload["family"]
        _require(isinstance(fam, dict) and "name" in fam, "'family' needs a 'name'")
        params = fam.get("parameters", {})
        _require(isinstance(params, dict), "'parameters' must be an object")
        if fam["name"] == "theta":
            _require("theta" in params, "theta family needs parameters.theta (radians)")
            setting = ThetaSetting(_finite(params["theta"]))
            state, settings = theta_state(setting), theta_measurements(setting)
        elif fam["name"] == "ghz":
            azimuths = params.get("azimuths", list(GHZ_OPTIMAL_AZIMUTHS))
            _require(len(azimuths) == 6, "ghz family needs 6 azimuths (radians)")
            state, settings = ghz_setting([_finite(v) for v in azimuths])
        else:
            raise SettingsFileError(f"unknown family name {fam['name']!r}")
    else:
        exp = payload["explicit"]
        _require(isinstance(exp, dict), "'explicit' must be an object")
        _require(set(exp) == {"state", "measurements"},
                 "'explicit' needs exactly 'state' and 'measurements'")
        amps = _pairs(exp["state"], 8, "state", "[re, im]")
        state = PureState(amps[:, 0] + 1j * amps[:, 1])
        settings = SettingsTriple.from_angles(
            _pairs(exp["measurements"], 6, "measurements", "[polar, azimuth]"))

    noise = None
    if "noise_p" in payload:
        noise = NoiseLevel(_finite(payload["noise_p"]))
    etas = None
    if "efficiencies" in payload:
        eff = payload["efficiencies"]
        _require(len(eff) == 3, "'efficiencies' must list [eta_a, eta_b, eta_c]")
        etas = EfficiencyTriple(*(_finite(v) for v in eff))
    return SettingsSpec(state=state, settings=settings, noise=noise, etas=etas, payload=payload)


def load_settings(path: str) -> SettingsSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise SettingsFileError(f"cannot read settings file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SettingsFileError(f"settings file {path} is not valid JSON: {exc}") from exc
    return parse_settings_payload(payload)


def explicit_payload(state: PureState, settings: SettingsTriple) -> dict:
    amp = state.amplitudes
    return {
        "explicit": {
            "state": np.column_stack((amp.real, amp.imag)).tolist(),
            "measurements": settings.angles().reshape(6, 2).tolist(),
        }
    }


def spec_from_flags(args) -> SettingsSpec:
    if (args.settings is None) == (args.theta is None):
        raise SettingsFileError("provide exactly one of --settings or --theta")
    if args.settings is not None:
        spec = load_settings(args.settings)
    else:
        payload = {"family": {"name": "theta", "parameters": {"theta": args.theta}}}
        spec = parse_settings_payload(payload)
    payload = dict(spec.payload)
    noise, etas = spec.noise, spec.etas
    if args.p is not None:
        with _usage_errors("invalid --p"):
            noise = NoiseLevel(args.p)
        payload["noise_p"] = args.p
    if args.eta is not None:
        with _usage_errors("invalid --eta"):
            parts = [float(v) for v in args.eta.split(",")]
            if len(parts) != 3:
                raise SettingsFileError("--eta needs three comma-separated values")
            etas = EfficiencyTriple(*parts)
        payload["efficiencies"] = parts
    return SettingsSpec(spec.state, spec.settings, noise, etas, payload)


def ideal_tensor(spec: SettingsSpec) -> BehaviorTensor:
    rho = density_from_pure(spec.state)
    if spec.noise is not None:
        rho = mix_white_noise(rho, spec.noise)
    return behavior_from_settings(rho, spec.settings)


# ---------------------------------------------------------------------------
# result records and output

def result_record(args, payload: dict, outputs: dict, violated: dict) -> dict:
    """The ``--json`` record.  Only ``payload`` enters ``input_digest``;
    ``version``, ``elapsed_s`` (seconds since `main` was entered) and
    ``timestamp`` describe the run, not its inputs."""
    return {
        "command": " ".join(args._argv),
        "input_digest": settings_digest(payload),
        "outputs": outputs,
        "violated": violated,
        "version": __version__,
        "elapsed_s": time.perf_counter() - args._started,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def emit(args, record: dict, human_lines) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        for line in human_lines:
            print(line)
        print(f"input digest: {record['input_digest']}")


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tribell-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_grid(text: str, name: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise SettingsFileError(f"--{name} must be lo:hi:n")
    with _usage_errors(f"invalid --{name}"):
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1 or hi < lo:
        raise SettingsFileError(f"--{name} has an empty or inverted range")
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# subcommands

def cmd_bounds_verify(args) -> int:
    if args.inequality == "svetlichny":
        vertices = enumerate_svetlichny_vertices()
        maximum = classical_max("svetlichny_corr", vertices)
        expected = 4
    else:
        vertices = enumerate_t2_vertices()
        maximum = classical_max("t2", vertices)
        expected = 0
    if args.corrupt:
        maximum += 1  # negative-control hook for the exit-code contract
    record = result_record(
        args,
        {"inequality": args.inequality},
        {"vertex_count": len(vertices), "maximum": maximum, "expected_bound": expected},
        {},
    )
    emit(args, record, [f"max = {maximum} over {len(vertices)} vertices"])
    if maximum != expected:
        print(f"bound mismatch: expected {expected}", file=sys.stderr)
        return CHECK_FAILED
    return 0


def cmd_evaluate(args) -> int:
    spec = spec_from_flags(args)
    tensor = ideal_tensor(spec)
    ideal_t2 = t2_value(tensor)
    ideal_sv = svetlichny_corr_value(tensor)
    outputs = {"ideal_t2": ideal_t2.value, "ideal_svetlichny": ideal_sv.value}
    violated = {"ideal_t2": ideal_t2.violated, "ideal_svetlichny": ideal_sv.violated}
    lines = [
        f"ideal   t2 = {ideal_t2.value:+.12e}  violated: {ideal_t2.violated}",
        f"ideal   svetlichny = {ideal_sv.value:+.12e}  violated: {ideal_sv.violated}",
    ]
    if spec.etas is not None:
        observed = observe(tensor, spec.etas)
        obs_t2 = t2_value(observed)
        obs_sv = svetlichny_corr_value(observed)
        outputs["observed_t2"] = obs_t2.value
        outputs["observed_svetlichny"] = obs_sv.value
        violated["observed_t2"] = obs_t2.violated
        violated["observed_svetlichny"] = obs_sv.violated
        lines += [
            f"observed t2 = {obs_t2.value:+.12e}  violated: {obs_t2.violated}",
            f"observed svetlichny = {obs_sv.value:+.12e}  violated: {obs_sv.violated}",
        ]
    emit(args, result_record(args, spec.payload, outputs, violated), lines)
    return 0


def cmd_cde(args) -> int:
    spec = spec_from_flags(args)
    tensor = ideal_tensor(spec)
    if args.inequality == "svetlichny":
        coeffs = svetlichny_coefficients(tensor)
        cutoff = svetlichny_cutoff(coeffs)  # raises NoViolationError -> exit 1
        outputs = {
            "alpha": coeffs.alpha,
            "beta": coeffs.beta,
            "gamma": coeffs.gamma,
            "cde": cutoff,
        }
        lines = [
            f"alpha = {coeffs.alpha:.12g}  beta = {coeffs.beta:.12g}  gamma = {coeffs.gamma:.12g}",
            f"cde (symmetric) = {cutoff:.12f}",
        ]
    else:
        triple, pair = t2_triple_and_pair_sums(tensor)
        cutoff = t2_cutoff_symmetric(tensor)
        if cutoff is None:
            raise NoViolationError("settings do not violate at unit efficiency",
                                   deficit=pair - triple)
        outputs = {"triple_sum": triple, "pair_sum": pair, "cde": cutoff}
        lines = [
            f"triple sum = {triple:.12g}  pair sum = {pair:.12g}",
            f"cde (symmetric) = {cutoff:.12f}",
        ]
    emit(args, result_record(args, spec.payload, outputs, violated={}), lines)
    return 0


def cmd_mde(args) -> int:
    with _usage_errors("invalid search settings"):
        cfg = SearchConfig(
            restarts=args.restarts,
            seed=args.seed,
            max_iterations=args.max_iterations,
            penalty_weight=args.penalty_weight,
        )
    runner = minimize_svetlichny_cutoff if args.inequality == "svetlichny" else minimize_t2_cutoff
    result = runner(cfg)
    out_path = args.out or f"mde-{args.inequality}-settings.json"
    dump = explicit_payload(result.best_settings.to_state(), result.best_settings.to_settings())
    atomic_write_text(out_path, json.dumps(dump, indent=2, sort_keys=True) + "\n")
    payload = {"inequality": args.inequality, "restarts": args.restarts, "seed": args.seed}
    outputs = {
        "best_eta": result.best_eta,
        "violating_restarts": result.violating_restarts,
        "settings_file": out_path,
    }
    lines = [
        f"best eta = {result.best_eta:.12f} over {args.restarts} restarts "
        f"({result.violating_restarts} violating)",
        f"best settings written to {out_path}",
    ]
    emit(args, result_record(args, payload, outputs, violated={}), lines)
    return 0


def format_eta(value: float | None) -> str:
    return "none" if value is None else f"{value:.12f}"


def cmd_sweep(args) -> int:
    theta_grid = parse_grid(args.theta_grid, "theta-grid")
    p_grid = parse_grid(args.p_grid, "p-grid")
    with _usage_errors("invalid --theta-grid"):
        for theta in theta_grid:
            ThetaSetting(float(theta))
    with _usage_errors("invalid --p-grid"):
        for p in p_grid:
            NoiseLevel(float(p))
    rows = sweep_t2_noise(theta_grid, p_grid)
    lines = ["theta,p,eta_min"]
    lines += [f"{row.theta!r},{row.p!r},{format_eta(row.eta_min)}" for row in rows]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    feasible = [row.p for row in rows if row.eta_min is not None]
    outputs = {
        "rows": len(rows),
        "feasible_rows": len(feasible),
        "max_feasible_p": max(feasible) if feasible else None,
        "out": args.out,
    }
    payload = {"theta_grid": args.theta_grid, "p_grid": args.p_grid}
    emit(args, result_record(args, payload, outputs, violated={}), [
        f"wrote {len(rows)} rows to {args.out}",
        f"feasible rows: {len(feasible)}; max feasible p: {outputs['max_feasible_p']}",
    ])
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tribell",
        description="Detection-efficiency thresholds for tripartite genuine-nonlocality tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="classical-bound verification")
    bounds_sub = bounds.add_subparsers(dest="bounds_command", required=True)
    verify = bounds_sub.add_parser("verify", help="enumerate vertices and check the bound")
    verify.add_argument("--inequality", choices=("t2", "svetlichny"), required=True)
    verify.add_argument("--json", action="store_true")
    verify.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    verify.set_defaults(func=cmd_bounds_verify)

    def add_settings_flags(p):
        p.add_argument("--settings", help="settings JSON file")
        p.add_argument("--theta", type=float, help="theta-family shortcut (radians)")
        p.add_argument("--p", type=float, help="white-noise weight")
        p.add_argument("--eta", help="detector efficiencies a,b,c")
        p.add_argument("--json", action="store_true")

    evaluate = sub.add_parser("evaluate", help="evaluate both inequalities")
    add_settings_flags(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    cde = sub.add_parser("cde", help="cutoff efficiency of fixed settings")
    add_settings_flags(cde)
    cde.add_argument("--inequality", choices=("t2", "svetlichny"), required=True)
    cde.set_defaults(func=cmd_cde)

    mde = sub.add_parser("mde", help="minimize the cutoff over all settings")
    mde.add_argument("--inequality", choices=("t2", "svetlichny"), required=True)
    mde.add_argument("--restarts", type=int, default=100)
    mde.add_argument("--seed", type=int, default=0)
    mde.add_argument("--max-iterations", type=int, default=6000)
    mde.add_argument("--penalty-weight", type=float, default=1.0)
    mde.add_argument("--out", help="path for the best-settings JSON dump")
    mde.add_argument("--json", action="store_true")
    mde.set_defaults(func=cmd_mde)

    sweep = sub.add_parser("sweep", help="noise-robustness sweep CSV")
    sweep.add_argument("--theta-grid", default=f"0.01:{np.pi/3}:200", help="lo:hi:n (radians)")
    sweep.add_argument("--p-grid", default="0:0.02:100", help="lo:hi:n")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--json", action="store_true")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = ["tribell"] + argv
    args._started = started
    try:
        return args.func(args)
    except SettingsFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except TribellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
