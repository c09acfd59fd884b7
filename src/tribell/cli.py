"""Command-line front end.

Subcommands:

* ``bounds verify``  - enumerate deterministic strategies and check the
  classical bound of one inequality exactly;
* ``evaluate``       - evaluate both inequalities on a settings file;
* ``cde``            - cutoff efficiency of fixed settings;
* ``mde``            - multi-start minimization of the cutoff, dumping the
  best settings for independent re-verification;
* ``sweep``          - (theta, p, eta_min) CSV over a parameter grid.

A command runs in two stages.  The input stage uses the standard library
alone: it parses argv and checks every input domain (``--theta`` and a
settings file's ``parameters.theta``, ``--p``, ``--eta``, the ``mde``
search settings, the grid text and the endpoints of both grids, the
settings file's JSON schema with its ``noise_p`` and ``efficiencies``,
and the ``--out`` path), so a malformed invocation exits before numpy is
imported.  The numeric stage (`_numeric_stage`) then imports every
numeric module in one step, builds the states and tensors and computes.
It rejects only a state whose norm is off 1 (``PureState``), theta within
``SIN_FLOOR`` of 0 or pi (``ThetaSetting``) and a sweep grid that numpy
cannot allocate.

All angles are radians.  Exit codes: 0 success, 1 verification or
violation-expectation failure, 2 usage or parse error.

`main` runs one command and returns its exit code; it is the in-process
API.  `run` is the process entry (``python -m tribell.cli`` and the
``tribell`` script): it runs `main`, freezes the garbage collector's heap
so that the collections at interpreter exit skip it, and exits with
`main`'s code.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import NamedTuple

from . import __version__
from .errors import NormalizationError, NoViolationError, TribellError
from .inputs import EfficiencyTriple, NoiseLevel, SearchConfig, check_theta

USAGE_ERROR = 2
CHECK_FAILED = 1

# the names the numeric stage binds as globals of this module; every name
# but numpy's is read from the package's exports, in this order, so the
# numeric modules load in the order their first names appear
_NUMERIC_NAMES = (
    "np",
    "observe",
    "ThetaSetting", "ghz_setting", "mix_white_noise", "theta_measurements", "theta_state",
    "svetlichny_coefficients", "svetlichny_corr_value", "svetlichny_cutoff",
    "t2_cutoff_symmetric", "t2_triple_and_pair_sums", "t2_value",
    "classical_max", "enumerate_svetlichny_vertices", "enumerate_t2_vertices",
    "PureState", "behavior_from_settings", "density_from_pure",
    "SettingsParameterization", "minimize_svetlichny_cutoff", "minimize_t2_cutoff",
    "sweep_t2_noise",
)


def _numeric_stage() -> None:
    """Import every numeric module in one step and bind the names the
    commands use as globals of this module.

    Commands look these names up when they are called, so a replacement
    set on this module (a test's fake, a tracer's wrapper) is what they
    call; once bound, the names are not bound again.
    """
    if "np" in globals():
        return
    import numpy as np

    import tribell

    globals().update({name: getattr(tribell, name) for name in _NUMERIC_NAMES[1:]}, np=np)


def __getattr__(name: str):
    """A numeric name read from this module before any command ran (such
    as ``tribell.cli.classical_max``) runs the numeric stage first."""
    if name not in _NUMERIC_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _numeric_stage()
    return globals()[name]


class SettingsFileError(TribellError):
    """Settings file fails schema validation."""


# ---------------------------------------------------------------------------
# input stage: standard library only

class SettingsInput(NamedTuple):
    """A settings source as the input stage checked it, in plain numbers.

    ``source`` is ``("theta", theta)``, ``("ghz",)`` (the optimal
    azimuths), ``("ghz", azimuths)`` or ``("explicit", amplitude pairs,
    angle pairs)``; `build_settings` makes the state and settings of it.
    """

    source: tuple
    noise: NoiseLevel | None
    etas: EfficiencyTriple | None
    payload: dict


def settings_digest(payload: dict) -> str:
    """SHA-256 hex digest of the payload's canonical JSON."""
    # the interpreter's built-in SHA-256 (_sha2 from Python 3.12, _sha256
    # before), not hashlib's: hashlib maps OpenSSL's libcrypto, about 3.5 MB
    # of a command's peak resident set.  The digest is the same bytes.
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:  # an interpreter built without them
            from hashlib import sha256

    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


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
    _require(math.isfinite(number), f"number {value!r} is not finite")
    return number


def _pairs(raw, count: int, what: str, pair: str) -> list[list[float]]:
    """``count`` JSON lists of two numbers, as ``count`` lists of two floats."""
    _require(isinstance(raw, list) and len(raw) == count,
             f"explicit {what} must list {count} {pair} pairs")
    for i, entry in enumerate(raw):
        _require(isinstance(entry, list) and len(entry) == 2, f"{what} entry {i} must be {pair}")
    return [[_finite(entry[0]), _finite(entry[1])] for entry in raw]


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


@_usage_errors("invalid settings")
def check_settings_payload(payload: dict) -> SettingsInput:
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
            source = ("theta", _finite(params["theta"]))
        elif fam["name"] == "ghz":
            source = ("ghz",)
            if "azimuths" in params:
                azimuths = params["azimuths"]
                _require(len(azimuths) == 6, "ghz family needs 6 azimuths (radians)")
                source += ([_finite(v) for v in azimuths],)
        else:
            raise SettingsFileError(f"unknown family name {fam['name']!r}")
    else:
        exp = payload["explicit"]
        _require(isinstance(exp, dict), "'explicit' must be an object")
        _require(set(exp) == {"state", "measurements"},
                 "'explicit' needs exactly 'state' and 'measurements'")
        source = ("explicit", _pairs(exp["state"], 8, "state", "[re, im]"),
                  _pairs(exp["measurements"], 6, "measurements", "[polar, azimuth]"))

    noise = None
    if "noise_p" in payload:
        noise = NoiseLevel(_finite(payload["noise_p"]))
    etas = None
    if "efficiencies" in payload:
        eff = payload["efficiencies"]
        _require(len(eff) == 3, "'efficiencies' must list [eta_a, eta_b, eta_c]")
        etas = EfficiencyTriple(*(_finite(v) for v in eff))
    return SettingsInput(source=source, noise=noise, etas=etas, payload=payload)


def load_settings(path: str) -> SettingsInput:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise SettingsFileError(f"cannot read settings file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SettingsFileError(f"settings file {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SettingsFileError(f"settings file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SettingsFileError(f"settings file {path} nests too deeply: {exc}") from exc
    return check_settings_payload(payload)


def check_settings_flags(args) -> SettingsInput:
    """The settings of ``evaluate`` and ``cde``: a file or ``--theta``, with
    ``--p`` in place of the file's ``noise_p`` and, for ``evaluate``,
    ``--eta`` in place of its ``efficiencies``."""
    if (args.settings is None) == (args.theta is None):
        raise SettingsFileError("provide exactly one of --settings or --theta")
    if args.settings is not None:
        checked = load_settings(args.settings)
    else:
        payload = {"family": {"name": "theta", "parameters": {"theta": args.theta}}}
        checked = check_settings_payload(payload)
    payload = dict(checked.payload)
    noise, etas = checked.noise, checked.etas
    if args.p is not None:
        with _usage_errors("invalid --p"):
            noise = NoiseLevel(args.p)
        payload["noise_p"] = args.p
    if getattr(args, "eta", None) is not None:
        with _usage_errors("invalid --eta"):
            parts = [float(v) for v in args.eta.split(",")]
            if len(parts) != 3:
                raise SettingsFileError("--eta needs three comma-separated values")
            etas = EfficiencyTriple(*parts)
        payload["efficiencies"] = parts
    if checked.source[0] == "theta":  # after the flags, whose errors are reported first
        with _usage_errors("invalid settings"):
            check_theta(checked.source[1])
    return SettingsInput(checked.source, noise, etas, payload)


def parse_grid(text: str, name: str) -> tuple[float, float, int]:
    """``lo:hi:n`` as the arguments of ``np.linspace``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise SettingsFileError(f"--{name} must be lo:hi:n")
    with _usage_errors(f"invalid --{name}"):
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1 or hi < lo:
        raise SettingsFileError(f"--{name} has an empty or inverted range")
    return lo, hi, n


def check_out_path(path: str) -> str:
    """A non-empty output path whose directory exists and that is not a
    directory."""
    if not path:
        raise SettingsFileError("--out needs a path")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise SettingsFileError(f"cannot write {path}: no directory {directory}")
    if os.path.isdir(path):
        raise SettingsFileError(f"cannot write {path}: it is a directory")
    return path


def check_mde(args) -> tuple[SearchConfig, str]:
    with _usage_errors("invalid search settings"):
        cfg = SearchConfig(restarts=args.restarts, seed=args.seed,
                           max_iterations=args.max_iterations)
    return cfg, check_out_path(
        f"mde-{args.inequality}-settings.json" if args.out is None else args.out)


def check_sweep(args) -> tuple[tuple, tuple]:
    """The grids and the output path.  The grids' endpoints are checked
    theta first, as `sweep_t2_noise` checks every point; ``np.linspace``
    ends a grid of one point at ``lo``, unless ``hi`` is not finite, which
    makes that point NaN."""
    theta_grid = parse_grid(args.theta_grid, "theta-grid")
    p_grid = parse_grid(args.p_grid, "p-grid")
    check_out_path(args.out)
    with _usage_errors("invalid sweep grid"):
        for (lo, hi, n), check in ((theta_grid, check_theta), (p_grid, NoiseLevel)):
            check(lo)
            if n > 1 or not math.isfinite(hi):
                check(hi)
    return theta_grid, p_grid


# ---------------------------------------------------------------------------
# numeric stage

class SettingsSpec(NamedTuple):
    """Parsed settings file: quantum setting plus optional noise/efficiencies."""

    state: PureState
    settings: SettingsTriple
    noise: NoiseLevel | None
    etas: EfficiencyTriple | None
    payload: dict


def build_settings(checked: SettingsInput) -> SettingsSpec:
    """The state and settings of a checked source.  ``ThetaSetting`` checks
    theta's domain and ``PureState`` the state's norm; both are usage
    errors.  Callable outside `main`, so it runs the numeric stage itself."""
    _numeric_stage()
    kind, *values = checked.source
    with _usage_errors("invalid settings"):
        if kind == "theta":
            setting = ThetaSetting(*values)
            state, settings = theta_state(setting), theta_measurements(setting)
        elif kind == "ghz":
            state, settings = ghz_setting(*values)
        else:
            params = SettingsParameterization(*values)
            try:  # a state off unit norm is a malformed value, not a failed check
                state = PureState(params.state_coords.view(complex))
            except NormalizationError as exc:
                raise SettingsFileError(f"invalid settings: {exc}") from exc
            settings = params.to_settings()
    return SettingsSpec(state, settings, checked.noise, checked.etas, checked.payload)


def parse_settings_payload(payload: dict) -> SettingsSpec:
    return build_settings(check_settings_payload(payload))


def explicit_payload(state: PureState, settings: SettingsTriple) -> dict:
    _numeric_stage()
    params = SettingsParameterization.from_quantum(state, settings)
    return {"explicit": {"state": params.state_coords.reshape(8, 2).tolist(),
                         "measurements": params.measurement_angles.reshape(6, 2).tolist()}}


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
    from datetime import datetime, timezone  # here, not at module import

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


def atomic_write_text(path: str, text) -> None:
    """Write ``text``, a string or an iterable of string chunks written in
    turn, to ``path`` through a temporary file in its directory, so that
    ``path`` appears only once the last chunk is written and not at all
    when a chunk fails; a write the system refuses is a usage error."""
    chunks = [text] if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tribell-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise SettingsFileError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands

def cmd_bounds_verify(args, inputs: None) -> int:
    if args.inequality == "svetlichny":
        vertices = enumerate_svetlichny_vertices()
        maximum = classical_max("svetlichny_corr", vertices)
        expected = 4
    else:
        vertices = enumerate_t2_vertices()
        maximum = classical_max("t2", vertices)
        expected = 0
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


def cmd_evaluate(args, checked: SettingsInput) -> int:
    spec = build_settings(checked)
    tensors = {"ideal": ideal_tensor(spec)}
    if spec.etas is not None:
        tensors["observed"] = observe(tensors["ideal"], spec.etas)
    outputs, violated, lines = {}, {}, []
    for stage, tensor in tensors.items():
        for name, evaluate in (("t2", t2_value), ("svetlichny", svetlichny_corr_value)):
            value, flag = evaluate(tensor)
            outputs[f"{stage}_{name}"], violated[f"{stage}_{name}"] = value, flag
            lines.append(f"{stage:<7} {name} = {value:+.12e}  violated: {flag}")
    emit(args, result_record(args, spec.payload, outputs, violated), lines)
    return 0


def cmd_cde(args, checked: SettingsInput) -> int:
    spec = build_settings(checked)
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


def _median(values) -> float:
    """``np.median``'s value, bit for bit, without the ``numpy.ma`` import
    that it costs."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return (ordered[mid] + ordered[~mid]) / 2


def cmd_mde(args, inputs: tuple[SearchConfig, str]) -> int:
    cfg, out_path = inputs
    runner = minimize_svetlichny_cutoff if args.inequality == "svetlichny" else minimize_t2_cutoff
    result = runner(cfg)
    dump = explicit_payload(result.best_settings.to_state(), result.best_settings.to_settings())
    atomic_write_text(out_path, json.dumps(dump, indent=2, sort_keys=True) + "\n")
    payload = {"inequality": args.inequality, "restarts": args.restarts, "seed": args.seed}
    values = result.restart_values
    counts = {status: result.status.count(status) for status in ("converged", "stalled", "budget")}
    outputs = {
        "best_eta": result.best_eta,
        "violating_restarts": result.violating_restarts,
        "settings_file": out_path,
        "restart_values": {"min": min(values), "median": _median(values), "max": max(values)},
        "converged_restarts": args.restarts - counts["budget"],
        "status_counts": counts,
        "nfev": sum(result.nfev),
    }
    statuses = ", ".join(f"{n} {status}" for status, n in counts.items())
    lines = [
        f"best eta = {result.best_eta:.12f} over {args.restarts} restarts "
        f"({result.violating_restarts} violating, {statuses}, "
        f"{sum(result.nfev)} objective calls)",
        f"best settings written to {out_path}",
    ]
    emit(args, result_record(args, payload, outputs, violated={}), lines)
    return 0


def _sweep_csv(sweep):
    """The sweep's CSV text in chunks: the header, then one chunk per noise
    row, read from the crossings of the `NoiseSweep` ``sweep``."""
    yield "theta,p,eta_min\n"
    # each grid value's repr is taken once
    theta_text = [repr(theta) for theta in sweep.thetas]
    for p, crossings in zip(sweep.ps, sweep.crossings):
        p_text = repr(p)
        yield "".join(
            f"{theta},{p_text},{'none' if eta is None else f'{eta:.12f}'}\n"
            for theta, eta in zip(theta_text, crossings))


def cmd_sweep(args, grids: tuple[tuple, tuple]) -> int:
    try:
        theta_grid, p_grid = (np.linspace(*grid) for grid in grids)
    except MemoryError as exc:  # numpy refuses a grid it cannot allocate
        raise SettingsFileError(f"invalid sweep grid: {exc}") from exc
    with _usage_errors("invalid sweep grid"):
        sweep = sweep_t2_noise(theta_grid, p_grid)
    atomic_write_text(args.out, _sweep_csv(sweep))
    # feasible cells per noise row
    feasible = [len(crossings) - crossings.count(None) for crossings in sweep.crossings]
    outputs = {
        "rows": len(sweep),
        "feasible_rows": sum(feasible),
        "max_feasible_p": max((p for p, n in zip(sweep.ps, feasible) if n), default=None),
        "out": args.out,
    }
    payload = {"theta_grid": args.theta_grid, "p_grid": args.p_grid}
    emit(args, result_record(args, payload, outputs, violated={}), [
        f"wrote {outputs['rows']} rows to {args.out}",
        f"feasible rows: {outputs['feasible_rows']}; "
        f"max feasible p: {outputs['max_feasible_p']}",
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
    verify.set_defaults(check=lambda args: None, func=cmd_bounds_verify)

    def add_settings_flags(p):
        p.add_argument("--settings", help="settings JSON file")
        p.add_argument("--theta", type=float, help="theta-family shortcut (radians)")
        p.add_argument("--p", type=float, help="white-noise weight")
        p.add_argument("--json", action="store_true")

    evaluate = sub.add_parser("evaluate", help="evaluate both inequalities")
    add_settings_flags(evaluate)
    evaluate.add_argument("--eta", help="detector efficiencies a,b,c")
    evaluate.set_defaults(check=check_settings_flags, func=cmd_evaluate)

    cde = sub.add_parser("cde", help="cutoff efficiency of fixed settings")
    add_settings_flags(cde)
    cde.add_argument("--inequality", choices=("t2", "svetlichny"), required=True)
    cde.set_defaults(check=check_settings_flags, func=cmd_cde)

    mde = sub.add_parser("mde", help="minimize the cutoff over all settings")
    mde.add_argument("--inequality", choices=("t2", "svetlichny"), required=True)
    mde.add_argument("--restarts", type=int, default=100)
    mde.add_argument("--seed", type=int, default=0)
    mde.add_argument("--max-iterations", type=int, default=6000)
    mde.add_argument("--out", help="path for the best-settings JSON dump")
    mde.add_argument("--json", action="store_true")
    mde.set_defaults(check=check_mde, func=cmd_mde)

    sweep = sub.add_parser("sweep", help="noise-robustness sweep CSV")
    sweep.add_argument("--theta-grid", default=f"0.01:{math.pi/3}:200", help="lo:hi:n (radians)")
    sweep.add_argument("--p-grid", default="0:0.02:100", help="lo:hi:n")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--json", action="store_true")
    sweep.set_defaults(check=check_sweep, func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = ["tribell"] + argv
    args._started = started
    try:
        inputs = args.check(args)
        _numeric_stage()
        return args.func(args, inputs)
    except SettingsFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except TribellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED


def run() -> None:
    """Run `main` as a process and exit with its code.

    Freezing moves every object the process tracks into the collector's
    permanent generation, which the collections at interpreter exit skip;
    the operating system takes the memory back.  Atexit handlers and the
    flushing of stdout and stderr still run.  An argparse exit (usage
    error or ``--help``) leaves `main` as ``SystemExit`` and is frozen
    too.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
