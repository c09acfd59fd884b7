"""Command-line interface: subcommands, file formats, exit codes."""

import contextlib
import hashlib
import io
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tribell
from tribell import search
from conftest import random_settings, random_state
from tribell.cli import (
    SettingsFileError,
    _median,
    atomic_write_text,
    explicit_payload,
    main,
    parse_settings_payload,
    settings_digest,
)
from tribell.families import ghz_setting
from tribell.qcore import PureState, SettingsTriple
from tribell.search import sweep_t2_noise


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsVerify:
    def test_svetlichny(self, capsys):
        code, out, _ = run(capsys, "bounds", "verify", "--inequality", "svetlichny")
        assert code == 0
        assert "max = 4 over 3072 vertices" in out

    def test_t2(self, capsys):
        code, out, _ = run(capsys, "bounds", "verify", "--inequality", "t2")
        assert code == 0
        assert "max = 0 over 768 vertices" in out

    def test_corrupt_hook_fails(self, capsys, monkeypatch):
        # a wrong classical maximum must fail the check with exit 1
        real = tribell.cli.classical_max
        monkeypatch.setattr(tribell.cli, "classical_max",
                            lambda form, vertices: real(form, vertices) + 1)
        code, _, err = run(capsys, "bounds", "verify", "--inequality", "t2")
        assert code == 1
        assert "mismatch" in err

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "bounds", "verify", "--inequality", "t2", "--json")
        record = json.loads(out)
        assert code == 0
        assert record["outputs"]["maximum"] == 0
        assert record["outputs"]["vertex_count"] == 768


class TestEvaluate:
    def test_theta_family_flagged(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "family": {"name": "theta", "parameters": {"theta": 0.3}},
            "efficiencies": [1.0, 1.0, 1.0],
        }))
        code, out, _ = run(capsys, "evaluate", "--settings", str(path), "--json")
        record = json.loads(out)
        assert code == 0
        assert record["violated"]["ideal_t2"] is True
        assert record["outputs"]["observed_t2"] == pytest.approx(
            record["outputs"]["ideal_t2"]
        )

    def test_ghz_optimal_flagged(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"family": {"name": "ghz"}}))
        code, out, _ = run(capsys, "evaluate", "--settings", str(path), "--json")
        record = json.loads(out)
        assert record["violated"]["ideal_svetlichny"] is True
        assert record["outputs"]["ideal_svetlichny"] == pytest.approx(4 * np.sqrt(2))

    def test_large_theta_not_flagged(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--theta", "1.2", "--json")
        record = json.loads(out)
        assert code == 0
        assert record["violated"]["ideal_t2"] is False

    def test_deterministic_numeric_fields(self, capsys):
        _, out1, _ = run(capsys, "evaluate", "--theta", "0.4", "--json")
        _, out2, _ = run(capsys, "evaluate", "--theta", "0.4", "--json")
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["outputs"] == r2["outputs"]
        assert r1["input_digest"] == r2["input_digest"]


class TestCde:
    def test_ghz_cutoff(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"family": {"name": "ghz"}}))
        code, out, _ = run(capsys, "cde", "--settings", str(path),
                           "--inequality", "svetlichny", "--json")
        record = json.loads(out)
        assert code == 0
        assert record["outputs"]["cde"] == pytest.approx(0.8905087442713905, abs=1e-12)

    def test_theta_cutoff(self, capsys):
        code, out, _ = run(capsys, "cde", "--theta", "0.2", "--inequality", "t2", "--json")
        record = json.loads(out)
        assert code == 0
        assert record["outputs"]["cde"] == pytest.approx(0.7575502848168711, abs=1e-12)

    def test_product_state_no_violation(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        state = [[1.0, 0.0]] + [[0.0, 0.0]] * 7
        measurements = [[0.0, 0.0]] * 6
        path.write_text(json.dumps({"explicit": {"state": state, "measurements": measurements}}))
        code, _, err = run(capsys, "cde", "--settings", str(path),
                           "--inequality", "svetlichny")
        assert code == 1
        assert "violate" in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "cde", "--inequality", "t2")
        assert code == 2
        assert "exactly one" in err


class TestMde:
    def test_round_trip_through_dump(self, capsys, tmp_path):
        out_path = tmp_path / "best.json"
        code, out, _ = run(
            capsys, "mde", "--inequality", "svetlichny",
            "--restarts", "2", "--seed", "7", "--out", str(out_path), "--json",
        )
        record = json.loads(out)
        assert code == 0
        best_eta = record["outputs"]["best_eta"]
        assert best_eta <= 0.8906  # at worst the GHZ-level cutoff

        code2, out2, _ = run(capsys, "cde", "--settings", str(out_path),
                             "--inequality", "svetlichny", "--json")
        assert code2 == 0
        reverified = json.loads(out2)["outputs"]["cde"]
        assert reverified == pytest.approx(best_eta, abs=1e-9)

    def test_record_reports_restart_diagnostics(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "mde", "--inequality", "t2", "--restarts", "3", "--seed", "5",
            "--out", str(tmp_path / "best.json"), "--json",
        )
        assert code == 0
        record = json.loads(out)
        outputs = record["outputs"]
        values = outputs["restart_values"]
        assert values["min"] <= values["median"] <= values["max"]
        assert values["min"] == pytest.approx(outputs["best_eta"], abs=1e-9)
        assert outputs["converged_restarts"] == 3
        counts = outputs["status_counts"]
        assert sorted(counts) == ["budget", "converged", "stalled"]
        assert sum(counts.values()) == 3
        assert counts["budget"] == 3 - outputs["converged_restarts"]
        assert outputs["nfev"] >= 3
        # the diagnostics describe the run, not its inputs
        assert record["input_digest"] == settings_digest(
            {"inequality": "t2", "restarts": 3, "seed": 5})

    def test_human_line_reports_the_status_counts(self, capsys, tmp_path):
        argv = ["mde", "--inequality", "t2", "--restarts", "3", "--seed", "5",
                "--out", str(tmp_path / "best.json")]
        code, out, _ = run(capsys, *argv, "--json")
        outputs = json.loads(out)["outputs"]
        code2, human, _ = run(capsys, *argv)
        assert code == code2 == 0
        counts = ", ".join(f"{outputs['status_counts'][status]} {status}"
                           for status in ("converged", "stalled", "budget"))
        assert (f"({outputs['violating_restarts']} violating, {counts}, "
                f"{outputs['nfev']} objective calls)") in human.splitlines()[0]

    def test_median_matches_numpy_bit_for_bit(self, rng):
        for n in range(1, 60):
            values = tuple((rng.random(n) * rng.choice([1e-3, 1.0, 1e3], n)).tolist())
            assert _median(values).hex() == float(np.median(values)).hex()


class TestSweep:
    def test_csv_format_and_determinism(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        args = ("sweep", "--theta-grid", "0.1:1.0:5", "--p-grid", "0:0.02:3",
                "--out", str(out_path))
        code, _, _ = run(capsys, *args)
        assert code == 0
        first = out_path.read_bytes()
        lines = first.decode().strip().split("\n")
        assert lines[0] == "theta,p,eta_min"
        assert len(lines) == 1 + 15
        assert any(line.endswith(",none") for line in lines[1:])
        finite = [line for line in lines[1:] if not line.endswith(",none")]
        # eta column carries at least 9 significant digits
        assert all(len(line.split(",")[2].split(".")[1]) >= 9 for line in finite)

        code, _, _ = run(capsys, *args)
        assert code == 0
        assert out_path.read_bytes() == first

    def test_csv_lines_are_the_rows_reprs(self, capsys, tmp_path):
        # the reference: every line formatted from its own row
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--theta-grid", "0.05:1.2:7", "--p-grid", "0:0.03:4",
                         "--out", str(out_path))
        assert code == 0
        rows = sweep_t2_noise(np.linspace(0.05, 1.2, 7), np.linspace(0.0, 0.03, 4))
        want = ["theta,p,eta_min"] + [
            f"{row.theta!r},{row.p!r},{'none' if row.eta_min is None else f'{row.eta_min:.12f}'}"
            for row in rows]
        assert out_path.read_text() == "\n".join(want) + "\n"

    def test_rows_sorted_by_p_then_theta(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--theta-grid", "0.2:0.8:3", "--p-grid", "0:0.01:2",
            "--out", str(out_path))
        rows = [line.split(",") for line in out_path.read_text().strip().split("\n")[1:]]
        keys = [(float(p), float(t)) for t, p, _ in rows]
        assert keys == sorted(keys)

    def test_failed_cross_check_exits_1(self, capsys, tmp_path, monkeypatch):
        # a channel that ignores the efficiencies fails the sweep's sign
        # bracket: an internal cross-check, reported as a failed check
        monkeypatch.setattr(search, "observed_probabilities", lambda probs, etas: probs)
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--theta-grid", "0.3:0.6:2", "--p-grid", "0:0.01:2",
                           "--out", str(out_path))
        assert code == 1
        assert err.startswith("error: ") and "disagree" in err
        assert not out_path.exists()

    def test_failed_eta_1_check_exits_1(self, capsys, tmp_path, monkeypatch):
        # pair sums inflated until every cell reads as infeasible, though
        # some violate at eta = 1
        sums = search.t2_triple_and_pair_sums

        def inflated(probs):
            triple, pair = sums(probs)
            return triple, pair * 1.5

        monkeypatch.setattr(search, "t2_triple_and_pair_sums", inflated)
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--theta-grid", "0.3:0.6:2", "--p-grid", "0:0.01:2",
                           "--out", str(out_path))
        assert code == 1
        assert err.startswith("error: ") and "infeasible but eta=1 violates" in err
        assert list(tmp_path.iterdir()) == []

    def test_default_sweep_never_holds_the_whole_csv(self, capsys, tmp_path):
        # the CLI builds none of the 20,000 SweepRows (next test); the CSV
        # text, 1.0 MB joined, is written one noise row at a time
        tribell.cli._numeric_stage()
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "sweep", "--out", str(tmp_path / "sweep.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (tmp_path / "sweep.csv").stat().st_size > 990_000
        assert peak < 4_000_000

    def test_default_sweep_builds_no_rows(self, capsys, tmp_path):
        # the CSV and the record read the crossings of each noise row where
        # they lie, so none of the 20,000 SweepRows is built
        tribell.cli._numeric_stage()
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "sweep", "--out", str(tmp_path / "sweep.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2_000_000

    @pytest.mark.parametrize("p_grid, ps", [
        ("0:0.1:5", np.linspace(0.0, 0.1, 5)),  # feasible cells up to p = 0.05 only
        ("0.075:0.1:2", np.linspace(0.075, 0.1, 2)),  # none
    ])
    def test_record_counts_the_rows_feasible_cells(self, capsys, tmp_path, p_grid, ps):
        code, out, _ = run(capsys, "sweep", "--theta-grid", "0.05:1.2:7", "--p-grid", p_grid,
                           "--out", str(tmp_path / "sweep.csv"), "--json")
        assert code == 0
        rows = sweep_t2_noise(np.linspace(0.05, 1.2, 7), ps)
        feasible = [row.p for row in rows if row.eta_min is not None]
        outputs = json.loads(out)["outputs"]
        assert outputs["rows"] == len(rows)
        assert outputs["feasible_rows"] == len(feasible)
        assert outputs["max_feasible_p"] == (max(feasible) if feasible else None)

    def test_grid_too_large_to_allocate(self, capsys, tmp_path):
        # numpy refuses the 10^12-point grid at once, so nothing is allocated
        code, out, err = run(capsys, "sweep", "--theta-grid", "0.01:1:1000000000000",
                             "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid sweep grid: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_grid_spec(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--theta-grid", "0.5:0.1:5",
                           "--p-grid", "0:0.02:3", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "empty or inverted" in err

    def test_one_point_grid_is_its_lower_end(self, capsys, tmp_path):
        # np.linspace(lo, hi, 1) is [lo], so hi may lie outside the domain
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--theta-grid", "0.3:4:1", "--p-grid", "0:0.01:2",
                         "--out", str(out_path))
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().strip().split("\n")[1:]]
        assert [(t, p) for t, p, _ in rows] == [("0.3", "0.0"), ("0.3", "0.01")]

    @pytest.mark.parametrize("theta_grid, p_grid, message", [
        ("0.3:4:2", "0:0.01:2", "theta = 4.0 must lie in (0, pi)"),
        ("0:1:5", "0:0.01:2", "theta = 0.0 must lie in (0, pi)"),
        ("0.3:0.6:2", "0:2:3", "p = 2.0 must lie in [0, 1]"),
        ("0.3:0.6:2", "-0.5:0.5:3", "p = -0.5 must lie in [0, 1]"),
        ("0:1:5", "0:2:3", "theta = 0.0 must lie in (0, pi)"),  # theta first
        # a non-finite hi is checked even in a one-point grid, whose one
        # point np.linspace would make NaN
        ("0.1:inf:1", "0:0.01:2", "theta = inf must lie in (0, pi)"),
        ("0.1:nan:1", "0:0.01:2", "theta = nan must lie in (0, pi)"),
        ("0.3:0.6:2", "0:inf:1", "p = inf must lie in [0, 1]"),
    ])
    def test_grid_endpoint_out_of_range(self, capsys, tmp_path, theta_grid, p_grid, message):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--theta-grid", theta_grid, f"--p-grid={p_grid}",
                             "--out", str(out_path))
        assert (code, out, err) == (2, "", f"error: invalid sweep grid: {message}\n")
        assert not out_path.exists()


class TestSettingsFiles:
    def test_explicit_round_trip(self):
        state, settings = ghz_setting()
        payload = explicit_payload(state, settings)
        spec = parse_settings_payload(payload)
        np.testing.assert_allclose(spec.state.amplitudes, state.amplitudes, atol=1e-15)
        payload2 = explicit_payload(spec.state, spec.settings)
        assert payload == payload2

    def test_explicit_round_trip_random(self, rng):
        # the file carries every number exactly, and PureState keeps
        # amplitudes whose norm is within rounding of 1, so the state read
        # back is bit for bit the state written
        for _ in range(20):
            state, settings = random_state(rng), random_settings(rng)
            payload = explicit_payload(state, settings)
            spec = parse_settings_payload(json.loads(json.dumps(payload)))
            renormalized = PureState(state.amplitudes)
            assert spec.state.amplitudes.tobytes() == renormalized.amplitudes.tobytes()
            assert spec.settings.angles().tobytes() == settings.angles().tobytes()
            assert explicit_payload(spec.state, spec.settings) == explicit_payload(
                renormalized, settings)

    def test_family_and_explicit_exclusive(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "family": {"name": "theta", "parameters": {"theta": 0.3}},
            "explicit": {"state": [], "measurements": []},
        }))
        code, _, err = run(capsys, "evaluate", "--settings", str(path))
        assert code == 2
        assert "exactly one" in err

    def test_unknown_family(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"family": {"name": "w-state"}}))
        code, _, err = run(capsys, "evaluate", "--settings", str(path))
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "evaluate", "--settings", str(path))
        assert code == 2
        assert "JSON" in err

    def test_bad_eta_flag(self, capsys):
        code, _, err = run(capsys, "evaluate", "--theta", "0.3", "--eta", "1,1")
        assert code == 2
        assert "three" in err

    def test_eta_flag_applied(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--theta", "0.3",
                           "--eta", "0.9,0.9,0.9", "--json")
        record = json.loads(out)
        assert code == 0
        assert "observed_t2" in record["outputs"]
        assert record["outputs"]["observed_t2"] != record["outputs"]["ideal_t2"]

    def test_cde_takes_no_eta_flag(self, capsys, tmp_path):
        # the cutoff is the symmetric efficiency itself, so cde has no --eta
        with pytest.raises(SystemExit) as exc:
            main(["cde", "--theta", "0.3", "--inequality", "t2", "--eta", "0.9,0.9,0.9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eta" in capsys.readouterr().err
        # a settings file may still carry efficiencies, which cde leaves aside
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "family": {"name": "theta", "parameters": {"theta": 0.3}},
            "efficiencies": [0.9, 0.9, 0.9],
        }))
        code, out, _ = run(capsys, "cde", "--settings", str(path), "--inequality", "t2", "--json")
        _, plain, _ = run(capsys, "cde", "--theta", "0.3", "--inequality", "t2", "--json")
        assert code == 0
        assert json.loads(out)["outputs"] == json.loads(plain)["outputs"]

    def test_flag_errors_come_before_theta(self, capsys):
        code, _, err = run(capsys, "evaluate", "--theta", "4", "--p", "2")
        assert (code, err) == (2, "error: invalid --p: p = 2.0 must lie in [0, 1]\n")
        code, _, err = run(capsys, "evaluate", "--theta", "4")
        assert (code, err) == (2, "error: invalid settings: theta = 4.0 must lie in (0, pi)\n")


_GOOD_STATE = [[0.5 ** 0.5, 0.0]] + [[0.0, 0.0]] * 6 + [[0.5 ** 0.5, 0.0]]
_EQUATORIAL = [[np.pi / 2, 0.0]] * 6

# settings files the malformed-input probes read; json.dumps writes a
# non-finite float as NaN or Infinity, which json.load reads back
PROBE_SETTINGS = {
    "bad-state.json": {"explicit": {"state": 5, "measurements": [[0.0, 0.0]] * 6}},
    "nan-angle.json": {"explicit": {"state": _GOOD_STATE,
                                    "measurements": [[float("nan"), 0.0]] + _EQUATORIAL[1:]}},
    "inf-angle.json": {"explicit": {"state": _GOOD_STATE,
                                    "measurements": [[0.3, float("inf")]] + _EQUATORIAL[1:]}},
    "nan-azimuth.json": {"family": {"name": "ghz", "parameters": {
        "azimuths": [float("nan"), 1.0, 0.0, 4.7, 2.3, 3.9]}}},
    "nan-amplitude.json": {"explicit": {"state": [[float("nan"), 0.0]] + _GOOD_STATE[1:],
                                        "measurements": _EQUATORIAL}},
    "object-measurement.json": {"explicit": {"state": _GOOD_STATE,
                                             "measurements": [{"0": 1, "1": 2}] + _EQUATORIAL[1:]}},
    "object-amplitude.json": {"explicit": {"state": [{"0": 1, "1": 0}] + _GOOD_STATE[1:],
                                           "measurements": _EQUATORIAL}},
    "string-angle.json": {"explicit": {"state": _GOOD_STATE,
                                       "measurements": [["1.5707963267948966", 0.0]]
                                       + _EQUATORIAL[1:]}},
    "bool-amplitude.json": {"explicit": {"state": [[True, False]] + [[0.0, 0.0]] * 7,
                                         "measurements": _EQUATORIAL}},
    "off-norm-amplitude.json": {"explicit": {"state": [[0.7, 0.0]] + _GOOD_STATE[1:],
                                             "measurements": _EQUATORIAL}},
    "theta-out-of-range.json": {"family": {"name": "theta", "parameters": {"theta": 4.0}}},
}
# settings files written as bytes: not UTF-8, and nested deeper than the
# JSON decoder's recursion limit
PROBE_BYTES = {"not-utf8.json": b"\xff\xfe{}", "deep.json": b"[" * 10000 + b"]" * 10000}

MALFORMED = {
    "theta-out-of-range": ["evaluate", "--theta", "4"],
    "eta-not-a-number": ["evaluate", "--theta", "0.3", "--eta", "a,b,c"],
    "eta-out-of-range": ["evaluate", "--theta", "0.3", "--eta", "1.2,1,1"],
    "p-nan": ["evaluate", "--theta", "0.3", "--p", "nan"],
    "zero-restarts": ["mde", "--inequality", "t2", "--restarts", "0",
                      "--out", "{tmp}/probe.json"],
    "theta-grid-at-zero": ["sweep", "--theta-grid", "0:1:5", "--out", "{tmp}/probe.csv"],
    "state-not-a-list": ["evaluate", "--settings", "{tmp}/bad-state.json"],
    "angle-nan": ["evaluate", "--settings", "{tmp}/nan-angle.json", "--json"],
    "angle-infinity": ["cde", "--settings", "{tmp}/inf-angle.json", "--inequality", "t2",
                       "--json"],
    "ghz-azimuth-nan": ["evaluate", "--settings", "{tmp}/nan-azimuth.json", "--json"],
    "amplitude-nan": ["evaluate", "--settings", "{tmp}/nan-amplitude.json"],
    "measurement-object": ["evaluate", "--settings", "{tmp}/object-measurement.json"],
    "amplitude-object": ["cde", "--settings", "{tmp}/object-amplitude.json", "--inequality", "t2"],
    "angle-string": ["evaluate", "--settings", "{tmp}/string-angle.json", "--json"],
    "amplitude-bool": ["evaluate", "--settings", "{tmp}/bool-amplitude.json"],
    "amplitude-norm": ["cde", "--settings", "{tmp}/off-norm-amplitude.json",
                       "--inequality", "svetlichny"],
    "seed-negative": ["mde", "--inequality", "t2", "--restarts", "1", "--seed", "-1",
                      "--out", "{tmp}/probe.json"],
    "settings-not-utf8": ["evaluate", "--settings", "{tmp}/not-utf8.json"],
    "settings-too-deep": ["evaluate", "--settings", "{tmp}/deep.json"],
    "sweep-out-missing-directory": ["sweep", "--theta-grid", "0.3:0.6:2", "--p-grid", "0:0.01:2",
                                    "--out", "{tmp}/missing/probe.csv"],
    "mde-out-is-a-directory": ["mde", "--inequality", "t2", "--restarts", "1", "--out", "{tmp}"],
    "p-grid-out-of-range": ["sweep", "--p-grid", "0:2:3", "--out", "{tmp}/probe.csv"],
    "theta-grid-end-infinite": ["sweep", "--theta-grid", "0.1:inf:1", "--out", "{tmp}/probe.csv"],
    "theta-grid-end-nan": ["sweep", "--theta-grid", "0.1:nan:1", "--out", "{tmp}/probe.csv"],
    "p-grid-end-infinite": ["sweep", "--p-grid", "0:inf:1", "--out", "{tmp}/probe.csv"],
    "settings-theta-out-of-range": ["evaluate", "--settings", "{tmp}/theta-out-of-range.json"],
    "sweep-out-empty": ["sweep", "--theta-grid", "0.3:0.6:2", "--p-grid", "0:0.01:2",
                        "--out", ""],
    "mde-out-empty": ["mde", "--inequality", "t2", "--restarts", "1", "--out", ""],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv):
    for name, payload in PROBE_SETTINGS.items():
        (tmp_path / name).write_text(json.dumps(payload))
    for name, data in PROBE_BYTES.items():
        (tmp_path / name).write_bytes(data)
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err
    assert not (tmp_path / "probe.json").exists() and not (tmp_path / "probe.csv").exists()


def test_refused_write_is_a_usage_error(tmp_path):
    # the input stage checks the directory, but a write can still fail
    (tmp_path / "file").write_text("")
    with pytest.raises(SettingsFileError, match="cannot write"):
        atomic_write_text(str(tmp_path / "file" / "out.csv"), "text")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_chunks_that_fail_leave_no_file(tmp_path):
    def chunks():
        yield "theta,p,eta_min\n"
        yield "0.1,0.0,none\n"
        raise RuntimeError("chunk failed")

    out_path = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="chunk failed"):
        atomic_write_text(str(out_path), chunks())
    assert list(tmp_path.iterdir()) == []
    atomic_write_text(str(out_path), iter(["a\n", "", "b\n"]))
    assert out_path.read_text() == "a\nb\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


# Fuzz of the settings-file parser: recursive JSON with keys drawn from the
# schema, and payloads of the schema's shape with any numbers, NaN and
# infinities included
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["theta", "ghz"]),
    lambda inner: st.lists(inner, max_size=8) | st.dictionaries(
        st.sampled_from(["family", "explicit", "name", "parameters", "theta", "azimuths",
                         "state", "measurements", "noise_p", "efficiencies"]),
        inner, max_size=4),
    max_leaves=20,
)
_number = st.floats(-4, 4) | st.floats() | st.integers()
_pair = st.lists(_number, min_size=2, max_size=2)
_extras = {"noise_p": _number, "efficiencies": st.lists(_number, min_size=3, max_size=3)}
_settings = (
    st.fixed_dictionaries({"family": st.fixed_dictionaries(
        {"name": st.sampled_from(["theta", "ghz"])},
        optional={"parameters": st.fixed_dictionaries({}, optional={
            "theta": _number, "azimuths": st.lists(_number, min_size=6, max_size=6)})},
    )}, optional=_extras)
    | st.fixed_dictionaries({"explicit": st.fixed_dictionaries({
        "state": st.just(_GOOD_STATE) | st.lists(_pair, min_size=8, max_size=8),
        "measurements": st.lists(_pair, min_size=6, max_size=6),
    })}, optional=_extras)
    | _json
)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(payload=_settings)
def test_settings_fuzz_keeps_the_exit_contract(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("fuzz") / "settings.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["evaluate", "--settings", str(path), "--json"])
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())


class TestRunRecord:
    def test_round_trip_is_a_fixed_point(self):
        # writing a state, reading it back and writing it again gives the same
        # bytes and digest: a state is not renormalized by its own rounding
        rng = np.random.default_rng(7)
        for _ in range(2000):
            payload = explicit_payload(random_state(rng), random_settings(rng))
            spec = parse_settings_payload(json.loads(json.dumps(payload)))
            rewritten = explicit_payload(spec.state, spec.settings)
            assert json.dumps(rewritten) == json.dumps(payload)
            assert settings_digest(rewritten) == settings_digest(payload)

    def test_round_trip_keeps_signed_zeros(self):
        # the file's (re, im) pairs are read back through the view of complex
        # numbers they were written from, so a zero keeps its sign
        state, settings = ghz_setting()
        amplitudes = state.amplitudes.copy()
        amplitudes[1:7] = complex(-0.0, -0.0)
        angles = settings.angles()
        angles[0, 0, 1] = -0.0
        payload = explicit_payload(PureState(amplitudes), SettingsTriple.from_angles(angles))
        text = json.dumps(payload)
        assert text.count("-0.0") == 13
        spec = parse_settings_payload(json.loads(text))
        rewritten = explicit_payload(spec.state, spec.settings)
        assert json.dumps(rewritten) == text
        assert settings_digest(rewritten) == settings_digest(payload)

    @pytest.mark.parametrize("argv", [
        ["bounds", "verify", "--inequality", "t2", "--json"],
        ["evaluate", "--theta", "0.4", "--json"],
        ["cde", "--theta", "0.4", "--inequality", "t2", "--json"],
    ])
    def test_version_and_elapsed_time(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        record = json.loads(out)
        assert code == 0
        assert record["version"] == tribell.__version__
        assert isinstance(record["elapsed_s"], float) and 0.0 <= record["elapsed_s"] < 60.0

    def test_digest_covers_the_inputs_only(self, capsys):
        _, out, _ = run(capsys, "evaluate", "--theta", "0.4", "--json")
        record = json.loads(out)
        payload = {"family": {"name": "theta", "parameters": {"theta": 0.4}}}
        assert record["input_digest"] == settings_digest(payload)


def _hashlib_digest(payload: dict) -> str:
    """The reference digest: hashlib's SHA-256 of the canonical JSON."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class TestSettingsDigest:
    @pytest.mark.parametrize("payload", [
        {},
        {"family": {"name": "théta ∆ 量子 😀", "parameters": {"theta": -0.0}}},
        {"explicit": {"state": [[0.5, -0.0]] * 8, "measurements": [[-0.0, 1e-300]] * 6},
         "noise_p": 0.0, "efficiencies": [1, 0.9, 5e-324]},
        {"seed": 2**200, "restarts": -(10**40), "nested": [[[{"z": [1, [2, [3, {}]]]}]]]},
        {"ключ": "tab\tnewline\n\u0000", "inequality": "t2", "": [None, True, False]},
    ], ids=["empty", "non-ascii", "signed-zeros", "large-ints-nested", "control-chars"])
    def test_equals_hashlib(self, payload):
        assert settings_digest(payload) == _hashlib_digest(payload)

    def test_falls_back_to_hashlib(self, monkeypatch):
        # an interpreter built without the built-in hash modules
        payload = {"inequality": "t2", "restarts": 3, "seed": 5}
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        assert settings_digest(payload) == _hashlib_digest(payload)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(payload=st.dictionaries(st.text(), _json, max_size=4))
    def test_equals_hashlib_on_any_payload(self, payload):
        assert settings_digest(payload) == _hashlib_digest(payload)

    @pytest.mark.parametrize("argv, payload", [
        (["bounds", "verify", "--inequality", "svetlichny"], {"inequality": "svetlichny"}),
        (["evaluate", "--theta", "0.4", "--p", "0.01", "--eta", "1,0.95,0.9"],
         {"family": {"name": "theta", "parameters": {"theta": 0.4}}, "noise_p": 0.01,
          "efficiencies": [1.0, 0.95, 0.9]}),
        (["cde", "--theta", "0.4", "--inequality", "t2"],
         {"family": {"name": "theta", "parameters": {"theta": 0.4}}}),
        (["mde", "--inequality", "t2", "--restarts", "1", "--seed", "4", "--max-iterations", "1500",
          "--out", "{out}"], {"inequality": "t2", "restarts": 1, "seed": 4}),
        (["sweep", "--theta-grid", "0.1:1:5", "--p-grid", "0:0.02:3", "--out", "{out}"],
         {"theta_grid": "0.1:1:5", "p_grid": "0:0.02:3"}),
    ], ids=["bounds", "evaluate", "cde", "mde", "sweep"])
    def test_record_digest_equals_hashlib(self, capsys, tmp_path, argv, payload):
        argv = [arg.format(out=tmp_path / "out") for arg in argv]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["input_digest"] == _hashlib_digest(payload)
