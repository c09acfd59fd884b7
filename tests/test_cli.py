"""Command-line interface: subcommands, file formats, exit codes."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tribell
from conftest import random_settings, random_state
from tribell.cli import explicit_payload, main, parse_settings_payload, settings_digest
from tribell.families import ghz_setting
from tribell.qcore import PureState


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

    def test_corrupt_hook_fails(self, capsys):
        code, _, err = run(capsys, "bounds", "verify", "--inequality", "t2", "--corrupt")
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

    def test_rows_sorted_by_p_then_theta(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--theta-grid", "0.2:0.8:3", "--p-grid", "0:0.01:2",
            "--out", str(out_path))
        rows = [line.split(",") for line in out_path.read_text().strip().split("\n")[1:]]
        keys = [(float(p), float(t)) for t, p, _ in rows]
        assert keys == sorted(keys)

    def test_bad_grid_spec(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--theta-grid", "0.5:0.1:5",
                           "--p-grid", "0:0.02:3", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "empty or inverted" in err


class TestSettingsFiles:
    def test_explicit_round_trip(self):
        state, settings = ghz_setting()
        payload = explicit_payload(state, settings)
        spec = parse_settings_payload(payload)
        np.testing.assert_allclose(spec.state.amplitudes, state.amplitudes, atol=1e-15)
        payload2 = explicit_payload(spec.state, spec.settings)
        assert payload == payload2

    def test_explicit_round_trip_random(self, rng):
        # the file carries every number exactly; PureState renormalizes what
        # it reads, which can move an amplitude by one unit in the last place
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
}

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
    "seed-negative": ["mde", "--inequality", "t2", "--restarts", "1", "--seed", "-1",
                      "--out", "{tmp}/probe.json"],
    "penalty-nan": ["mde", "--inequality", "t2", "--restarts", "1", "--penalty-weight", "nan",
                    "--out", "{tmp}/probe.json"],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv):
    for name, payload in PROBE_SETTINGS.items():
        (tmp_path / name).write_text(json.dumps(payload))
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err
    assert not (tmp_path / "probe.json").exists() and not (tmp_path / "probe.csv").exists()


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
