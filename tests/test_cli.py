"""Command-line interface: subcommands, file formats, exit codes."""

import json

import numpy as np
import pytest

from tribell.cli import explicit_payload, main, parse_settings_payload
from tribell.families import ghz_setting


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


MALFORMED = {
    "theta-out-of-range": ["evaluate", "--theta", "4"],
    "eta-not-a-number": ["evaluate", "--theta", "0.3", "--eta", "a,b,c"],
    "eta-out-of-range": ["evaluate", "--theta", "0.3", "--eta", "1.2,1,1"],
    "p-nan": ["evaluate", "--theta", "0.3", "--p", "nan"],
    "zero-restarts": ["mde", "--inequality", "t2", "--restarts", "0",
                      "--out", "{tmp}/probe.json"],
    "theta-grid-at-zero": ["sweep", "--theta-grid", "0:1:5", "--out", "{tmp}/probe.csv"],
    "state-not-a-list": ["evaluate", "--settings", "{tmp}/bad-state.json"],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv):
    (tmp_path / "bad-state.json").write_text(json.dumps(
        {"explicit": {"state": 5, "measurements": [[0.0, 0.0]] * 6}}))
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err
    assert not (tmp_path / "probe.json").exists() and not (tmp_path / "probe.csv").exists()
