"""End-to-end checks of the command-line surface: wiring, file formats,
config precedence, determinism, and exit codes."""

import json
import math

import numpy as np
import pytest

from rtoa import cli
from rtoa.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyAlgebra:
    def test_prints_operator_and_zero_residual(self, capsys):
        code, out, err = run(capsys, "verify-algebra")
        assert code == 0
        assert "T[-1,1]  s3: -1" in out
        assert "T[+1,1]  s2: -1/2i  s3: -1/2" in out
        assert "residual" in out
        assert "status: ok (exact)" in out
        assert "effective config" in err

    def test_runtime_under_a_second(self, capsys):
        import time

        start = time.time()
        code, _, _ = run(capsys, "verify-algebra")
        assert code == 0
        assert time.time() - start < 1.0


class TestVerifySpectral:
    CHECK_KEYS = {
        "eigenrelation": ["order", "pass", "residual_1025", "residual_4097", "residual_513"],
        "conjugacy": ["order", "pass", "residual_4097", "residual_8193"],
        "symmetry": ["imag_fraction_2049", "imag_fraction_4097", "pass"],
        "overlap": ["cross_charge_zero", "cross_parity_zero", "pass", "worst_rel_error"],
        "completeness": ["errors", "pass", "settings"],
        "nonrel_limit": ["c_ladder", "deviations", "pass"],
    }

    def test_report_passes_with_the_same_keys(self, tmp_path, capsys):
        out = tmp_path / "spectral.json"
        code, _, _ = run(capsys, "--out", str(out), "verify-spectral")
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert sorted(report) == ["checks", "config", "pass"]
        assert {name: sorted(chk) for name, chk in report["checks"].items()} == self.CHECK_KEYS
        assert all(chk["pass"] is True for chk in report["checks"].values())

    def test_one_failed_check_exits_2(self, tmp_path, capsys, monkeypatch):
        failed = {"worst_rel_error": 1.0, "cross_charge_zero": True, "cross_parity_zero": True, "pass": False}
        monkeypatch.setattr(cli, "check_overlap", lambda k: failed)
        out = tmp_path / "spectral.json"
        code, _, _ = run(capsys, "--out", str(out), "verify-spectral")
        assert code == 2
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert report["checks"]["overlap"] == failed


class TestEigenfunctionCsv:
    def test_csv_columns_and_config_header(self, tmp_path, capsys):
        out = tmp_path / "eig.csv"
        code, _, _ = run(
            capsys,
            "--out", str(out),
            "eigenfunction", "--tau", "0.5", "--pmin", "-2", "--pmax", "2", "--n", "5",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "p,re_upper,im_upper,re_lower,im_lower"
        assert len(lines) == 2 + 5

    def test_negative_charge_occupies_lower(self, tmp_path, capsys):
        out = tmp_path / "eig.csv"
        code, _, _ = run(
            capsys,
            "--out", str(out),
            "eigenfunction", "--lambda", "-1", "--tau", "0.0",
            "--pmin", "0.5", "--pmax", "1.5", "--n", "3",
        )
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
        for row in rows:
            assert float(row[1]) == 0.0 and float(row[2]) == 0.0
            assert float(row[3]) != 0.0


class TestDensityGridCsv:
    def test_nodal_zero_column_and_order(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys,
            "--out", str(out),
            "density-grid", "--branch", "nodal", "--tau", "0.5",
            "--xmin", "-2", "--xmax", "2", "--nx", "5",
            "--tmin", "0", "--tmax", "1", "--nt", "3",
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "x,t,P"
        rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
        assert len(rows) == 15
        # row-major t-then-x: x cycles fastest
        assert [r[0] for r in rows[:5]] == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert all(r[1] == 0.0 for r in rows[:5])
        for x, t, p in rows:
            if x == 0.0:
                assert p == 0.0

    def test_plot_script_emitted(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys,
            "--out", str(out), "--emit-plot-script",
            "density-grid", "--branch", "nonnodal", "--tau", "0.5",
            "--xmin", "-1", "--xmax", "1", "--nx", "3",
            "--tmin", "0", "--tmax", "1", "--nt", "2",
        )
        assert code == 0
        script = (tmp_path / "grid.csv.gp").read_text()
        assert "splot 'grid.csv'" in script
        assert "pm3d" in script

    def test_epsilon_flag_changes_values(self, tmp_path, capsys):
        vals = {}
        for eps in ("0.3", "0.15"):
            out = tmp_path / f"g{eps}.csv"
            code, _, _ = run(
                capsys,
                "--out", str(out),
                "density-grid", "--branch", "nonnodal", "--tau", "0.5",
                "--xmin", "0", "--xmax", "1", "--nx", "2",
                "--tmin", "0", "--tmax", "1", "--nt", "2",
                "--epsilon", eps,
            )
            assert code == 0
            lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
            vals[eps] = [float(l.split(",")[2]) for l in lines[1:]]
        assert vals["0.3"] != vals["0.15"]


class TestToaDist:
    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "dist.json"
        code, _, _ = run(
            capsys,
            "--out", str(out), "--format", "json",
            "toa-dist", "--p0", "3", "--x0", "-7", "--n-tau", "101",
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["t_ph"] == 7.0
        assert payload["t_class"] == pytest.approx(7.0 * math.sqrt(10.0) / 3.0)
        assert payload["tau_mp"] > 7.0
        assert payload["grid"]["n_tau"] == 101
        assert "config" in payload
        assert len(payload["pi_total"]) == 101

    def test_mirror_state_reports_the_same_times_and_window(self, tmp_path, capsys):
        payloads = []
        for p0, x0 in (("3", "-7"), ("-3", "7")):
            out = tmp_path / f"dist{p0}.json"
            code, _, _ = run(
                capsys,
                "--out", str(out), "--format", "json",
                "toa-dist", "--p0", p0, "--x0", x0, "--n-tau", "101",
            )
            assert code == 0
            payloads.append(json.loads(out.read_text()))
        a, b = payloads
        assert b["t_ph"] == a["t_ph"] == 7.0
        assert b["t_class"] == a["t_class"]
        assert b["grid"] == a["grid"]
        assert np.allclose(b["pi_total"], a["pi_total"], rtol=0.0, atol=1e-8 * max(a["pi_total"]))

    def test_csv_and_photon_marker_script(self, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        code, _, _ = run(
            capsys,
            "--out", str(out), "--emit-plot-script",
            "toa-dist", "--p0", "3", "--x0", "-7", "--n-tau", "51",
            "--tau-min", "5", "--tau-max", "11",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "tau,pi_total,pi_nonnodal,pi_nodal"
        script = (tmp_path / "dist.csv.gp").read_text()
        assert "set arrow from 7.0" in script
        assert "dashtype 3" in script


class TestLimits:
    def test_report(self, tmp_path, capsys):
        out = tmp_path / "lim.json"
        code, _, _ = run(capsys, "--out", str(out), "limits")
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["decreasing"] is True
        assert payload["t11_scales_as_inverse_c2"] is True
        assert payload["tm11_equals_minus_m0"] is True
        devs = payload["eigenfunction_deviation"]
        assert devs[0] > devs[1] > devs[2]


class TestConfigHandling:
    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m0": 2.0, "format": "json"}))
        out = tmp_path / "d.json"
        code, _, err = run(
            capsys,
            "--config", str(cfg), "--out", str(out),
            "toa-dist", "--p0", "3", "--x0", "-7", "--n-tau", "21",
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["m0"] == 2.0  # from file
        # photon time unchanged, classical time picks up the mass
        assert payload["t_class"] == pytest.approx(7.0 * math.sqrt(9.0 + 4.0) / 3.0)

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        code, _, err = run(capsys, "--config", str(cfg), "verify-algebra")
        assert code == 1
        assert "unknown config keys" in err

    def test_given_ladder_must_start_at_epsilon(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.2, "epsilon_ladder": [0.3, 0.15]}))
        code, _, err = run(capsys, "--config", str(cfg), "verify-algebra")
        assert code == 1
        assert "must start at epsilon" in err
        # the default ladder is re-anchored at the working regulator
        cfg.write_text(json.dumps({"epsilon": 0.2}))
        code, _, err = run(capsys, "--config", str(cfg), "verify-algebra")
        assert code == 0
        assert '"epsilon_ladder": [0.2, 0.1, 0.05]' in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        argv = [
            "--out", str(out),
            "eigenfunction", "--tau", "0.7", "--pmin", "-3", "--pmax", "3", "--n", "64",
        ]
        assert dispatch(argv) == 0
        first = out.read_bytes()
        assert dispatch(argv) == 0
        assert out.read_bytes() == first
        capsys.readouterr()


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == 1

    def test_validation_failure(self, capsys):
        code, _, err = run(
            capsys, "eigenfunction", "--tau", "0.5", "--pmin", "3", "--pmax", "1"
        )
        assert code == 1
        assert "error" in err

    def test_bad_constants(self, capsys):
        code, _, _ = run(capsys, "--m0", "-2", "verify-algebra")
        assert code == 1
