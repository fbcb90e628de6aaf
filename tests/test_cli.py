"""End-to-end checks of the command-line surface: wiring, file formats,
config precedence, determinism, and exit codes."""

import gc
import json
import math
import re
import warnings

import numpy as np
import pytest

from rtoa import cli, dynamics, spectral
from rtoa.cli import dispatch
from rtoa.core import ChargeSign, PhysConstants
from rtoa.dynamics import density_grid
from rtoa.quadrature import QuadratureConfig
from rtoa.spectral import EigenSpec, Parity, eigenfunction_field
from rtoa.toa import default_tau_range, gaussian_state, toa_distribution


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

    # the fixtures are given in units of hbar / (m0 c^2) and m0 c
    @pytest.mark.parametrize("constant", [["--hbar", "2"], ["--m0", "0.5"], ["--c", "3"]])
    def test_passes_at_other_constants(self, tmp_path, capsys, constant):
        out = tmp_path / "spectral.json"
        code, _, _ = run(capsys, *constant, "--out", str(out), "verify-spectral")
        assert code == 0
        report = json.loads(out.read_text())
        assert "format" not in report["config"]


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

    def test_default_window_and_columns_are_the_library_call(self, tmp_path, capsys):
        # without --tau-min and --tau-max the window is default_tau_range
        # of p0, x0 and the run's constants
        out = tmp_path / "dist.json"
        code, _, _ = run(capsys, "--out", str(out), "--m0", "2", "--format", "json", "toa-dist", "--p0", "3", "--x0", "-7")
        assert code == 0
        payload = json.loads(out.read_text())
        k = PhysConstants(m0=2.0)
        window = default_tau_range(3.0, -7.0, k)
        assert payload["grid"] == {"tau_min": window[0], "tau_max": window[1], "n_tau": 2001}
        dist = toa_distribution(gaussian_state(3.0, -7.0, k).field(), window, 2001, k)
        library = {
            "tau": dist.tau_samples,
            "pi_total": dist.pi_values,
            "pi_nonnodal": dist.pi_nonnodal,
            "pi_nodal": dist.pi_nodal,
        }
        for name, values in library.items():
            assert np.array(payload[name]).tobytes() == values.tobytes()

    # at p0 = 0 the mirror is (0, 7): Pi is even, so neither state has a tau_mp
    @pytest.mark.parametrize("p0", ["3", "0"])
    def test_mirror_state_reports_the_same_times_and_window(self, tmp_path, capsys, p0):
        payloads = []
        for p, x0 in ((p0, "-7"), ("-" + p0, "7")):
            out = tmp_path / f"dist{p}.json"
            code, _, _ = run(
                capsys,
                "--out", str(out), "--format", "json",
                "toa-dist", "--p0", p, "--x0", x0, "--n-tau", "101",
            )
            assert code == 0
            payloads.append(json.loads(out.read_text()))
        a, b = payloads
        assert b["t_ph"] == a["t_ph"] == 7.0
        assert b["t_class"] == a["t_class"]
        assert b["tau_mp"] == pytest.approx(a["tau_mp"], rel=1e-14, abs=0.0)
        assert (a["tau_mp"] is None) == (p0 == "0")
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

    def test_csv_header_reports_the_window_integral(self, tmp_path, capsys):
        texts = {}
        for fmt in ("csv", "json"):
            out = tmp_path / f"dist.{fmt}"
            code, _, _ = run(
                capsys,
                "--out", str(out), "--format", fmt,
                "toa-dist", "--p0", "0.1", "--x0", "-7", "--n-tau", "201",
            )
            assert code == 0
            texts[fmt] = out.read_text()
        fields = csv_header(texts["csv"])
        assert list(fields)[-1] == "window_integral"
        mass = json.loads(texts["json"])["window_integral"]
        assert float(fields["window_integral"]) == mass
        assert 0.8 < mass < 0.9  # a slow packet leaves ~15% of its mass outside [-80, 80]

    @pytest.mark.parametrize(
        "argv, undefined",
        [
            # a packet at rest has no classical time, and its even Pi no one peak
            (["--p0", "0", "--x0", "-7"], {"t_class", "tau_mp"}),
            (["--p0", "3", "--x0", "-7", "--tau-min", "0", "--tau-max", "5"], {"tau_mp"}),  # peak near 7.4
        ],
    )
    def test_undefined_time_is_left_out_of_csv_and_null_in_json(self, tmp_path, capsys, argv, undefined):
        texts = {}
        for fmt in ("csv", "json"):
            out = tmp_path / f"dist.{fmt}"
            code, _, _ = run(capsys, "--out", str(out), "--format", fmt, "toa-dist", *argv, "--n-tau", "101")
            assert code == 0
            texts[fmt] = out.read_text()
        fields = csv_header(texts["csv"])
        payload = json.loads(texts["json"])
        assert not undefined & set(fields) and all(payload[name] is None for name in undefined)
        assert {"t_ph", "t_class", "tau_mp"} - undefined <= set(fields)


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
        assert "format" not in payload["config"]


class TestConfigHandling:
    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # every default of a setting toa-dist reads spelled out is accepted:
        # null out, false emit_plot_script, an integer-valued float
        doc = {"hbar": 1.0, "c": 1.0, "m0": 2, "out": None, "format": "json", "emit_plot_script": False}
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "d.json"
        code, _, err = run(
            capsys,
            "--config", str(cfg), "--out", str(out),
            "toa-dist", "--p0", "3", "--x0", "-7", "--n-tau", "21",
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"] == {**doc, "m0": 2.0, "out": str(out)}  # m0 from file, out from flag
        # photon time unchanged, classical time picks up the mass
        assert payload["t_class"] == pytest.approx(7.0 * math.sqrt(9.0 + 4.0) / 3.0)

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        code, _, err = run(capsys, "--config", str(cfg), "verify-algebra")
        assert code == 1
        assert "unknown config keys" in err

    def test_epsilon_ladder_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.2, "epsilon_ladder": [0.2, 0.1, 0.05]}))
        code, _, err = run(capsys, "--config", str(cfg), "verify-algebra")
        assert code == 1
        assert "unknown config keys: ['epsilon_ladder']" in err

    def test_extrapolation_ladder_follows_epsilon(self, monkeypatch, capsys):
        abscissae, extrapolate = [], dynamics.extrapolate_to_zero
        monkeypatch.setattr(
            dynamics,
            "extrapolate_to_zero",
            lambda xs, ys: abscissae.append(tuple(xs)) or extrapolate(xs, ys),
        )
        code, _, err = run(
            capsys,
            "density-grid", "--branch", "nonnodal", "--tau", "1",
            "--xmin", "-1", "--xmax", "1", "--nx", "2",
            "--tmin", "0", "--tmax", "2", "--nt", "2",
            "--epsilon", "0.2", "--extrapolate",
        )
        assert code == 0
        assert abscissae == [(0.2, 0.1, 0.05)]
        assert "epsilon_ladder" not in err

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


def csv_header(text):
    """Field name -> value string of the ``# p0:`` header line of a toa-dist CSV."""
    (line,) = [l for l in text.splitlines() if l.startswith("# p0:")]
    return dict(f.split(": ") for f in line[2:].split("  "))


def csv_table(text):
    """Column name -> list of cell strings of one CSV the CLI wrote."""
    header, *rows = [l for l in text.splitlines() if not l.startswith("#")]
    return dict(zip(header.split(","), zip(*(r.split(",") for r in rows))))


class TestWriters:
    """Every cell the CLI writes parses back to exactly the library's value,
    negative zero is folded, and the two toa-dist formats carry the same
    columns bit for bit."""

    @pytest.mark.parametrize("x0", ["-7", "0"])  # at x0 = 0, t_ph and t_class are -0.0 before folding
    def test_toa_dist_csv_and_json_carry_identical_columns(self, tmp_path, capsys, x0):
        texts = {}
        for fmt in ("csv", "json"):
            out = tmp_path / f"dist.{fmt}"
            code, _, _ = run(
                capsys,
                "--out", str(out), "--format", fmt,
                "toa-dist", "--p0", "2", "--x0", x0, "--n-tau", "151",
            )
            assert code == 0
            texts[fmt] = out.read_text()
            assert "-0.0" not in re.split(r"[\s,:\[\]]+", texts[fmt])
        table = csv_table(texts["csv"])
        payload = json.loads(texts["json"])
        header = csv_header(texts["csv"])
        json_header = {**payload["state"], **{name: payload[name] for name in list(header)[2:]}}
        assert header == {name: repr(value) for name, value in json_header.items()}
        assert list(header) == ["p0", "x0", "t_ph", "t_class", "tau_mp", "window_integral"]
        k = PhysConstants()
        window = default_tau_range(2.0, float(x0), k)
        dist = toa_distribution(gaussian_state(2.0, float(x0), k).field(), window, 151, k)
        library = {
            "tau": dist.tau_samples,
            "pi_total": dist.pi_values,
            "pi_nonnodal": dist.pi_nonnodal,
            "pi_nodal": dist.pi_nodal,
        }
        assert list(table) == list(library)
        for name, values in library.items():
            assert [float(c) for c in table[name]] == payload[name] == values.tolist()

    def test_eigenfunction_cells_match_the_library(self, tmp_path, capsys):
        out = tmp_path / "eig.csv"
        code, _, _ = run(
            capsys,
            "--out", str(out),
            "eigenfunction", "--lambda", "-1", "--tau", "1", "--time", "0.3",
            "--pmin", "-3", "--pmax", "3", "--n", "41",
        )
        assert code == 0
        table = csv_table(out.read_text())
        spec = EigenSpec(ChargeSign.NEGATIVE, Parity.NONNODAL, 1.0)
        grid = np.linspace(-3.0, 3.0, 41)
        f = eigenfunction_field(spec, 0.3, grid)
        upper, lower = f.upper, f.lower
        library = {
            "p": grid,
            "re_upper": upper.real,
            "im_upper": upper.imag,
            "re_lower": lower.real,
            "im_lower": lower.imag,
        }
        assert list(table) == list(library)
        for name, values in library.items():
            assert [float(c) for c in table[name]] == values.tolist()
        # the empty upper block is explicit zeros, with no -0.0 from 0 * amplitude
        assert not np.signbit(upper.real).any() and not np.signbit(upper.imag).any()
        assert not any(c == "-0.0" for column in table.values() for c in column)

    def test_density_grid_cells_match_the_library(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys,
            "--out", str(out),
            "density-grid", "--branch", "nodal", "--tau", "0.5",
            "--xmin", "-2", "--xmax", "2", "--nx", "5",
            "--tmin", "0", "--tmax", "1", "--nt", "3",
        )
        assert code == 0
        table = csv_table(out.read_text())
        grid = density_grid(Parity.NODAL, 0.5, (-2.0, 2.0), (0.0, 1.0), 5, 3)
        rows = [tuple(map(float, cells)) for cells in zip(table["x"], table["t"], table["P"])]
        assert rows == [
            (x, t, grid.values[i, j])
            for i, t in enumerate(grid.t_samples.tolist())
            for j, x in enumerate(grid.x_samples.tolist())
        ]
        assert [p for x, _, p in rows if x == 0.0] == [0.0, 0.0, 0.0]
        assert not any(c == "-0.0" for column in table.values() for c in column)


def reference_csv(columns):
    """The CSV header and rows formatted row by row, every cell repr'd."""
    rows = cli._plain(np.column_stack(list(columns.values())))
    return "\n".join([",".join(columns), *(",".join(map(repr, row)) for row in rows)]) + "\n"


class TestWriterBytes:
    """The CSV writer formats each distinct value of a column once; the
    bytes are those of the plain row-by-row loop.  The JSON documents are
    pinned to json.dumps(indent=2, sort_keys=True)."""

    @pytest.fixture
    def expected(self, monkeypatch):
        """The reference text of every document the CLI writes next."""
        texts, emit_csv, emit_json = [], cli._emit_csv, cli._emit_json

        def csv(cfg, meta_lines, columns, *args, **kwargs):
            config = f"# config: {json.dumps(cfg.settings, sort_keys=True)}"
            texts.append("\n".join([config, *meta_lines]) + "\n" + reference_csv(columns))
            emit_csv(cfg, meta_lines, columns, *args, **kwargs)

        def json_doc(cfg, doc):
            texts.append(json.dumps(cli._plain({**doc, "config": cfg.settings}), indent=2, sort_keys=True) + "\n")
            emit_json(cfg, doc)

        monkeypatch.setattr(cli, "_emit_csv", csv)
        monkeypatch.setattr(cli, "_emit_json", json_doc)
        return texts

    @pytest.mark.parametrize(
        "argv",
        [
            # mirrored in t about tau, with a -0.0 x sample (--xmax -0) on every row
            ["density-grid", "--branch", "nodal", "--tau", "0.5", "--xmin", "-2", "--xmax", "-0", "--nx", "9",
             "--tmin", "0", "--tmax", "1", "--nt", "5"],
            ["density-grid", "--branch", "nonnodal", "--tau", "1", "--xmin", "-4", "--xmax", "4", "--nx", "41",
             "--tmin", "0", "--tmax", "2", "--nt", "41"],
            ["toa-dist", "--p0", "2", "--x0", "-7", "--n-tau", "151"],
            ["--format", "json", "toa-dist", "--p0", "2", "--x0", "-7", "--n-tau", "151"],
            ["limits"],
            ["verify-spectral"],
        ],
    )
    def test_documents(self, capsys, expected, argv):
        _, out, _ = run(capsys, *argv)
        assert [out] == expected

    def test_negative_zero_and_repeats(self, capsys, expected):
        cfg = cli._load_config(cli._build_parser().parse_args(["limits"]))
        column = np.array([-0.0, 0.0, 1.5, -0.0, 1.5, -2.0])
        cli._emit_csv(cfg, [], {"a": column, "b": column[::-1], "c": np.arange(6.0)})
        assert capsys.readouterr().out == expected[0]
        assert "-0.0" not in expected[0]


DENSITY_ARGV = [
    "density-grid", "--branch", "nonnodal", "--tau", "0.5",
    "--xmin", "-1", "--xmax", "1", "--nx", "3", "--tmin", "0", "--tmax", "1", "--nt", "2",
]
TOA_ARGV = ["toa-dist", "--p0", "3", "--x0", "-7", "--n-tau", "21"]
EIG_ARGV = ["eigenfunction", "--tau", "0.5", "--n", "5"]


def test_dispatch_leaves_no_cyclic_garbage(capsys, tmp_path):
    """Every dispatch reuses one argument parser, so a CSV command leaves
    nothing for the cycle collector.  A parser built per call left about
    340 objects in reference cycles each time; they piled up in the oldest
    generation between full collections and raised peak RSS over repeated
    calls."""
    argv = ["--out", str(tmp_path / "density.csv"), *DENSITY_ARGV]
    assert dispatch(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert dispatch(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def _never_called(*args, **kwargs):
    raise AssertionError("computation ran although a flag was refused")


class TestRefusedFlags:
    """A flag that would change nothing is refused before any computation,
    with exit 1 and no file written."""

    @pytest.fixture(autouse=True)
    def no_computation(self, monkeypatch):
        computations = (
            "density_grid",
            "toa_distribution",
            "eigenfunction_field",
            "check_nonrel_operator",
            "spectral_report",
        )
        for name in computations:
            monkeypatch.setattr(cli, name, _never_called)
        monkeypatch.setattr(cli.algebra, "solve_conjugate_ansatz", _never_called)

    @pytest.mark.parametrize(
        "flags, argv",
        [
            (["--format", "json"], DENSITY_ARGV),
            (["--format", "json"], EIG_ARGV),
            (["--format", "json"], ["verify-algebra"]),
            (["--emit-plot-script"], DENSITY_ARGV),  # no --out
            (["--emit-plot-script"], TOA_ARGV),  # no --out
            (["--emit-plot-script", "--format", "json", "--out", "{out}"], TOA_ARGV),
            (["--emit-plot-script", "--out", "{out}"], EIG_ARGV),
            (["--emit-plot-script", "--out", "{out}"], ["limits"]),
            (["--emit-plot-script", "--out", "{out}"], ["verify-algebra"]),
            (["--format", "csv"], ["limits"]),
            (["--format", "csv"], ["verify-spectral"]),
            # a setting the subcommand does not read
            (["--rel-tol", "0.5"], TOA_ARGV),
            (["--abs-tol", "0.1"], ["verify-spectral"]),
            (["--c", "3"], ["limits"]),
            (["--max-subdivisions", "5"], EIG_ARGV),
            (["--format", "csv"], ["verify-algebra"]),
        ],
    )
    def test_flag_refused(self, tmp_path, capsys, flags, argv):
        out = tmp_path / "data"
        flags = [f.format(out=out) for f in flags]
        code, stdout, err = run(capsys, *flags, *argv)
        assert code == 1
        assert "rtoa: error:" in err
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "doc, argv",
        [
            ({"format": "json"}, DENSITY_ARGV),
            ({"emit_plot_script": True}, EIG_ARGV),
            ({"emit_plot_script": True, "format": "json"}, TOA_ARGV),
            ({"format": "xml"}, TOA_ARGV),
            ({"format": "csv"}, ["limits"]),
            ({"format": "csv"}, ["verify-spectral"]),
            # each value a flag's type would refuse
            ({"epsilon": math.inf}, DENSITY_ARGV),
            ({"abs_tol": math.inf}, DENSITY_ARGV),
            ({"emit_plot_script": "false"}, DENSITY_ARGV),
            ({"max_subdivisions": 2.5}, DENSITY_ARGV),
            ({"max_subdivisions": True}, DENSITY_ARGV),
            ({"hbar": "1"}, EIG_ARGV),
            ({"c": True}, EIG_ARGV),
            ({"m0": 10**400}, EIG_ARGV),
            ({"epsilon": 0.2}, TOA_ARGV),  # a setting the subcommand does not read
            ({"out": 5}, EIG_ARGV),
            ([], DENSITY_ARGV),
            (0.3, DENSITY_ARGV),
            ({"c": 2.0}, ["limits"]),
            ({"format": None}, TOA_ARGV),  # null is not a format
        ],
    )
    def test_config_file_values_refused_the_same_way(self, tmp_path, capsys, doc, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "data"
        code, _, err = run(capsys, "--config", str(cfg), "--out", str(out), *argv)
        assert code == 1
        assert "rtoa: error:" in err
        assert not out.exists() and not (tmp_path / "data.gp").exists()

    # only toa-dist writes more than one format, so only it reads --format
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv", [["verify-spectral"], EIG_ARGV, DENSITY_ARGV, ["limits"]], ids=lambda argv: argv[0]
    )
    def test_format_refused_where_it_is_not_read(self, tmp_path, capsys, source, fmt, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": fmt}))
        out = tmp_path / "data"
        flags = ["--format", fmt] if source == "flag" else ["--config", str(cfg)]
        code, stdout, err = run(capsys, *flags, "--out", str(out), *argv)
        assert code == 1
        assert err.splitlines()[-1].startswith(f"rtoa: error: {argv[0]} does not read format;")
        assert stdout == "" and not out.exists()


_CONSTANTS = {"hbar", "c", "m0"}
SETTINGS_READ = {
    "verify-algebra": (["verify-algebra"], {*_CONSTANTS, "out"}),
    "verify-spectral": (["verify-spectral"], {*_CONSTANTS, "out"}),
    "eigenfunction": (EIG_ARGV, {*_CONSTANTS, "out"}),
    "density-grid": (
        DENSITY_ARGV,
        {*_CONSTANTS, "epsilon", "abs_tol", "rel_tol", "max_subdivisions", "emit_plot_script", "out"},
    ),
    "toa-dist": (TOA_ARGV, {*_CONSTANTS, "emit_plot_script", "format", "out"}),
    "limits": (["limits"], {"hbar", "m0", "out"}),
}


class TestSettingsTable:
    """Each subcommand reads one row of settings: the run echoes and embeds
    exactly that row, and refuses every other setting."""

    @pytest.mark.parametrize("command", SETTINGS_READ)
    def test_config_holds_exactly_the_settings_read(self, tmp_path, capsys, command):
        argv, read = SETTINGS_READ[command]
        assert set(cli._SUBCOMMANDS[command].settings) == read
        out = tmp_path / "data"
        code, _, err = run(capsys, "--out", str(out), *argv)
        assert code == 0
        (echo,) = [l for l in err.splitlines() if l.startswith("# effective config: ")]
        assert set(json.loads(echo.split(": ", 1)[1])) == read
        if command != "verify-algebra":  # its text embeds no config
            text = out.read_text()
            first = text.splitlines()[0]
            csv = first.startswith("# config: ")
            embedded = json.loads(first.split(": ", 1)[1]) if csv else json.loads(text)["config"]
            assert set(embedded) == read
        for key in cli.CONFIG_DEFAULTS.keys() - read:  # even at its default value
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: cli.CONFIG_DEFAULTS[key]}))
            refused = tmp_path / "refused"
            code, _, err = run(capsys, "--config", str(cfg), "--out", str(refused), *argv)
            assert code == 1 and f"rtoa: error: {command} does not read {key};" in err
            assert not refused.exists()

    def test_every_setting_is_read_somewhere(self):
        assert set(cli.CONFIG_DEFAULTS) == set().union(*(read for _, read in SETTINGS_READ.values()))
        assert sum(len(read) for _, read in SETTINGS_READ.values()) == 30

    def test_file_and_flag_spellings_write_identical_files(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m0": 2}))
        texts = []
        for flags in (["--config", str(cfg)], ["--m0", "2"]):
            out = tmp_path / "eig.csv"
            code, _, _ = run(capsys, *flags, "--out", str(out), *EIG_ARGV)
            assert code == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        assert b'"m0": 2.0' in texts[0]


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["toa-dist", "--p0", "3", "--x0", "inf"],
            ["eigenfunction", "--tau", "1", "--time", "nan"],
            ["toa-dist", "--p0", "3", "--x0", "-7", "--tau-min", "0", "--tau-max", "inf"],
            ["limits", "--c-ladder", "10", "inf"],
            ["--hbar", "nan", "verify-algebra"],
        ],
    )
    def test_refused_at_the_boundary(self, tmp_path, capsys, argv):
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as exc:
            dispatch(["--out", str(out), *argv])
        assert exc.value.code == 1
        assert "need a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_tau_window_refused(self, tmp_path, capsys):
        # a window whose width overflows, and a finite one whose phases do
        for half, reason in (("1e308", "width must be finite"), ("5e307", "phases tau T_p / hbar are not finite")):
            out = tmp_path / "data"
            argv = ["toa-dist", "--p0", "3", "--x0", "-7", f"--tau-min=-{half}", f"--tau-max={half}", "--n-tau", "11"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, stdout, err = run(capsys, "--out", str(out), *argv)
            assert code == 1
            assert err.splitlines()[-1].startswith("rtoa: error: tau window") and reason in err
            assert "RuntimeWarning" not in err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert stdout == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "pmin, pmax, n",
        [("1", "1.0000000000000002", "5"), ("-1e308", "1e308", "3")],
        ids=["repeated-momenta", "overflowing-width"],
    )
    def test_unsampleable_momentum_grid_refused(self, tmp_path, capsys, pmin, pmax, n):
        # a grid that repeats a momentum, and one whose width overflows
        out = tmp_path / "data"
        argv = ["eigenfunction", "--tau", "1", f"--pmin={pmin}", f"--pmax={pmax}", "--n", n]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(capsys, "--out", str(out), *argv)
        assert code == 1
        assert err.splitlines()[-1].startswith("rtoa: error:")
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert stdout == "" and list(tmp_path.iterdir()) == []

    def test_overflowing_eigenfunction_phase_refused(self, tmp_path, capsys):
        # tau (t - tau) E_p / hbar overflows at p = +-8, where the file would read nan
        out = tmp_path / "data"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(capsys, "--out", str(out), "eigenfunction", "--tau", "1e308", "--n", "3")
        assert code == 1
        assert err.splitlines()[-1].startswith("rtoa: error: phase") and "is not finite" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert stdout == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_classical_time_refused(self, tmp_path, capsys, fmt):
        # x0 / v overflows at p0 = 1e-320; JSON has no infinity to write
        out = tmp_path / "data"
        argv = ["--format", fmt, "toa-dist", "--p0", "1e-320", "--x0", "-7", "--n-tau", "21"]
        code, stdout, err = run(capsys, "--out", str(out), *argv)
        assert code == 1
        assert err.splitlines()[-1].startswith("rtoa: error: classical arrival time") and "is not finite" in err
        assert stdout == "" and list(tmp_path.iterdir()) == []

    def test_unresolvable_momentum_names_p0(self, tmp_path, capsys):
        out = tmp_path / "data"
        code, stdout, err = run(capsys, "--out", str(out), "toa-dist", "--p0", "1e200", "--x0", "-7")
        assert code == 1
        assert err.splitlines()[-1].startswith("rtoa: error: p0 = 1e+200 ")
        assert stdout == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("axis", ["x", "t"])
    def test_overflowing_mesh_width_refused(self, tmp_path, capsys, axis):
        out = tmp_path / "data"
        argv = [*DENSITY_ARGV, f"--{axis}min=-1e308", f"--{axis}max=1e308"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(capsys, "--out", str(out), *argv)
        assert code == 1
        assert err.splitlines()[-1] == "rtoa: error: x and t range widths must be finite"
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert stdout == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "window",
        [("--xmin=-1e300", "--xmax", "0", "--tmax", "1"), ("--xmin=0", "--xmax", "1", "--tmax", "1e300")],
        ids=["x", "t"],
    )
    def test_overflowing_scaled_mesh_refused(self, tmp_path, capsys, window):
        # finite widths whose m0 c / hbar and m0 c^2 / hbar scalings overflow
        out = tmp_path / "data"
        argv = ["--m0", "1e10", "density-grid", "--branch", "nonnodal", "--tau", "0.5",
                "--nx", "3", "--tmin", "0", "--nt", "2", *window]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(capsys, "--out", str(out), *argv)
        assert code == 1
        assert err.splitlines()[-1].startswith("rtoa: error: scaled mesh coordinates")
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert stdout == "" and list(tmp_path.iterdir()) == []


class TestNegativeNumbers:
    @pytest.mark.parametrize("argv, flag, value", [(TOA_ARGV, "--x0", "-1e-3"), (DENSITY_ARGV, "--xmin", "-4e0")])
    def test_exponent_notation_reads_as_a_value(self, tmp_path, capsys, argv, flag, value):
        # argparse before Python 3.13 took -1e-3 for an option string
        out, texts = tmp_path / "data", []
        for pair in ([flag, value], [f"{flag}={value}"]):
            code, _, err = run(capsys, "--out", str(out), *argv, *pair)
            assert code == 0, err
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_negative_infinity_is_still_refused(self, tmp_path, capsys):
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as exc:
            dispatch(["--out", str(out), *TOA_ARGV, "--x0", "-inf"])
        assert exc.value.code == 1
        assert "--x0: expected one argument" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "argv",
        [
            [*DENSITY_ARGV, "--epsilon", "1e-310"],  # cutoff 30 / epsilon overflows
            [*DENSITY_ARGV, "--epsilon", "3e-307"],  # only the rung epsilon / 4 overflows
            ["--abs-tol", "-1", "--rel-tol", "-1", *DENSITY_ARGV],  # every cell ran to max_subdivisions
            ["--abs-tol", "0", "--rel-tol", "0", *DENSITY_ARGV],
            [*TOA_ARGV, "--tau-min", "10", "--tau-max", "5"],
            # 7 pi / (4 (|a| + |b|)) as the panel width makes the first-pass panel count infinite
            [*DENSITY_ARGV[:5], "--xmin=-1e308", "--xmax", "0", *DENSITY_ARGV[9:]],
            # m0 c^2 overflows
            ["--c", "1e200", "eigenfunction", "--tau", "1", "--n", "3"],
            ["--c", "1e200", "verify-spectral"],
            # |i hbar f|^2 underflows, so the residual has no reference norm
            ["--hbar", "1e-200", "verify-spectral"],
            ["limits", "--c-ladder", "1e200", "1e201"],
            # c^2, m0^2 or hbar^2 overflows, or underflows to a subnormal or 0
            *([*constant, *DENSITY_ARGV] for constant in (
                ["--hbar", "1e-200"], ["--hbar", "1e-170"], ["--m0", "1e200"], ["--hbar", "1e200"],
                ["--m0", "1e-320"], ["--c", "1e-200"],
            )),
            ["--c", "1e-200", "verify-spectral"],
            ["limits", "--c-ladder", "1e-300", "1"],
            ["--c", "1e-200", "eigenfunction", "--tau", "1", "--n", "3"],
            # 10^17 samples or panels, above 2^57 bytes: no memory for them
            # whatever the host's overcommit policy
            [*TOA_ARGV, "--n-tau", "100000000000000000"],
            [*EIG_ARGV, "--n", "100000000000000000"],
            [*DENSITY_ARGV, "--nx", "100000000000000000"],
            ["--hbar", "1e-16", *DENSITY_ARGV],  # 2.7e17 first-pass panels
            ["--hbar", "1e-150", *DENSITY_ARGV],  # beyond numpy's index range
        ],
    )
    def test_refused_without_a_traceback(self, tmp_path, capsys, argv):
        out = tmp_path / "data"
        code, stdout, err = run(capsys, "--out", str(out), *argv)
        assert code == 1
        assert err.splitlines()[-1].startswith("rtoa: error:")
        assert "Traceback" not in err
        assert stdout == "" and not out.exists()

    def test_non_finite_json_value_refused(self, tmp_path, capsys, monkeypatch):
        # JSON has no spelling for an infinity or a nan
        monkeypatch.setattr(cli, "check_nonrel_operator", lambda k, ladder: {"deviation_ratios": [math.inf]})
        out = tmp_path / "data"
        code, stdout, err = run(capsys, "--out", str(out), "limits")
        assert code == 1
        assert err.splitlines()[-1].startswith("rtoa: error: Out of range float values")
        assert stdout == "" and list(tmp_path.iterdir()) == []

    def test_convergence_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # a budget of one panel stalls criterion 5's overlap quadrature
        monkeypatch.setattr(spectral, "QuadratureConfig", lambda: QuadratureConfig(max_subdivisions=1))
        out = tmp_path / "report.json"
        code, stdout, err = run(capsys, "--out", str(out), "verify-spectral")
        assert code == 2
        assert err.splitlines()[-1].startswith("rtoa: numerical convergence failure:")
        assert "Traceback" not in err
        assert stdout == "" and not out.exists()

    def test_malformed_config_file_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{")
        code, stdout, err = run(capsys, "--config", str(cfg), "verify-algebra")
        assert code == 1
        assert err.splitlines()[-1].startswith("rtoa: error:")
        assert "Traceback" not in err and stdout == ""

    def test_bad_constants(self, capsys):
        code, _, _ = run(capsys, "--m0", "-2", "verify-algebra")
        assert code == 1
