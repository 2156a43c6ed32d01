"""End-to-end command tests driving main() in process.

Each test parses real CSV/stderr output; a couple of slower paths
(selftest, default jtilde) run the tokamak model and take a few seconds.
"""

import subprocess
import sys

import numpy as np
import pytest

from sympdefect import checks
from sympdefect import cli
from sympdefect.cli import build_parser, main, parse_config_file, resolve_config
from sympdefect.hamiltonians import harmonic_oscillator, quadratic_model
from sympdefect.integrators import IntegrationError, Scheme, SchemeConfig, integrate
from sympdefect.state import PhaseState


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_trajectory_default_header_and_sampling(capsys):
    rc, out, _ = run_cli(capsys, ["trajectory", "--steps", "8", "--stride", "4"])
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["step", "t", "q1", "q2", "q3", "p1", "p2", "p3", "H"]
    assert [r[0] for r in rows] == ["0", "4", "8"]
    assert float(rows[1][1]) == pytest.approx(4 * 0.1, rel=1e-15)


# h = 1e308 overflows the first sweeps of both quadratic couplings; pytest
# turns a leaked numpy warning into an error
DIVERGING = ["--h", "1e308", "--steps", "50"]


@pytest.mark.parametrize("hamiltonian", ["harmonic", "quadratic"])
@pytest.mark.parametrize(
    "command", [["trajectory"], ["energy-drift", "--scheme", "p-implicit"]], ids=lambda c: c[0]
)
def test_diverging_quadratic_orbit_fails_without_a_warning(capsys, command, hamiltonian):
    rc, _, err = run_cli(capsys, [*command, "--hamiltonian", hamiltonian, *DIVERGING])
    assert rc == 1
    assert "integration failed at step" in err


@pytest.mark.parametrize("model", [harmonic_oscillator(), quadratic_model(3)], ids=["harmonic", "quadratic"])
def test_diverging_quadratic_integrate_raises_without_a_warning(model):
    state = PhaseState(np.full(model.dim, 0.3), np.full(model.dim, -0.2))
    with pytest.raises(IntegrationError, match="integration failed at step"):
        integrate(model, SchemeConfig(Scheme.Q_IMPLICIT, 1e308, M=3), state, 50)


def test_trajectory_rejects_zero_step(capsys):
    rc, _, err = run_cli(capsys, ["trajectory", "--h", "0"])
    assert rc == 2
    assert "h must be positive" in err


def test_trajectory_blow_up_is_a_computational_failure(capsys):
    rc, _, err = run_cli(
        capsys, ["trajectory", "--h", "1000", "--steps", "50"]
    )
    assert rc == 1
    assert "error:" in err

    # at M=2 the orbit passes finite states whose energy overflows to inf
    # before the field flux fails at step 3; that must not warn
    rc, _, err = run_cli(
        capsys, ["trajectory", "--h", "1000", "--M", "2", "--steps", "50"]
    )
    assert rc == 1
    assert "failed at step 3" in err


def test_defect_sweep_csv_and_fit_summary(capsys):
    rc, out, err = run_cli(
        capsys,
        [
            "defect-sweep", "--hamiltonian", "quadratic", "--N", "2",
            "--scheme", "p-implicit", "--M", "2", "--h-count", "4",
        ],
    )
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == [
        "scheme", "M", "M1", "M2", "h",
        "delta", "alpha", "skew_residual", "det_flow", "det_antidiag",
    ]
    assert len(rows) == 4
    assert all(r[0] == "p-implicit" and r[1] == "2" for r in rows)
    # N=2 with even M has a round-off delta, so only alpha and volume fit
    assert "p-implicit delta M=2: fewer than 3 points" in err
    assert "p-implicit alpha M=2: slope=3.00000" in err


def test_defect_sweep_rejects_composition_schemes(capsys):
    rc, _, err = run_cli(capsys, ["defect-sweep", "--scheme", "sv-pq"])
    assert rc == 2
    assert "sv-orders" in err


def test_jtilde_structure_dump(capsys):
    rc, out, _ = run_cli(capsys, ["jtilde"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 12
    mat = np.array([[float(v) for v in line.split()] for line in lines[:6]])
    assert np.max(np.abs(mat[:3, :3])) <= 1e-14
    assert np.max(np.abs(mat[:3, 3:] - np.eye(3))) <= 1e-9
    assert np.max(np.abs(mat[3:, :3] + np.eye(3))) <= 1e-9
    meta = dict(line.split("=") for line in lines[6:])
    assert meta["delta_block"] == "p"
    assert float(meta["delta"]) <= 1e-9
    assert abs(float(meta["det_flow"]) - 1.0) <= 1e-8


def test_energy_drift_single_scheme_csv(capsys):
    rc, out, err = run_cli(
        capsys,
        [
            "energy-drift", "--hamiltonian", "harmonic", "--scheme", "sv-pq",
            "--h", "0.1", "--steps", "400", "--stride", "10",
        ],
    )
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["scheme", "M", "step", "t", "abs_energy_error"]
    assert len(rows) == 41
    # composition schemes have no single M, so the cell stays empty
    assert rows[0][:3] == ["sv-pq", "", "0"]
    assert float(rows[0][4]) == 0.0
    assert "sv-pq: bounded" in err


def test_energy_drift_default_needs_tokamak(capsys):
    rc, _, err = run_cli(capsys, ["energy-drift", "--hamiltonian", "harmonic"])
    assert rc == 2
    assert "tokamak" in err


@pytest.mark.parametrize(
    "argv, steps, stride",
    [([], 300_000, 300), (["--steps", "3000000"], 3_000_000, 3000)],
    ids=["default", "long-horizon"],
)
def test_energy_drift_length_and_stride(capsys, monkeypatch, argv, steps, stride):
    runs = []
    monkeypatch.setattr(cli, "energy_drift_run", lambda *args: runs.append(args[3:]) or [])
    rc, _, _ = run_cli(capsys, ["energy-drift", *argv])
    assert rc == 0
    assert runs == [(steps, stride)]


def test_full_scale_flag_and_key_are_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["energy-drift", "--full-scale"])
    assert exc.value.code == 2
    config = tmp_path / "full.cfg"
    config.write_text("full_scale = yes\n")
    rc, _, err = run_cli(capsys, ["energy-drift", "--config", str(config)])
    assert rc == 2
    assert "unknown key 'full_scale'" in err


def test_optimality_grid_matches_oracle(capsys):
    rc, out, err = run_cli(capsys, ["optimality"])
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["N", "M", "h", "diag_rel_err", "antidiag_rel_err"]
    assert len(rows) == 18  # N in {2,3,5} x M in {1,2,3} x h in {0.1,0.01}
    worst = max(max(float(r[3]), float(r[4])) for r in rows)
    assert worst <= 1e-9
    assert "max relative error" in err


@pytest.mark.parametrize(
    "argv, flag, admitted",
    [
        (["--N", "65"], "--N", "[2, 64]"),
        (["--M", "16"], "--M", "[1, 15]"),
        (["--N", "40", "--M", "12"], "--M", "[1, 8]"),  # C^13 could overflow int64
    ],
    ids=["N-65", "M-16", "N-40-M-12"],
)
def test_optimality_out_of_range_is_an_argument_error(capsys, monkeypatch, argv, flag, admitted):
    def no_analysis(*args):
        raise AssertionError("an analysis ran before the range check")

    monkeypatch.setattr(checks, "analyze", no_analysis)
    rc, out, err = run_cli(capsys, ["optimality", *argv])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {flag}: ")
    assert f"must be in {admitted}" in err


def test_optimality_takes_the_largest_admitted_sweep_count(capsys):
    rc, out, err = run_cli(capsys, ["optimality", "--M", "15"])
    assert rc == 0
    _, rows = csv_rows(out)
    assert [(r[0], r[1]) for r in rows] == [(n, "15") for n in ("2", "3", "5") for _ in range(2)]
    # the N=2 diagonal block is predicted at norm 5e-30, below J~'s round-off
    assert float(err.rsplit(":", 1)[1]) <= 1e-6


def test_sv_orders_covers_both_compositions(capsys):
    rc, out, err = run_cli(
        capsys, ["sv-orders", "--hamiltonian", "quadratic", "--h-count", "4"]
    )
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["scheme", "M1", "M2", "h", "P11", "P12", "P21", "P22"]
    assert [r[0] for r in rows] == ["sv-pq"] * 4 + ["sv-qp"] * 4
    assert all(r[1] == "1" and r[2] == "3" for r in rows)
    assert len(err.strip().splitlines()) == 8


def test_sv_orders_rejects_one_sided_schemes(capsys):
    rc, _, err = run_cli(capsys, ["sv-orders", "--scheme", "p-implicit"])
    assert rc == 2
    assert "sv-pq or sv-qp" in err


def test_volume_csv_and_determinant_identity(capsys):
    rc, out, err = run_cli(
        capsys,
        [
            "volume", "--hamiltonian", "quadratic", "--scheme", "p-implicit",
            "--M", "1", "--h-count", "3",
        ],
    )
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == [
        "scheme", "M", "h", "det_flow", "det_antidiag", "discrepancy", "volume_defect",
    ]
    assert len(rows) == 3
    for r in rows:
        assert float(r[5]) <= 1e-12
    assert "|det-1|" in err


def test_selftest_passes_on_a_clean_build(capsys):
    rc, out, _ = run_cli(capsys, ["selftest"])
    assert rc == 0
    assert "FAIL" not in out
    lines = out.splitlines()
    assert lines[:-1] == [
        checks.gate_line(num, *criterion()) for num, criterion in checks.CRITERIA.items()
    ]
    assert lines[-1] == "selftest: 10/10 checks passed"


def test_selftest_fails_when_a_criterion_fails(capsys, monkeypatch):
    monkeypatch.setitem(checks.CRITERIA, 4, lambda: (False, "forced failure"))
    rc, out, _ = run_cli(capsys, ["selftest"])
    assert rc == 1
    lines = out.splitlines()
    assert lines[3] == "[criterion 04] FAIL forced failure"
    assert sum("FAIL" in line for line in lines) == 1
    assert lines[-1] == "selftest: 9/10 checks passed"


@pytest.mark.parametrize("command", ["optimality", "jtilde"])
@pytest.mark.parametrize("hamiltonian", [None, "quadratic", "tokamak", "harmonic"])
def test_dimension_below_two_is_an_argument_error(capsys, command, hamiltonian):
    argv = [command, "--N", "1"]
    if hamiltonian is not None:
        argv += ["--hamiltonian", hamiltonian]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2
    assert out == ""
    assert "n must be >= 2" in err


def test_scheme_model_pairing_is_validated(capsys):
    rc, _, err = run_cli(
        capsys, ["jtilde", "--hamiltonian", "harmonic", "--scheme", "linear-implicit-em"]
    )
    assert rc == 2
    assert "tokamak" in err
    rc, _, err = run_cli(capsys, ["jtilde", "--scheme", "exact-quadratic-p"])
    assert rc == 2
    assert "exact-quadratic-p needs the quadratic model" in err


@pytest.mark.parametrize("scheme", ["exact-quadratic-p", "exact-quadratic-q"])
def test_exact_maps_run_on_the_oscillator(capsys, scheme):
    # the oscillator is a quadratic model, so the exact maps accept it
    argv = ["trajectory", "--hamiltonian", "harmonic", "--scheme", scheme, "--steps", "3"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0, err
    traj = integrate(
        harmonic_oscillator(), SchemeConfig(scheme, 0.1), PhaseState(np.array([1.0]), np.array([0.0])), 3
    )
    _, rows = csv_rows(out)
    expected = [
        [str(k), cli._fmt(t), *map(cli._fmt, z), cli._fmt(e)]
        for k, t, z, e in zip(traj.step_indices, traj.times, traj.states, traj.energies)
    ]
    assert rows == expected


def test_exact_map_names_its_implicit_side(capsys):
    argv = ["--hamiltonian", "quadratic", "--scheme", "exact-quadratic-q"]
    rc, out, err = run_cli(capsys, ["defect-sweep", *argv, "--h-count", "3"])
    assert rc == 0
    _, rows = csv_rows(out)
    assert [r[0] for r in rows] == ["exact-quadratic-q"] * 3
    assert "exact-quadratic-q delta: fewer than 3 points" in err
    rc, _, err = run_cli(capsys, ["energy-drift", *argv, "--steps", "40", "--stride", "2"])
    assert rc == 0
    assert err.startswith("exact-quadratic-q: ")


def test_side_knob_and_bare_exact_scheme_are_gone(tmp_path, capsys):
    for argv in (
        ["jtilde", "--hamiltonian", "quadratic", "--variant", "q"],
        ["jtilde", "--hamiltonian", "quadratic", "--scheme", "exact-quadratic"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    config = tmp_path / "variant.cfg"
    config.write_text("variant = q\n")
    rc, _, err = run_cli(capsys, ["jtilde", "--config", str(config)])
    assert rc == 2
    assert ":1:" in err and "unknown key 'variant'" in err


def test_config_file_layering(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# comment line\n"
        "hamiltonian = harmonic\n"
        "h = 0.05  # trailing comment\n"
        "steps = 2\n"
    )
    rc, out, _ = run_cli(
        capsys, ["trajectory", "--config", str(config), "--h", "0.1"]
    )
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["step", "t", "q1", "p1", "H"]  # model from the file
    assert float(rows[1][1]) == pytest.approx(0.1, rel=1e-15)  # flag wins


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("steps = 10\nfoo = 3\n")
    rc, _, err = run_cli(capsys, ["trajectory", "--config", str(bad_key)])
    assert rc == 2
    assert ":2:" in err and "unknown key" in err

    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("m = abc\n")
    rc, _, err = run_cli(capsys, ["trajectory", "--config", str(bad_value)])
    assert rc == 2
    assert "bad value for m" in err

    rc, _, err = run_cli(
        capsys, ["trajectory", "--config", str(tmp_path / "missing.cfg")]
    )
    assert rc == 2
    assert "cannot read config file" in err

    not_utf8 = tmp_path / "not_utf8.cfg"
    not_utf8.write_bytes(b"steps = 10\n# \xff\n")
    rc, _, err = run_cli(capsys, ["jtilde", "--config", str(not_utf8)])
    assert rc == 2
    assert "cannot read config file" in err

    # the sweep worker count is no longer a setting
    jobs = tmp_path / "jobs.cfg"
    jobs.write_text("jobs = 2\n")
    rc, _, err = run_cli(capsys, ["trajectory", "--config", str(jobs)])
    assert rc == 2
    assert ":1:" in err and "unknown key 'jobs'" in err
    with pytest.raises(SystemExit) as exc:
        main(["trajectory", "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("key", list(cli.SETTINGS))
def test_config_key_and_flag_resolve_alike(tmp_path, key):
    setting = cli.SETTINGS[key]
    if setting.choices:
        raw = setting.choices[-1]
    else:
        raw = {int: "4", float: "0.05", str: "out.csv"}[setting.type]
    config = tmp_path / "one.cfg"
    config.write_text(f"{key} = {raw}\n")
    parser = build_parser()
    from_file = resolve_config(parser.parse_args(["trajectory", "--config", str(config)]))
    from_flag = resolve_config(parser.parse_args(["trajectory", setting.flag, raw]))
    assert getattr(from_file, key) == getattr(from_flag, key) != setting.default


def test_parse_config_file_normalizes_keys(tmp_path):
    config = tmp_path / "keys.cfg"
    config.write_text("h-min = 0.01\nH_COUNT = 4\n")
    values = parse_config_file(str(config))
    assert values == {"h_min": 0.01, "h_count": 4}


@pytest.mark.parametrize(
    "argv",
    [
        ["trajectory", "--h", "0"],
        ["defect-sweep", "--hamiltonian", "quadratic", "--h-min", "0.3"],
        ["defect-sweep", "--hamiltonian", "quadratic", "--h-max", "0.01"],
        ["defect-sweep", "--hamiltonian", "quadratic", "--h-count", "1"],
    ],
    ids=["zero-step", "h-min-above-default-h-max", "h-max-below-default-h-min", "one-point-grid"],
)
def test_no_output_file_on_validation_failure(tmp_path, capsys, argv):
    target = tmp_path / "out.csv"
    rc, _, _ = run_cli(capsys, [*argv, "--out", str(target)])
    assert rc == 2
    assert not target.exists()


def test_output_file_matches_stdout_body(tmp_path, capsys):
    argv = [
        "trajectory", "--hamiltonian", "harmonic", "--steps", "4", "--stride", "2",
    ]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    target = tmp_path / "traj.csv"
    rc2 = main(argv + ["--out", str(target)])
    capsys.readouterr()
    assert rc2 == 0
    assert target.read_text() == out


def test_identical_runs_are_bitwise_identical(capsys):
    argv = [
        "defect-sweep", "--hamiltonian", "quadratic", "--scheme", "p-implicit",
        "--M", "1", "--h-count", "3",
    ]
    rc1, out1, _ = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_module_entry_point_requires_a_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "sympdefect"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()
