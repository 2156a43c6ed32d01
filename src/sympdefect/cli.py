"""Command-line interface.

Subcommands cover trajectory integration, defect sweeps, structure-matrix
inspection, energy drift, the closed-form oracle comparison, composition
block orders, volume defects and a selftest that prints the gate lines of
acceptance criteria 1-9 and 11 from `sympdefect.checks` (criterion 10, a
long drift run, needs pytest or energy-drift).  Settings resolve in
three layers: built-in defaults, then `key = value` lines from --config,
then explicit flags.  CSV output goes to --out (default stdout) with floats
at 17 significant digits; summary tables go to the terminal.

Exit codes: 0 success, 1 computational failure, 2 invalid arguments/config.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import checks
from .defect import analyze
from .experiments import (
    default_h_grid,
    defect_sweep,
    energy_drift_run,
    sv_block_orders,
)
from .hamiltonians import (
    harmonic_oscillator,
    quadratic_model,
    reference_initial_state,
    tokamak_model,
)
from .integrators import Scheme, SchemeConfig, integrate
from .state import PhaseState

HAMILTONIANS = ("tokamak", "quadratic", "harmonic")

CI_DRIFT_STEPS = 300_000
FULL_DRIFT_STEPS = 3_000_000


class ConfigError(ValueError):
    """Invalid flag, config key or option combination (exit code 2)."""


@dataclass
class RunConfig:
    """Resolved settings; None means "not set, command picks its default"."""

    hamiltonian: str | None = None
    scheme: str | None = None
    n: int | None = None
    m: int | None = None
    m1: int | None = None
    m2: int | None = None
    h: float | None = None
    steps: int | None = None
    stride: int | None = None
    h_min: float | None = None
    h_max: float | None = None
    h_count: int | None = None
    jobs: int | None = None
    full_scale: bool | None = None
    variant: str | None = None
    out: str | None = None


# tuples, not sets: _validate reports the first bad key in this order
_INT_KEYS = ("n", "m", "m1", "m2", "steps", "stride", "h_count", "jobs")
_FLOAT_KEYS = ("h", "h_min", "h_max")
_BOOL_KEYS = ("full_scale",)
_STR_KEYS = ("hamiltonian", "scheme", "variant", "out")
_ALL_KEYS = _INT_KEYS + _FLOAT_KEYS + _BOOL_KEYS + _STR_KEYS


def _coerce(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _BOOL_KEYS:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines; # starts a comment, blank lines ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().lower().replace("-", "_")
        raw = raw.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in parse_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            setattr(cfg, f.name, flag_value)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.hamiltonian is not None and cfg.hamiltonian not in HAMILTONIANS:
        raise ConfigError(f"hamiltonian must be one of {HAMILTONIANS}, got {cfg.hamiltonian!r}")
    if cfg.scheme is not None:
        try:
            Scheme(cfg.scheme)
        except ValueError as exc:
            raise ConfigError(f"unknown scheme {cfg.scheme!r}") from exc
    for name in _INT_KEYS:
        value = getattr(cfg, name)
        if value is not None and value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if cfg.n is not None and cfg.n < 2:
        raise ConfigError(f"n must be >= 2 for the quadratic model, got {cfg.n}")
    for name in _FLOAT_KEYS:
        value = getattr(cfg, name)
        if value is not None and not (np.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    if cfg.h_min is not None and cfg.h_max is not None and cfg.h_min >= cfg.h_max:
        raise ConfigError(f"h_min must be below h_max, got {cfg.h_min} and {cfg.h_max}")
    if cfg.variant is not None and cfg.variant not in ("p", "q"):
        raise ConfigError(f"variant must be 'p' or 'q', got {cfg.variant!r}")


def _pick(value, default):
    return default if value is None else value


def _build_model(cfg: RunConfig):
    kind = _pick(cfg.hamiltonian, "tokamak")
    if kind == "tokamak":
        return tokamak_model()
    if kind == "quadratic":
        return quadratic_model(_pick(cfg.n, 3))
    return harmonic_oscillator()


def _initial_state(cfg: RunConfig, model) -> PhaseState:
    kind = _pick(cfg.hamiltonian, "tokamak")
    if kind == "tokamak":
        return reference_initial_state(model)
    if kind == "harmonic":
        return PhaseState(np.array([1.0]), np.array([0.0]))
    n = model.dim
    idx = np.arange(n, dtype=float)
    return PhaseState(1.0 / (idx + 2.0), (-1.0) ** idx / (idx + 3.0))


def _scheme_config(cfg: RunConfig, scheme: Scheme, h: float) -> SchemeConfig:
    if scheme in (Scheme.P_IMPLICIT, Scheme.Q_IMPLICIT):
        return SchemeConfig(scheme, h, M=_pick(cfg.m, 3))
    if scheme in (Scheme.SV_PQ, Scheme.SV_QP):
        return SchemeConfig(scheme, h, M1=_pick(cfg.m1, 1), M2=_pick(cfg.m2, 3))
    if scheme is Scheme.EXACT_QUADRATIC:
        return SchemeConfig(scheme, h, variant=_pick(cfg.variant, "p"))
    return SchemeConfig(scheme, h)


def _check_scheme_model(cfg: RunConfig, scheme: Scheme) -> None:
    kind = _pick(cfg.hamiltonian, "tokamak")
    if scheme is Scheme.LINEAR_IMPLICIT_EM and kind != "tokamak":
        raise ConfigError("linear-implicit-em needs the tokamak model")
    if scheme is Scheme.EXACT_QUADRATIC and kind != "quadratic":
        raise ConfigError("exact-quadratic needs the quadratic model")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return _fmt(float(value))
    return str(value)


def _write_csv(out: str | None, header: list[str], rows: list[list]) -> None:
    text = ",".join(header) + "\n"
    text += "".join(",".join(_cell(v) for v in row) + "\n" for row in rows)
    _write_text(out, text)


def _write_text(out: str | None, text: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _summary(cfg: RunConfig, line: str) -> None:
    # keep tables off stdout when the CSV itself goes there
    stream = sys.stderr if cfg.out in (None, "-") else sys.stdout
    print(line, file=stream)


def _fit_line(tag: str, fit) -> str:
    if fit is None:
        return f"{tag}: fewer than 3 points above the measurement floor"
    return (
        f"{tag}: slope={fit.slope:.5f} amplitude={fit.amplitude:.4e} "
        f"rms={fit.rms_residual:.2e} points={fit.points_used}"
    )


def _h_grid(cfg: RunConfig) -> np.ndarray:
    return default_h_grid(
        _pick(cfg.h_min, 0.02), _pick(cfg.h_max, 0.2), _pick(cfg.h_count, 10)
    )


# -- subcommands ----------------------------------------------------------


def cmd_trajectory(cfg: RunConfig) -> int:
    scheme = Scheme(_pick(cfg.scheme, Scheme.Q_IMPLICIT.value))
    _check_scheme_model(cfg, scheme)
    model = _build_model(cfg)
    state = _initial_state(cfg, model)
    config = _scheme_config(cfg, scheme, _pick(cfg.h, 0.1))
    traj = integrate(
        model, config, state, _pick(cfg.steps, 1000), _pick(cfg.stride, 1)
    )
    n = traj.dim
    header = (
        ["step", "t"]
        + [f"q{i + 1}" for i in range(n)]
        + [f"p{i + 1}" for i in range(n)]
        + ["H"]
    )
    rows = []
    for i, k in enumerate(traj.step_indices):
        rows.append(
            [int(k), traj.times[i], *traj.states[i], traj.energies[i]]
        )
    _write_csv(cfg.out, header, rows)
    return 0


DEFECT_HEADER = [
    "scheme", "M", "M1", "M2", "h",
    "delta", "alpha", "skew_residual", "det_flow", "det_antidiag",
]


def _one_sided_sweep(cfg: RunConfig, composition_error: str):
    """The (M, h) defect sweep behind both defect-sweep and volume."""
    scheme = Scheme(_pick(cfg.scheme, Scheme.Q_IMPLICIT.value))
    if scheme in (Scheme.SV_PQ, Scheme.SV_QP):
        raise ConfigError(composition_error)
    _check_scheme_model(cfg, scheme)
    model = _build_model(cfg)
    state = _initial_state(cfg, model)
    m_values = [cfg.m] if cfg.m is not None else [1, 2, 3]
    return scheme, defect_sweep(
        model, scheme, m_values, _h_grid(cfg), state,
        variant=_pick(cfg.variant, "p"), jobs=_pick(cfg.jobs, 1),
    )


def cmd_defect_sweep(cfg: RunConfig) -> int:
    scheme, sweep = _one_sided_sweep(cfg, "use the sv-orders command for composition schemes")
    rows = [[r[col] for col in DEFECT_HEADER] for r in sweep.rows]
    _write_csv(cfg.out, DEFECT_HEADER, rows)
    for (quantity, m), fit in sweep.fits.items():
        label = f"{scheme.value} {quantity}" + ("" if m is None else f" M={m}")
        _summary(cfg, _fit_line(label, fit))
    return 0


def cmd_jtilde(cfg: RunConfig) -> int:
    scheme = Scheme(_pick(cfg.scheme, Scheme.Q_IMPLICIT.value))
    _check_scheme_model(cfg, scheme)
    model = _build_model(cfg)
    state = _initial_state(cfg, model)
    config = _scheme_config(cfg, scheme, _pick(cfg.h, 0.1))
    report = analyze(model, config, state)
    lines = [" ".join(_fmt(v) for v in row) for row in report.structure]
    lines += [
        f"delta_block={report.delta_block}",
        f"delta={_fmt(report.delta)}",
        f"alpha={_fmt(report.alpha)}",
        f"skew_residual={_fmt(report.skew_residual)}",
        f"det_flow={_fmt(report.det_flow)}",
        f"det_antidiag={_fmt(report.det_antidiag)}",
    ]
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def cmd_energy_drift(cfg: RunConfig) -> int:
    kind = _pick(cfg.hamiltonian, "tokamak")
    model = _build_model(cfg)
    state = _initial_state(cfg, model)
    h = _pick(cfg.h, 0.25)
    if cfg.scheme is not None:
        scheme = Scheme(cfg.scheme)
        _check_scheme_model(cfg, scheme)
        configs = [_scheme_config(cfg, scheme, h)]
    else:
        if kind != "tokamak":
            raise ConfigError("the default drift comparison needs the tokamak model")
        configs = [
            SchemeConfig(Scheme.LINEAR_IMPLICIT_EM, h),
            SchemeConfig(Scheme.Q_IMPLICIT, h, M=2),
            SchemeConfig(Scheme.Q_IMPLICIT, h, M=3),
        ]
    steps = _pick(cfg.steps, FULL_DRIFT_STEPS if _pick(cfg.full_scale, False) else CI_DRIFT_STEPS)
    stride = _pick(cfg.stride, max(1, steps // 1000))
    series = energy_drift_run(model, configs, state, steps, stride)
    rows = []
    for s in series:
        for i, k in enumerate(s.step_indices):
            rows.append([s.scheme.value, s.m, int(k), s.times[i], s.errors[i]])
    _write_csv(cfg.out, ["scheme", "M", "step", "t", "abs_energy_error"], rows)
    for s in series:
        flag = " (stopped early: blow-up)" if s.blown_up else ""
        trend = f"; {s.estimate.describe()}" if s.estimate is not None else ""
        _summary(cfg, f"{s.label}: {s.classification}{flag}{trend}")
    return 0


def cmd_optimality(cfg: RunConfig) -> int:
    rows = []
    worst = 0.0
    for n, m, h, report, diag_pred, anti_pred in checks.closed_form_cases(
        [cfg.n] if cfg.n is not None else [2, 3, 5],
        [cfg.m] if cfg.m is not None else [1, 2, 3],
        [cfg.h] if cfg.h is not None else [0.1, 0.01],
    ):
        # the closed form can predict an identically zero block (N=2, even
        # M); compare round-off against the full matrix
        diag_scale = np.linalg.norm(diag_pred) or np.linalg.norm(report.structure)
        diag_err = np.linalg.norm(report.diag_q - diag_pred) / diag_scale
        anti_err = np.linalg.norm(report.antidiag - anti_pred) / np.linalg.norm(anti_pred)
        worst = max(worst, diag_err, anti_err)
        rows.append([n, m, h, float(diag_err), float(anti_err)])
    _write_csv(cfg.out, ["N", "M", "h", "diag_rel_err", "antidiag_rel_err"], rows)
    _summary(cfg, f"max relative error vs closed form: {worst:.3e}")
    return 0


def cmd_sv_orders(cfg: RunConfig) -> int:
    if cfg.scheme is not None:
        scheme = Scheme(cfg.scheme)
        if scheme not in (Scheme.SV_PQ, Scheme.SV_QP):
            raise ConfigError("sv-orders needs scheme sv-pq or sv-qp")
        schemes = [scheme]
    else:
        schemes = [Scheme.SV_PQ, Scheme.SV_QP]
    model = _build_model(cfg)
    state = _initial_state(cfg, model)
    m1 = _pick(cfg.m1, 1)
    m2 = _pick(cfg.m2, 3)
    grid = _h_grid(cfg)
    rows = []
    fit_lines = []
    for scheme in schemes:
        variant_rows, fits = sv_block_orders(model, scheme, m1, m2, grid, state)
        for r in variant_rows:
            rows.append([scheme.value, m1, m2, r["h"], r["P11"], r["P12"], r["P21"], r["P22"]])
        for block, fit in fits.items():
            fit_lines.append(_fit_line(f"{scheme.value} {block}", fit))
    _write_csv(
        cfg.out,
        ["scheme", "M1", "M2", "h", "P11", "P12", "P21", "P22"],
        rows,
    )
    for line in fit_lines:
        _summary(cfg, line)
    return 0


def cmd_volume(cfg: RunConfig) -> int:
    scheme, sweep = _one_sided_sweep(cfg, "volume sweeps cover the one-sided schemes")
    rows = []
    for r in sweep.rows:
        det_flow, det_anti = r["det_flow"], r["det_antidiag"]
        rows.append(
            [
                r["scheme"], r["M"], r["h"], det_flow, det_anti,
                abs(abs(det_flow) - abs(det_anti)),
                abs(det_flow - 1.0),
            ]
        )
    _write_csv(
        cfg.out,
        ["scheme", "M", "h", "det_flow", "det_antidiag", "discrepancy", "volume_defect"],
        rows,
    )
    for (quantity, m), fit in sweep.fits.items():
        if quantity == "volume":
            label = f"{scheme.value} |det-1|" + ("" if m is None else f" M={m}")
            _summary(cfg, _fit_line(label, fit))
    return 0


def cmd_selftest(cfg: RunConfig) -> int:
    failed = 0
    for num, criterion in checks.CRITERIA.items():
        ok, detail = criterion()
        failed += 0 if ok else 1
        print(checks.gate_line(num, ok, detail))
    total = len(checks.CRITERIA)
    print(f"selftest: {total - failed}/{total} checks passed")
    return 0 if failed == 0 else 1


# -- argument parsing -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value settings file")
    common.add_argument("--out", metavar="PATH", help="output file ('-' for stdout)")
    common.add_argument("--hamiltonian", choices=HAMILTONIANS)
    common.add_argument("--scheme", choices=[s.value for s in Scheme])
    common.add_argument("--N", dest="n", type=int, help="quadratic model dimension")
    common.add_argument("--M", dest="m", type=int, help="fixed-point sweep count")
    common.add_argument("--M1", dest="m1", type=int, help="sweeps in the first half step")
    common.add_argument("--M2", dest="m2", type=int, help="sweeps in the second half step")
    common.add_argument("--h", type=float, help="step size (dimensionless)")
    common.add_argument("--steps", type=int)
    common.add_argument("--stride", type=int, help="sampling interval in steps")
    common.add_argument("--h-min", dest="h_min", type=float)
    common.add_argument("--h-max", dest="h_max", type=float)
    common.add_argument("--h-count", dest="h_count", type=int)
    common.add_argument("--jobs", type=int, help="sweep worker processes; each pays process start-up")
    common.add_argument(
        "--full-scale", dest="full_scale", action="store_const", const=True,
        help="run the long-horizon drift length",
    )
    common.add_argument("--variant", choices=("p", "q"), help="implicit side of the exact map")

    parser = argparse.ArgumentParser(
        prog="sympdefect",
        description="Block-structured symplectic defect measurements for "
        "fixed-point-iterated integrators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, desc in (
        ("trajectory", cmd_trajectory, "integrate an orbit and write it as CSV"),
        ("defect-sweep", cmd_defect_sweep, "defect norms over an (M, h) grid with order fits"),
        ("jtilde", cmd_jtilde, "print the transformed structure matrix at one setting"),
        ("energy-drift", cmd_energy_drift, "long-run energy error comparison"),
        ("optimality", cmd_optimality, "measured defect blocks vs the closed-form oracle"),
        ("sv-orders", cmd_sv_orders, "per-block deviation orders of the compositions"),
        ("volume", cmd_volume, "volume defect and the determinant identity"),
        ("selftest", cmd_selftest,
         "gate lines of acceptance criteria 1-9 and 11 (criterion 10 needs pytest or energy-drift)"),
    ):
        p = sub.add_parser(name, parents=[common], help=desc, description=desc)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
