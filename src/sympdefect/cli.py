"""Command-line interface.

Subcommands cover trajectory integration, defect sweeps, structure-matrix
inspection, energy drift, the closed-form oracle comparison, composition
block orders, volume defects and a selftest that prints the gate lines of
acceptance criteria 1-9 and 11 from `sympdefect.checks` (criterion 10, a
long drift run, needs pytest or energy-drift).  Every setting is declared
once, in SETTINGS, which yields its flag, its config-file key, its
coercion, its validation and its default.  Settings resolve in three
layers: the SETTINGS defaults, then `key = value` lines from --config,
then explicit flags; a default of None lets each command pick its own.
CSV output goes to --out (default stdout) with floats at 17 significant
digits; summary tables go to the terminal.

Exit codes: 0 success, 1 computational failure, 2 invalid arguments/config.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import checks
from .defect import analyze
from .experiments import (
    DEFAULT_H_COUNT,
    DEFAULT_H_MAX,
    DEFAULT_H_MIN,
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
from .quadratic_oracle import OracleRangeError, check_case
from .state import PhaseState

CI_DRIFT_STEPS = 300_000


class ConfigError(ValueError):
    """Invalid flag, config key or option combination (exit code 2)."""


@dataclass(frozen=True)
class Setting:
    """One setting: `type` is int, float or str.

    str settings with `choices` accept only those; int settings accept
    values >= `minimum`; float settings accept positive finite values.
    """

    flag: str
    type: type
    help: str
    default: object = None  # None: the command picks its own
    choices: tuple[str, ...] = ()
    minimum: int = 1
    reason: str = ""  # appended to the minimum's error message


# keyed by config-file key, which is also the argparse dest; _validate
# reports the first bad setting in this order
SETTINGS: dict[str, Setting] = {
    "out": Setting("--out", str, "output file ('-' for stdout)"),
    "hamiltonian": Setting(
        "--hamiltonian", str, "model", default="tokamak",
        choices=("tokamak", "quadratic", "harmonic"),
    ),
    "scheme": Setting("--scheme", str, "integrator", choices=tuple(s.value for s in Scheme)),
    "n": Setting(
        "--N", int, "quadratic model dimension", minimum=2, reason=" for the quadratic model"
    ),
    "m": Setting("--M", int, "fixed-point sweep count"),
    "m1": Setting("--M1", int, "sweeps in the first half step", default=1),
    "m2": Setting("--M2", int, "sweeps in the second half step", default=3),
    "h": Setting("--h", float, "step size (dimensionless)"),
    "steps": Setting("--steps", int, "number of steps"),
    "stride": Setting("--stride", int, "sampling interval in steps"),
    "h_min": Setting("--h-min", float, "smallest step of a sweep grid", default=DEFAULT_H_MIN),
    "h_max": Setting("--h-max", float, "largest step of a sweep grid", default=DEFAULT_H_MAX),
    "h_count": Setting(
        "--h-count", int, "points of a sweep grid", default=DEFAULT_H_COUNT, minimum=2
    ),
}


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines; # starts a comment, blank lines ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = SETTINGS[key].type(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill every setting on `args`: its flag, else --config, else its default."""
    from_file = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key, setting in SETTINGS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, from_file.get(key, setting.default))
    _validate(args)
    return args


def _validate(cfg: argparse.Namespace) -> None:
    for key, setting in SETTINGS.items():
        value = getattr(cfg, key)
        if value is None:
            continue
        if setting.choices and value not in setting.choices:
            raise ConfigError(f"{key} must be one of {setting.choices}, got {value!r}")
        if setting.type is int and value < setting.minimum:
            raise ConfigError(f"{key} must be >= {setting.minimum}{setting.reason}, got {value}")
        if setting.type is float and not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{key} must be positive and finite, got {value}")
    if cfg.h_min >= cfg.h_max:
        raise ConfigError(f"h_min must be below h_max, got {cfg.h_min} and {cfg.h_max}")


def _pick(value, default):
    return default if value is None else value


def _model_and_state(cfg: argparse.Namespace):
    """The chosen model and the state every command starts from."""
    if cfg.hamiltonian == "tokamak":
        model = tokamak_model()
        return model, reference_initial_state(model)
    if cfg.hamiltonian == "harmonic":
        return harmonic_oscillator(), PhaseState(np.array([1.0]), np.array([0.0]))
    n = _pick(cfg.n, 3)
    idx = np.arange(n, dtype=float)
    return quadratic_model(n), PhaseState(1.0 / (idx + 2.0), (-1.0) ** idx / (idx + 3.0))


def _scheme_config(cfg: argparse.Namespace, scheme: Scheme, h: float) -> SchemeConfig:
    counts = {"M": _pick(cfg.m, 3), "M1": cfg.m1, "M2": cfg.m2}
    return SchemeConfig(scheme, h, **{c: counts[c] for c in scheme.counts})


# the schemes that run on one kind of model only; the oscillator is a
# quadratic model with its own coupling
_SCHEME_MODEL = {
    Scheme.LINEAR_IMPLICIT_EM: "tokamak",
    Scheme.EXACT_QUADRATIC_P: "quadratic",
    Scheme.EXACT_QUADRATIC_Q: "quadratic",
}
_MODEL_KIND = {"tokamak": "tokamak", "quadratic": "quadratic", "harmonic": "quadratic"}


def _check_scheme_model(cfg: argparse.Namespace, scheme: Scheme) -> None:
    needed = _SCHEME_MODEL.get(scheme)
    if needed is not None and _MODEL_KIND[cfg.hamiltonian] != needed:
        raise ConfigError(f"{scheme.value} needs the {needed} model")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _spec(kind: type) -> str:
    """A CSV cell's % conversion by its type: None empty, floats as `_fmt` writes them, else str."""
    if kind is type(None):
        return "%.0s"
    return "%.17g" if issubclass(kind, (float, np.floating)) else "%s"


def _write_csv(out: str | None, header: list[str], rows: list[list]) -> None:
    formats: dict[tuple, str] = {}  # the cell types of a row -> its line's % format
    lines = [",".join(header) + "\n"]
    for row in rows:
        types = tuple(map(type, row))
        fmt = formats.get(types) or formats.setdefault(types, ",".join(map(_spec, types)) + "\n")
        lines.append(fmt % tuple(row))
    _write_text(out, "".join(lines))


def _write_text(out: str | None, text: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _summary(cfg: argparse.Namespace, line: str) -> None:
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


# -- subcommands ----------------------------------------------------------


def cmd_trajectory(cfg: argparse.Namespace) -> int:
    scheme = Scheme(_pick(cfg.scheme, Scheme.Q_IMPLICIT.value))
    _check_scheme_model(cfg, scheme)
    model, state = _model_and_state(cfg)
    config = _scheme_config(cfg, scheme, _pick(cfg.h, 0.1))
    traj = integrate(
        model, config, state, _pick(cfg.steps, 1000), _pick(cfg.stride, 1)
    )
    n = model.dim
    header = (
        ["step", "t"]
        + [f"q{i + 1}" for i in range(n)]
        + [f"p{i + 1}" for i in range(n)]
        + ["H"]
    )
    rows = [[k, t, *z, e] for k, t, z, e in zip(traj.step_indices.tolist(), traj.times.tolist(),
                                                 traj.states.tolist(), traj.energies.tolist())]
    _write_csv(cfg.out, header, rows)
    return 0


DEFECT_HEADER = [
    "scheme", "M", "M1", "M2", "h",
    "delta", "alpha", "skew_residual", "det_flow", "det_antidiag",
]


def _one_sided_sweep(cfg: argparse.Namespace, composition_error: str):
    """The (M, h) defect sweep behind both defect-sweep and volume."""
    scheme = Scheme(_pick(cfg.scheme, Scheme.Q_IMPLICIT.value))
    if scheme.composition:
        raise ConfigError(composition_error)
    _check_scheme_model(cfg, scheme)
    model, state = _model_and_state(cfg)
    m_values = [cfg.m] if cfg.m is not None else [1, 2, 3]
    grid = default_h_grid(cfg.h_min, cfg.h_max, cfg.h_count)
    return scheme, defect_sweep(model, scheme, m_values, grid, state)


def cmd_defect_sweep(cfg: argparse.Namespace) -> int:
    scheme, sweep = _one_sided_sweep(cfg, "use the sv-orders command for composition schemes")
    rows = [[r[col] for col in DEFECT_HEADER] for r in sweep.rows]
    _write_csv(cfg.out, DEFECT_HEADER, rows)
    for (quantity, m), fit in sweep.fits.items():
        label = f"{scheme.value} {quantity}" + ("" if m is None else f" M={m}")
        _summary(cfg, _fit_line(label, fit))
    return 0


def cmd_jtilde(cfg: argparse.Namespace) -> int:
    scheme = Scheme(_pick(cfg.scheme, Scheme.Q_IMPLICIT.value))
    _check_scheme_model(cfg, scheme)
    model, state = _model_and_state(cfg)
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


def cmd_energy_drift(cfg: argparse.Namespace) -> int:
    model, state = _model_and_state(cfg)
    h = _pick(cfg.h, 0.25)
    if cfg.scheme is not None:
        scheme = Scheme(cfg.scheme)
        _check_scheme_model(cfg, scheme)
        configs = [_scheme_config(cfg, scheme, h)]
    else:
        if cfg.hamiltonian != "tokamak":
            raise ConfigError("the default drift comparison needs the tokamak model")
        configs = [
            SchemeConfig(Scheme.LINEAR_IMPLICIT_EM, h),
            SchemeConfig(Scheme.Q_IMPLICIT, h, M=2),
            SchemeConfig(Scheme.Q_IMPLICIT, h, M=3),
        ]
    steps = _pick(cfg.steps, CI_DRIFT_STEPS)
    stride = _pick(cfg.stride, max(1, steps // 1000))
    series = energy_drift_run(model, configs, state, steps, stride)
    rows = []
    for s in series:
        columns = zip(s.step_indices.tolist(), s.times.tolist(), s.errors.tolist())
        rows += [[s.scheme.value, s.m, k, t, e] for k, t, e in columns]
    _write_csv(cfg.out, ["scheme", "M", "step", "t", "abs_energy_error"], rows)
    for s in series:
        flag = " (stopped early: blow-up)" if s.blown_up else ""
        trend = f"; {s.estimate.describe()}" if s.estimate is not None else ""
        _summary(cfg, f"{s.label}: {s.classification}{flag}{trend}")
    return 0


def cmd_optimality(cfg: argparse.Namespace) -> int:
    ns = [cfg.n] if cfg.n is not None else [2, 3, 5]
    ms = [cfg.m] if cfg.m is not None else [1, 2, 3]
    try:
        for n in ns:
            for m in ms:
                check_case(n, m)
    except OracleRangeError as exc:
        raise ConfigError(f"{SETTINGS[exc.key].flag}: {exc}") from exc
    rows = []
    worst = 0.0
    for n, m, h, report, diag_pred, anti_pred in checks.closed_form_cases(
        ns, ms, [cfg.h] if cfg.h is not None else [0.1, 0.01],
    ):
        # a predicted block within round-off of J~ (identically zero at N=2
        # and even M, of norm 5e-30 at N=2, M=15) is compared against J~
        structure_norm = np.linalg.norm(report.structure)
        diag_scale = np.linalg.norm(diag_pred)
        if diag_scale < 1e3 * np.finfo(float).eps * structure_norm:
            diag_scale = structure_norm
        diag_err = np.linalg.norm(report.diag_q - diag_pred) / diag_scale
        anti_err = np.linalg.norm(report.antidiag - anti_pred) / np.linalg.norm(anti_pred)
        worst = max(worst, diag_err, anti_err)
        rows.append([n, m, h, float(diag_err), float(anti_err)])
    _write_csv(cfg.out, ["N", "M", "h", "diag_rel_err", "antidiag_rel_err"], rows)
    _summary(cfg, f"max relative error vs closed form: {worst:.3e}")
    return 0


def cmd_sv_orders(cfg: argparse.Namespace) -> int:
    schemes = [s for s in Scheme if s.composition and cfg.scheme in (None, s.value)]
    if not schemes:
        raise ConfigError("sv-orders needs scheme sv-pq or sv-qp")
    model, state = _model_and_state(cfg)
    m1, m2 = cfg.m1, cfg.m2
    grid = default_h_grid(cfg.h_min, cfg.h_max, cfg.h_count)
    rows = []
    fit_lines = []
    for scheme in schemes:
        scheme_rows, fits = sv_block_orders(model, scheme, m1, m2, grid, state)
        for r in scheme_rows:
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


VOLUME_HEADER = ["scheme", "M", "h", "det_flow", "det_antidiag", "discrepancy", "volume_defect"]


def cmd_volume(cfg: argparse.Namespace) -> int:
    scheme, sweep = _one_sided_sweep(cfg, "volume sweeps cover the one-sided schemes")
    rows = [[r[col] for col in VOLUME_HEADER] for r in sweep.rows]
    _write_csv(cfg.out, VOLUME_HEADER, rows)
    for (quantity, m), fit in sweep.fits.items():
        if quantity == "volume":
            label = f"{scheme.value} |det-1|" + ("" if m is None else f" M={m}")
            _summary(cfg, _fit_line(label, fit))
    return 0


def cmd_selftest(cfg: argparse.Namespace) -> int:
    failed = 0
    for num, criterion in checks.CRITERIA.items():
        ok, detail = criterion()
        failed += 0 if ok else 1
        print(checks.gate_line(num, ok, detail))
    total = len(checks.CRITERIA)
    print(f"selftest: {total - failed}/{total} checks passed")
    return 0 if failed == 0 else 1


# -- argument parsing -----------------------------------------------------


COMMANDS = {  # subcommand -> help text
    "trajectory": "integrate an orbit and write it as CSV",
    "defect-sweep": "defect norms over an (M, h) grid with order fits",
    "jtilde": "print the transformed structure matrix at one setting",
    "energy-drift": "long-run energy error comparison",
    "optimality": "measured defect blocks vs the closed-form oracle",
    "sv-orders": "per-block deviation orders of the compositions",
    "volume": "volume defect and the determinant identity",
    "selftest": "gate lines of acceptance criteria 1-9 and 11 (criterion 10 needs pytest or energy-drift)",
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser; --config and SETTINGS go on the subcommand `argv` names (not a command: on
    none), or on all if None.  One per such choice and process, shared: parse_args keeps it."""
    invoked = None if argv is None else next((a for a in argv if not a.startswith("-")), "")
    return _parser(invoked if invoked is None or invoked in COMMANDS else "")


@lru_cache(maxsize=None)
def _parser(invoked: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympdefect",
        description="Block-structured symplectic defect measurements for "
        "fixed-point-iterated integrators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in COMMANDS.items():
        p = sub.add_parser(name, help=desc, description=desc)
        if invoked in (None, name):
            p.add_argument("--config", metavar="PATH", help="key = value settings file")
            for key, setting in SETTINGS.items():
                default = "" if setting.default is None else f" (default: {setting.default})"
                p.add_argument(setting.flag, dest=key, type=setting.type,
                               choices=setting.choices or None, help=setting.help + default)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    # cmd_<subcommand, "-" as "_">, looked up now: the parsers outlive a patched one (a tracer)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(resolve_config(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
