"""Measured experiments: defect order sweeps, composition block orders and
long-run energy drift, with log-log order fits.

Fits deliberately exclude measurements that have fallen to the round-off
floor; a norm below MEASUREMENT_FLOOR carries no order information and
would only flatten the fitted slope.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .defect import analyze
from .integrators import Scheme, SchemeConfig, orbit
from .state import PhaseState

MEASUREMENT_FLOOR = 1e-13
BLOW_UP_FACTOR = 1e3
BURN_IN_FRACTION = 0.01
DRIFT_RATIO = 10.0
BOUNDED_RATIO = 2.0

DEFAULT_H_MIN = 0.02
DEFAULT_H_MAX = 0.2
DEFAULT_H_COUNT = 10


def default_h_grid(
    h_min: float = DEFAULT_H_MIN,
    h_max: float = DEFAULT_H_MAX,
    count: int = DEFAULT_H_COUNT,
) -> np.ndarray:
    """Logarithmically spaced step sizes, smallest first."""
    if not 0 < h_min < h_max:
        raise ValueError(f"need 0 < h_min < h_max, got {h_min} and {h_max}")
    if count < 2:
        raise ValueError(f"grid needs at least 2 points, got {count}")
    return np.geomspace(h_min, h_max, count)


@dataclass
class FitResult:
    """Least-squares line through (log h, log value)."""

    slope: float
    amplitude: float
    rms_residual: float
    points_used: int


def loglog_fit(
    h_values, values, floor: float = MEASUREMENT_FLOOR
) -> FitResult | None:
    """Fit value ~ amplitude * h^slope; None if fewer than 3 usable points."""
    h = np.asarray(h_values, dtype=float)
    v = np.asarray(values, dtype=float)
    if h.shape != v.shape or h.ndim != 1:
        raise ValueError("h_values and values must be equal-length vectors")
    if not (np.all(np.isfinite(h)) and np.all(h > 0)):
        raise ValueError("step sizes must be positive and finite")
    if not (np.all(np.isfinite(v)) and np.all(v >= 0)):
        raise ValueError("values must be non-negative and finite")
    keep = v >= floor
    if int(keep.sum()) < 3:
        return None
    x = np.log(h[keep])
    y = np.log(v[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return FitResult(
        slope=float(slope),
        amplitude=float(np.exp(intercept)),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        points_used=int(keep.sum()),
    )


@dataclass
class DefectSweep:
    """Per-(M, h) defect measurements plus order fits.

    `rows` entries carry the CSV columns; `fits` maps (quantity, M) to a
    FitResult, with quantity one of "delta", "alpha", "volume".
    """

    rows: list[dict]
    fits: dict[tuple[str, int | None], FitResult | None]


def _sweep_row(model, scheme: Scheme, variant: str, m: int | None, h: float, state: PhaseState) -> dict:
    config = SchemeConfig(scheme, h, M=m, variant=variant)
    report = analyze(model, config, state)
    return {
        "scheme": scheme.value,
        "M": m,
        "M1": None,
        "M2": None,
        "h": h,
        "delta": report.delta,
        "alpha": report.alpha,
        "skew_residual": report.skew_residual,
        "det_flow": report.det_flow,
        "det_antidiag": report.det_antidiag,
    }


def defect_sweep(
    model,
    scheme: Scheme,
    m_values,
    h_values,
    state: PhaseState,
    variant: str = "p",
    jobs: int = 1,
) -> DefectSweep:
    """Defect quantities over an (M, h) grid, with per-M order fits."""
    scheme = Scheme(scheme)
    h_values = np.asarray(h_values, dtype=float)
    m_list = [None] if scheme in (Scheme.LINEAR_IMPLICIT_EM, Scheme.EXACT_QUADRATIC) else [
        int(m) for m in m_values
    ]
    ms = [m for m in m_list for _ in h_values]
    hs = [float(h) for _ in m_list for h in h_values]
    columns = (repeat(model), repeat(scheme), repeat(variant), ms, hs, repeat(state))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_row, *columns))
    else:
        rows = list(map(_sweep_row, *columns))

    fits: dict[tuple[str, int | None], FitResult | None] = {}
    for m in m_list:
        group = [r for r in rows if r["M"] == m]
        h = [r["h"] for r in group]
        fits[("delta", m)] = loglog_fit(h, [r["delta"] for r in group])
        fits[("alpha", m)] = loglog_fit(h, [r["alpha"] for r in group])
        fits[("volume", m)] = loglog_fit(h, [abs(r["det_flow"] - 1.0) for r in group])
    return DefectSweep(rows=rows, fits=fits)


SV_BLOCKS = ("P11", "P12", "P21", "P22")


def sv_block_orders(
    model,
    scheme: Scheme,
    m1: int,
    m2: int,
    h_values,
    state: PhaseState,
) -> tuple[list[dict], dict[str, FitResult | None]]:
    """Deviation norms of all four structure blocks of a composition map.

    Deviations are measured against the symplectic target: P11 and P22
    against zero, P12 against +I, P21 against -I.
    """
    scheme = Scheme(scheme)
    if scheme not in (Scheme.SV_PQ, Scheme.SV_QP):
        raise ValueError(f"composition scheme expected, got {scheme.value!r}")
    n = model.dim
    eye = np.eye(n)
    rows = []
    for h in np.asarray(h_values, dtype=float):
        s = analyze(model, SchemeConfig(scheme, float(h), M1=m1, M2=m2), state).structure
        rows.append(
            {
                "h": float(h),
                "P11": float(np.linalg.norm(s[:n, :n])),
                "P12": float(np.linalg.norm(s[:n, n:] - eye)),
                "P21": float(np.linalg.norm(s[n:, :n] + eye)),
                "P22": float(np.linalg.norm(s[n:, n:])),
            }
        )
    h = [r["h"] for r in rows]
    fits = {block: loglog_fit(h, [r[block] for r in rows]) for block in SV_BLOCKS}
    return rows, fits


@dataclass
class DriftSeries:
    """Sampled energy-error history of one scheme."""

    scheme: Scheme
    m: int | None
    step_indices: np.ndarray
    times: np.ndarray
    errors: np.ndarray
    classification: str
    blown_up: bool

    @property
    def label(self) -> str:
        return self.scheme.value if self.m is None else f"{self.scheme.value}[M={self.m}]"


def classify_drift(errors, burn_in: float = BURN_IN_FRACTION) -> str:
    """\"drifting\", \"bounded\" or \"indeterminate\" for an error series.

    After discarding the burn-in prefix: drifting if the final-decile mean
    is at least 10x the first-decile mean; otherwise bounded if the max
    over the last half is within 2x the max over the first half.
    """
    e = np.asarray(errors, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise ValueError("error series must be a non-empty vector")
    start = int(np.ceil(burn_in * e.size))
    e = e[start:]
    if e.size < 20:
        return "indeterminate"
    decile = max(1, e.size // 10)
    first_mean = float(np.mean(e[:decile]))
    last_mean = float(np.mean(e[-decile:]))
    if first_mean > 0.0 and last_mean >= DRIFT_RATIO * first_mean:
        return "drifting"
    half = e.size // 2
    first_max = float(np.max(e[:half]))
    last_max = float(np.max(e[half:]))
    if last_max <= BOUNDED_RATIO * first_max or last_max == 0.0:
        return "bounded"
    return "indeterminate"


def energy_drift_run(
    model,
    configs: list[SchemeConfig],
    state: PhaseState,
    steps: int,
    stride: int,
) -> list[DriftSeries]:
    """Long-run |H(z_k) - H(z_0)| for each scheme, sampled every stride.

    A sampled error above BLOW_UP_FACTOR * |H(z_0)| stops that run early
    and flags it.
    """
    if steps < 1 or stride < 1:
        raise ValueError("steps and stride must be positive")
    e0 = model.energy(state)
    threshold = BLOW_UP_FACTOR * max(abs(e0), np.finfo(float).tiny)
    out = []
    for config in configs:
        indices = []
        errors = []
        blown = False
        for k, current in orbit(model, config, state, steps, stride):
            err = abs(model.energy(current) - e0)
            indices.append(k)
            errors.append(err)
            if err > threshold:
                blown = True
                break
        idx = np.array(indices, dtype=int)
        errs = np.array(errors)
        out.append(
            DriftSeries(
                scheme=config.scheme,
                m=config.M,
                step_indices=idx,
                times=config.h * idx,
                errors=errs,
                classification=classify_drift(errs),
                blown_up=blown,
            )
        )
    return out
