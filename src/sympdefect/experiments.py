"""Measured experiments: defect order sweeps, composition block orders and
long-run energy drift, with log-log order fits.

Fits deliberately exclude measurements that have fallen to the round-off
floor; a norm below MEASUREMENT_FLOOR carries no order information and
would only flatten the fitted slope.

The energy error of a truncated M-sweep map is an O(h) oscillation plus a
secular trend fed by its O(h^(M+1)) per-step defect (Hairer, Lubich &
Wanner, Geometric Numerical Integration, 2006, ch. X).  The trend can sit
well inside the oscillation, so drift is detected on the signed error by
a windowed linear fit, not on |H - H0| alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .defect import DefectReport, defect_report, flow_jacobian_ad
from .integrators import Scheme, SchemeConfig, one_step, orbit
from .state import PhaseState

MEASUREMENT_FLOOR = 1e-13
BLOW_UP_FACTOR = 1e3
BURN_IN_FRACTION = 0.01
DRIFT_RATIO = 10.0
DRIFT_SIGMAS = 5.0
DRIFT_WINDOWS = 10
MIN_DRIFT_SAMPLES = 20
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

    `rows` entries carry the CSV columns of the defect-sweep and volume
    commands; `fits` maps (quantity, M) to a FitResult, with quantity one
    of "delta", "alpha", "volume".
    """

    rows: list[dict]
    fits: dict[tuple[str, int | None], FitResult | None]


def grid_report(model, configs: list[SchemeConfig], state: PhaseState, jobs: int = 1) -> DefectReport:
    """The AD flow Jacobians at a non-empty grid of configs of one scheme,
    decomposed in one `defect_report` call; `jobs` > 1 maps the Jacobians
    over a process pool."""
    if not configs:
        raise ValueError("the grid has no points")
    columns = (repeat(model), configs, repeat(state))
    if jobs > 1:
        # imported here, since loading the process pool costs every import about 1 MB
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            dflows = list(pool.map(flow_jacobian_ad, *columns))
    else:
        dflows = list(map(flow_jacobian_ad, *columns))
    return defect_report(np.array(dflows), configs[0].scheme.explicit_side)


def defect_sweep(
    model, scheme: Scheme, m_values, h_values, state: PhaseState, jobs: int = 1
) -> DefectSweep:
    """Defect quantities over an (M, h) grid, with per-M order fits."""
    scheme = Scheme(scheme)
    if scheme.composition:
        raise ValueError(
            f"{scheme.value} is a composition; measure its blocks with sv_block_orders"
        )
    h_values = np.asarray(h_values, dtype=float)
    m_list = [int(m) for m in m_values] if scheme.counts else [None]
    configs = [SchemeConfig(scheme, float(h), M=m) for m in m_list for h in h_values]
    report = grid_report(model, configs, state, jobs)
    columns = {
        "delta": report.delta, "alpha": report.alpha, "skew_residual": report.skew_residual,
        "det_flow": report.det_flow, "det_antidiag": report.det_antidiag,
        "discrepancy": report.volume_gap, "volume_defect": report.volume_defect,
    }
    rows = [
        {"scheme": scheme.value, "M": c.M, "M1": None, "M2": None, "h": c.h, **dict(zip(columns, v))}
        for c, v in zip(configs, zip(*(column.tolist() for column in columns.values())))
    ]
    # the report's rows run over h within each M
    fitted = {"delta": report.delta, "alpha": report.alpha, "volume": report.volume_defect}
    fits = {
        (quantity, m): loglog_fit(h_values, values.reshape(len(m_list), -1)[i])
        for i, m in enumerate(m_list)
        for quantity, values in fitted.items()
    }
    return DefectSweep(rows=rows, fits=fits)


SV_BLOCKS = ("P11", "P12", "P21", "P22")


def sv_block_orders(
    model, scheme: Scheme, m1: int, m2: int, h_values, state: PhaseState
) -> tuple[list[dict], dict[str, FitResult | None]]:
    """Deviation norms of all four structure blocks of a composition map,
    each against its symplectic target (`DefectReport.deviations`)."""
    scheme = Scheme(scheme)
    if not scheme.composition:
        raise ValueError(f"composition scheme expected, got {scheme.value!r}")
    configs = [
        SchemeConfig(scheme, float(h), M1=m1, M2=m2) for h in np.asarray(h_values, dtype=float)
    ]
    deviations = grid_report(model, configs, state).deviations
    values = zip(*(deviations[block].tolist() for block in SV_BLOCKS))
    rows = [{"h": c.h, **dict(zip(SV_BLOCKS, v))} for c, v in zip(configs, values)]
    fits = {block: loglog_fit([c.h for c in configs], deviations[block]) for block in SV_BLOCKS}
    return rows, fits


@dataclass
class DriftEstimate:
    """Secular trend of a signed energy-error series.

    `slope` (energy per unit t) is the least-squares line through the
    window means of the signed error against the window mean times, and
    `stderr` its standard error from the residuals of those means.
    `secular_change` is slope times the run time; `oscillation` is the
    largest deviation of a sample from its window mean.  `round_off` is the
    random-walk size sqrt(steps) * eps * |H0| that rounding alone reaches.
    """

    slope: float
    stderr: float
    secular_change: float
    oscillation: float
    round_off: float

    @property
    def sigmas(self) -> float:
        """|slope| in units of its standard error."""
        if self.stderr > 0.0:
            return abs(self.slope) / self.stderr
        return float("inf") if self.slope != 0.0 else 0.0

    @property
    def resolved(self) -> bool:
        """A trend beyond DRIFT_SIGMAS whose change exceeds the round-off walk."""
        return self.sigmas > DRIFT_SIGMAS and abs(self.secular_change) > self.round_off

    def describe(self) -> str:
        return (
            f"slope {self.slope:+.2e} +/- {self.stderr:.1e} per unit t ({self.sigmas:.1f} sigma), "
            f"secular change {self.secular_change:+.2e}, oscillation {self.oscillation:.2e}"
        )


def estimate_drift(times, signed_errors, steps: int, energy: float) -> DriftEstimate | None:
    """Fit the secular trend of H(z_k) - H(z_0) sampled at `times`.

    After the burn-in prefix the samples are split into DRIFT_WINDOWS
    near-equal windows; the slope of the window means against time has
    DRIFT_WINDOWS - 2 degrees of freedom.  `steps` and `energy` (H0) set
    the round-off walk.  None if fewer than MIN_DRIFT_SAMPLES samples
    remain or any is non-finite.
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(signed_errors, dtype=float)
    if t.shape != d.shape or d.ndim != 1:
        raise ValueError("times and signed errors must be equal-length vectors")
    start = int(np.ceil(BURN_IN_FRACTION * d.size))
    if d.size - start < MIN_DRIFT_SAMPLES or not np.all(np.isfinite(d)):
        return None
    # window sizes differ by at most one, the longer windows first
    size, longer = divmod(d.size - start, DRIFT_WINDOWS)
    counts = np.full(DRIFT_WINDOWS, size)
    counts[:longer] += 1
    edges = start + np.cumsum(counts) - counts
    d_mean = np.add.reduceat(d, edges) / counts
    tc = np.add.reduceat(t, edges) / counts
    tc -= tc.mean()
    dc = d_mean - d_mean.mean()
    spread = np.sum(tc**2)
    slope = np.sum(tc * dc) / spread
    resid = dc - slope * tc
    stderr = np.sqrt(np.sum(resid**2) / (DRIFT_WINDOWS - 2) / spread)
    return DriftEstimate(
        slope=float(slope),
        stderr=float(stderr),
        secular_change=float(slope * (t[-1] - t[0])),
        oscillation=float(np.max(np.abs(d[start:] - np.repeat(d_mean, counts)))),
        round_off=float(np.sqrt(steps) * np.finfo(float).eps * abs(energy)),
    )


@dataclass
class DriftSeries:
    """Sampled energy-error history of one scheme.

    `errors` is |H(z_k) - H(z_0)| and `signed_errors` the same without the
    absolute value; `states` holds the sampled z_k.
    """

    scheme: Scheme
    m: int | None
    step_indices: np.ndarray
    times: np.ndarray
    errors: np.ndarray
    signed_errors: np.ndarray
    states: list[PhaseState]
    estimate: DriftEstimate | None
    classification: str
    blown_up: bool

    @property
    def label(self) -> str:
        return self.scheme.value if self.m is None else f"{self.scheme.value}[M={self.m}]"


def classify_drift(errors) -> str:
    """\"drifting\", \"bounded\" or \"indeterminate\" for an error series.

    After discarding the burn-in prefix: drifting if the final-decile mean
    is at least 10x the first-decile mean; otherwise bounded if the max
    over the last half is within 2x the max over the first half.

    These ratio rules see only |H - H0|.  They catch growth that dominates
    the oscillation, but the bounded rule passes every linear ramp, so a
    trend hidden under the oscillation needs `estimate_drift` on the
    signed error; `energy_drift_run` applies that first.
    """
    e = np.asarray(errors, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise ValueError("error series must be a non-empty vector")
    e = e[int(np.ceil(BURN_IN_FRACTION * e.size)):]
    if e.size < MIN_DRIFT_SAMPLES:
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
    """Long-run H(z_k) - H(z_0) for each scheme, sampled every stride.

    Each series is "drifting" when `estimate_drift` resolves a secular
    trend in the signed error; otherwise `classify_drift` labels |H - H0|.
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
        signed = []
        states = []
        blown = False
        # overflow on a diverging orbit ends in IntegrationError, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for k, current in orbit(model, config, state, steps, stride):
                diff = model.energy(current) - e0
                indices.append(k)
                signed.append(diff)
                states.append(current)
                if abs(diff) > threshold:
                    blown = True
                    break
        idx = np.array(indices, dtype=int)
        times = config.h * idx
        signed_errs = np.array(signed)
        errs = np.abs(signed_errs)
        estimate = estimate_drift(times, signed_errs, int(idx[-1]), e0)
        drifting = estimate is not None and estimate.resolved
        out.append(
            DriftSeries(
                scheme=config.scheme,
                m=config.M if "M" in config.scheme.counts else None,
                step_indices=idx,
                times=times,
                errors=errs,
                signed_errors=signed_errs,
                states=states,
                estimate=estimate,
                classification="drifting" if drifting else classify_drift(errs),
                blown_up=blown,
            )
        )
    return out


def step_energy_defect(model, config: SchemeConfig, reference: SchemeConfig, states) -> np.ndarray:
    """H(step(z)) - H(step_ref(z)) for each z in `states`: the energy one
    step of `config` adds over one step of `reference`, e.g. the same
    scheme with its implicit relation solved to convergence."""
    return np.array([
        model.energy(one_step(model, config, z)) - model.energy(one_step(model, reference, z))
        for z in states
    ])
