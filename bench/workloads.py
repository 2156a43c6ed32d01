"""The benchmark's workloads: seeded inputs, the operations each round runs,
and the correctness gate of every operation.

All workloads are closed-loop batch jobs with one caller.  A workload's
inputs come only from its seed (see ``make_inputs``); the library sees
nothing else.  Library functions are always called through their module
(``defect.analyze``, not a copied name) so that the tracer's wrappers
are the functions that run.

Gates use the acceptance-test bounds unchanged:
criterion 1 (implicit-side block <= 1e-12), 2 (relative skew <= 1e-12),
3 (fitted orders within (M+1) +/- 0.4 at floor 1e-15), 4 (componentwise
relative error <= 1e-9, absolute error on zeros <= 1e-13) and 5 (AD vs
recursion <= 1e-10, AD vs central differences <= 1e-5).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import statistics
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from sympdefect import cli, defect, experiments, hamiltonians, integrators, quadratic_oracle
from sympdefect.integrators import IntegrationError, Scheme, SchemeConfig
from sympdefect.state import PhaseState

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_tmp"

ZERO_BLOCK_BOUND = 1e-12  # criterion 1
SKEW_BOUND = 1e-12  # criterion 2
ORDER_TOLERANCE = 0.4  # criterion 3
ORDER_FLOOR = 1e-15  # criterion 3's fit floor
ORACLE_REL_BOUND = 1e-9  # criterion 4
ORACLE_ZERO_BOUND = 1e-13  # criterion 4
AD_ANALYTIC_BOUND = 1e-10  # criterion 5
AD_FD_BOUND = 1e-5  # criterion 5

# Pinned drift setup of criterion 10 and its expected labels, which the
# benchmark reports but does not gate on.
DRIFT_H = 0.25
PINNED_LABELS = {
    "linear-implicit-em": "bounded",
    "q-implicit[M=2]": "drifting",
    "q-implicit[M=3]": None,
}


@dataclass
class Op:
    """One library call and the gate its result must pass.

    `check(result, error)` returns None when the operation is correct and
    a one-line reason otherwise; `error` is the exception `run` raised.
    Ops with `counted` False are timed but left out of throughput.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], str | None]
    counted: bool = True


@dataclass
class Round:
    """The ops one pass of a workload runs and the work units they complete."""

    ops: list[Op]
    units: float


def canonical_bytes(inputs: dict) -> bytes:
    """Byte encoding of generated inputs: same seed, same bytes."""
    out = bytearray()
    for key in sorted(inputs):
        value = np.ascontiguousarray(inputs[key])
        out += f"{key}:{value.dtype.str}:{value.shape};".encode()
        out += value.tobytes()
    return bytes(out)


def inputs_digest(inputs: dict) -> str:
    return hashlib.sha256(canonical_bytes(inputs)).hexdigest()


def _unexpected(error: BaseException | None) -> str | None:
    return None if error is None else f"raised {type(error).__name__}: {error}"


def _rel(a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(scale))


class Workload:
    """Base class: seeded inputs plus the rounds a run cycles through."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = self.make_inputs(np.random.default_rng(seed))
        self.info: dict = {}

    @staticmethod
    def make_inputs(rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Build models and warm up every code path the rounds use."""

    def prepare_checks(self) -> None:
        """Compute reference results the gates compare against (untimed)."""

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def untraced_extras(self) -> dict:
        """Per-layer figures measured without tracing (traced runs only)."""
        return {}

    def layer_extras(self, rounds: list[int]) -> dict:
        """Per-layer figures the given (traced) rounds produced outside spans."""
        return {}

    def close(self) -> None:
        """Remove anything the workload wrote."""


def _perturbed(ref: PhaseState, dq: np.ndarray, dp_rel: np.ndarray) -> PhaseState:
    return PhaseState(ref.q + dq, ref.p * (1.0 + dp_rel))


# -- drift -----------------------------------------------------------------


class Drift(Workload):
    """energy_drift_run of the three pinned schemes from a seeded state near
    the reference, plus q-implicit M=1 from the reference state itself,
    which must end in IntegrationError near step 2.2e3."""

    name = "drift"
    STEPS = 2000
    STRIDE = 20
    DIVERGENCE_STEPS = 20_000

    @staticmethod
    def make_inputs(rng):
        return {"dq": 1e-3 * rng.standard_normal(3), "dp_rel": 0.02 * rng.standard_normal(3)}

    def setup(self):
        self.model = hamiltonians.tokamak_model()
        self.reference = hamiltonians.reference_initial_state(self.model)
        self.state = _perturbed(self.reference, self.inputs["dq"], self.inputs["dp_rel"])
        self.configs = [
            SchemeConfig(Scheme.LINEAR_IMPLICIT_EM, DRIFT_H),
            SchemeConfig(Scheme.Q_IMPLICIT, DRIFT_H, M=2),
            SchemeConfig(Scheme.Q_IMPLICIT, DRIFT_H, M=3),
        ]
        self.diverging = SchemeConfig(Scheme.Q_IMPLICIT, DRIFT_H, M=1)
        experiments.energy_drift_run(self.model, self.configs, self.state, 20, 10)
        self.labels: dict[str, Counter] = defaultdict(Counter)
        self.divergence_steps: Counter = Counter()
        self.info = {"criterion_10_labels": self.labels, "pinned_labels": PINNED_LABELS,
                     "divergence_step": self.divergence_steps}

    def _pinned_op(self, config: SchemeConfig) -> Op:
        def run():
            return experiments.energy_drift_run(
                self.model, [config], self.state, self.STEPS, self.STRIDE
            )[0]

        def check(series, error):
            if error is not None:
                return _unexpected(error)
            if series.blown_up:
                return f"{series.label}: blow-up flag set"
            if not np.all(np.isfinite(series.errors)):
                return f"{series.label}: non-finite energy error"
            self.labels[series.label][series.classification] += 1
            return None

        return Op(f"energy_drift_run {config.scheme.value} M={config.M}", run, check)

    def _divergence_op(self) -> Op:
        # stride = steps: no energy sample can stop the run early, so the
        # orbit runs until a step fails
        def run():
            return experiments.energy_drift_run(
                self.model, [self.diverging], self.reference,
                self.DIVERGENCE_STEPS, self.DIVERGENCE_STEPS,
            )

        def check(result, error):
            if not isinstance(error, IntegrationError):
                return f"expected IntegrationError, got {_unexpected(error) or 'no error'}"
            if not isinstance(error.step_index, int) or error.step_index < 1:
                return f"IntegrationError without a step index: {error.step_index!r}"
            self.divergence_steps[error.step_index] += 1
            return None

        return Op("expected divergence q-implicit M=1", run, check, counted=False)

    def round(self, index):
        ops = [self._pinned_op(c) for c in self.configs] + [self._divergence_op()]
        return Round(ops, units=len(self.configs) * self.STEPS)

    def layer_extras(self, rounds):
        if not self.divergence_steps:
            return {}
        return {"integrators.divergence_step": self.divergence_steps.most_common(1)[0][0]}


# -- sweep -----------------------------------------------------------------


class Sweep(Workload):
    """Defect measurement over a cloud of tokamak states.

    State 0 is the reference state, the others are seeded perturbations of
    it.  Per state: analyze over p-/q-implicit M=1..3 on the default h grid
    with order fits, linear-implicit-em over the grid (AD through the dual
    lu_solve), sv_block_orders of both compositions, and one analytic/FD
    Jacobian cross-check, rotating over the six one-sided settings.
    """

    name = "sweep"
    STATES = 6
    MS = (1, 2, 3)
    CROSS_CHECKS = [(s, m) for s in (Scheme.P_IMPLICIT, Scheme.Q_IMPLICIT) for m in (1, 2, 3)]
    CROSS_CHECK_H = 0.1

    @staticmethod
    def make_inputs(rng):
        k = Sweep.STATES - 1
        return {"dq": 1e-3 * rng.standard_normal((k, 3)), "dp_rel": 0.05 * rng.standard_normal((k, 3))}

    def setup(self):
        self.model = hamiltonians.tokamak_model()
        ref = hamiltonians.reference_initial_state(self.model)
        self.states = [ref] + [
            _perturbed(ref, dq, dp) for dq, dp in zip(self.inputs["dq"], self.inputs["dp_rel"])
        ]
        self.grid = experiments.default_h_grid()
        self.points = len(self.grid) * (2 * len(self.MS) + 1 + 2)
        for scheme in (Scheme.P_IMPLICIT, Scheme.Q_IMPLICIT, Scheme.LINEAR_IMPLICIT_EM):
            defect.analyze(self.model, SchemeConfig(scheme, 0.1, M=1), ref)
        experiments.sv_block_orders(self.model, Scheme.SV_PQ, 1, 3, self.grid[:3], ref)
        self.order_misses: Counter = Counter()
        self.worst_order_deviation: dict[str, float] = {}
        self.info = {
            "q_implicit_order_outside_0.4_off_reference": self.order_misses,
            "worst_order_deviation": self.worst_order_deviation,
        }

    def _one_sided_op(self, scheme: Scheme, i: int) -> Op:
        state = self.states[i]
        # criterion 3 pins the q-implicit orders at the reference state only;
        # elsewhere they are reported, p-implicit orders are gated everywhere
        gate_orders = scheme is Scheme.P_IMPLICIT or i == 0

        def run():
            reports = {}
            fits = {}
            for m in self.MS:
                rows = [
                    defect.analyze(self.model, SchemeConfig(scheme, float(h), M=m), state)
                    for h in self.grid
                ]
                reports[m] = rows
                for quantity in ("delta", "alpha"):
                    values = [getattr(r, quantity) for r in rows]
                    fits[quantity, m] = experiments.loglog_fit(self.grid, values, floor=ORDER_FLOOR)
            return reports, fits

        def check(result, error):
            if error is not None:
                return _unexpected(error)
            reports, fits = result
            for m, rows in reports.items():
                for r in rows:
                    zero = r.diag_p if scheme is Scheme.P_IMPLICIT else r.diag_q
                    if not np.linalg.norm(zero) <= ZERO_BLOCK_BOUND:
                        return f"{scheme.value} M={m}: implicit-side block {np.linalg.norm(zero):.3e}"
                    skew = r.skew_residual / np.linalg.norm(r.structure)
                    if not skew <= SKEW_BOUND:
                        return f"{scheme.value} M={m}: relative skew {skew:.3e}"
            worst = 0.0
            for (quantity, m), fit in fits.items():
                if fit is None:
                    return f"{scheme.value} {quantity} M={m}: fewer than 3 points above the floor"
                deviation = abs(fit.slope - (m + 1))
                worst = max(worst, deviation)
                if deviation > ORDER_TOLERANCE:
                    if gate_orders:
                        return f"{scheme.value} {quantity} M={m}: slope {fit.slope:.4f}"
                    self.order_misses[f"{quantity} M={m}"] += 1
            key = scheme.value + (" reference" if i == 0 else " cloud")
            self.worst_order_deviation[key] = max(self.worst_order_deviation.get(key, 0.0), worst)
            return None

        return Op(f"analyze {scheme.value}", run, check)

    def _em_op(self, i: int) -> Op:
        state = self.states[i]

        def run():
            return [
                defect.analyze(self.model, SchemeConfig(Scheme.LINEAR_IMPLICIT_EM, float(h)), state)
                for h in self.grid
            ]

        def check(reports, error):
            if error is not None:
                return _unexpected(error)
            for r in reports:
                skew = r.skew_residual / np.linalg.norm(r.structure)
                if not skew <= SKEW_BOUND:
                    return f"linear-implicit-em: relative skew {skew:.3e}"
            return None

        return Op("analyze linear-implicit-em", run, check)

    def _sv_op(self, scheme: Scheme, i: int) -> Op:
        state = self.states[i]

        def run():
            return experiments.sv_block_orders(self.model, scheme, 1, 3, self.grid, state)

        def check(result, error):
            if error is not None:
                return _unexpected(error)
            rows, _ = result
            if not all(np.isfinite(r[b]) for r in rows for b in experiments.SV_BLOCKS):
                return f"{scheme.value}: non-finite block deviation"
            return None

        return Op(f"sv_block_orders {scheme.value}", run, check)

    def _cross_check_op(self, i: int) -> Op:
        state = self.states[i]
        scheme, m = self.CROSS_CHECKS[i % len(self.CROSS_CHECKS)]
        config = SchemeConfig(scheme, self.CROSS_CHECK_H, M=m)

        def run():
            return (
                defect.flow_jacobian_ad(self.model, config, state),
                defect.flow_jacobian_analytic(self.model, config, state),
                defect.flow_jacobian_fd(self.model, config, state),
            )

        def check(result, error):
            if error is not None:
                return _unexpected(error)
            ad, exact, fd = result
            analytic_err, fd_err = _rel(ad, exact, ad), _rel(ad, fd, ad)
            if not (analytic_err <= AD_ANALYTIC_BOUND and fd_err <= AD_FD_BOUND):
                return f"{scheme.value} M={m}: AD vs recursion {analytic_err:.3e}, vs FD {fd_err:.3e}"
            return None

        return Op("jacobian cross-check", run, check)

    def round(self, index):
        ops = []
        for i in range(len(self.states)):
            ops += [
                self._one_sided_op(Scheme.P_IMPLICIT, i),
                self._one_sided_op(Scheme.Q_IMPLICIT, i),
                self._em_op(i),
                self._sv_op(Scheme.SV_PQ, i),
                self._sv_op(Scheme.SV_QP, i),
                self._cross_check_op(i),
            ]
        return Round(ops, units=len(self.states) * self.points)

    def untraced_extras(self):
        """Serial against pooled defect_sweep on the same grid, best of three."""
        jobs = min(2, os.cpu_count() or 1)
        times = {}
        for n_jobs in (1, jobs):
            best = float("inf")
            for _ in range(3):
                start = perf_counter()
                experiments.defect_sweep(
                    self.model, Scheme.Q_IMPLICIT, self.MS, self.grid, self.states[0], jobs=n_jobs
                )
                best = min(best, perf_counter() - start)
            times[n_jobs] = best
        self.info["defect_sweep_seconds_by_jobs"] = times
        return {"experiments.defect_sweep.pool_speedup": times[1] / times[jobs]}


# -- oracle ----------------------------------------------------------------


class Oracle(Workload):
    """Quadratic model, p-implicit: AD defect blocks against the exact
    integer closed form at N in {8, 16, 32}, M in 1..4, h in {0.1, 0.01}."""

    name = "oracle"
    NS = (8, 16, 32)
    MS = (1, 2, 3, 4)
    HS = (0.1, 0.01)

    @staticmethod
    def make_inputs(rng):
        inputs = {}
        for n in Oracle.NS:
            inputs[f"q{n}"] = rng.standard_normal(n)
            inputs[f"p{n}"] = rng.standard_normal(n)
        return inputs

    def setup(self):
        self.models = {n: hamiltonians.quadratic_model(n) for n in self.NS}
        self.states = {n: PhaseState(self.inputs[f"q{n}"], self.inputs[f"p{n}"]) for n in self.NS}
        for n in self.NS:
            defect.analyze(self.models[n], SchemeConfig(Scheme.P_IMPLICIT, 0.1, M=1), self.states[n])
            quadratic_oracle.predicted_defect_blocks(n, 1, 0.1)

    def _op(self, n: int, m: int, h: float) -> Op:
        def run():
            report = defect.analyze(self.models[n], SchemeConfig(Scheme.P_IMPLICIT, h, M=m), self.states[n])
            return report, quadratic_oracle.predicted_defect_blocks(n, m, h)

        def check(result, error):
            if error is not None:
                return _unexpected(error)
            report, (diag_pred, anti_pred) = result
            for measured, predicted in ((report.diag_q, diag_pred), (report.antidiag, anti_pred)):
                err = np.abs(measured - predicted)
                nonzero = predicted != 0.0
                if np.any(nonzero):
                    rel = float(np.max(err[nonzero] / np.abs(predicted[nonzero])))
                    if not rel <= ORACLE_REL_BOUND:
                        return f"N={n} M={m} h={h}: componentwise relative error {rel:.3e}"
                if np.any(~nonzero):
                    worst = float(np.max(err[~nonzero]))
                    if not worst <= ORACLE_ZERO_BOUND:
                        return f"N={n} M={m} h={h}: absolute error on zeros {worst:.3e}"
            return None

        return Op(f"oracle N={n}", run, check)

    def round(self, index):
        ops = [self._op(n, m, h) for n in self.NS for m in self.MS for h in self.HS]
        return Round(ops, units=len(ops))


# -- cli -------------------------------------------------------------------

# CSV columns by command, as the README table gives them.
README_COLUMNS = {
    "trajectory": ["step", "t", "q1", "q2", "q3", "p1", "p2", "p3", "H"],
    "defect-sweep": ["scheme", "M", "M1", "M2", "h", "delta", "alpha", "skew_residual",
                     "det_flow", "det_antidiag"],
    "energy-drift": ["scheme", "M", "step", "t", "abs_energy_error"],
    "optimality": ["N", "M", "h", "diag_rel_err", "antidiag_rel_err"],
    "sv-orders": ["scheme", "M1", "M2", "h", "P11", "P12", "P21", "P22"],
    "volume": ["scheme", "M", "h", "det_flow", "det_antidiag", "discrepancy", "volume_defect"],
}


def _cells_match(cells: list[str], expected: list) -> bool:
    """Compare CSV cells with library values: floats must round-trip exactly."""
    if len(cells) != len(expected):
        return False
    for cell, value in zip(cells, expected):
        if value is None:
            ok = cell == ""
        elif isinstance(value, str):
            ok = cell == value
        elif isinstance(value, (int, np.integer)):
            ok = cell == str(int(value))
        else:
            ok = float(cell) == float(value)
        if not ok:
            return False
    return True


class Cli(Workload):
    """A fixed in-process script of cli.main calls, with settings split
    between --config files and flags and every CSV written to a file."""

    name = "cli"
    TRAJECTORY_STEPS = 1500
    DRIFT_STEPS = 750
    DRIFT_STRIDE = 15
    JTILDE_M = 3

    @staticmethod
    def make_inputs(rng):
        return {
            "trajectory_h": rng.uniform(0.05, 0.15),
            "h_min": rng.uniform(0.015, 0.03),
            "h_max": rng.uniform(0.15, 0.25),
            "jtilde_h": rng.uniform(0.05, 0.15),
            "drift_h": rng.uniform(0.15, 0.25),
        }

    def setup(self):
        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=SCRATCH))
        x = {k: float(v) for k, v in self.inputs.items()}
        configs = {
            "trajectory": f"hamiltonian = tokamak\nh = {x['trajectory_h']!r}\n"
                          f"steps = {self.TRAJECTORY_STEPS}\nstride = 1\n",
            "grid": f"h_min = {x['h_min']!r}\nh-max = {x['h_max']!r}\nh_count = 10\n",
            "jtilde": f"# structure matrix at one setting\nh = {x['jtilde_h']!r}\nm = {self.JTILDE_M}\n",
            "drift": f"h = {x['drift_h']!r}\nsteps = {self.DRIFT_STEPS}\nstride = {self.DRIFT_STRIDE}\n",
        }
        cfg = {key: str(self.tmp / f"{key}.cfg") for key in configs}
        for key, text in configs.items():
            Path(cfg[key]).write_text(text, encoding="utf-8")
        self.out = {c: self.tmp / f"{c}.csv" for c in README_COLUMNS}
        self.out["jtilde"] = self.tmp / "jtilde.txt"
        self.script = [
            ("trajectory", ["--config", cfg["trajectory"], "--scheme", "q-implicit"]),
            ("defect-sweep", ["--config", cfg["grid"], "--scheme", "q-implicit"]),
            ("volume", ["--config", cfg["grid"]]),
            ("sv-orders", ["--config", cfg["grid"], "--M1", "1", "--M2", "3"]),
            ("optimality", []),
            ("jtilde", ["--config", cfg["jtilde"]]),
            ("energy-drift", ["--config", cfg["drift"]]),
        ]
        self._main(["jtilde", "--out", str(self.out["jtilde"])])
        self.csv_bytes: Counter = Counter()  # round index -> bytes of CSV written

    def _main(self, argv: list[str]) -> int:
        # summaries go to stdout when --out is set; keep them off ours
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def prepare_checks(self):
        x = {k: float(v) for k, v in self.inputs.items()}
        model = hamiltonians.tokamak_model()
        ref = hamiltonians.reference_initial_state(model)
        expected = {}

        traj = integrators.integrate(
            model, SchemeConfig(Scheme.Q_IMPLICIT, x["trajectory_h"], M=3), ref, self.TRAJECTORY_STEPS, 1
        )
        expected["trajectory"] = [
            [int(k), traj.times[i], *traj.states[i], traj.energies[i]]
            for i, k in enumerate(traj.step_indices)
        ]

        grid = experiments.default_h_grid(x["h_min"], x["h_max"], 10)
        sweep = experiments.defect_sweep(model, Scheme.Q_IMPLICIT, [1, 2, 3], grid, ref)
        expected["defect-sweep"] = [[r[c] for c in README_COLUMNS["defect-sweep"]] for r in sweep.rows]
        expected["volume"] = [
            [r["scheme"], r["M"], r["h"], r["det_flow"], r["det_antidiag"],
             abs(abs(r["det_flow"]) - abs(r["det_antidiag"])), abs(r["det_flow"] - 1.0)]
            for r in sweep.rows
        ]

        expected["sv-orders"] = []
        for scheme in (Scheme.SV_PQ, Scheme.SV_QP):
            rows, _ = experiments.sv_block_orders(model, scheme, 1, 3, grid, ref)
            expected["sv-orders"] += [
                [scheme.value, 1, 3, r["h"], r["P11"], r["P12"], r["P21"], r["P22"]] for r in rows
            ]

        expected["optimality"] = []
        for n in (2, 3, 5):
            quad = hamiltonians.quadratic_model(n)
            zero = PhaseState(np.zeros(n), np.zeros(n))
            for m in (1, 2, 3):
                for h in (0.1, 0.01):
                    report = defect.analyze(quad, SchemeConfig(Scheme.P_IMPLICIT, h, M=m), zero)
                    diag_pred, anti_pred = quadratic_oracle.predicted_defect_blocks(n, m, h)
                    diag_scale = np.linalg.norm(diag_pred) or np.linalg.norm(report.structure)
                    expected["optimality"].append([
                        n, m, h,
                        float(np.linalg.norm(report.diag_q - diag_pred) / diag_scale),
                        float(np.linalg.norm(report.antidiag - anti_pred) / np.linalg.norm(anti_pred)),
                    ])

        report = defect.analyze(model, SchemeConfig(Scheme.Q_IMPLICIT, x["jtilde_h"], M=self.JTILDE_M), ref)
        self.jtilde_expected = (report.structure, report.delta, report.alpha)

        configs = [
            SchemeConfig(Scheme.LINEAR_IMPLICIT_EM, x["drift_h"]),
            SchemeConfig(Scheme.Q_IMPLICIT, x["drift_h"], M=2),
            SchemeConfig(Scheme.Q_IMPLICIT, x["drift_h"], M=3),
        ]
        series = experiments.energy_drift_run(model, configs, ref, self.DRIFT_STEPS, self.DRIFT_STRIDE)
        expected["energy-drift"] = [
            [s.scheme.value, s.m, int(k), s.times[i], s.errors[i]]
            for s in series for i, k in enumerate(s.step_indices)
        ]
        self.expected = expected

    def _check_csv(self, command: str) -> str | None:
        lines = self.out[command].read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",") if lines else []
        if header != README_COLUMNS[command]:
            return f"{command}: columns {header} differ from the README table"
        expected = self.expected[command]
        if len(lines) - 1 != len(expected):
            return f"{command}: {len(lines) - 1} rows, library gives {len(expected)}"
        for i, (line, want) in enumerate(zip(lines[1:], expected)):
            if not _cells_match(line.split(","), want):
                return f"{command}: row {i} differs from the library call"
        return None

    def _check_jtilde(self) -> str | None:
        structure, delta, alpha = self.jtilde_expected
        lines = self.out["jtilde"].read_text(encoding="utf-8").splitlines()
        size = structure.shape[0]
        matrix = np.array([[float(v) for v in line.split()] for line in lines[:size]])
        summary = dict(line.split("=", 1) for line in lines[size:])
        if not (np.array_equal(matrix, structure) and float(summary["delta"]) == delta
                and float(summary["alpha"]) == alpha):
            return "jtilde: output differs from the library call"
        return None

    def _op(self, command: str, flags: list[str], index: int) -> Op:
        argv = [command, *flags, "--out", str(self.out[command])]

        def run():
            return self._main(argv)

        def check(code, error):
            if error is not None:
                return _unexpected(error)
            if code != 0:
                return f"{command}: exit code {code}"
            if command == "jtilde":
                return self._check_jtilde()
            self.csv_bytes[index] += self.out[command].stat().st_size
            return self._check_csv(command)

        return Op(f"cli {command}", run, check)

    def round(self, index):
        return Round([self._op(command, flags, index) for command, flags in self.script], units=1)

    def layer_extras(self, rounds):
        return {"cli.csv_bytes": statistics.median(self.csv_bytes[i] for i in rounds)}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Drift, Sweep, Oracle, Cli)}
