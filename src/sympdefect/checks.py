"""Acceptance criteria 1-9 and 11, each as a function of no arguments.

`criterion_NN()` runs its pinned setup and returns `(ok, detail)`: whether
every measured figure is within its bound, and one line giving the figures
with those bounds.  `gate_line` formats the pair as the line that both the
acceptance tests (tests/test_acceptance.py) and `sympdefect selftest`
print, so the two check the same contract.  Criterion 10, a 3e5-step drift
run of about 40 s, is not here: it lives in tests/test_acceptance.py, and
`sympdefect energy-drift` prints its drift labels.

Nothing is cached between calls but the exact coupling powers, which
`quadratic_oracle` checks as it computes them; every call measures the
build it runs in.
"""

from __future__ import annotations

import numpy as np

from .defect import (
    analyze,
    coordinate_swap_check,
    flow_jacobian_ad,
    flow_jacobian_analytic,
    flow_jacobian_fd,
)
from .experiments import default_h_grid, grid_report, loglog_fit, sv_block_orders
from .hamiltonians import (
    harmonic_oscillator,
    quadratic_model,
    reference_initial_state,
    tokamak_model,
)
from .integrators import (
    Scheme,
    SchemeConfig,
    step_sv_pq,
    step_sv_pq_direct,
    step_sv_qp,
    step_sv_qp_direct,
)
from .linalg import frobenius_norm
from .quadratic_oracle import coupling_power, predicted_defect_blocks
from .state import PhaseState

GRID_H = np.geomspace(0.02, 0.2, 3)
# the symplectic Euler schemes with M fixed-point sweeps
SE_SCHEMES = tuple(s for s in Scheme if s.counts == ("M",))
SWEEP_FLOOR = 1e-15


def gate_line(num: int, ok: bool, detail: str) -> str:
    return f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"


def _model_states():
    tokamak = tokamak_model()
    return [
        ("harmonic", harmonic_oscillator(), PhaseState(np.array([0.7]), np.array([-0.3]))),
        ("quadratic", quadratic_model(3), PhaseState(0.3 * np.ones(3), -0.2 * np.ones(3))),
        ("tokamak", tokamak, reference_initial_state(tokamak)),
    ]


def _se_report(model, scheme: Scheme, state: PhaseState, h_values=GRID_H):
    """One stacked report of an SE scheme over M = 1, 2, 3 (outer) x h_values."""
    return grid_report(model, [SchemeConfig(scheme, h, M=m) for m in (1, 2, 3) for h in h_values], state)


def _structure_reports():
    """The reports of criteria 1, 2 and 6, one per model and SE scheme."""
    return [_se_report(model, scheme, state) for _, model, state in _model_states() for scheme in SE_SCHEMES]


def closed_form_cases(n_values=(2, 3, 5), m_values=(1, 2, 3), h_values=(0.1, 0.01)):
    """Yield (N, M, h, report, diag_pred, anti_pred) for the p-implicit step
    on the quadratic model at the origin, with the closed-form blocks."""
    for n in n_values:
        model = quadratic_model(n)
        state = PhaseState(np.zeros(n), np.zeros(n))
        for m in m_values:
            for h in h_values:
                report = analyze(model, SchemeConfig(Scheme.P_IMPLICIT, h, M=m), state)
                diag_pred, anti_pred = predicted_defect_blocks(n, m, h)
                yield n, m, h, report, diag_pred, anti_pred


def criterion_01():
    """The implicit side's diagonal block of J-tilde vanishes."""
    worst = max(
        max(r.deviations["P22" if r.delta_block == "q" else "P11"]) for r in _structure_reports()
    )
    return (worst <= 1e-12,
            f"implicit-side diagonal block norm <= 1e-12, worst {worst:.3e}")


def criterion_02():
    """J-tilde is skew-symmetric."""
    worst = max(max(r.skew_residual / frobenius_norm(r.structure)) for r in _structure_reports())
    return (worst <= 1e-12,
            f"relative skew residual <= 1e-12, worst {worst:.3e}")


def criterion_03():
    """delta and alpha are O(h^(M+1)) on the tokamak."""
    tokamak = tokamak_model()
    h = default_h_grid()
    report = _se_report(tokamak, Scheme.Q_IMPLICIT, reference_initial_state(tokamak), h)
    lines = []
    ok = True
    for m, delta, alpha in zip((1, 2, 3), report.delta.reshape(3, -1), report.alpha.reshape(3, -1)):
        p_delta = loglog_fit(h, delta, floor=SWEEP_FLOOR).slope
        p_alpha = loglog_fit(h, alpha, floor=SWEEP_FLOOR).slope
        ok = ok and abs(p_delta - (m + 1)) <= 0.4 and abs(p_alpha - (m + 1)) <= 0.4
        lines.append(f"M={m}: p_delta={p_delta:.5f} p_alpha={p_alpha:.5f}")
    return ok, "fitted orders within (M+1) +/- 0.4; " + "; ".join(lines)


def criterion_04():
    """The closed-form blocks match the quadratic model componentwise."""
    worst_rel = 0.0
    worst_abs = 0.0
    for _, _, _, report, diag_pred, anti_pred in closed_form_cases():
        for measured, predicted in (
            (report.diag_q, diag_pred),
            (report.antidiag, anti_pred),
        ):
            err = np.abs(measured - predicted)
            nonzero = predicted != 0.0
            if np.any(nonzero):
                worst_rel = max(
                    worst_rel,
                    float(np.max(err[nonzero] / np.abs(predicted[nonzero]))),
                )
            if np.any(~nonzero):
                worst_abs = max(worst_abs, float(np.max(err[~nonzero])))
    return (worst_rel <= 1e-9 and worst_abs <= 1e-13,
            f"componentwise rel {worst_rel:.3e} <= 1e-9, abs on zeros {worst_abs:.3e} <= 1e-13")


def criterion_05():
    """AD, the sweep recursion and finite differences give one Jacobian."""
    worst_analytic = 0.0
    worst_fd = 0.0
    for name, model, state in _model_states():
        if name == "harmonic":
            continue
        for scheme in SE_SCHEMES:
            for m in (1, 2, 3):
                config = SchemeConfig(scheme, 0.1, M=m)
                ad = flow_jacobian_ad(model, config, state)
                scale = np.linalg.norm(ad)
                exact = flow_jacobian_analytic(model, config, state)
                fd = flow_jacobian_fd(model, config, state)
                worst_analytic = max(worst_analytic, np.linalg.norm(ad - exact) / scale)
                worst_fd = max(worst_fd, np.linalg.norm(ad - fd) / scale)
    return (worst_analytic <= 1e-10 and worst_fd <= 1e-5,
            f"AD vs recursion {worst_analytic:.3e} <= 1e-10, AD vs FD {worst_fd:.3e} <= 1e-5")


def criterion_06():
    """Volume loss is carried by the antidiagonal block."""
    worst = max(max(r.volume_gap / abs(r.det_antidiag)) for r in _structure_reports())
    state = PhaseState(0.3 * np.ones(3), -0.2 * np.ones(3))
    h = default_h_grid()
    report = _se_report(quadratic_model(3), Scheme.P_IMPLICIT, state, h)
    slopes = []
    slopes_ok = True
    for m, v in zip((1, 2, 3), report.volume_defect.reshape(3, -1)):
        slope = loglog_fit(h, v, floor=SWEEP_FLOOR).slope
        slopes_ok = slopes_ok and abs(slope - (m + 1)) <= 0.4
        slopes.append(f"{slope:.4f}")
    return (worst <= 1e-12 and slopes_ok,
            f"determinant gap {worst:.3e} <= 1e-12, |det-1| slopes {'/'.join(slopes)} near 2/3/4")


def criterion_07():
    """Stoermer-Verlet splits its block orders 2/2/2/4, mirrored."""
    quad3 = quadratic_model(3)
    state = PhaseState(0.3 * np.ones(3), -0.2 * np.ones(3))
    _, pq = sv_block_orders(quad3, Scheme.SV_PQ, 1, 3, default_h_grid(), state)
    _, qp = sv_block_orders(quad3, Scheme.SV_QP, 1, 3, default_h_grid(), state)
    ok = (
        all(1.6 <= pq[b].slope <= 2.4 for b in ("P11", "P12", "P21"))
        and 3.6 <= pq["P22"].slope <= 4.4
        and all(1.6 <= qp[b].slope <= 2.4 for b in ("P12", "P21", "P22"))
        and 3.6 <= qp["P11"].slope <= 4.4
    )
    detail = (
        "sv-pq " + "/".join(f"{pq[b].slope:.2f}" for b in ("P11", "P12", "P21", "P22"))
        + " sv-qp " + "/".join(f"{qp[b].slope:.2f}" for b in ("P11", "P12", "P21", "P22"))
    )
    return ok, "block orders split 2/2/2/4 and mirrored; " + detail


def criterion_08():
    """The q-implicit step is the p-implicit step conjugated by the swap."""
    tokamak = tokamak_model()
    base = reference_initial_state(tokamak)
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(20):
        state = PhaseState(
            base.q + 1e-3 * rng.standard_normal(3),
            base.p + 1e-4 * rng.standard_normal(3),
        )
        for m in (1, 2, 3):
            worst = max(worst, coordinate_swap_check(tokamak, 0.05, m, state))
    return (worst <= 1e-13,
            f"swap-conjugation discrepancy over 20 states <= 1e-13, worst {worst:.3e}")


def criterion_09():
    """The literal Stoermer-Verlet steps equal the composed half steps."""
    worst = 0.0
    for name, model, state in _model_states():
        if name == "harmonic":
            continue
        for m1, m2 in ((1, 3), (2, 2)):
            for direct, composed in (
                (step_sv_pq_direct, step_sv_pq),
                (step_sv_qp_direct, step_sv_qp),
            ):
                a = direct(model, state, 0.1, m1, m2).to_vector()
                b = composed(model, state, 0.1, m1, m2).to_vector()
                worst = max(worst, float(np.max(np.abs(a - b))))
    return (worst <= 1e-15,
            f"literal vs composed forms agree componentwise, worst {worst:.3e} <= 1e-15")


def criterion_11():
    """The integer coupling powers are Toeplitz, wrap and stay asymmetric."""
    failures = []
    for n in range(2, 9):
        for m in range(1, 7):
            mat = coupling_power(n, m)
            for l in range(1, n):
                # band l (row minus column) starts at mat[l, 0] below the
                # main diagonal and band -l at mat[0, l] above it
                below_ok = np.all(np.diagonal(mat, -l) == mat[l, 0])
                above_ok = np.all(np.diagonal(mat, l) == mat[0, l])
                if not (below_ok and above_ok):
                    failures.append(f"N={n} M={m}: off-diagonal {l} not constant")
                if -2 * mat[l, 0] != mat[0, n - l]:
                    failures.append(f"N={n} M={m}: wrap identity fails at {l}")
            symmetric = bool(np.array_equal(mat, mat.T))
            if n == 2 and m % 2 == 0:
                expected = (-2) ** (m // 2) * np.eye(2, dtype=np.int64)
                if not (symmetric and np.array_equal(mat, expected)):
                    failures.append(f"N=2 M={m}: even power is not (-2)^(M/2) I")
            elif symmetric:
                failures.append(f"N={n} M={m}: unexpectedly symmetric")
    return (not failures,
            "integer Toeplitz/wrap/asymmetry checks exact; " + (
                "; ".join(failures) if failures else "42 (N, M) pairs verified"))


CRITERIA = {
    1: criterion_01, 2: criterion_02, 3: criterion_03, 4: criterion_04, 5: criterion_05,
    6: criterion_06, 7: criterion_07, 8: criterion_08, 9: criterion_09, 11: criterion_11,
}
