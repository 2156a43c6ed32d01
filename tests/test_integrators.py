import math
import warnings

import numpy as np
import pytest

from sympdefect.autodiff import STEP
from sympdefect.defect import analyze
from sympdefect.experiments import energy_drift_run
from sympdefect.hamiltonians import quadratic_model
from sympdefect.integrators import (
    IntegrationError,
    NonFiniteIterateError,
    Scheme,
    SchemeConfig,
    exact_se_quadratic,
    integrate,
    momentum_iterates,
    one_step,
    position_iterates,
    step_linear_implicit_em,
    step_p_implicit,
    step_q_implicit,
    step_sv_pq,
    step_sv_pq_direct,
    step_sv_qp,
    step_sv_qp_direct,
    _check_finite,
)
from sympdefect.state import PhaseState


class ZeroField:
    """Minimal potential-bearing model with A = 0 everywhere."""

    dim = 2

    def potential_and_jacobian(self, q, with_jacobian=True):
        return np.zeros(2), np.zeros((2, 2))


def test_config_requires_m_for_one_sided_schemes():
    with pytest.raises(ValueError):
        SchemeConfig(Scheme.P_IMPLICIT, 0.1)
    with pytest.raises(ValueError):
        SchemeConfig(Scheme.Q_IMPLICIT, 0.1, M=0)
    with pytest.raises(ValueError, match="M must be an integer >= 1, got True"):
        SchemeConfig(Scheme.Q_IMPLICIT, 0.1, M=True)
    SchemeConfig(Scheme.P_IMPLICIT, 0.1, M=1)


def test_config_requires_both_half_counts_for_compositions():
    with pytest.raises(ValueError):
        SchemeConfig(Scheme.SV_PQ, 0.1, M1=1)
    with pytest.raises(ValueError):
        SchemeConfig(Scheme.SV_QP, 0.1, M2=2)
    SchemeConfig(Scheme.SV_QP, 0.1, M1=2, M2=1)


def test_config_rejects_bad_step_and_variant():
    with pytest.raises(ValueError):
        SchemeConfig(Scheme.P_IMPLICIT, 0.0, M=1)
    with pytest.raises(ValueError):
        SchemeConfig(Scheme.P_IMPLICIT, -0.1, M=1)


def test_config_accepts_scheme_names():
    cfg = SchemeConfig("q-implicit", 0.1, M=2)
    assert cfg.scheme is Scheme.Q_IMPLICIT


def test_zero_step_is_identity(quad3, quad3_state):
    z0 = quad3_state.to_vector()
    for step in (
        lambda: step_p_implicit(quad3, quad3_state, 0.0, 2),
        lambda: step_q_implicit(quad3, quad3_state, 0.0, 2),
        lambda: step_sv_pq(quad3, quad3_state, 0.0, 1, 2),
        lambda: step_sv_qp(quad3, quad3_state, 0.0, 1, 2),
        lambda: step_sv_pq_direct(quad3, quad3_state, 0.0, 1, 2),
        lambda: step_sv_qp_direct(quad3, quad3_state, 0.0, 1, 2),
        lambda: exact_se_quadratic(quad3, quad3_state, 0.0, "p"),
        lambda: exact_se_quadratic(quad3, quad3_state, 0.0, "q"),
    ):
        assert np.array_equal(step().to_vector(), z0)


def test_zero_step_identity_for_linear_implicit(tokamak, tokamak_state):
    out = step_linear_implicit_em(tokamak, tokamak_state, 0.0)
    assert np.array_equal(out.to_vector(), tokamak_state.to_vector())


def test_steps_reject_negative_step_size(quad3, quad3_state):
    with pytest.raises(ValueError):
        step_p_implicit(quad3, quad3_state, -0.1, 1)


def test_sweep_count_is_irrelevant_when_gradient_is_explicit(oscillator, oscillator_state):
    # grad_q of the oscillator ignores p, so every sweep reproduces sweep one
    outs = [
        step_p_implicit(oscillator, oscillator_state, 0.1, m).to_vector()
        for m in (1, 2, 3, 4)
    ]
    for other in outs[1:]:
        assert np.array_equal(outs[0], other)


def test_oscillator_step_closed_form(oscillator, oscillator_state):
    h = 0.1
    q, p = oscillator_state.q[0], oscillator_state.p[0]
    out = step_p_implicit(oscillator, oscillator_state, h, 1)
    pt = p - h * q
    np.testing.assert_allclose(out.p, [pt], rtol=1e-15)
    np.testing.assert_allclose(out.q, [q + h * pt], rtol=1e-15)


def test_oscillator_composition_is_kick_drift_kick(oscillator, oscillator_state):
    h = 0.1
    q, p = oscillator_state.q, oscillator_state.p
    pbar = p - 0.5 * h * q
    q1 = q + 0.5 * h * pbar
    qt = q1 + 0.5 * h * pbar
    pt = pbar - 0.5 * h * qt
    out = step_sv_pq(oscillator, oscillator_state, h, 1, 1)
    assert np.array_equal(out.q, qt)
    assert np.array_equal(out.p, pt)


def test_quadratic_single_sweep_frozen_step():
    model = quadratic_model(2)
    state = PhaseState(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    out = step_p_implicit(model, state, 0.1, 1)
    np.testing.assert_allclose(out.q, [1.01, -0.1], rtol=1e-14)
    np.testing.assert_allclose(out.p, [0.1, 1.0], rtol=1e-14)


def test_iterate_lists_start_at_input(quad3, quad3_state):
    its = momentum_iterates(quad3, quad3_state, 0.1, 3)
    assert len(its) == 4
    assert its[0] is quad3_state.p
    qits = position_iterates(quad3, quad3_state, 0.1, 3)
    assert len(qits) == 4
    assert qits[0] is quad3_state.q
    # the final sweep is the momentum the full step commits
    out = step_p_implicit(quad3, quad3_state, 0.1, 3)
    assert np.array_equal(out.p, its[3])


def test_iterate_cascade_gains_one_order_per_sweep(tokamak, tokamak_state):
    # distance between consecutive sweeps shrinks like h^n
    hs = np.geomspace(0.02, 0.2, 8)
    for n in (1, 2, 3):
        ds = []
        for h in hs:
            its = momentum_iterates(tokamak, tokamak_state, float(h), 3)
            ds.append(np.linalg.norm(its[n] - its[n - 1]))
        slope = np.polyfit(np.log(hs), np.log(ds), 1)[0]
        assert abs(slope - n) < 0.2


def test_tokamak_q_implicit_matches_literal_field_update(tokamak, tokamak_state):
    # the scheme written directly in terms of A and its Jacobian:
    # M position sweeps, then p + h J_A(q~)^T (p - A(q~))
    h, m = 0.1, 3
    q, p = tokamak_state.q, tokamak_state.p
    qn = q
    for _ in range(m):
        qn = q + h * (p - tokamak.vector_potential(qn))
    pot, jac = tokamak.potential_and_jacobian(qn)
    pt = p + h * (jac.T @ (p - pot))
    out = step_q_implicit(tokamak, tokamak_state, h, m)
    assert np.array_equal(out.q, qn)
    assert np.array_equal(out.p, pt)


@pytest.mark.parametrize("m1,m2", [(1, 3), (2, 2)])
def test_direct_composition_forms_agree(tokamak, tokamak_state, m1, m2):
    h = 0.1
    a = step_sv_pq(tokamak, tokamak_state, h, m1, m2).to_vector()
    b = step_sv_pq_direct(tokamak, tokamak_state, h, m1, m2).to_vector()
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)
    c = step_sv_qp(tokamak, tokamak_state, h, m1, m2).to_vector()
    d = step_sv_qp_direct(tokamak, tokamak_state, h, m1, m2).to_vector()
    np.testing.assert_allclose(c, d, rtol=0, atol=1e-15)


def test_linear_implicit_on_zero_field_is_free_motion():
    state = PhaseState(np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    out = step_linear_implicit_em(ZeroField(), state, 0.2)
    np.testing.assert_allclose(out.p, state.p, rtol=1e-15)
    np.testing.assert_allclose(out.q, state.q + 0.2 * state.p, rtol=1e-15)


def test_linear_implicit_requires_potential(quad3, quad3_state):
    with pytest.raises(TypeError):
        step_linear_implicit_em(quad3, quad3_state, 0.1)


def test_linear_implicit_is_fully_converged_momentum_solve(tokamak, tokamak_state):
    # the scheme solves the linear implicit relation exactly, so many
    # fixed-point sweeps of the p-implicit step must converge to it
    em = step_linear_implicit_em(tokamak, tokamak_state, 0.1).to_vector()
    fpi = step_p_implicit(tokamak, tokamak_state, 0.1, 30).to_vector()
    np.testing.assert_allclose(em, fpi, rtol=0, atol=1e-12)


def test_exact_quadratic_variants_satisfy_their_implicit_relations(quad3, quad3_state):
    h = 0.1
    q, p = quad3_state.q, quad3_state.p
    out_p = exact_se_quadratic(quad3, quad3_state, h, "p")
    np.testing.assert_allclose(
        out_p.p, p - h * quad3.grad_q(q, out_p.p), rtol=1e-13
    )
    np.testing.assert_allclose(
        out_p.q, q + h * quad3.grad_p(q, out_p.p), rtol=1e-13
    )
    out_q = exact_se_quadratic(quad3, quad3_state, h, "q")
    np.testing.assert_allclose(
        out_q.q, q + h * quad3.grad_p(out_q.q, p), rtol=1e-13
    )
    np.testing.assert_allclose(
        out_q.p, p - h * quad3.grad_q(out_q.q, p), rtol=1e-13
    )


def test_exact_quadratic_rejects_bad_variant(quad3, quad3_state):
    with pytest.raises(ValueError):
        exact_se_quadratic(quad3, quad3_state, 0.1, "pq")


def test_exact_quadratic_requires_a_coupling_matrix(tokamak, tokamak_state):
    with pytest.raises(TypeError, match="coupling"):
        exact_se_quadratic(tokamak, tokamak_state, 0.1)
    with pytest.raises(TypeError, match="coupling"):
        one_step(tokamak, SchemeConfig(Scheme.EXACT_QUADRATIC_P, 0.1), tokamak_state)


def test_sweeps_converge_to_exact_map_at_one_order_per_sweep(quad3, quad3_state):
    hs = np.geomspace(0.02, 0.2, 8)
    for m in (1, 2, 3):
        ds = []
        for h in hs:
            a = step_p_implicit(quad3, quad3_state, float(h), m).to_vector()
            b = exact_se_quadratic(quad3, quad3_state, float(h), "p").to_vector()
            ds.append(np.linalg.norm(a - b))
        slope = np.polyfit(np.log(hs), np.log(ds), 1)[0]
        assert abs(slope - (m + 1)) < 0.3


def test_one_step_dispatches_every_scheme(quad3, quad3_state, tokamak, tokamak_state):
    pairs = [
        (SchemeConfig(Scheme.P_IMPLICIT, 0.1, M=2), quad3, quad3_state),
        (SchemeConfig(Scheme.Q_IMPLICIT, 0.1, M=2), quad3, quad3_state),
        (SchemeConfig(Scheme.SV_PQ, 0.1, M1=1, M2=2), quad3, quad3_state),
        (SchemeConfig(Scheme.SV_QP, 0.1, M1=1, M2=2), quad3, quad3_state),
        (SchemeConfig(Scheme.LINEAR_IMPLICIT_EM, 0.1), tokamak, tokamak_state),
        (SchemeConfig(Scheme.EXACT_QUADRATIC_P, 0.1), quad3, quad3_state),
        (SchemeConfig(Scheme.EXACT_QUADRATIC_Q, 0.1), quad3, quad3_state),
    ]
    for config, model, state in pairs:
        out = one_step(model, config, state)
        assert out.dim == state.dim
        assert np.all(np.isfinite(out.to_vector().astype(float)))


# each scheme's implicit side and its step with counts M=2, M1=2, M2=3
SCHEME_STEPS = {
    Scheme.P_IMPLICIT: ("p", lambda f, z: step_p_implicit(f, z, 0.1, 2)),
    Scheme.Q_IMPLICIT: ("q", lambda f, z: step_q_implicit(f, z, 0.1, 2)),
    Scheme.SV_PQ: ("q", lambda f, z: step_sv_pq(f, z, 0.1, 2, 3)),
    Scheme.SV_QP: ("p", lambda f, z: step_sv_qp(f, z, 0.1, 2, 3)),
    Scheme.LINEAR_IMPLICIT_EM: ("p", lambda f, z: step_linear_implicit_em(f, z, 0.1)),
    Scheme.EXACT_QUADRATIC_P: ("p", lambda f, z: exact_se_quadratic(f, z, 0.1, "p")),
    Scheme.EXACT_QUADRATIC_Q: ("q", lambda f, z: exact_se_quadratic(f, z, 0.1, "q")),
}


@pytest.mark.parametrize("scheme", list(Scheme))
def test_every_scheme_is_declared(scheme, quad3, quad3_state, tokamak, tokamak_state):
    counts = {"M": 2, "M1": 2, "M2": 3}
    assert scheme.counts in (("M",), ("M1", "M2"), ())
    for missing in scheme.counts:
        with pytest.raises(ValueError, match=f"{missing} must be an integer"):
            SchemeConfig(scheme, 0.1, **{**counts, missing: None})
    SchemeConfig(scheme, 0.1, **{c: counts[c] for c in scheme.counts})
    # counts the scheme does not take are ignored
    config = SchemeConfig(scheme, 0.1, **counts)
    model, state = (
        (tokamak, tokamak_state) if scheme is Scheme.LINEAR_IMPLICIT_EM else (quad3, quad3_state)
    )
    side, step = SCHEME_STEPS[scheme]
    assert scheme.implicit_side == side
    out = one_step(model, config, state)
    assert np.array_equal(out.to_vector(), step(model, state).to_vector())
    report = analyze(model, config, state)
    assert {report.delta_block, side} == {"q", "p"}
    if not scheme.composition:
        # the one-sided maps zero the implicit side's diagonal block
        implicit_block = report.diag_p if side == "p" else report.diag_q
        assert np.linalg.norm(implicit_block) <= 1e-12


def test_integrate_single_step_equals_step_function(quad3, quad3_state):
    config = SchemeConfig(Scheme.P_IMPLICIT, 0.1, M=2)
    traj = integrate(quad3, config, quad3_state, steps=1)
    direct = step_p_implicit(quad3, quad3_state, 0.1, 2)
    assert np.array_equal(traj.states[1], direct.to_vector())


def test_integrate_sampling_pattern(quad3, quad3_state):
    config = SchemeConfig(Scheme.P_IMPLICIT, 0.05, M=1)
    traj = integrate(quad3, config, quad3_state, steps=10, stride=4)
    assert traj.step_indices.tolist() == [0, 4, 8, 10]
    np.testing.assert_allclose(traj.times, 0.05 * traj.step_indices, rtol=1e-15)
    assert traj.states.shape == (4, 6)
    assert traj.energies.shape == (4,)


def test_integrate_zero_steps(quad3, quad3_state):
    traj = integrate(quad3, SchemeConfig(Scheme.P_IMPLICIT, 0.1, M=1), quad3_state, steps=0)
    assert traj.step_indices.tolist() == [0]
    assert np.array_equal(traj.states[0], quad3_state.to_vector())


def test_integrate_validation(quad3, quad3_state):
    config = SchemeConfig(Scheme.P_IMPLICIT, 0.1, M=1)
    with pytest.raises(ValueError):
        integrate(quad3, config, quad3_state, steps=-1)
    with pytest.raises(ValueError):
        integrate(quad3, config, quad3_state, steps=2, stride=0)
    with pytest.raises(ValueError):
        integrate(quad3, config, quad3_state, steps=2.5)


@pytest.mark.parametrize(
    "run",
    [
        lambda model, config, state: integrate(model, config, state, steps=50),
        lambda model, config, state: energy_drift_run(model, [config], state, steps=50, stride=50),
    ],
    ids=["integrate", "energy_drift_run"],
)
def test_integrate_reports_failing_step(run, tokamak, tokamak_state):
    config = SchemeConfig(Scheme.Q_IMPLICIT, 1e3, M=2)
    with pytest.raises(IntegrationError) as err:
        run(tokamak, config, tokamak_state)
    assert err.value.step_index == 3


@pytest.mark.parametrize(
    "config",
    [SchemeConfig(Scheme.Q_IMPLICIT, 0.25, M=1), SchemeConfig(Scheme.SV_PQ, 0.25, M1=1, M2=3)],
    ids=["q-implicit-M1", "sv-pq-M1-1-M2-3"],
)
def test_diverging_tokamak_orbit_fails_as_non_finite_iterate(config, tokamak, tokamak_state):
    # both orbits leave the device within 1e4 steps; the field radius then
    # overflows while the position is still finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as err:
            integrate(tokamak, config, tokamak_state, steps=20_000, stride=20_000)
    assert err.value.step_index > 0
    assert isinstance(err.value.__cause__, NonFiniteIterateError)


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_finite_rejects_any_non_finite_component(n, bad):
    # a float vector, then complex steps with the bad value in either part
    finite = np.linspace(-2.0, 3.0, n)
    stepped = finite + STEP * 1j
    for base, entry in ((finite, bad), (stepped, complex(bad, STEP)), (stepped, complex(1.0, bad))):
        for i in range(n):
            vec = base.copy()
            vec[i] = entry
            with pytest.raises(NonFiniteIterateError, match="non-finite position iterate 2"):
                _check_finite(vec, "position iterate 2")


def test_check_finite_passes_finite_and_complex_vectors():
    _check_finite(np.linspace(-2.0, 3.0, 3), "updated momentum")
    _check_finite(np.linspace(-2.0, 3.0, 8), "updated momentum")
    _check_finite(np.array([0.1, -0.2, 0.3]) + STEP * 1j, "updated momentum")
    # finite, though the sum of its components overflows
    _check_finite(np.array([1e308, 1e308, 0.0]), "position iterate 1")
    _check_finite(np.array([1e308, 1e308, 0.0]) * (1 + 1j), "position iterate 1")


@pytest.mark.parametrize("column", [0, 2, 4])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_check_finite_rejects_a_batch_with_one_bad_column(column, bad):
    finite = np.linspace(-2.0, 3.0, 15).reshape(3, 5)
    for batch, entry in ((finite, bad), (finite + STEP * 1j, complex(0.5, bad))):
        vec = batch.copy()
        vec[1, column] = entry
        with pytest.raises(NonFiniteIterateError, match="non-finite momentum iterate 3"):
            _check_finite(vec, "momentum iterate 3")
    _check_finite(finite, "momentum iterate 3")
    _check_finite(finite + STEP * 1j, "momentum iterate 3")


SEPARABLE_SCHEMES = [Scheme.P_IMPLICIT, Scheme.Q_IMPLICIT, Scheme.SV_PQ, Scheme.SV_QP]
EXACT_SCHEMES = [Scheme.EXACT_QUADRATIC_P, Scheme.EXACT_QUADRATIC_Q]
BATCH_CASES = (
    [("tokamak", s) for s in SEPARABLE_SCHEMES + [Scheme.LINEAR_IMPLICIT_EM]]
    + [("oscillator", s) for s in SEPARABLE_SCHEMES]
    + [("quadratic", s) for s in SEPARABLE_SCHEMES + EXACT_SCHEMES]
)
# stable ids: the non-exact cases keep the "-p" suffix they carried while
# the exact map's side was a separate setting that every case passed
BATCH_IDS = [f"{m}-{s.value}" + ("" if s in EXACT_SCHEMES else "-p") for m, s in BATCH_CASES]
# fixed before the test first ran: the quadratic model's matrix products
# take BLAS's matrix-matrix path on a batch, which may round differently
QUADRATIC_BATCH_RTOL = 1e-14


@pytest.mark.parametrize(
    "model_name, scheme", BATCH_CASES, ids=BATCH_IDS,
)
def test_batched_step_equals_separate_steps(model_name, scheme, tokamak, tokamak_state, oscillator):
    rng = np.random.default_rng(11)
    k = 4
    if model_name == "tokamak":
        model = tokamak
        q = tokamak_state.q[:, None] + 1e-3 * rng.standard_normal((3, k))
        p = tokamak_state.p[:, None] * (1.0 + 0.05 * rng.standard_normal((3, k)))
    else:
        model = oscillator if model_name == "oscillator" else quadratic_model(8)
        q, p = 0.5 * rng.standard_normal((2, model.dim, k))
    config = SchemeConfig(scheme, 0.1, M=2, M1=1, M2=3)
    batched = one_step(model, config, PhaseState(q, p))
    assert batched.q.shape == batched.p.shape == (model.dim, k)
    for c in range(k):
        single = one_step(model, config, PhaseState(q[:, c].copy(), p[:, c].copy()))
        got, want = batched.to_vector()[:, c], single.to_vector()
        if model_name == "quadratic":
            np.testing.assert_allclose(got, want, rtol=QUADRATIC_BATCH_RTOL, atol=0.0)
        else:
            assert np.array_equal(got, want), c


@pytest.mark.parametrize(
    "config",
    [SchemeConfig(Scheme.LINEAR_IMPLICIT_EM, 0.25), SchemeConfig(Scheme.Q_IMPLICIT, 0.25, M=2)],
    ids=["linear-implicit-em", "q-implicit-M2"],
)
def test_integrate_and_drift_run_sample_the_same_orbit(config, tokamak, tokamak_state):
    traj = integrate(tokamak, config, tokamak_state, steps=300, stride=7)
    (series,) = energy_drift_run(tokamak, [config], tokamak_state, steps=300, stride=7)
    e0 = tokamak.energy(tokamak_state)
    assert np.array_equal(series.errors, np.abs(traj.energies - e0))
    assert np.array_equal(series.step_indices, traj.step_indices)


def test_leapfrog_energy_error_stays_bounded(oscillator, oscillator_state):
    config = SchemeConfig(Scheme.SV_PQ, 0.1, M1=1, M2=1)
    traj = integrate(oscillator, config, oscillator_state, steps=10_000, stride=10)
    err = np.abs(traj.energies - traj.energies[0])
    assert err.max() <= 1e-3
    half = err.size // 2
    assert err[half:].max() <= 1.001 * err[:half].max()


def test_tokamak_orbit_stays_in_containment_box(tokamak, tokamak_state):
    config = SchemeConfig(Scheme.Q_IMPLICIT, 0.1, M=3)
    traj = integrate(tokamak, config, tokamak_state, steps=5000, stride=10)
    rho = np.hypot(traj.states[:, 0], traj.states[:, 1])
    z = traj.states[:, 2]
    assert 0.12 <= rho.min() and rho.max() <= 0.30
    assert np.max(np.abs(z)) <= 0.1
    err = np.abs(traj.energies - traj.energies[0])
    assert err.max() <= 1e-5
