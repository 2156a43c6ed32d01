import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mp_tokamak import TokamakReference
from test_defect import tokamak_cases

from sympdefect.autodiff import STEP, NonFiniteError, jacobian
from sympdefect.defect import analyze, flow_jacobian_ad, flow_jacobian_analytic, flow_jacobians, flow_map
from sympdefect.experiments import energy_drift_run
from sympdefect.hamiltonians import HamiltonianModel, TokamakModel, quadratic_model
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
    _check_step,
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


@pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, -math.inf])
def test_step_size_array_rejects_any_bad_entry(bad, quad3):
    batch = PhaseState(np.full((3, 3), 0.3), np.full((3, 3), -0.2))
    h = np.array([0.1, bad, 0.05])
    with pytest.raises(ValueError, match="step size must be non-negative and finite"):
        _check_step(h)
    with pytest.raises(ValueError, match="step size must be non-negative and finite"):
        step_p_implicit(quad3, batch, h, 1)
    _check_step(np.array([0.1, 0.0, 0.05]))


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


def _jt(jac, d):
    """J^T d summed in the float kernel's order, J[0][k] d_0 + J[1][k] d_1 + J[2][k] d_2."""
    return np.array([jac[0, k] * d[0] + jac[1, k] * d[1] + jac[2, k] * d[2] for k in range(3)])


def test_tokamak_q_implicit_matches_literal_field_update(tokamak, tokamak_state):
    # the scheme written directly in terms of A and its Jacobian:
    # M position sweeps, then p + h J_A(q~)^T (p - A(q~))
    h, m = 0.1, 3
    q, p = tokamak_state.q, tokamak_state.p
    qn = q
    for _ in range(m):
        qn = q + h * (p - tokamak.vector_potential(qn))
    pot, jac = tokamak.potential_and_jacobian(qn)
    pt = p + h * _jt(jac, p - pot)
    out = step_q_implicit(tokamak, tokamak_state, h, m)
    assert np.array_equal(out.q, qn)
    assert np.array_equal(out.p, pt)


def test_tokamak_p_implicit_matches_literal_field_update(tokamak, tokamak_state):
    # M momentum sweeps p + h J_A(q)^T (p_n - A(q)), then q + h (p~ - A(q))
    h, m = 0.1, 3
    q, p = tokamak_state.q, tokamak_state.p
    pot, jac = tokamak.potential_and_jacobian(q)
    pn = p
    for _ in range(m):
        pn = p + h * _jt(jac, pn - pot)
    out = step_p_implicit(tokamak, tokamak_state, h, m)
    assert np.array_equal(out.p, pn)
    assert np.array_equal(out.q, q + h * (pn - pot))


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
    # a bool is an int to isinstance; energy_drift_run refuses it too
    with pytest.raises(ValueError, match="steps must be a non-negative integer, got True"):
        integrate(quad3, config, quad3_state, True, 1)
    with pytest.raises(ValueError, match="stride must be an integer >= 1, got True"):
        integrate(quad3, config, quad3_state, 2, True)


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


def test_failing_sampled_energy_reports_its_step(tokamak, tokamak_state):
    # p-implicit's new position is checked for finiteness only; at stride 1
    # the energy sampled there is the first field evaluation to overflow
    config = SchemeConfig(Scheme.P_IMPLICIT, 0.25, M=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="failed at step 2262: field flux overflows") as err:
            integrate(tokamak, config, tokamak_state, steps=5000, stride=1)
        # at any other stride the next step's field evaluation fails first
        with pytest.raises(IntegrationError, match="failed at step 2263: field flux overflows"):
            integrate(tokamak, config, tokamak_state, steps=5000, stride=5000)
    assert err.value.step_index == 2262
    assert isinstance(err.value.__cause__, NonFiniteIterateError)


def test_pinned_tokamak_divergence_step(tokamak, tokamak_state):
    # the drift benchmark's expected divergence: stride = steps, so only a
    # failing step ends the run
    config = SchemeConfig(Scheme.Q_IMPLICIT, 0.25, M=1)
    with pytest.raises(IntegrationError) as err:
        energy_drift_run(tokamak, [config], tokamak_state, steps=20_000, stride=20_000)
    assert err.value.step_index == 2234
    assert isinstance(err.value.__cause__, NonFiniteIterateError)


def _outcome(run):
    """The bytes of each array `run()` returns, or the type and message of
    the error it raises; numpy's overflow on a diverging batch stays quiet."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return [x.tobytes() for x in run()]
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=tokamak_cases(), blowup=st.sampled_from([0, 0, 100, 200, 300, 305, 306]))
def test_float_position_sweeps_are_the_batch_column_bitwise(tokamak, tokamak_state, case, blowup):
    # a float 3-vector steps in the scalar kernel (TokamakModel.float_step),
    # a (3, 1) batch steps its column there.  A step size scaled by 10^blowup
    # makes the sweeps fail at some iterate, or the field there overflow
    position, factors, h, m = case
    h *= 10.0**blowup
    q, p = position / tokamak.scales.L0, factors * tokamak_state.p
    vector, column = PhaseState(q, p), PhaseState(q[:, None], p[:, None])
    runs = [
        lambda z: [step_q_implicit(tokamak, z, h, m).to_vector()],
        lambda z: [step_sv_pq(tokamak, z, h, m, 5 - m).to_vector()],
        lambda z: [step_sv_qp(tokamak, z, h, 5 - m, m).to_vector()],
    ]
    for run in runs:
        want = _outcome(lambda: [x[:, 0] for x in run(column)])
        assert _outcome(lambda: run(vector)) == want


@pytest.mark.parametrize(
    "momentum, h, failure",
    [
        ([math.inf, 0.0, 0.0], 0.25, "non-finite position iterate 1"),
        ([0.0, math.nan, 0.0], 0.25, "non-finite position iterate 1"),
        # iterate 1 is finite though its sum overflows; the field there is not
        ([1e308, 1e308, 0.0], 1.0, "field flux overflows at radius inf m"),
        # p = A(q_0) but for 1e-304 where A_x is 0: q_1 is 100 L0 out, where h (p - A) overflows
        ("potential", 1e306, "non-finite position iterate 2"),
    ],
    ids=["inf", "nan", "overflowing-sum", "second-iterate"],
)
def test_float_position_sweeps_fail_as_the_batch_column(momentum, h, failure, tokamak, tokamak_state):
    q = tokamak_state.q
    if momentum == "potential":
        momentum = tokamak.vector_potential(q) + [1e-304, 0.0, 0.0]
        assert momentum[1:].tolist() == tokamak.vector_potential(q)[1:].tolist()
    p = np.array(momentum, dtype=float)
    vector, column = PhaseState(q, p), PhaseState(q[:, None], p[:, None])
    for m in (1, 3):
        want = _outcome(lambda: [step_q_implicit(tokamak, column, h, m).to_vector()[:, 0]])
        assert _outcome(lambda: [step_q_implicit(tokamak, vector, h, m).to_vector()]) == want
    assert want == (NonFiniteIterateError, failure)


class NumpyTokamak(TokamakModel):
    """The tokamak with no scalar kernel: its float steps and its Jacobians run the numpy code."""

    float_step = None
    linearized_step = None


# Bound fixed before the first run: the kernel sums J^T d in its own order
# and solves em's system by its own elimination, a few ulp per operation.
KERNEL_RTOL = 1e-12
KERNEL_SCHEMES = [
    SchemeConfig(Scheme.LINEAR_IMPLICIT_EM, 0.1),
    SchemeConfig(Scheme.P_IMPLICIT, 0.1, M=3),
    SchemeConfig(Scheme.Q_IMPLICIT, 0.1, M=3),
]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=tokamak_cases())
def test_float_kernel_step_matches_the_numpy_step(tokamak, tokamak_state, case):
    position, factors, h, m = case
    state = PhaseState(position / tokamak.scales.L0, factors * tokamak_state.p)
    for config in KERNEL_SCHEMES:
        step = config.scheme.step
        got = step(tokamak, state, config, h).to_vector()
        want = step(NumpyTokamak(), state, config, h).to_vector()
        assert np.linalg.norm(got - want) <= KERNEL_RTOL * np.linalg.norm(want), config.scheme


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=tokamak_cases())
def test_kernel_values_are_the_float_step(tokamak, tokamak_state, case):
    # the Jacobian kernel steps by the float step's own arithmetic: every side, and
    # both halves of each composition, the second from the first's output
    position, factors, h, m = case
    q, p = (position / tokamak.scales.L0).tolist(), (factors * tokamak_state.p).tolist()
    steps = [(side, q, p, h, m) for side in ("p", "q", "em")]
    for first, second in (("p", "q"), ("q", "p")):
        half = tokamak.float_step(first, q, p, 0.5 * h, m)
        steps += [(first, q, p, 0.5 * h, m), (second, *half, 0.5 * h, 5 - m)]
    for side, *args in steps:
        want = tokamak.float_step(side, *args)
        got = tokamak.linearized_step(side, *args)[:2]
        assert np.array(got).tobytes() == np.array(want).tobytes(), side


# Bound fixed before the first run: the kernel's chain rule rounds a few ulp per
# operation, and the 90-digit reference is exact far below that.
KERNEL_JACOBIAN_RTOL = 1e-14


@settings(derandomize=True, max_examples=10, deadline=None)
@given(case=tokamak_cases())
def test_kernel_jacobians_match_the_mpmath_reference(tokamak, tokamak_state, case):
    # every scheme's D against the truncated maps written out in mpmath (mp_tokamak), where
    # the sweeps contract, h |dA/dq| < 1; past that, see the test below
    position, factors, h, m = case
    state = PhaseState(position / tokamak.scales.L0, factors * tokamak_state.p)
    assume(h * np.linalg.norm(tokamak.potential_and_jacobian(state.q)[1], 2) < 1.0)
    schemes = SEPARABLE_SCHEMES + [Scheme.LINEAR_IMPLICIT_EM]
    configs = [SchemeConfig(s, h, M=m, M1=m, M2=5 - m) for s in schemes]
    configs += [SchemeConfig(s, h, M1=m1, M2=m2) for s in (Scheme.SV_PQ, Scheme.SV_QP)
                for m1, m2 in ((1, 3), (2, 2), (3, 2))]
    reference = TokamakReference(tokamak)
    for config in configs:
        got = flow_jacobian_ad(tokamak, config, state)
        want = reference.flow_jacobian(config, state)
        assert np.linalg.norm(got - want) <= KERNEL_JACOBIAN_RTOL * np.linalg.norm(want), config


def test_non_contracting_sweeps_move_every_double_jacobian_alike(tokamak, tokamak_state):
    # at h |dA/dq| = 1.43, q-implicit M=4 amplifies the field's rounding through its
    # sweeps: the double step's value lies 2.4e-14 from the exact map's, and both double
    # routes' D, the kernel's and the analytic recursion's, 3.0e-14 from the exact D,
    # while they agree with each other to 1.4e-16: the gap is no route's own
    q, factors = np.array([3.5, 0.0, 0.0]) / tokamak.scales.L0, np.array([0.0, 0.0, -19.0])
    state = PhaseState(q, factors * tokamak_state.p)
    config = SchemeConfig(Scheme.Q_IMPLICIT, 1.0, M=4)
    assert np.linalg.norm(tokamak.potential_and_jacobian(state.q)[1], 2) > 1.0
    kernel = flow_jacobian_ad(tokamak, config, state)
    analytic = flow_jacobian_analytic(tokamak, config, state)
    exact = TokamakReference(tokamak).flow_jacobian(config, state)
    scale = np.linalg.norm(exact)
    assert np.linalg.norm(kernel - analytic) <= 1e-15 * scale
    for route in (kernel, analytic):
        assert np.linalg.norm(route - exact) >= 10.0 * np.linalg.norm(kernel - analytic)


KERNEL_FAILURES = [
    ("q-implicit", 1, [math.inf, 0.0, 0.0], 0.25, "non-finite position iterate 1"),
    ("q-implicit", 3, "potential", 1e306, "non-finite position iterate 2"),
    ("q-implicit", 1, "potential", 1e306, "non-finite updated momentum"),
    ("p-implicit", 1, [math.inf, 0.0, 0.0], 0.25, "non-finite momentum iterate 1"),
    ("p-implicit", 3, [1e300, 0.0, 0.0], 1e10, "non-finite momentum iterate 2"),
    ("p-implicit", 1, [1e300, 0.0, 0.0], 1e10, "non-finite updated position"),
    ("linear-implicit-em", None, [0.0, math.nan, 0.0], 0.25, "non-finite updated momentum"),
]


@pytest.mark.parametrize("scheme, m, momentum, h, failure", KERNEL_FAILURES)
def test_float_kernel_fails_as_the_numpy_step(scheme, m, momentum, h, failure, tokamak, tokamak_state):
    q = tokamak_state.q
    if momentum == "potential":  # A(q) but for 1e-304 in x: q_1 lies 100 L0 out
        momentum = tokamak.vector_potential(q) + [1e-304, 0.0, 0.0]
    p = np.array(momentum, dtype=float)
    config = SchemeConfig(scheme, 0.1, M=m)
    for model, state in ((NumpyTokamak(), PhaseState(q, p)), (tokamak, PhaseState(q, p)),
                         (tokamak, PhaseState(q[:, None], p[:, None]))):
        assert _outcome(lambda: [config.scheme.step(model, state, config, h).q]) == (
            NonFiniteIterateError, failure)


@pytest.mark.parametrize("scheme, m, momentum, h, failure", KERNEL_FAILURES)
def test_complex_pass_fails_as_the_numpy_route(scheme, m, momentum, h, failure, tokamak, tokamak_state):
    # where the kernel fails, the Jacobian raises the error of the numpy route's step at
    # that state, through the float step (no complex-step pass is left to raise it)
    q = tokamak_state.q
    if momentum == "potential":
        momentum = tokamak.vector_potential(q) + [1e-304, 0.0, 0.0]
    state = PhaseState(q, np.array(momentum, dtype=float))
    config = SchemeConfig(scheme, h, M=m)
    numpy_step = _outcome(lambda: [config.scheme.step(NumpyTokamak(), state, config, h).q])
    kernel = _outcome(lambda: [flow_jacobian_ad(tokamak, config, state)])
    assert numpy_step == (NonFiniteIterateError, failure)
    finite = np.isfinite(momentum).all()
    assert kernel == (numpy_step if finite else (NonFiniteError, "seed point has non-finite entries"))


@pytest.mark.parametrize(
    "scheme, m, grid",
    [("q-implicit", 1, [0.1, 1e100, 1e200]), ("p-implicit", 1, [0.1, 1e155, 1e200]),
     ("sv-pq", 2, [0.1, 1e10, 1e200])],
)
def test_a_failing_grid_raises_the_error_of_its_first_failing_config(scheme, m, grid, tokamak, tokamak_state):
    # each config fails as its lone Jacobian, the float step's error or the kernel's
    # own where no step fails (p-implicit at 1e155, whose D alone overflows); a grid
    # raises that of its first failing config, in the order given
    configs = [SchemeConfig(scheme, h, M=m, M1=m, M2=m) for h in grid]
    alone = [_outcome(lambda: [flow_jacobian_ad(tokamak, c, tokamak_state)]) for c in configs]
    assert type(alone[0]) is list and alone[1] != alone[2]
    assert all(type(outcome) is tuple and outcome[0] is NonFiniteIterateError for outcome in alone[1:])
    for order in ([0, 1, 2], [0, 2, 1]):
        ordered = [configs[i] for i in order]
        assert _outcome(lambda: flow_jacobians(tokamak, ordered, tokamak_state)) == alone[order[1]]
    if scheme == "p-implicit":
        assert alone[1] == (NonFiniteIterateError, "non-finite linearized step")


def test_tokamak_refuses_complex_states(tokamak, tokamak_state):
    # no tokamak route takes complex steps: its potential, a step and a Jacobian name the kernel
    stepped = PhaseState(tokamak_state.q + STEP * 1j, tokamak_state.p)
    config = SchemeConfig(Scheme.Q_IMPLICIT, 0.1, M=2)
    for run in (lambda: tokamak.potential_and_jacobian(stepped.q),
                lambda: one_step(tokamak, config, stepped),
                lambda: flow_jacobian_ad(tokamak, config, stepped)):
        with pytest.raises(TypeError, match="linearized_step"):
            run()


@pytest.mark.parametrize(
    "scheme", [Scheme.P_IMPLICIT, Scheme.Q_IMPLICIT, Scheme.SV_PQ, Scheme.SV_QP, Scheme.LINEAR_IMPLICIT_EM]
)
def test_flow_jacobian_rejects_a_seed_as_the_numpy_route(scheme, tokamak, tokamak_state):
    config = SchemeConfig(scheme, 0.1, M=2, M1=1, M2=3)
    q, p = tokamak_state.q, tokamak_state.p
    nan, batch = PhaseState(q, p * [1.0, math.nan, 1.0]), PhaseState(q[:, None], p[:, None])
    for state, want in (
        (nan, (NonFiniteError, "seed point has non-finite entries")),
        (batch, (ValueError, "seed point must be a one-dimensional vector")),
    ):
        # the quadratic model's real pass checks its seed as the complex pass does
        for model in (NumpyTokamak(), tokamak, quadratic_model(3)):
            assert _outcome(lambda: [flow_jacobian_ad(model, config, state)]) == want
    # a state of the wrong size fails as in the complex pass, with numpy's ValueError
    if scheme.counts:
        quad, wrong = quadratic_model(2), PhaseState(q, p)
        want = _outcome(lambda: [jacobian(flow_map(quad, config), wrong.to_vector())])
        assert want[0] is ValueError
        assert _outcome(lambda: [flow_jacobian_ad(quad, config, wrong)]) == want


def test_float_kernel_em_rejects_a_non_finite_matrix(tokamak, tokamak_state):
    # 0.5 m from the torus axis, h dA/dq overflows
    state = PhaseState(np.array([0.5, 0.0, 0.1]) / tokamak.scales.L0, tokamak_state.p)
    for model in (NumpyTokamak(), tokamak):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="matrix has non-finite entries"):
            step_linear_implicit_em(model, state, 1e307)


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


@pytest.mark.parametrize("scheme", list(Scheme))
def test_per_column_step_sizes_equal_separate_steps(scheme, tokamak, tokamak_state, oscillator):
    # one step size per batch column, as a grid's complex-step pass takes them (on the
    # quadratic models; the tokamak refuses complex steps)
    rng = np.random.default_rng(18)
    k = 5
    h = np.geomspace(0.02, 0.2, k)
    config = SchemeConfig(scheme, 0.1, M=2, M1=1, M2=3)
    models = [("quadratic", quadratic_model(3)), ("oscillator", oscillator), ("tokamak", tokamak)]
    for name, model in models:
        if scheme is Scheme.LINEAR_IMPLICIT_EM and name != "tokamak":
            continue
        if scheme in (Scheme.EXACT_QUADRATIC_P, Scheme.EXACT_QUADRATIC_Q) and name == "tokamak":
            continue
        if name == "tokamak":
            q = tokamak_state.q[:, None] + 1e-3 * rng.standard_normal((3, k))
            p = tokamak_state.p[:, None] * (1.0 + 0.05 * rng.standard_normal((3, k)))
        else:
            q, p = 0.5 * rng.standard_normal((2, model.dim, k))
        tangents = STEP * 1j * rng.standard_normal((2, model.dim, k))
        for bq, bp in ((q, p), (q + tangents[0], p + tangents[1])):
            if name == "tokamak" and bq.dtype.kind == "c":  # its Jacobians come from its kernel
                with pytest.raises(TypeError, match="linearized_step"):
                    scheme.step(model, PhaseState(bq, bp), config, h)
                continue
            batched = scheme.step(model, PhaseState(bq, bp), config, h).to_vector()
            for c in range(k):
                single = PhaseState(bq[:, c].copy(), bp[:, c].copy())
                want = scheme.step(model, single, config, float(h[c])).to_vector()
                assert np.array_equal(batched[:, c], want), (name, bq.dtype, c)


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


def _held(state: PhaseState) -> PhaseState:
    """The float-held twin of a float64 3-vector state, as the kernel returns it."""
    return PhaseState(tuple(state.q.tolist()), tuple(state.p.tolist()))


@pytest.mark.parametrize("scheme", list(Scheme))
def test_float_held_state_steps_as_its_array_twin(scheme, tokamak, tokamak_state):
    # five chained steps of single states, bitwise, and of their (3, K) batch
    rng = np.random.default_rng(24)
    k = 3
    if scheme in EXACT_SCHEMES:
        model = quadratic_model(3)
        q, p = 0.5 * rng.standard_normal((2, 3, k))
    else:
        model = tokamak
        q = tokamak_state.q[:, None] + 1e-3 * rng.standard_normal((3, k))
        p = tokamak_state.p[:, None] * (1.0 + 0.05 * rng.standard_normal((3, k)))
    config = SchemeConfig(scheme, 0.25, M=2, M1=1, M2=3)
    batch = PhaseState(q, p)
    twins = [PhaseState(q[:, c].copy(), p[:, c].copy()) for c in range(k)]
    helds = [_held(z) for z in twins]
    for _ in range(5):
        batch = one_step(model, config, batch)
        twins = [one_step(model, config, z) for z in twins]
        helds = [one_step(model, config, z) for z in helds]
        for c in range(k):
            got, want = batch.to_vector()[:, c], twins[c].to_vector()
            assert helds[c].to_vector().tobytes() == want.tobytes(), c
            # a quadratic batch takes BLAS's matrix-matrix path (see above)
            assert model is not tokamak or got.tobytes() == want.tobytes(), c
    assert all(z.floats is not None for z in helds) == (model is tokamak)


@pytest.mark.parametrize(
    "scheme, m, momentum, h, failure",
    KERNEL_FAILURES + [
        ("q-implicit", 2, [0.0, 0.0, 0.0], -0.25, "step size must be non-negative and finite, got -0.25"),
        ("q-implicit", 2, [0.0, 0.0, 0.0], math.nan, "step size must be non-negative and finite, got nan"),
        ("p-implicit", 0, [0.0, 0.0, 0.0], 0.25, "M must be an integer >= 1, got 0"),
        ("p-implicit", True, [0.0, 0.0, 0.0], 0.25, "M must be an integer >= 1, got True"),
    ],
)
def test_float_held_state_fails_as_its_array_twin(scheme, m, momentum, h, failure, tokamak, tokamak_state):
    q = tokamak_state.q
    if momentum == "potential":  # A(q) but for 1e-304 in x: q_1 lies 100 L0 out
        momentum = tokamak.vector_potential(q) + [1e-304, 0.0, 0.0]
    twin = PhaseState(q, np.array(momentum, dtype=float))
    step = {"q-implicit": step_q_implicit, "p-implicit": step_p_implicit}.get(scheme)
    for state in (twin, _held(twin)):
        if step is None:
            run = lambda: [step_linear_implicit_em(tokamak, state, h).q]  # noqa: E731
        else:
            run = lambda: [step(tokamak, state, h, m).q]  # noqa: E731
        assert _outcome(run) == (
            NonFiniteIterateError if failure.startswith("non-finite") else ValueError, failure)


@pytest.mark.parametrize("scheme", [Scheme.Q_IMPLICIT, Scheme.P_IMPLICIT, Scheme.LINEAR_IMPLICIT_EM])
def test_mixed_tuple_state_steps_as_its_array_twin(scheme, tokamak, tokamak_state):
    # a complex entry after float ones: not the float form, so the numpy route, which
    # steps a complex p at a real q; the q-implicit sweeps make q complex, which the
    # tokamak potential refuses, for both states alike
    q, p = tuple(tokamak_state.q.tolist()), (float(tokamak_state.p[0]), 1j, 0.0)
    mixed = PhaseState(q, p)
    assert mixed.floats is None
    config = SchemeConfig(scheme, 0.25, M=2)
    outcomes = []
    for state in (PhaseState(np.array(q), np.array(p)), mixed):
        try:
            outcomes.append(one_step(tokamak, config, state).to_vector().tobytes())
        except TypeError as exc:
            outcomes.append(str(exc))
    assert outcomes[1] == outcomes[0]
    if scheme is Scheme.Q_IMPLICIT:
        assert "linearized_step" in outcomes[0]
    else:
        assert type(outcomes[0]) is bytes


def test_float_held_state_takes_numpy_scalar_steps_and_counts(tokamak, tokamak_state):
    held = _held(tokamak_state)
    want = step_sv_pq(tokamak, held, 0.25, 1, 3).to_vector().tobytes()
    assert step_sv_pq(tokamak, held, np.float64(0.25), np.int64(1), np.int64(3)).to_vector().tobytes() == want
    assert step_sv_pq(tokamak, tokamak_state, 0.25, 1, 3).to_vector().tobytes() == want


def test_float_held_divergence_matches_the_array_orbit(tokamak, tokamak_state):
    config = SchemeConfig(Scheme.Q_IMPLICIT, 0.25, M=1)
    errors = []
    for state in (tokamak_state, _held(tokamak_state)):
        with pytest.raises(IntegrationError) as err:
            energy_drift_run(tokamak, [config], state, steps=20_000, stride=20_000)
        errors.append((err.value.step_index, str(err.value)))
    assert errors[0] == errors[1] and errors[0][0] == 2234


@pytest.mark.parametrize(
    "config",
    [
        SchemeConfig(Scheme.LINEAR_IMPLICIT_EM, 0.25),
        SchemeConfig(Scheme.Q_IMPLICIT, 0.25, M=2),
        SchemeConfig(Scheme.SV_PQ, 0.25, M1=1, M2=3),
    ],
    ids=["linear-implicit-em", "q-implicit-M2", "sv-pq-1-3"],
)
def test_drift_run_builds_arrays_only_at_sampled_steps(config, tokamak, tokamak_state, monkeypatch):
    # a float-held state's first q or p read builds its arrays; the energies
    # of the 100 states sampled past the initial one read the floats, so none
    reads = []
    held = type(PhaseState((0.0,), (0.0,)))  # the float form's class
    convert = held.__getattr__

    def counted(state, name):
        reads.append(name)
        return convert(state, name)

    monkeypatch.setattr(held, "__getattr__", counted)
    (series,) = energy_drift_run(tokamak, [config], tokamak_state, steps=2000, stride=20)
    assert len(series.step_indices) == 101
    assert len(reads) == 0
    assert all(state.floats is not None for state in series.states[1:])


@pytest.mark.parametrize("scheme", [s for s in Scheme if s not in EXACT_SCHEMES])
def test_sampled_energies_are_the_array_route(scheme, tokamak, tokamak_state, monkeypatch):
    # a float-held state's energy reads its floats; the array route builds its
    # arrays for `value`: states and energies alike, bitwise, over seeded starts
    rng = np.random.default_rng(29)
    config = SchemeConfig(scheme, 0.1, M=2, M1=1, M2=3)
    starts = [PhaseState(tokamak_state.q + 1e-3 * rng.standard_normal(3),
                         tokamak_state.p * (1.0 + 0.05 * rng.standard_normal(3))) for _ in range(3)]

    def runs():
        out = []
        for start in starts:
            traj = integrate(tokamak, config, start, 300, stride=1)
            (series,) = energy_drift_run(tokamak, [config], start, steps=300, stride=1)
            out += [traj.states.tobytes(), traj.energies.tobytes(), series.signed_errors.tobytes(),
                    np.array([z.to_vector() for z in series.states]).tobytes()]
        return out

    floats = runs()
    monkeypatch.setattr(TokamakModel, "energy", HamiltonianModel.energy)
    assert runs() == floats
