import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympdefect.defect import (
    analyze,
    coordinate_swap_check,
    defect_report,
    flow_jacobian_ad,
    flow_jacobian_analytic,
    flow_jacobian_fd,
    swap_coordinates,
    swap_coordinates_inverse,
)
from sympdefect.hamiltonians import QuadraticModel, mixed_hessian
from sympdefect.integrators import Scheme, SchemeConfig, step_p_implicit
from sympdefect.linalg import symplectic_matrix
from sympdefect.state import PhaseState


def test_swap_roundtrips_bitwise(quad3_state):
    back = swap_coordinates_inverse(swap_coordinates(quad3_state))
    assert np.array_equal(back.to_vector(), quad3_state.to_vector())
    forth = swap_coordinates(swap_coordinates_inverse(quad3_state))
    assert np.array_equal(forth.to_vector(), quad3_state.to_vector())


def test_swap_is_the_structure_rotation(quad3_state):
    # the swap acts on flat vectors as the transposed structure matrix
    j = symplectic_matrix(3)
    swapped = swap_coordinates(quad3_state).to_vector()
    assert np.array_equal(swapped, j.T @ quad3_state.to_vector())


def test_delta_block_assignment_is_the_explicit_side(quad3, quad3_state, tokamak, tokamak_state):
    cases = [
        (SchemeConfig(Scheme.P_IMPLICIT, 0.1, M=1), "q"),
        (SchemeConfig(Scheme.Q_IMPLICIT, 0.1, M=1), "p"),
        (SchemeConfig(Scheme.SV_PQ, 0.1, M1=1, M2=1), "p"),
        (SchemeConfig(Scheme.SV_QP, 0.1, M1=1, M2=1), "q"),
        (SchemeConfig(Scheme.LINEAR_IMPLICIT_EM, 0.1), "q"),
        (SchemeConfig(Scheme.EXACT_QUADRATIC_P, 0.1), "q"),
        (SchemeConfig(Scheme.EXACT_QUADRATIC_Q, 0.1), "p"),
    ]
    for config, block in cases:
        model, state = (
            (tokamak, tokamak_state)
            if config.scheme is Scheme.LINEAR_IMPLICIT_EM else (quad3, quad3_state)
        )
        assert config.scheme.implicit_side != block
        assert analyze(model, config, state).delta_block == block


def test_report_of_identity_flow():
    rep = defect_report(np.eye(6), "q")
    assert np.array_equal(rep.structure, symplectic_matrix(3))
    assert rep.delta == 0.0
    assert rep.alpha == 0.0
    assert rep.skew_residual == 0.0
    assert rep.det_flow == 1.0
    assert rep.det_antidiag == 1.0
    assert rep.volume_gap == 0.0
    assert rep.volume_defect == 0.0


def test_report_blocks_tile_the_structure(tokamak, tokamak_state):
    config = SchemeConfig(Scheme.P_IMPLICIT, 0.1, M=2)
    dflow = flow_jacobian_ad(tokamak, config, tokamak_state)
    rep = defect_report(dflow, "q")
    s = rep.structure
    assert np.array_equal(rep.diag_q, s[:3, :3])
    assert np.array_equal(rep.diag_p, s[3:, 3:])
    assert np.array_equal(rep.antidiag, s[:3, 3:])
    assert rep.delta == rep.diag_q_norm
    assert rep.diag_p_norm <= 1e-16


def test_report_deviations_measure_each_block_from_its_target(tokamak, tokamak_state):
    config = SchemeConfig(Scheme.SV_PQ, 0.1, M1=1, M2=3)
    rep = defect_report(flow_jacobian_ad(tokamak, config, tokamak_state), "p")
    dev = rep.deviations
    assert list(dev) == ["P11", "P12", "P21", "P22"]
    assert dev["P12"] == rep.alpha
    assert dev["P11"] == rep.diag_q_norm
    assert dev["P22"] == rep.diag_p_norm
    assert dev["P21"] == np.linalg.norm(rep.structure[3:, :3] + np.eye(3))
    ident = defect_report(np.eye(6)).deviations
    assert ident == {"P11": 0.0, "P12": 0.0, "P21": 0.0, "P22": 0.0}


def test_report_validation():
    with pytest.raises(ValueError, match="even size"):
        defect_report(np.eye(5))
    with pytest.raises(ValueError, match="even size"):
        defect_report(np.stack([np.eye(5)] * 2))
    with pytest.raises(ValueError, match="square"):
        defect_report(np.ones((2, 4, 6)))
    with pytest.raises(ValueError):
        defect_report(np.eye(4), "x")
    stack = np.stack([np.eye(4)] * 3)
    stack[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        defect_report(stack)


# every scheme over a small grid, on each model that supports it
SCHEME_GRIDS = {
    scheme: [
        SchemeConfig(scheme, h, M=m, M1=1, M2=m)
        for m in ((1, 3) if scheme.counts else (1,))
        for h in (0.02, 0.07, 0.2)
    ]
    for scheme in Scheme
}
SCHEME_MODELS = {
    Scheme.LINEAR_IMPLICIT_EM: ["tokamak"],
    Scheme.EXACT_QUADRATIC_P: ["quad3", "oscillator"],
    Scheme.EXACT_QUADRATIC_Q: ["quad3", "oscillator"],
}
REPORT_FIGURES = (
    "structure", "diag_q", "diag_p", "antidiag", "delta", "alpha", "skew_residual",
    "det_flow", "det_antidiag", "diag_q_norm", "diag_p_norm", "volume_gap", "volume_defect",
)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_stacked_report_is_each_report(request, scheme):
    for name in SCHEME_MODELS.get(scheme, ["tokamak", "quad3", "oscillator"]):
        model, state = request.getfixturevalue(name), request.getfixturevalue(f"{name}_state")
        dflows = np.array([flow_jacobian_ad(model, c, state) for c in SCHEME_GRIDS[scheme]])
        stacked = defect_report(dflows, scheme.explicit_side)
        assert stacked.delta.shape == (len(dflows),)
        n = model.dim
        for k, dflow in enumerate(dflows):
            one = defect_report(dflow, scheme.explicit_side)
            for figure in REPORT_FIGURES:
                assert np.array_equal(getattr(stacked, figure)[k], getattr(one, figure)), figure
            for block, value in one.deviations.items():
                assert np.array_equal(stacked.deviations[block][k], value), block
            # one matrix's figures are bitwise numpy's own forms
            s = one.structure
            assert np.array_equal(s, dflow.T @ symplectic_matrix(n) @ dflow)
            assert one.diag_q_norm == np.linalg.norm(s[:n, :n])
            assert one.diag_p_norm == np.linalg.norm(s[n:, n:])
            assert one.alpha == np.linalg.norm(s[:n, n:] - np.eye(n))
            assert one.skew_residual == np.linalg.norm(s + s.T)
            assert one.det_flow == np.linalg.det(dflow)
            assert one.det_antidiag == np.linalg.det(s[:n, n:])


def test_exactly_solved_step_preserves_structure(quad3, quad3_state):
    j = symplectic_matrix(3)
    for scheme in (Scheme.EXACT_QUADRATIC_P, Scheme.EXACT_QUADRATIC_Q):
        config = SchemeConfig(scheme, 0.1)
        rep = analyze(quad3, config, quad3_state)
        assert np.max(np.abs(rep.structure - j)) <= 1e-13
        assert rep.delta <= 1e-13


def test_separable_sweeps_preserve_structure(oscillator, oscillator_state):
    # separable gradients converge in one sweep, so the map is symplectic
    config = SchemeConfig(Scheme.P_IMPLICIT, 0.2, M=3)
    rep = analyze(oscillator, config, oscillator_state)
    assert np.max(np.abs(rep.structure - symplectic_matrix(1))) <= 1e-15


@pytest.mark.parametrize("scheme", [Scheme.P_IMPLICIT, Scheme.Q_IMPLICIT])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_jacobian_routes_agree(quad3, quad3_state, tokamak, tokamak_state, scheme, m):
    config = SchemeConfig(scheme, 0.1, M=m)
    for model, state in ((quad3, quad3_state), (tokamak, tokamak_state)):
        ad = flow_jacobian_ad(model, config, state)
        assert np.max(np.abs(ad - flow_jacobian_analytic(model, config, state))) <= 1e-14
        assert np.max(np.abs(ad - flow_jacobian_fd(model, config, state))) <= 1e-8


def test_analytic_route_rejects_compositions(quad3, quad3_state):
    with pytest.raises(ValueError):
        flow_jacobian_analytic(quad3, SchemeConfig(Scheme.SV_PQ, 0.1, M1=1, M2=1), quad3_state)


def test_analytic_momentum_block_is_coupling_polynomial(quad3, quad3_state):
    # for the quadratic model dp~/dp collapses to sum_n (-h C)^n
    h = 0.1
    c = mixed_hessian(3)
    one = flow_jacobian_analytic(quad3, SchemeConfig(Scheme.P_IMPLICIT, h, M=1), quad3_state)
    assert np.array_equal(one[3:, 3:], np.eye(3) - h * c)
    acc = np.zeros((3, 3))
    cpow = np.eye(3)
    for _ in range(4):
        acc = acc + cpow
        cpow = (-h) * (cpow @ c)
    three = flow_jacobian_analytic(quad3, SchemeConfig(Scheme.P_IMPLICIT, h, M=3), quad3_state)
    assert np.array_equal(three[3:, 3:], acc)


def test_tokamak_structure_blocks_at_reference_point(tokamak, tokamak_state):
    # q-implicit, M = 3, h = 0.1: the implicit-side diagonal block sits at
    # round-off while the other blocks deviate at the truncation order
    config = SchemeConfig(Scheme.Q_IMPLICIT, 0.1, M=3)
    rep = analyze(tokamak, config, tokamak_state)
    assert rep.delta_block == "p"
    assert np.max(np.abs(rep.diag_q)) <= 1e-16
    assert 0.0 < rep.delta <= 1e-9
    assert np.max(np.abs(np.diag(rep.antidiag) - 1.0)) <= 5e-9
    assert rep.skew_residual <= 1e-14


def test_volume_defect_routes_through_antidiagonal_determinant(tokamak, tokamak_state):
    config = SchemeConfig(Scheme.Q_IMPLICIT, 0.1, M=2)
    rep = analyze(tokamak, config, tokamak_state)
    assert rep.volume_gap <= 1e-12
    assert rep.volume_defect > 1e-10  # genuinely non-volume-preserving


def test_composition_jacobian_is_product_of_halves(tokamak, tokamak_state):
    config = SchemeConfig(Scheme.SV_PQ, 0.1, M1=1, M2=3)
    full = flow_jacobian_ad(tokamak, config, tokamak_state)
    first = flow_jacobian_ad(
        tokamak, SchemeConfig(Scheme.P_IMPLICIT, 0.05, M=1), tokamak_state
    )
    half_state = step_p_implicit(tokamak, tokamak_state, 0.05, 1)
    second = flow_jacobian_ad(
        tokamak, SchemeConfig(Scheme.Q_IMPLICIT, 0.05, M=3), half_state
    )
    np.testing.assert_allclose(full, second @ first, rtol=0, atol=1e-12 * np.max(np.abs(full)))


def test_swap_conjugation_is_exact(tokamak, tokamak_state, quad3, quad3_state):
    assert coordinate_swap_check(tokamak, 0.0, 2, tokamak_state) == 0.0
    assert coordinate_swap_check(tokamak, 0.05, 2, tokamak_state) == 0.0
    assert coordinate_swap_check(quad3, 0.1, 3, quad3_state) == 0.0


def test_fd_route_respects_custom_step(quad3, quad3_state):
    config = SchemeConfig(Scheme.P_IMPLICIT, 0.1, M=1)
    coarse = flow_jacobian_fd(quad3, config, quad3_state, step=1e-3)
    fine = flow_jacobian_fd(quad3, config, quad3_state, step=1e-6)
    exact = flow_jacobian_analytic(quad3, config, quad3_state)
    # the map is quadratic in the state only through H, here linear: both agree
    assert np.max(np.abs(coarse - exact)) <= 1e-9
    assert np.max(np.abs(fine - exact)) <= 1e-9


@pytest.mark.parametrize("h", [0.05, 0.25])
def test_linear_implicit_ad_matches_finite_differences(tokamak, tokamak_state, h):
    # AD runs through the tangent rule of the linear solve
    config = SchemeConfig(Scheme.LINEAR_IMPLICIT_EM, h)
    ad = flow_jacobian_ad(tokamak, config, tokamak_state)
    fd = flow_jacobian_fd(tokamak, config, tokamak_state)
    assert np.linalg.norm(ad - fd) / np.linalg.norm(ad) <= 1e-5


@pytest.mark.parametrize("side", ["p", "q"])
@pytest.mark.parametrize("h", [0.05, 0.25])
def test_exact_quadratic_ad_matches_closed_form(quad3, quad3_state, side, h):
    n = 3
    c = mixed_hessian(n)
    eye = np.eye(n)
    if side == "p":
        # p~ = (I + hC)^-1 (p - h q),  q~ = q + h (p~ + C^T q)
        inv = np.linalg.inv(eye + h * c)
        dp = np.hstack([-h * inv, inv])
        dq = np.hstack([eye + h * c.T, np.zeros((n, n))]) + h * dp
    else:
        # q~ = (I - hC^T)^-1 (q + h p),  p~ = p - h (q~ + C p)
        inv = np.linalg.inv(eye - h * c.T)
        dq = np.hstack([inv, h * inv])
        dp = np.hstack([np.zeros((n, n)), eye - h * c]) - h * dq
    exact = np.vstack([dq, dp])
    config = SchemeConfig(Scheme(f"exact-quadratic-{side}"), h)
    ad = flow_jacobian_ad(quad3, config, quad3_state)
    assert np.max(np.abs(ad - exact)) <= 1e-13


@st.composite
def quadratic_cases(draw):
    """A coupling C of size 1-6, a state, a step and a sweep count."""
    n = draw(st.integers(1, 6))
    coupling = draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n))
    z = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n))
    h = 10.0 ** draw(st.floats(-2.5, -0.5))
    m = draw(st.integers(1, 4))
    state = PhaseState.from_vector(np.array(z))
    return QuadraticModel(np.reshape(coupling, (n, n))), state, h, m


@settings(derandomize=True, max_examples=200, deadline=None)
@given(quadratic_cases())
def test_structure_identities_hold_for_any_coupling(case):
    model, state, h, m = case
    for scheme in (Scheme.P_IMPLICIT, Scheme.Q_IMPLICIT):
        rep = analyze(model, SchemeConfig(scheme, h, M=m), state)
        scale = np.linalg.norm(rep.structure)
        implicit_block = rep.diag_p if scheme.implicit_side == "p" else rep.diag_q
        assert np.linalg.norm(implicit_block) / scale <= 1e-12
        assert rep.skew_residual / scale <= 1e-12
        assert rep.volume_gap / abs(rep.det_antidiag) <= 1e-12
    assert coordinate_swap_check(model, h, m, state) <= 1e-12
    j = symplectic_matrix(model.dim)
    for scheme in (Scheme.EXACT_QUADRATIC_P, Scheme.EXACT_QUADRATIC_Q):
        rep = analyze(model, SchemeConfig(scheme, h), state)
        assert np.linalg.norm(rep.structure - j) / np.linalg.norm(rep.structure) <= 1e-12
