import math
import subprocess
import sys

import numpy as np
import pytest

from sympdefect import experiments
from sympdefect.defect import analyze, flow_jacobians
from sympdefect.experiments import (
    classify_drift,
    default_h_grid,
    defect_sweep,
    energy_drift_run,
    estimate_drift,
    grid_report,
    loglog_fit,
    step_energy_defect,
    sv_block_orders,
)
from sympdefect.hamiltonians import reference_initial_state
from sympdefect.integrators import IntegrationError, Scheme, SchemeConfig, integrate
from sympdefect.state import NonFiniteIterateError, PhaseState


def test_loglog_fit_recovers_power_law():
    h = np.geomspace(0.01, 0.1, 8)
    fit = loglog_fit(h, 3.0 * h**2)
    assert abs(fit.slope - 2.0) <= 1e-10
    assert abs(fit.amplitude - 3.0) <= 1e-9
    assert fit.rms_residual <= 1e-12
    assert fit.points_used == 8


def test_loglog_fit_of_constant_series():
    h = np.geomspace(0.01, 0.1, 8)
    fit = loglog_fit(h, np.full(8, 0.25))
    assert abs(fit.slope) <= 1e-12


def test_loglog_fit_floor_drops_round_off_points():
    h = np.array([0.01, 0.02, 0.04, 0.08])
    v = np.array([1e-16, 1e-15, 1e-3, 1e-2])
    assert loglog_fit(h, v) is None  # only two usable points
    assert loglog_fit(h, np.full(4, 1e-16)) is None


def test_loglog_fit_validation():
    with pytest.raises(ValueError):
        loglog_fit([0.1, 0.2], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        loglog_fit([0.1, -0.2, 0.3], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        loglog_fit([0.1, 0.2, 0.3], [1.0, -2.0, 3.0])


def test_loglog_fit_needs_two_distinct_step_sizes():
    with pytest.raises(ValueError, match="two distinct step sizes"):
        loglog_fit([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])
    # the points above the floor decide, not the whole series
    with pytest.raises(ValueError, match="two distinct step sizes"):
        loglog_fit([0.1, 0.1, 0.1, 0.2], [1.0, 2.0, 3.0, 1e-16])
    assert loglog_fit([0.1, 0.1, 0.2], [1.0, 2.0, 3.0]).points_used == 3


def test_loglog_fit_is_the_least_squares_line():
    # the closed-form line against np.polyfit on noisy power laws
    rng = np.random.default_rng(20261019)
    for _ in range(200):
        count = int(rng.integers(3, 12))
        h = np.sort(rng.uniform(1e-3, 0.5, count))
        v = rng.uniform(1e-6, 10.0) * h ** rng.uniform(0.5, 6.0) * np.exp(0.1 * rng.standard_normal(count))
        fit = loglog_fit(h, v, floor=0.0)
        x, y = np.log(h), np.log(v)
        slope, intercept = np.polyfit(x, y, 1)
        assert abs(fit.slope - slope) <= 1e-12
        assert abs(math.log(fit.amplitude) - intercept) <= 1e-10
        rms = np.sqrt(np.mean((y - (slope * x + intercept)) ** 2))
        assert abs(fit.rms_residual - rms) <= 1e-12
        assert fit.points_used == count


def test_default_grid_shape():
    grid = default_h_grid()
    assert grid.size == 10
    np.testing.assert_allclose(grid[0], 0.02, rtol=1e-15)
    np.testing.assert_allclose(grid[-1], 0.2, rtol=1e-15)
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ValueError):
        default_h_grid(0.2, 0.1)
    with pytest.raises(ValueError):
        default_h_grid(0.1, 0.2, 1)


def test_defect_sweep_orders_on_quadratic_model(quad3, quad3_state):
    sweep = defect_sweep(
        quad3, Scheme.P_IMPLICIT, [1, 2, 3], default_h_grid(), quad3_state
    )
    assert len(sweep.rows) == 30
    for m in (1, 2, 3):
        # the quadratic model hits its asymptotic order exactly
        assert abs(sweep.fits[("delta", m)].slope - (m + 1)) <= 1e-6
        assert abs(sweep.fits[("alpha", m)].slope - (m + 1)) <= 1e-6
        assert abs(sweep.fits[("volume", m)].slope - (m + 1)) <= 0.4


def test_defect_sweep_takes_only_integer_sweep_counts(quad3, quad3_state):
    # a float or a bool is not truncated to a count: [2.7, True] would run M = 2 and M = 1
    for bad in (2.7, True, 0):
        with pytest.raises(ValueError, match="M must be an integer >= 1"):
            defect_sweep(quad3, Scheme.P_IMPLICIT, [1, bad], default_h_grid(count=4), quad3_state)
    rows = defect_sweep(quad3, Scheme.P_IMPLICIT, [np.int64(2)], default_h_grid(count=4), quad3_state).rows
    assert all(type(row["M"]) is int and row["M"] == 2 for row in rows)


def test_defect_sweep_parallel_jobs_match_serial(quad3, quad3_state):
    hs = default_h_grid(count=4)
    serial = defect_sweep(quad3, Scheme.P_IMPLICIT, [1], hs, quad3_state, jobs=1)
    parallel = defect_sweep(quad3, Scheme.P_IMPLICIT, [1], hs, quad3_state, jobs=2)
    for a, b in zip(serial.rows, parallel.rows):
        assert a == b


def test_package_import_leaves_the_process_pool_unloaded():
    # defect_sweep imports the pool only when it runs with jobs > 1
    code = "import sys, sympdefect; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


# quad17: an odd N >= 17, where a batched complex-step pass runs GEMMs of another shape
@pytest.mark.parametrize("name", ["tokamak", "quad3", "oscillator", "quad17"])
def test_sweep_rows_are_per_point_reports(request, name):
    model, state = request.getfixturevalue(name), request.getfixturevalue(f"{name}_state")
    grid = default_h_grid(count=4)
    schemes = [Scheme.P_IMPLICIT, Scheme.Q_IMPLICIT]
    schemes += [Scheme.LINEAR_IMPLICIT_EM] if name == "tokamak" else [Scheme.EXACT_QUADRATIC_Q]
    for scheme in schemes:
        for row in defect_sweep(model, scheme, [1, 3], grid, state).rows:
            rep = analyze(model, SchemeConfig(scheme, row["h"], M=row["M"]), state)
            assert row == {
                "scheme": scheme.value, "M": row["M"], "M1": None, "M2": None, "h": row["h"],
                "delta": rep.delta, "alpha": rep.alpha, "skew_residual": rep.skew_residual,
                "det_flow": rep.det_flow, "det_antidiag": rep.det_antidiag,
                "discrepancy": rep.volume_gap, "volume_defect": rep.volume_defect,
            }
    for scheme in (Scheme.SV_PQ, Scheme.SV_QP):
        for m1, m2 in ((2, 1), (1, 3), (2, 2), (3, 2)):
            rows, _ = sv_block_orders(model, scheme, m1, m2, grid, state)
            assert [r["h"] for r in rows] == list(grid)
            for row in rows:
                rep = analyze(model, SchemeConfig(scheme, row["h"], M1=m1, M2=m2), state)
                assert row == {"h": row["h"], **rep.deviations}
    with pytest.raises(ValueError, match="no points"):
        defect_sweep(model, Scheme.P_IMPLICIT, [], grid, state)


def test_grid_report_rejects_a_grid_that_mixes_schemes(tokamak, tokamak_state):
    configs = [SchemeConfig(Scheme.P_IMPLICIT, 0.1, M=1), SchemeConfig(Scheme.Q_IMPLICIT, 0.1, M=1)]
    with pytest.raises(ValueError, match="one scheme"):
        grid_report(tokamak, configs, tokamak_state)


def test_grid_report_runs_one_pass_per_count_group(monkeypatch, tokamak, tokamak_state):
    # a pass is one flow_jacobians call: one kernel run per config, or one complex-step pass
    passes = []

    def counting(model, configs, state):
        passes.append(len(configs))
        return flow_jacobians(model, configs, state)

    monkeypatch.setattr(experiments, "flow_jacobians", counting)
    grid = default_h_grid()
    sv_block_orders(tokamak, Scheme.SV_PQ, 1, 3, grid, tokamak_state)
    assert passes == [10]
    passes.clear()
    defect_sweep(tokamak, Scheme.Q_IMPLICIT, [1, 2, 3], grid, tokamak_state)
    assert passes == [10, 10, 10]
    # the rows follow the configs, whatever order their counts come in
    configs = [SchemeConfig(Scheme.Q_IMPLICIT, h, M=m) for h, m in ((0.1, 2), (0.05, 1), (0.2, 2))]
    passes.clear()
    report = grid_report(tokamak, configs, tokamak_state)
    assert passes == [2, 1]
    for row, config in zip(report.structure, configs):
        assert np.array_equal(row, analyze(tokamak, config, tokamak_state).structure)


def test_defect_sweep_of_exact_map_has_no_fittable_signal(quad3, quad3_state):
    sweep = defect_sweep(quad3, Scheme.EXACT_QUADRATIC_P, [], default_h_grid(), quad3_state)
    assert all(row["M"] is None for row in sweep.rows)
    assert all(row["delta"] <= 1e-13 for row in sweep.rows)
    assert sweep.fits[("delta", None)] is None
    assert sweep.fits[("alpha", None)] is None


def test_composition_block_orders(quad3, quad3_state):
    rows, fits = sv_block_orders(
        quad3, Scheme.SV_PQ, 1, 3, default_h_grid(), quad3_state
    )
    assert len(rows) == 10
    assert 1.6 <= fits["P11"].slope <= 2.4
    assert 1.6 <= fits["P12"].slope <= 2.4
    assert 1.6 <= fits["P21"].slope <= 2.4
    assert 3.6 <= fits["P22"].slope <= 4.4
    # mirrored composition order: the deep block moves to the other corner
    _, mirror = sv_block_orders(
        quad3, Scheme.SV_QP, 1, 3, default_h_grid(), quad3_state
    )
    assert 3.6 <= mirror["P11"].slope <= 4.4
    assert 1.6 <= mirror["P22"].slope <= 2.4


def test_balanced_composition_block_orders(quad3, quad3_state):
    _, fits = sv_block_orders(
        quad3, Scheme.SV_PQ, 2, 2, default_h_grid(), quad3_state
    )
    assert 2.8 <= fits["P11"].slope <= 3.6
    assert 2.8 <= fits["P22"].slope <= 3.6
    assert 3.8 <= fits["P12"].slope <= 4.5
    assert 3.8 <= fits["P21"].slope <= 4.5


def test_block_orders_reject_one_sided_schemes(quad3, quad3_state):
    with pytest.raises(ValueError):
        sv_block_orders(quad3, Scheme.P_IMPLICIT, 1, 1, default_h_grid(), quad3_state)


@pytest.mark.parametrize("scheme", [Scheme.SV_PQ, Scheme.SV_QP])
def test_defect_sweep_points_compositions_to_block_orders(scheme, quad3, quad3_state):
    with pytest.raises(ValueError, match=f"{scheme.value} is a composition.*sv_block_orders"):
        defect_sweep(quad3, scheme, [1], default_h_grid(), quad3_state)


def test_classify_flat_series_as_bounded():
    assert classify_drift(np.full(200, 1.0)) == "bounded"
    assert classify_drift(np.zeros(200)) == "bounded"


def test_classify_strong_growth_as_drifting():
    assert classify_drift(np.linspace(0.01, 1.0, 200)) == "drifting"


def test_classify_moderate_growth_as_indeterminate():
    # late tripling: too much for bounded, too little for drifting
    e = np.concatenate([np.full(120, 1.0), np.full(80, 3.0)])
    assert classify_drift(e) == "indeterminate"


def test_classify_short_series_as_indeterminate():
    assert classify_drift(np.ones(10)) == "indeterminate"


def test_classify_burn_in_discards_initial_transient():
    e = np.concatenate(([1e3], np.linspace(1.0, 100.0, 199)))
    assert classify_drift(e) == "drifting"


def test_classify_validation():
    with pytest.raises(ValueError):
        classify_drift(np.empty(0))
    with pytest.raises(ValueError):
        classify_drift(np.ones((3, 3)))


def test_drift_run_on_stable_composition(oscillator, oscillator_state):
    config = SchemeConfig(Scheme.SV_PQ, 0.1, M1=1, M2=1)
    (series,) = energy_drift_run(oscillator, [config], oscillator_state, steps=2000, stride=10)
    assert series.classification == "bounded"
    assert not series.blown_up
    assert series.label == "sv-pq"
    assert series.errors[0] == 0.0
    assert series.step_indices[0] == 0 and series.step_indices[-1] == 2000
    np.testing.assert_allclose(series.times, 0.1 * series.step_indices, rtol=1e-15)


def test_drift_run_flags_blow_up(oscillator, oscillator_state):
    # far beyond the stability limit the energy error passes 1e3 |H0| fast
    config = SchemeConfig(Scheme.P_IMPLICIT, 2.5, M=1)
    (series,) = energy_drift_run(oscillator, [config], oscillator_state, steps=200, stride=1)
    assert series.blown_up
    assert len(series.errors) < 201
    assert series.label == "p-implicit[M=1]"


def test_drift_label_ignores_a_count_the_scheme_does_not_take(tokamak, tokamak_state):
    config = SchemeConfig(Scheme.LINEAR_IMPLICIT_EM, 0.25, M=7)
    (series,) = energy_drift_run(tokamak, [config], tokamak_state, steps=20, stride=5)
    assert series.m is None
    assert series.label == "linear-implicit-em"


def test_drift_run_validation(oscillator, oscillator_state):
    config = SchemeConfig(Scheme.SV_PQ, 0.1, M1=1, M2=1)
    with pytest.raises(ValueError):
        energy_drift_run(oscillator, [config], oscillator_state, steps=0, stride=1)
    with pytest.raises(ValueError):
        energy_drift_run(oscillator, [config], oscillator_state, steps=10, stride=0)
    # a float count is refused with integrate's ValueError, not range()'s TypeError
    with pytest.raises(ValueError, match="steps must be an integer"):
        energy_drift_run(oscillator, [config], oscillator_state, steps=2.5, stride=1)
    with pytest.raises(ValueError, match="stride must be an integer"):
        energy_drift_run(oscillator, [config], oscillator_state, steps=10, stride=2.0)


def test_drift_run_reports_a_failing_sampled_energy_at_its_step(tokamak, tokamak_state):
    # step 2262 of this orbit succeeds; the energy sampled there is the
    # first field evaluation to overflow, as in integrate at stride 1
    config = SchemeConfig(Scheme.P_IMPLICIT, 0.25, M=1)
    with pytest.raises(IntegrationError, match="failed at step 2262: field flux overflows") as err:
        energy_drift_run(tokamak, [config], tokamak_state, steps=2262, stride=2262)
    assert err.value.step_index == 2262
    assert isinstance(err.value.__cause__, NonFiniteIterateError)


SYNTHETIC_T = np.linspace(0.0, 1000.0, 1001)
SYNTHETIC_STEPS = 300_000


def test_estimate_resolves_a_ramp_under_the_oscillation():
    # the ramp ends at half the oscillation amplitude, so |signed| stays
    # dominated by the oscillation: the case the ratio rules miss
    signed = np.sin(SYNTHETIC_T) + 0.5 * SYNTHETIC_T / SYNTHETIC_T[-1]
    est = estimate_drift(SYNTHETIC_T, signed, SYNTHETIC_STEPS, 1.0)
    assert est.resolved
    assert abs(est.secular_change - 0.5) <= 0.05
    assert 0.9 <= est.oscillation <= 1.1
    assert classify_drift(np.abs(signed)) != "drifting"


def test_estimate_does_not_resolve_a_pure_oscillation():
    est = estimate_drift(SYNTHETIC_T, np.sin(SYNTHETIC_T), SYNTHETIC_STEPS, 1.0)
    assert not est.resolved
    assert est.sigmas < 5.0


def test_estimate_does_not_resolve_a_round_off_level_change():
    # a noise-free ramp has zero slope error, so only the round-off walk
    # sqrt(steps) * eps * |H0| keeps it from counting as drift
    walk = np.sqrt(SYNTHETIC_STEPS) * np.finfo(float).eps
    ramp = SYNTHETIC_T / SYNTHETIC_T[-1]
    below = estimate_drift(SYNTHETIC_T, 0.5 * walk * ramp, SYNTHETIC_STEPS, 1.0)
    assert below.sigmas > 5.0 and not below.resolved
    above = estimate_drift(SYNTHETIC_T, 2.0 * walk * ramp, SYNTHETIC_STEPS, 1.0)
    assert above.resolved


def test_estimate_needs_enough_finite_samples():
    assert estimate_drift(SYNTHETIC_T[:20], np.zeros(20), 20, 1.0) is None
    signed = np.zeros(SYNTHETIC_T.size)
    signed[-1] = np.inf
    assert estimate_drift(SYNTHETIC_T, signed, SYNTHETIC_STEPS, 1.0) is None
    with pytest.raises(ValueError):
        estimate_drift(SYNTHETIC_T, np.zeros(3), SYNTHETIC_STEPS, 1.0)


def test_drift_run_keeps_signed_errors_and_states(tokamak):
    state = reference_initial_state(tokamak)
    config = SchemeConfig(Scheme.Q_IMPLICIT, 0.25, M=2)
    (series,) = energy_drift_run(tokamak, [config], state, steps=300, stride=7)
    assert np.array_equal(np.abs(series.signed_errors), series.errors)
    assert np.array_equal(series.signed_errors, np.array(
        [tokamak.energy(z) - tokamak.energy(state) for z in series.states]))
    traj = integrate(tokamak, config, state, 300, 7)
    assert np.array_equal(np.array([z.to_vector() for z in series.states]), traj.states)
    assert series.estimate is not None


def test_step_energy_defect_against_itself_is_zero(tokamak):
    state = reference_initial_state(tokamak)
    config = SchemeConfig(Scheme.Q_IMPLICIT, 0.25, M=2)
    (series,) = energy_drift_run(tokamak, [config], state, steps=20, stride=5)
    assert np.array_equal(step_energy_defect(tokamak, config, config, series.states), np.zeros(5))
    converged = SchemeConfig(Scheme.Q_IMPLICIT, 0.25, M=40)
    assert np.all(step_energy_defect(tokamak, config, converged, series.states) != 0.0)


@pytest.mark.slow
def test_truncation_drift_scales_with_the_window(tokamak):
    # in the linear-growth regime, doubling the integration window roughly
    # doubles the late-time energy error (takes ~15 s)
    state = reference_initial_state(tokamak)
    config = SchemeConfig(Scheme.Q_IMPLICIT, 0.5, M=2)
    (series,) = energy_drift_run(tokamak, [config], state, steps=350_000, stride=350)
    e = series.errors

    def late_mean(arr):
        body = arr[max(1, int(np.ceil(0.01 * arr.size))):]
        dec = max(1, body.size // 10)
        return float(np.mean(body[-dec:]))

    ratio = late_mean(e) / late_mean(e[: e.size // 2])
    assert 1.5 <= ratio <= 3.0
