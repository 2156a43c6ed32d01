"""Acceptance gate: one test per numbered shipping criterion.

Every test prints a single pass/fail line with the measured figure at the
pinned tolerance, then asserts.  Criteria 1-9 and 11 are defined in
`sympdefect.checks`, which `sympdefect selftest` runs as well; criterion
10 is defined here.  Criterion 10 additionally has a long-horizon twin
deselected by default; run it with -m fullscale (several minutes of
integration).
"""

import numpy as np
import pytest

from sympdefect import checks
from sympdefect.experiments import energy_drift_run, step_energy_defect
from sympdefect.hamiltonians import reference_initial_state
from sympdefect.integrators import Scheme, SchemeConfig


def gate(num: int, ok: bool, detail: str) -> None:
    print(checks.gate_line(num, ok, detail))
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_zero_diagonal_block():
    gate(1, *checks.criterion_01())


def test_criterion_02_skew_symmetry():
    gate(2, *checks.criterion_02())


def test_criterion_03_order_recovery():
    gate(3, *checks.criterion_03())


def test_criterion_04_closed_form_sharpness():
    gate(4, *checks.criterion_04())


def test_criterion_05_jacobian_triple_agreement():
    gate(5, *checks.criterion_05())


def test_criterion_06_volume_identity():
    gate(6, *checks.criterion_06())


def test_criterion_07_composition_block_split():
    gate(7, *checks.criterion_07())


def test_criterion_08_coordinate_swap_conjugation():
    gate(8, *checks.criterion_08())


def test_criterion_09_composition_equivalence():
    gate(9, *checks.criterion_09())


# sweeps after which the q-implicit relation is solved to round-off at h=0.25
CONVERGED_SWEEPS = 40


def _drift_classifications(tokamak, steps, stride):
    state = reference_initial_state(tokamak)
    configs = [
        SchemeConfig(Scheme.LINEAR_IMPLICIT_EM, 0.25),
        SchemeConfig(Scheme.Q_IMPLICIT, 0.25, M=2),
        SchemeConfig(Scheme.Q_IMPLICIT, 0.25, M=3),
    ]
    em, m2, m3 = energy_drift_run(tokamak, configs, state, steps, stride)
    # the energy each truncated step adds over the converged step, at the
    # states its own run sampled: the defect that the sweeps control
    converged = SchemeConfig(Scheme.Q_IMPLICIT, 0.25, M=CONVERGED_SWEEPS)
    defect_rms = [
        float(np.sqrt(np.mean(step_energy_defect(tokamak, config, converged, s.states) ** 2)))
        for config, s in zip(configs[1:], (m2, m3))
    ]
    return em, m2, m3, defect_rms


def _assert_drift_labels(num, em, m2, m3, defect_rms):
    rms2, rms3 = defect_rms
    defect_ok = rms3 < rms2
    checks = [
        (em.classification == "bounded",
         f"linear-implicit-em={em.classification} (want bounded) [{em.estimate.describe()}]"),
        (m2.classification == "drifting",
         f"q-implicit M=2={m2.classification} (want drifting) [{m2.estimate.describe()}]"),
        (True, f"q-implicit M=3={m3.classification} [{m3.estimate.describe()}]"),  # reported, not pinned
        (defect_ok,
         f"M=3 RMS per-step energy defect below M=2: {rms3:.2e} vs {rms2:.2e}: {defect_ok}"),
    ]
    ok = all(c for c, _ in checks)
    gate(num, ok, "; ".join(msg for _, msg in checks))


def test_criterion_10_energy_drift_labels(tokamak):
    em, m2, m3, defect_rms = _drift_classifications(tokamak, 300_000, 300)
    _assert_drift_labels(10, em, m2, m3, defect_rms)


@pytest.mark.fullscale
def test_criterion_10_energy_drift_labels_full_scale(tokamak):
    em, m2, m3, defect_rms = _drift_classifications(tokamak, 3_000_000, 3000)
    _assert_drift_labels(10, em, m2, m3, defect_rms)


def test_criterion_11_coupling_power_structure():
    gate(11, *checks.criterion_11())
