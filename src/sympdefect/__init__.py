"""Block-structured measurement of the symplectic defect of truncated
fixed-point-iterated symplectic Euler and Stoermer-Verlet maps."""

from .autodiff import (
    NonFiniteError,
    finite_difference_jacobian,
    jacobian,
)
from .defect import (
    DefectReport,
    analyze,
    coordinate_swap_check,
    defect_report,
    flow_jacobian_ad,
    flow_jacobian_analytic,
    flow_jacobian_fd,
    swap_coordinates,
    swap_coordinates_inverse,
)
from .experiments import (
    DefectSweep,
    DriftEstimate,
    DriftSeries,
    FitResult,
    classify_drift,
    default_h_grid,
    defect_sweep,
    energy_drift_run,
    estimate_drift,
    loglog_fit,
    step_energy_defect,
    sv_block_orders,
)
from .hamiltonians import (
    AxisSingularityError,
    CharacteristicScales,
    F_integral,
    HamiltonianModel,
    PhysicalParams,
    QuadraticModel,
    SwappedModel,
    TokamakModel,
    field_profile,
    harmonic_oscillator,
    mixed_hessian,
    quadratic_model,
    reference_initial_state,
    reference_initial_state_si,
    tokamak_model,
)
from .integrators import (
    IntegrationError,
    NonFiniteIterateError,
    Scheme,
    SchemeConfig,
    Trajectory,
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
)
from .linalg import (
    frobenius_norm,
    solve,
    symplectic_matrix,
)
from .quadratic_oracle import coupling_power, predicted_defect_blocks
from .state import PhaseState

__version__ = "0.1.0"
