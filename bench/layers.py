"""Which library functions the traced run wraps, and the per-layer metrics
computed from their spans.

Layers are the package modules.  Every public function and public method
of a package class is wrapped, plus ``PhaseState.__init__`` (to count
constructions) and ``cli._write_csv`` (to time CSV output).  The dual
number class and the registered AD primitive are left unwrapped: their
methods are per-scalar arithmetic and count as part of the calling span.

Counts and self times are given per round of the workload, so they do
not depend on how many rounds ran; timings are medians over all calls.
A metric whose layer did not run on the workload reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from spans import END, NAME, PARENT, START, TAG, self_times, summarize

MODULES = (
    "state", "linalg", "autodiff", "hamiltonians", "integrators",
    "defect", "experiments", "quadratic_oracle", "cli",
)
STEP_SCHEMES = ("p_implicit", "q_implicit", "sv_pq", "sv_qp", "linear_implicit_em")
CLI_COMMANDS = (
    "trajectory", "defect_sweep", "volume", "sv_orders", "optimality", "jtilde", "energy_drift",
)
JACOBIAN_WIDTHS = (6, 16, 32, 64)

ALSO_WRAPPED = {"cli._write_csv", "state.PhaseState.__init__"}
NOT_WRAPPED_CLASSES = ("autodiff.Dual.", "autodiff.CustomPrimitive.")

PJ = "hamiltonians.TokamakModel.potential_and_jacobian"


def _kind(array) -> str:
    return "dual" if np.asarray(array).dtype == object else "float"


# Span tags: whether a call ran on floats or on dual numbers, and the
# gradient width of an AD Jacobian.
TAGS = {
    PJ: lambda a: _kind(a[1]),
    "integrators.one_step": lambda a: _kind(a[2].q),
    "autodiff.jacobian": lambda a: f"w{np.size(a[1])}",
    **{f"integrators.step_{s}": (lambda a: _kind(a[1].q)) for s in STEP_SCHEMES},
}


def select(qualified: str, attribute: str) -> bool:
    """The wrapping rule described in the module docstring."""
    if qualified in ALSO_WRAPPED:
        return True
    if attribute.startswith("_") or qualified.startswith(NOT_WRAPPED_CLASSES):
        return False
    return True


def _per_layer_definitions() -> list[tuple[str, str]]:
    out = []
    for module in MODULES:
        out += [(f"{module}.self_s", "s/round"), (f"{module}.calls", "count/round")]
    out += [
        ("hamiltonians.F_integral.calls", "count/round"),
        ("hamiltonians.F_integral.us_p50", "us"),
        ("hamiltonians.field_memo_hit_ratio", "ratio"),
        (f"{PJ}.self_us_p50", "us"),
        ("hamiltonians.TokamakModel.grad_q.calls", "count/round"),
        ("hamiltonians.TokamakModel.grad_p.calls", "count/round"),
    ]
    for scheme in STEP_SCHEMES:
        out += [(f"integrators.step_{scheme}.us_p50", "us"),
                (f"integrators.step_{scheme}.self_us_p50", "us")]
    out += [
        ("integrators.integrate.self_s", "s/round"),
        ("integrators.divergence_step", "count"),
        ("integrators.runtime_warnings", "count/round"),
        ("state.PhaseState.constructed_per_step", "ratio"),
        ("experiments.energy_drift_run.self_s", "s/round"),
    ]
    out += [(f"autodiff.jacobian.us_p50.w{w}", "us") for w in JACOBIAN_WIDTHS]
    out += [
        ("autodiff.jacobian.self_us_p50", "us"),
        ("autodiff.finite_difference_jacobian.us_p50", "us"),
        ("linalg.lu_solve.calls", "count/round"),
        ("linalg.lu_solve.us_p50", "us"),
        ("linalg.mat_pow.us_p50", "us"),
        ("linalg.determinant.us_p50", "us"),
        ("defect.flow_jacobian_ad.us_p50", "us"),
        ("defect.flow_jacobian_analytic.us_p50", "us"),
        ("defect.flow_jacobian_fd.us_p50", "us"),
        ("defect.defect_report.self_us_p50", "us"),
        ("quadratic_oracle.coupling_power.us_p50", "us"),
        ("quadratic_oracle.predicted_defect_blocks.us_p50", "us"),
        ("experiments.loglog_fit.us_p50", "us"),
        ("experiments.defect_sweep.pool_speedup", "ratio"),
    ]
    out += [(f"cli.{command}.s", "s") for command in CLI_COMMANDS]
    out += [
        ("cli.csv_bytes", "bytes/round"),
        ("cli.csv_mb_per_s", "MB/s"),
        ("trace.span_cost_us", "us"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


PER_LAYER = _per_layer_definitions()


def _median(values: list[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans: list[list], rounds: int, extras: dict) -> dict[str, float]:
    """Every PER_LAYER metric from the spans of `rounds` traced rounds.

    `extras` supplies the figures that do not come from spans; any metric
    missing from both reads 0.
    """
    selfs = self_times(spans)
    index: dict[str, list[int]] = defaultdict(list)
    module_self: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        index[span[NAME]].append(i)
        module_self[span[NAME].split(".", 1)[0]] += selfs[i]

    def ids(name, tag=None):
        return [i for i in index.get(name, ()) if tag is None or spans[i][TAG] == tag]

    def durations(name, tag=None):
        return [spans[i][END] - spans[i][START] for i in ids(name, tag)]

    def self_of(name, tag=None):
        return [selfs[i] for i in ids(name, tag)]

    def per_round(value):
        return value / rounds

    m: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for module in MODULES:
        m[f"{module}.self_s"] = per_round(module_self.get(module, 0.0))
        m[f"{module}.calls"] = per_round(
            sum(len(v) for k, v in index.items() if k.split(".", 1)[0] == module)
        )

    f_calls = ids("hamiltonians.F_integral")
    m["hamiltonians.F_integral.calls"] = per_round(len(f_calls))
    m["hamiltonians.F_integral.us_p50"] = _median(durations("hamiltonians.F_integral"), 1e6)
    float_pj = set(ids(PJ, "float"))
    if float_pj:
        fresh = sum(1 for i in f_calls if spans[i][PARENT] in float_pj)
        m["hamiltonians.field_memo_hit_ratio"] = 1.0 - fresh / len(float_pj)
    m[f"{PJ}.self_us_p50"] = _median(self_of(PJ), 1e6)
    for grad in ("grad_q", "grad_p"):
        m[f"hamiltonians.TokamakModel.{grad}.calls"] = per_round(
            len(ids(f"hamiltonians.TokamakModel.{grad}"))
        )

    for scheme in STEP_SCHEMES:
        name = f"integrators.step_{scheme}"
        m[f"{name}.us_p50"] = _median(durations(name, "float"), 1e6)
        m[f"{name}.self_us_p50"] = _median(self_of(name, "float"), 1e6)
    m["integrators.integrate.self_s"] = per_round(sum(self_of("integrators.integrate")))
    steps = len(ids("integrators.one_step"))
    if steps:
        m["state.PhaseState.constructed_per_step"] = len(ids("state.PhaseState.__init__")) / steps
    m["experiments.energy_drift_run.self_s"] = per_round(sum(self_of("experiments.energy_drift_run")))

    for width in JACOBIAN_WIDTHS:
        m[f"autodiff.jacobian.us_p50.w{width}"] = _median(durations("autodiff.jacobian", f"w{width}"), 1e6)
    m["autodiff.jacobian.self_us_p50"] = _median(self_of("autodiff.jacobian"), 1e6)
    m["autodiff.finite_difference_jacobian.us_p50"] = _median(
        durations("autodiff.finite_difference_jacobian"), 1e6
    )
    m["linalg.lu_solve.calls"] = per_round(len(ids("linalg.lu_solve")))
    for name in ("linalg.lu_solve", "linalg.mat_pow", "linalg.determinant",
                 "defect.flow_jacobian_ad", "defect.flow_jacobian_analytic", "defect.flow_jacobian_fd",
                 "quadratic_oracle.coupling_power", "quadratic_oracle.predicted_defect_blocks",
                 "experiments.loglog_fit"):
        m[f"{name}.us_p50"] = _median(durations(name), 1e6)
    m["defect.defect_report.self_us_p50"] = _median(self_of("defect.defect_report"), 1e6)

    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = _median(durations(f"cli.cmd_{command}"))
    csv_seconds = sum(durations("cli._write_csv"))
    if csv_seconds and extras.get("cli.csv_bytes"):
        m["cli.csv_mb_per_s"] = extras["cli.csv_bytes"] * rounds / csv_seconds / 1e6

    for name, value in extras.items():
        if name in m:
            m[name] = float(value)
    return m


def span_summary(spans: list[list]) -> dict[str, dict]:
    """Per span name (and tag): calls, median and reportable tail in us."""
    selfs = self_times(spans)
    groups: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
    for span, own in zip(spans, selfs):
        key = span[NAME] if span[TAG] is None else f"{span[NAME]}[{span[TAG]}]"
        groups[key][0].append(span[END] - span[START])
        groups[key][1].append(own)
    return {
        key: {"us": summarize(total, 1e6), "self_us": summarize(own, 1e6)}
        for key, (total, own) in sorted(groups.items())
    }
