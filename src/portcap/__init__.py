"""Performance of port-based and multi-port-based teleportation protocols.

Exact entanglement fidelity and success probability of the multi-port
scheme, discrimination-based lower bounds, reference protocols with their
critical teleportation-rate exponents, finite-N Gaussian sandwich bounds,
and a dense-matrix simulation that certifies every closed formula at small
scale.
"""

from .asymptotics import (
    GaussBoundTerms,
    gaussian_limit,
    normal_pdf,
    normal_tail,
    psucc_largeN,
    psucc_sandwich,
    sandwich_k,
)
from .bounds import (
    fidelity_bound_bernoulli,
    fidelity_bound_product,
    fidelity_bound_ratio,
    pairwise_signal_trace,
    pdist_lower,
    signal_pair_trace_raw,
    symmetric_poly_bound,
    trace_rho_bar_squared,
    trace_rho_squared,
)
from .core import EvalResult, ProtocolParams
from .exactmath import binomial, falling_factorial
from .performance import (
    fidelity_exact,
    fidelity_qubit,
    psucc_exact,
    psucc_qubit,
)
from .protocols import (
    Figure,
    LimitClass,
    ScalingSpec,
    SchemeId,
    critical_exponent,
    critical_limit,
    finite_value,
    ompbt_psucc,
    opbt_fidelity,
    packaged_fidelity,
    packaged_fidelity_approx,
    packaged_fidelity_linear,
    psucc_baselines,
)
from .simulate import (
    all_port_tuples,
    build_signal,
    rho_and_srm,
    srm_fidelity,
    srm_pdist,
)
from .tableaux import (
    Diagram,
    add_boxes,
    add_one_box,
    as_diagram,
    enumerate_diagrams,
    skew_count_two_row,
    ssyt_count,
    syt_count,
)

__version__ = "0.1.0"

__all__ = [
    "EvalResult",
    "Figure",
    "GaussBoundTerms",
    "LimitClass",
    "ProtocolParams",
    "ScalingSpec",
    "SchemeId",
    "add_boxes",
    "add_one_box",
    "all_port_tuples",
    "as_diagram",
    "binomial",
    "build_signal",
    "critical_exponent",
    "critical_limit",
    "Diagram",
    "enumerate_diagrams",
    "falling_factorial",
    "fidelity_bound_bernoulli",
    "fidelity_bound_product",
    "fidelity_bound_ratio",
    "fidelity_exact",
    "fidelity_qubit",
    "finite_value",
    "gaussian_limit",
    "normal_pdf",
    "normal_tail",
    "ompbt_psucc",
    "opbt_fidelity",
    "packaged_fidelity",
    "packaged_fidelity_approx",
    "packaged_fidelity_linear",
    "pairwise_signal_trace",
    "pdist_lower",
    "psucc_baselines",
    "psucc_exact",
    "psucc_largeN",
    "psucc_qubit",
    "psucc_sandwich",
    "rho_and_srm",
    "sandwich_k",
    "signal_pair_trace_raw",
    "skew_count_two_row",
    "srm_fidelity",
    "srm_pdist",
    "ssyt_count",
    "symmetric_poly_bound",
    "syt_count",
    "trace_rho_bar_squared",
    "trace_rho_squared",
]
