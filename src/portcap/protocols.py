"""Reference teleportation protocols and the critical-exponent classifier.

Schemes compared against the multi-port protocol:

* non-optimal / optimal single-port teleportation (PBT / OPBT), the latter
  with qubit fidelity cos^2(pi/(N+2)) and success probability 1 - 3/(3+N);
* their packaged variants, k independent instances of N/k ports each;
* optimal multi-port teleportation (OMPBT), whose success probability is the
  product prod_{m=2}^{d^2} (1 - k/(N-1+m)).

When the number of teleported systems scales as k = floor(a * N**alpha), each
scheme's figure of merit jumps from 1 to 0 at a critical exponent alpha_cr,
taking a finite constant exactly at the threshold.  ``critical_limit``
classifies the N -> infinity limit for every supported (scheme, figure) pair,
and ``finite_value`` evaluates the finite-N curve that approaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .asymptotics import gaussian_limit, psucc_largeN
from .bounds import fidelity_bound_product
from .performance import fidelity_qubit

PBT_PSUCC_COEFF = math.sqrt(8.0 / math.pi)


class SchemeId(str, Enum):
    PACK_PBT = "pack-pbt"
    PACK_OPBT = "pack-opbt"
    MPBT_BOUND = "mpbt-bound"
    MPBT_EXACT = "mpbt"
    OMPBT = "ompbt"


class Figure(str, Enum):
    FIDELITY = "fidelity"
    PSUCC = "psucc"


@dataclass(frozen=True)
class ScalingSpec:
    """Teleported-system count growing as k = floor(a * N**alpha)."""

    a: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if not 0 < self.alpha:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def k_of(self, N: int) -> int:
        return math.floor(self.a * N**self.alpha)


@dataclass(frozen=True)
class LimitClass:
    """Classified N -> infinity limit: the degenerate values 0 / 1, or the
    finite critical constant at the threshold exponent."""

    kind: str  # "zero" | "one" | "critical"
    value: float

    @classmethod
    def zero(cls) -> "LimitClass":
        return cls("zero", 0.0)

    @classmethod
    def one(cls) -> "LimitClass":
        return cls("one", 1.0)

    @classmethod
    def critical(cls, value: float) -> "LimitClass":
        return cls("critical", value)


def opbt_fidelity(N: int) -> float:
    """Qubit fidelity of optimal single-port teleportation, cos^2(pi/(N+2))."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return math.cos(math.pi / (N + 2)) ** 2


def packaged_fidelity(N: int, k: int, base: str = "opbt") -> float:
    """Fidelity of k independent single-port protocols sharing N ports.

    ``base`` selects the per-package protocol.  "opbt" gives each package the
    real port count N/k, cos(pi/(N/k + 2))**(2k), which is how the packaged
    curves are drawn; N/k need not be an integer.  "pbt" uses the exact
    non-optimal qubit fidelity of N/k ports and requires k | N.
    """
    if k < 1 or N < 1:
        raise ValueError(f"require N, k >= 1, got N={N}, k={k}")
    if base == "opbt":
        return math.cos(math.pi / (N / k + 2.0)) ** (2 * k)
    if base == "pbt":
        if N % k:
            raise ValueError(f"packaged pbt requires k | N, got N={N}, k={k}")
        return fidelity_qubit(N // k, 1).value ** k
    raise ValueError(f"base must be 'pbt' or 'opbt', got {base!r}")


def packaged_fidelity_approx(N: int, k: int) -> float:
    """Asymptotic form of packaged non-optimal fidelity, (1 - 3k/(4N))**k,
    clamped at 0 once the linear factor turns negative."""
    if k < 1 or N < 1:
        raise ValueError(f"require N, k >= 1, got N={N}, k={k}")
    factor = 1.0 - 3.0 * k / (4.0 * N)
    return factor**k if factor > 0 else 0.0


def packaged_fidelity_linear(N: int, k: int) -> float:
    """First-order tail of the packaged bound, 1 - 3k^2/(4N)."""
    if k < 1 or N < 1:
        raise ValueError(f"require N, k >= 1, got N={N}, k={k}")
    return 1.0 - 3.0 * k * k / (4.0 * N)


def ompbt_psucc(N: int, k: int, d: int = 2) -> Fraction:
    """Success probability of optimal multi-port teleportation,
    prod_{m=2}^{d^2} (1 - k/(N-1+m)), exact; 0 once any factor is nonpositive."""
    if k < 1 or N < 1:
        raise ValueError(f"require N, k >= 1, got N={N}, k={k}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    prod = Fraction(1)
    for m in range(2, d * d + 1):
        factor = 1 - Fraction(k, N - 1 + m)
        if factor <= 0:
            return Fraction(0)
        prod *= factor
    return prod


def psucc_baselines(N: int, which: str) -> float:
    """Large-N success probabilities of the single-port references:
    "pbt-approx" -> 1 - sqrt(8/pi)/sqrt(N);  "opbt" -> 1 - 3/(3+N)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if which == "pbt-approx":
        return 1.0 - PBT_PSUCC_COEFF / math.sqrt(N)
    if which == "opbt":
        return 1.0 - 3.0 / (3.0 + N)
    raise ValueError(f"which must be 'pbt-approx' or 'opbt', got {which!r}")


# (scheme, figure) -> critical exponent
_ALPHA_CR: dict[tuple[SchemeId, Figure], float] = {
    (SchemeId.PACK_PBT, Figure.FIDELITY): 0.5,
    (SchemeId.PACK_OPBT, Figure.FIDELITY): 2.0 / 3.0,
    (SchemeId.MPBT_BOUND, Figure.FIDELITY): 1.0,
    (SchemeId.PACK_PBT, Figure.PSUCC): 1.0 / 3.0,
    (SchemeId.PACK_OPBT, Figure.PSUCC): 0.5,
    (SchemeId.MPBT_EXACT, Figure.PSUCC): 0.5,
    (SchemeId.OMPBT, Figure.PSUCC): 1.0,
}


def _packaged_psucc(per_package: float, k: int) -> float:
    return per_package**k if per_package > 0 else 0.0


# (scheme, figure) -> finite-N value at (N, k, d); the curves critical_limit classifies
_MODEL: dict[tuple[SchemeId, Figure], Callable[[int, int, int], float]] = {
    (SchemeId.PACK_PBT, Figure.FIDELITY): lambda N, k, d: packaged_fidelity_approx(N, k),
    (SchemeId.PACK_OPBT, Figure.FIDELITY): lambda N, k, d: packaged_fidelity(N, k, "opbt"),
    (SchemeId.MPBT_BOUND, Figure.FIDELITY): lambda N, k, d: float(
        fidelity_bound_product(N, k, d)
    ),
    (SchemeId.PACK_PBT, Figure.PSUCC): lambda N, k, d: _packaged_psucc(
        1.0 - PBT_PSUCC_COEFF / math.sqrt(N / k), k
    ),
    (SchemeId.PACK_OPBT, Figure.PSUCC): lambda N, k, d: _packaged_psucc(
        1.0 - 3.0 / (3.0 + N / k), k
    ),
    (SchemeId.MPBT_EXACT, Figure.PSUCC): lambda N, k, d: psucc_largeN(N, k),
    (SchemeId.OMPBT, Figure.PSUCC): lambda N, k, d: float(ompbt_psucc(N, k, d)),
}


def finite_value(scheme: SchemeId, figure: Figure, N: int, k: int, d: int = 2) -> float:
    """The scheme's figure of merit at N ports and k teleported systems.

    The packaged forms take the real port count N/k per package, the
    multi-port bound is the product form and the exact multi-port value the
    log-space sum.  Only the bound and OMPBT rows take general d.
    """
    scheme, figure = SchemeId(scheme), Figure(figure)
    try:
        model = _MODEL[(scheme, figure)]
    except KeyError:
        raise ValueError(
            f"unsupported scheme/figure combination: {scheme.value}, {figure.value}"
        )
    if d != 2 and scheme not in (SchemeId.MPBT_BOUND, SchemeId.OMPBT):
        raise ValueError(f"scheme {scheme.value} is modelled for qubits only (d=2)")
    return model(N, k, d)


def critical_exponent(scheme: SchemeId, figure: Figure) -> float:
    """alpha_cr for a supported (scheme, figure) pair."""
    try:
        return _ALPHA_CR[(SchemeId(scheme), Figure(figure))]
    except KeyError:
        raise ValueError(f"unsupported scheme/figure combination: {scheme}, {figure}")


def critical_limit(
    scheme: SchemeId, scaling: ScalingSpec, figure: Figure, d: int = 2
) -> LimitClass:
    """N -> infinity limit of the scheme's figure of merit along
    k = floor(a N**alpha).

    Critical constants at alpha = alpha_cr:

    ==========  ========================  =============================
    scheme      fidelity (alpha_cr)       psucc (alpha_cr)
    ==========  ========================  =============================
    pack-pbt    exp(-3a^2/4)   (1/2)      exp(-sqrt(8/pi) a^(3/2)) (1/3)
    pack-opbt   exp(-pi^2 a^3) (2/3)      exp(-3a^2)               (1/2)
    mpbt-bound  exp(-(d^2-1)a/(1-a)) (1)  --
    mpbt        --                        Gaussian limit integral  (1/2)
    ompbt       --                        (1-a)^3                  (1)
    ==========  ========================  =============================

    The packaged rows and the exact multi-port row are qubit results (d = 2
    rejected otherwise); the multi-port bound row takes general d.  The bound
    row has no zero region: its scaling law is undefined for alpha > 1 (the
    teleported count would exceed the ports) and its threshold constant needs
    a < 1, both rejected.
    """
    scheme = SchemeId(scheme)
    figure = Figure(figure)
    a_cr = critical_exponent(scheme, figure)
    if d != 2 and scheme is not SchemeId.MPBT_BOUND:
        raise ValueError(f"scheme {scheme.value} is classified for qubits only (d=2)")
    if scaling.alpha < a_cr:
        return LimitClass.one()
    a = scaling.a
    if scheme is SchemeId.MPBT_BOUND:
        if scaling.alpha > a_cr:
            raise ValueError("mpbt-bound fidelity scaling requires alpha <= 1")
        if a >= 1:
            raise ValueError("mpbt-bound limit at alpha = 1 requires a < 1")
        return LimitClass.critical(math.exp(-(d * d - 1) * a / (1.0 - a)))
    if scaling.alpha > a_cr:
        return LimitClass.zero()
    if scheme is SchemeId.PACK_PBT:
        const = (
            math.exp(-0.75 * a * a)
            if figure is Figure.FIDELITY
            else math.exp(-PBT_PSUCC_COEFF * a**1.5)
        )
        return LimitClass.critical(const)
    if scheme is SchemeId.PACK_OPBT:
        const = (
            math.exp(-math.pi * math.pi * a**3)
            if figure is Figure.FIDELITY
            else math.exp(-3.0 * a * a)
        )
        return LimitClass.critical(const)
    if scheme is SchemeId.MPBT_EXACT:
        return LimitClass.critical(gaussian_limit(a))
    # OMPBT at alpha = 1: the product formula tends to (1-a)^3 for a < 1
    if a > 1:
        raise ValueError("ompbt limit at alpha = 1 requires a <= 1")
    return LimitClass.critical((1.0 - a) ** 3)
