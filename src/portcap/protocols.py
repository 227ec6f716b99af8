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
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

from .asymptotics import gaussian_limit, psucc_largeN
from .bounds import fidelity_bound_product

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


class _ScalingFields(NamedTuple):
    a: float
    alpha: float


class ScalingSpec(_ScalingFields):
    """Teleported-system count growing as k = floor(a * N**alpha)."""

    __slots__ = ()

    def __new__(cls, a: float, alpha: float) -> ScalingSpec:
        if not 0 < a < math.inf:
            raise ValueError(f"a must be positive and finite, got {a}")
        if not 0 < alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        return super().__new__(cls, a, alpha)

    def k_of(self, N: int) -> int:
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        try:
            return math.floor(self.a * N**self.alpha)
        except OverflowError:
            raise ValueError(f"k = floor(a*N^alpha) overflows a float at N={N}") from None


class LimitClass(NamedTuple):
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


def packaged_fidelity(N: int, k: int) -> float:
    """Fidelity of k independent optimal single-port protocols sharing N
    ports, cos(pi/(N/k + 2))**(2k): each package gets the real port count
    N/k, which need not be an integer, as the packaged curves are drawn."""
    if k < 1 or N < 1:
        raise ValueError(f"require N, k >= 1, got N={N}, k={k}")
    return math.cos(math.pi / (N / k + 2.0)) ** (2 * k)


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


def _packaged_psucc(per_package: float, k: int) -> float:
    return per_package**k if per_package > 0 else 0.0


def _bound_limit(a: float, d: int) -> float:
    if a >= 1:
        raise ValueError("mpbt-bound limit at alpha = 1 requires a < 1")
    return math.exp(-(d * d - 1) * a / (1.0 - a))


def _ompbt_limit(a: float, d: int) -> float:
    # the product formula tends to (1-a)^(d^2-1) along k = aN
    if a > 1:
        raise ValueError("ompbt limit at alpha = 1 requires a <= 1")
    return (1.0 - a) ** (d * d - 1)


class _Curve(NamedTuple):
    """One (scheme, figure) row of the comparison."""

    alpha_cr: float
    limit: Callable[[float, int], float]  # the constant at alpha_cr, of (a, d)
    value: Callable[[int, int, int], float]  # the finite-N value at (N, k, d)
    general_d: bool = False  # False: qubits only (d = 2)
    zero_above: bool = True  # False: the scaling law is undefined above alpha_cr


_CURVES: dict[tuple[SchemeId, Figure], _Curve] = {
    (SchemeId.PACK_PBT, Figure.FIDELITY): _Curve(
        0.5, lambda a, d: math.exp(-0.75 * a * a), lambda N, k, d: packaged_fidelity_approx(N, k)
    ),
    (SchemeId.PACK_OPBT, Figure.FIDELITY): _Curve(
        2.0 / 3.0, lambda a, d: math.exp(-math.pi * math.pi * a**3),
        lambda N, k, d: packaged_fidelity(N, k),
    ),
    (SchemeId.MPBT_BOUND, Figure.FIDELITY): _Curve(
        1.0, _bound_limit, lambda N, k, d: float(fidelity_bound_product(N, k, d)),
        general_d=True, zero_above=False,
    ),
    (SchemeId.PACK_PBT, Figure.PSUCC): _Curve(
        1.0 / 3.0, lambda a, d: math.exp(-PBT_PSUCC_COEFF * a**1.5),
        lambda N, k, d: _packaged_psucc(1.0 - PBT_PSUCC_COEFF / math.sqrt(N / k), k),
    ),
    (SchemeId.PACK_OPBT, Figure.PSUCC): _Curve(
        0.5, lambda a, d: math.exp(-3.0 * a * a),
        lambda N, k, d: _packaged_psucc(1.0 - 3.0 / (3.0 + N / k), k),
    ),
    (SchemeId.MPBT_EXACT, Figure.PSUCC): _Curve(
        0.5, lambda a, d: gaussian_limit(a), lambda N, k, d: psucc_largeN(N, k)
    ),
    (SchemeId.OMPBT, Figure.PSUCC): _Curve(
        1.0, _ompbt_limit, lambda N, k, d: float(ompbt_psucc(N, k, d)), general_d=True
    ),
}


def _curve(scheme: SchemeId, figure: Figure, d: int = 2) -> _Curve:
    """The table row of a supported (scheme, figure) pair whose dimension
    scope admits d."""
    scheme, figure = SchemeId(scheme), Figure(figure)
    try:
        curve = _CURVES[(scheme, figure)]
    except KeyError:
        raise ValueError(
            f"unsupported scheme/figure combination: {scheme.value}, {figure.value}"
        ) from None
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if d != 2 and not curve.general_d:
        raise ValueError(f"scheme {scheme.value} is modelled for qubits only (d=2)")
    return curve


def critical_exponent(scheme: SchemeId, figure: Figure) -> float:
    """alpha_cr for a supported (scheme, figure) pair."""
    return _curve(scheme, figure).alpha_cr


def finite_value(scheme: SchemeId, figure: Figure, N: int, k: int, d: int = 2) -> float:
    """The scheme's figure of merit at N ports and k teleported systems: the
    finite-N curve whose limit ``critical_limit`` classifies.

    The packaged forms take the real port count N/k per package, the
    multi-port bound is the product form, the exact multi-port value the
    log-space sum and OMPBT the exact product formula.  The bound and OMPBT
    rows take general d, the others qubits only.
    """
    return _curve(scheme, figure, d).value(N, k, d)


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
    ompbt       --                        (1-a)^(d^2-1)            (1)
    ==========  ========================  =============================

    The packaged rows and the exact multi-port row are qubit results (d = 2
    rejected otherwise); the multi-port bound and OMPBT rows take general d.
    The bound row has no zero region: its scaling law is undefined for
    alpha > 1 (the teleported count would exceed the ports) and its threshold
    constant needs a < 1, both rejected.  The OMPBT constant needs a <= 1.
    """
    curve = _curve(scheme, figure, d)
    if scaling.alpha < curve.alpha_cr:
        return LimitClass.one()
    if scaling.alpha > curve.alpha_cr:
        if not curve.zero_above:
            raise ValueError(
                f"{SchemeId(scheme).value} {Figure(figure).value} scaling requires "
                f"alpha <= {curve.alpha_cr:g}"
            )
        return LimitClass.zero()
    return LimitClass.critical(curve.limit(scaling.a, d))
