"""Statistical certification on top of protocol flag counts.

Converts flag statistics from batches of protocol runs into Hoeffding
interval estimates of the three conditional failure rates, derives the
per-defect upper bounds, computes the acceptance score, and renders the
verdict against the strict 1/3 threshold. Also provides white-box
fidelity certificates for simulated device states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import qsim
from .engine import FlagStats
from .errors import EstimationError, ParameterError

# multipliers taking each conditional flag rate to an upper bound on the
# corresponding defect probability
GAMMA_PRE_FACTOR = 15.0
GAMMA_TEST_FACTOR = 96.0
GAMMA_HYPER_FACTOR = 8.0

ACCEPT_THRESHOLD = 1.0 / 3.0

# fidelity any stabilizer (non-magic) state can reach against the target
MAGIC_FIDELITY_BOUND = 9.0 / 16.0
_MAGIC_MARGIN = 1e-9


# --------------------------------------------------------------- parameters


@dataclass(frozen=True)
class EstimationParams:
    """Precision and failure probability for a two-sided Hoeffding estimate."""

    eps_prime: float
    delta_prime: float

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_prime < 1.0:
            raise ParameterError(f"precision {self.eps_prime} is not in (0, 1)")
        if not 0.0 < self.delta_prime < 1.0:
            raise ParameterError(
                f"failure probability {self.delta_prime} is not in (0, 1)"
            )
        try:
            sample_size(self)
        except (ZeroDivisionError, OverflowError):
            raise ParameterError(f"precision {self.eps_prime} and failure probability "
                                 f"{self.delta_prime} have no finite sample size") from None


@dataclass(frozen=True)
class SoundnessParams:
    """Constants of the soundness bound: scale c, exponent r, slack negl."""

    c: float = 1.0
    r: float = 1.0
    negl: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.c < math.inf:
            raise ParameterError(f"scale c={self.c} must be positive and finite")
        # the deviation factor, 2^(r/2) - 1 at an integer r/2 and 2 2^(r/2) - 1 otherwise,
        # is finite up to r = 2046 and overflows past it. The bound it scales can still
        # overflow to inf below that (at r = 2046 once the radii sum past about 2), and
        # such a decision is reported unresolved. The smallest float r halves to an
        # exponent of 0, at which a zero radius would count 1
        if not (0.0 < self.r / 2.0 and self.r <= 2046.0):
            raise ParameterError(f"exponent r={self.r} must be in (0, 2046]")
        if not 0.0 <= self.negl < math.inf:
            raise ParameterError(f"slack negl={self.negl} must be nonnegative and finite")


class RateEstimate(NamedTuple):
    rate: float
    radius: float
    flags: int
    denominator: int


class FidelityCertificate(NamedTuple):
    fidelity: float
    trace_distance: float
    certified: bool


# --------------------------------------------------------------- estimation


def _radius(delta_prime: float, denominator: int) -> float:
    return math.sqrt(math.log(2.0 / delta_prime) / (2.0 * denominator))


def estimate_flag_rates(
    stats: FlagStats, params: EstimationParams
) -> tuple[RateEstimate, RateEstimate, RateEstimate]:
    """Estimate the three conditional flag rates with Hoeffding radii.

    Rates are conditioned on preimage rounds, test-case Hadamard rounds,
    and hypergraph-case Hadamard rounds respectively; aborted sessions sit
    in no denominator. A conditional that was never observed has no
    defined rate and raises EstimationError.
    """
    triples = (
        (stats.n_fail_pre, stats.n_preimage, "preimage rounds"),
        (stats.n_fail_test, stats.n_test_hadamard, "test-case Hadamard rounds"),
        (stats.n_fail_hyper, stats.n_hyper_hadamard, "hypergraph-case Hadamard rounds"),
    )
    out = []
    for flags, denom, label in triples:
        if denom == 0:
            raise EstimationError(f"no {label} observed; rate undefined")
        out.append(
            RateEstimate(
                rate=flags / denom,
                radius=_radius(params.delta_prime, denom),
                flags=flags,
                denominator=denom,
            )
        )
    return tuple(out)


def sample_size(params: EstimationParams) -> int:
    """Sessions needed so each estimate lands within eps_prime of the truth
    with probability at least 1 - delta_prime (two-sided Hoeffding)."""
    return math.ceil(
        math.log(2.0 / params.delta_prime) / (2.0 * params.eps_prime**2)
    )


def gamma_bounds(
    p_pre: float, p_test: float, p_hyper: float
) -> tuple[float, float, float]:
    """Upper bounds on the three defect probabilities, clamped to [0, 1]."""

    def clamp(v: float) -> float:
        return min(1.0, max(0.0, v))

    return (
        clamp(GAMMA_PRE_FACTOR * p_pre),
        clamp(GAMMA_TEST_FACTOR * p_test),
        clamp(GAMMA_HYPER_FACTOR * p_hyper),
    )


def t_est(rates, sp: SoundnessParams) -> float:
    """Acceptance score: c times the sum of rate^(r/2) terms, plus slack."""
    half = sp.r / 2.0
    return sp.c * sum(float(p) ** half for p in rates) + sp.negl


def _deviation_rule(r: float) -> tuple[float, float]:
    """(factor, exponent) with which each radius enters the deviation bound."""
    half = r / 2.0
    if half < 1.0:
        return 1.0, half
    frac = half - math.floor(half)
    if frac == 0.0:
        return 2.0**half - 1.0, 1.0
    return 2.0 * 2.0**half - 1.0, frac


def deviation_exponent(r: float) -> float:
    """Exponent t such that each radius enters the deviation bound as radius^t."""
    return _deviation_rule(r)[1]


def deviation_bound(radii, sp: SoundnessParams) -> float:
    """Bound on how far the score can sit from its true value, given the
    per-estimate radii. Piecewise in the exponent: for r/2 < 1 each radius
    enters as radius^(r/2); for integer r/2 linearly with factor 2^(r/2)-1;
    otherwise with the fractional exponent and factor 2*2^(r/2)-1."""
    factor, exponent = _deviation_rule(sp.r)
    return sp.c * sum(factor * float(rad) ** exponent for rad in radii)


# ------------------------------------------------------------ certification


@dataclass(frozen=True)
class CertificationReport:
    """Everything the accept/reject decision was computed from."""

    rates: tuple[RateEstimate, RateEstimate, RateEstimate]
    gamma: tuple[float, float, float]
    t_est: float
    threshold: float
    deviation_bound: float
    confidence: float
    estimation: EstimationParams
    soundness: SoundnessParams
    accept: bool


def certify(
    stats: FlagStats,
    estimation: EstimationParams,
    soundness: SoundnessParams = SoundnessParams(),
) -> CertificationReport:
    """Estimate rates from stats and decide: accept iff the score is
    strictly below 1/3. The report carries the radii and the deviation
    bound so borderline decisions are visible."""
    rates = estimate_flag_rates(stats, estimation)
    score = t_est(tuple(e.rate for e in rates), soundness)
    return CertificationReport(
        rates=rates,
        gamma=gamma_bounds(*(e.rate for e in rates)),
        t_est=score,
        threshold=ACCEPT_THRESHOLD,
        deviation_bound=deviation_bound(tuple(e.radius for e in rates), soundness),
        confidence=max(0.0, 1.0 - 3.0 * estimation.delta_prime),
        estimation=estimation,
        soundness=soundness,
        accept=score < ACCEPT_THRESHOLD,
    )


def fidelity_certificate(device_state, s) -> FidelityCertificate:
    """White-box check of a simulated device state against the target for
    phase choice s. Certifies magic only when the fidelity clears the
    stabilizer-reachable bound 9/16 by more than numerical noise."""
    s = tuple(s)
    if len(s) != 3 or any(bit not in (0, 1) for bit in s):
        raise ParameterError(f"phase choice {s!r} is not three bits")
    target = qsim.target_state(*s)
    f = qsim.fidelity(device_state, target)
    dist = qsim.trace_distance(device_state, target)
    return FidelityCertificate(
        fidelity=f,
        trace_distance=dist,
        certified=f > MAGIC_FIDELITY_BOUND + _MAGIC_MARGIN,
    )


# ---------------------------------------------------------------- rendering

_RATE_LABELS = ("preimage", "test hadamard", "hypergraph")


def render_report(report: CertificationReport) -> str:
    """The report as text, with whether its sample supports the decision.

    Each denominator is shown against sample_size(eps', delta') and marked
    under-sampled below it. One more line says when the deviation bound
    reaches across the threshold, so that the opposite decision is possible
    at this sample size; the decision itself is certify's.
    """
    sp = report.soundness
    need = sample_size(report.estimation)
    lines = [
        "certification report",
        f"  confidence: {report.confidence:g} "
        f"(three estimates at delta' = {report.estimation.delta_prime:g})",
        "  conditional flag rates (rate ± radius, flags/denominator, need"
        f" sample_size(eps' = {report.estimation.eps_prime:g}, delta')):",
    ]
    for label, est in zip(_RATE_LABELS, report.rates):
        lines.append(
            f"    {label:<14} {est.rate:.6g} ± {est.radius:.6g}"
            f"  ({est.flags}/{est.denominator}, need {need})"
            + ("  under-sampled" if est.denominator < need else "")
        )
    g = report.gamma
    lines += [
        f"  defect bounds: pre <= {g[0]:.6g}, test <= {g[1]:.6g}, hyper <= {g[2]:.6g}",
        f"  score: {report.t_est:.6g} with c = {sp.c:g}, r = {sp.r:g}, negl = {sp.negl:g}",
        f"  deviation: score is within {report.deviation_bound:.6g} of the true"
        f" value (radius exponent {deviation_exponent(sp.r):g})",
        f"  threshold: 1/3 = {report.threshold:.6g} (strict)",
        f"  decision: {'ACCEPT' if report.accept else 'REJECT'}",
    ]
    high = report.t_est + report.deviation_bound
    low = report.t_est - report.deviation_bound
    if report.accept and high >= report.threshold:
        lines.append(f"  unresolved: score + deviation = {high:.6g} reaches 1/3,"
                     " so this sample cannot rule out REJECT")
    elif not report.accept and low < report.threshold:
        lines.append(f"  unresolved: score - deviation = {low:.6g} is below 1/3,"
                     " so this sample cannot rule out ACCEPT")
    return "\n".join(lines) + "\n"

