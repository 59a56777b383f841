"""Tests for the certification layer: rate estimation, bounds, verdicts.

Expected numbers are computed inline from the defining formulas (Hoeffding
radius, ceiling sample size, the 15/96/8 bound constants, the score formula)
rather than read back from the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicert import engine, entcf, qsim
from magicert.analysis import (
    CertificationReport,
    EstimationParams,
    FidelityCertificate,
    RateEstimate,
    SoundnessParams,
    certify,
    deviation_bound,
    estimate_flag_rates,
    fidelity_certificate,
    gamma_bounds,
    render_report,
    sample_size,
    t_est,
)
from magicert.engine import FlagStats
from magicert.errors import EstimationError, ParameterError


def synthetic_stats(pre=(0, 0), test=(0, 0), hyper=(0, 0)) -> FlagStats:
    """Build stats with (denominator, flagged) per conditional cell."""
    stats = FlagStats()
    n, k = pre
    stats.cells[("preimage", "test", "fail_pre")] += k
    stats.cells[("preimage", "test", "none")] += n - k
    n, k = test
    stats.cells[("hadamard", "test", "fail_test")] += k
    stats.cells[("hadamard", "test", "none")] += n - k
    n, k = hyper
    stats.cells[("hadamard", "hyper", "fail_hyper")] += k
    stats.cells[("hadamard", "hyper", "none")] += n - k
    return stats


def hoeffding_radius(delta_prime: float, n: int) -> float:
    return math.sqrt(math.log(2.0 / delta_prime) / (2.0 * n))


class TestParams:
    def test_estimation_params_accept_interior(self):
        p = EstimationParams(eps_prime=0.05, delta_prime=0.01)
        assert p.eps_prime == 0.05
        assert p.delta_prime == 0.01

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_estimation_params_reject_bad_eps(self, eps):
        with pytest.raises(ParameterError):
            EstimationParams(eps_prime=eps, delta_prime=0.1)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -1e-9, 2.0])
    def test_estimation_params_reject_bad_delta(self, delta):
        with pytest.raises(ParameterError):
            EstimationParams(eps_prime=0.1, delta_prime=delta)

    def test_soundness_defaults(self):
        sp = SoundnessParams()
        assert sp.c == 1.0
        assert sp.r == 1.0
        assert sp.negl == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": 0.0},
            {"c": -1.0},
            {"r": 0.0},
            {"r": -0.5},
            {"negl": -1e-12},
        ],
    )
    def test_soundness_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            SoundnessParams(**kwargs)

    def test_soundness_accepts_custom(self):
        sp = SoundnessParams(c=0.5, r=3.0, negl=0.01)
        assert (sp.c, sp.r, sp.negl) == (0.5, 3.0, 0.01)


class TestSampleSize:
    def test_frozen_values(self):
        assert sample_size(EstimationParams(0.05, 0.01)) == 1060
        assert sample_size(EstimationParams(0.5, 0.5)) == 3
        assert sample_size(EstimationParams(1.0 / 6.0, 1e-10)) == 427

    @given(
        eps=st.floats(min_value=0.01, max_value=0.99),
        delta=st.floats(min_value=1e-12, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_ceiling_is_tight(self, eps, delta):
        n = sample_size(EstimationParams(eps, delta))
        need = math.log(2.0 / delta)
        assert n * (2.0 * eps**2) >= need - 1e-9
        assert (n - 1) * (2.0 * eps**2) < need

    def test_halving_eps_quadruples(self):
        for eps, delta in [(0.2, 0.05), (0.1, 0.01), (0.05, 1e-6)]:
            n = sample_size(EstimationParams(eps, delta))
            n_half = sample_size(EstimationParams(eps / 2.0, delta))
            assert 4 * (n - 1) < n_half <= 4 * n


class TestEstimateFlagRates:
    def test_synthetic_counts(self):
        stats = synthetic_stats(pre=(40, 3), test=(50, 7), hyper=(10, 1))
        params = EstimationParams(0.1, 0.05)
        pre, test, hyper = estimate_flag_rates(stats, params)
        assert isinstance(pre, RateEstimate)
        assert pre.rate == pytest.approx(3 / 40, abs=1e-15)
        assert test.rate == pytest.approx(7 / 50, abs=1e-15)
        assert hyper.rate == pytest.approx(1 / 10, abs=1e-15)
        assert pre.radius == pytest.approx(hoeffding_radius(0.05, 40), abs=1e-12)
        assert test.radius == pytest.approx(hoeffding_radius(0.05, 50), abs=1e-12)
        assert hyper.radius == pytest.approx(hoeffding_radius(0.05, 10), abs=1e-12)
        assert (pre.flags, pre.denominator) == (3, 40)
        assert (test.flags, test.denominator) == (7, 50)
        assert (hyper.flags, hyper.denominator) == (1, 10)

    def test_honest_batch_rates_are_zero(self):
        stats, _ = engine.run_batch(entcf.SecurityParam(4), "honest", 240, 11)
        pre, test, hyper = estimate_flag_rates(stats, EstimationParams(0.1, 0.01))
        assert pre.rate == 0.0
        assert test.rate == 0.0
        assert hyper.rate == 0.0
        for est in (pre, test, hyper):
            assert est.radius > 0.0
            assert math.isfinite(est.radius)
            assert est.denominator > 0

    @pytest.mark.parametrize("missing", ["pre", "test", "hyper"])
    def test_zero_denominator_raises(self, missing):
        kwargs = {"pre": (5, 0), "test": (5, 0), "hyper": (5, 0)}
        kwargs[missing] = (0, 0)
        with pytest.raises(EstimationError):
            estimate_flag_rates(synthetic_stats(**kwargs), EstimationParams(0.1, 0.1))

    def test_aborted_sessions_do_not_enter_denominators(self):
        stats = synthetic_stats(pre=(20, 0), test=(20, 0), hyper=(20, 0))
        stats.n_aborted = 17
        pre, test, hyper = estimate_flag_rates(stats, EstimationParams(0.1, 0.1))
        assert pre.denominator == 20
        assert test.denominator == 20
        assert hyper.denominator == 20


class TestGammaBounds:
    def test_frozen_examples(self):
        assert gamma_bounds(0.01, 0.0, 0.0) == pytest.approx((0.15, 0.0, 0.0))
        assert gamma_bounds(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)
        g = gamma_bounds(0.0, 0.02, 3 / 32)
        assert g[0] == 0.0
        assert g[1] == 1.0  # clamped from 96 * 0.02 = 1.92
        assert g[2] == pytest.approx(0.75, abs=1e-15)

    @given(
        p1=st.floats(min_value=0, max_value=1),
        p2=st.floats(min_value=0, max_value=1),
        p3=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_in_unit_interval(self, p1, p2, p3):
        g = gamma_bounds(p1, p2, p3)
        for v in g:
            assert 0.0 <= v <= 1.0

    def test_unclamped_region_is_linear(self):
        g = gamma_bounds(0.001, 0.002, 0.003)
        assert g == pytest.approx((0.015, 0.192, 0.024), abs=1e-15)


class TestTEst:
    def test_frozen_value(self):
        sp = SoundnessParams(c=1.0, r=1.0, negl=0.0)
        assert t_est((0.01, 0.04, 0.09), sp) == pytest.approx(0.6, abs=1e-12)

    def test_all_zero_rates_give_negl(self):
        sp = SoundnessParams(negl=0.25)
        assert t_est((0.0, 0.0, 0.0), sp) == 0.25

    def test_scaling_in_c(self):
        base = t_est((0.04, 0.04, 0.04), SoundnessParams(c=1.0))
        doubled = t_est((0.04, 0.04, 0.04), SoundnessParams(c=2.0))
        assert doubled == pytest.approx(2.0 * base, abs=1e-12)

    def test_r_two_uses_plain_rates(self):
        sp = SoundnessParams(c=1.0, r=2.0)
        assert t_est((0.1, 0.2, 0.3), sp) == pytest.approx(0.6, abs=1e-12)

    @given(
        p=st.tuples(
            st.floats(min_value=0, max_value=1),
            st.floats(min_value=0, max_value=1),
            st.floats(min_value=0, max_value=1),
        ),
        bump=st.floats(min_value=0, max_value=0.5),
        coord=st.integers(min_value=0, max_value=2),
        r=st.floats(min_value=0.25, max_value=4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_rate(self, p, bump, coord, r):
        sp = SoundnessParams(c=1.0, r=r)
        bumped = list(p)
        bumped[coord] = min(1.0, bumped[coord] + bump)
        assert t_est(tuple(bumped), sp) >= t_est(p, sp) - 1e-12


class TestDeviationBound:
    def test_small_r_uses_power_of_radius(self):
        # r/2 = 0.5: each radius enters as sqrt(radius)
        sp = SoundnessParams(c=1.0, r=1.0)
        got = deviation_bound((0.04, 0.09, 0.25), sp)
        assert got == pytest.approx(0.2 + 0.3 + 0.5, abs=1e-12)

    def test_integer_half_r_is_linear(self):
        # r/2 = 1: coefficient 2^1 - 1 = 1
        sp = SoundnessParams(c=1.0, r=2.0)
        assert deviation_bound((0.01, 0.02, 0.03), sp) == pytest.approx(0.06, abs=1e-12)
        # r/2 = 2: coefficient 2^2 - 1 = 3
        sp4 = SoundnessParams(c=1.0, r=4.0)
        assert deviation_bound((0.01, 0.02, 0.03), sp4) == pytest.approx(0.18, abs=1e-12)

    def test_fractional_half_r_mixed_term(self):
        # r/2 = 1.5 = 1 + 0.5: coefficient 2*2^1.5 - 1, exponent 0.5
        sp = SoundnessParams(c=1.0, r=3.0)
        coeff = 2.0 * 2.0**1.5 - 1.0
        want = coeff * (0.04**0.5 + 0.09**0.5 + 0.16**0.5)
        assert deviation_bound((0.04, 0.09, 0.16), sp) == pytest.approx(want, abs=1e-12)

    def test_scales_with_c(self):
        radii = (0.04, 0.04, 0.04)
        one = deviation_bound(radii, SoundnessParams(c=1.0, r=1.0))
        three = deviation_bound(radii, SoundnessParams(c=3.0, r=1.0))
        assert three == pytest.approx(3.0 * one, abs=1e-12)


class TestCertify:
    def test_honest_batch_accepts(self):
        stats, _ = engine.run_batch(entcf.SecurityParam(4), "honest", 300, 23)
        report = certify(stats, EstimationParams(0.1, 0.01), SoundnessParams())
        assert report.accept is True
        assert report.t_est == 0.0
        assert report.threshold == pytest.approx(1.0 / 3.0)
        assert report.gamma == (0.0, 0.0, 0.0)

    def test_exact_threshold_rejects(self):
        stats = synthetic_stats(pre=(10, 10), test=(10, 0), hyper=(10, 0))
        sound = SoundnessParams(c=1.0 / 3.0, r=2.0, negl=0.0)
        report = certify(stats, EstimationParams(0.1, 0.1), sound)
        assert report.t_est == report.threshold
        assert report.accept is False

    def test_just_below_threshold_accepts(self):
        stats = synthetic_stats(pre=(1000, 333), test=(1000, 0), hyper=(1000, 0))
        sound = SoundnessParams(c=1.0, r=2.0)
        report = certify(stats, EstimationParams(0.1, 0.1), sound)
        assert report.t_est == pytest.approx(0.333, abs=1e-15)
        assert report.accept is True

    def test_stabilizer_rate_is_borderline(self):
        # hypergraph flag rate exactly 3/32 with clean other rates
        stats = synthetic_stats(pre=(320, 0), test=(320, 0), hyper=(320, 30))
        report = certify(stats, EstimationParams(0.05, 0.01), SoundnessParams())
        assert report.t_est == pytest.approx(math.sqrt(3 / 32), abs=1e-12)
        assert report.t_est < report.threshold
        assert report.deviation_bound > 0.0

    def test_monotone_more_flags_never_flip_to_accept(self):
        params = EstimationParams(0.1, 0.1)
        sound = SoundnessParams()
        lo = certify(synthetic_stats((50, 2), (50, 3), (50, 4)), params, sound)
        hi = certify(synthetic_stats((50, 9), (50, 12), (50, 20)), params, sound)
        assert hi.t_est >= lo.t_est
        if hi.accept:
            assert lo.accept

    def test_report_carries_inputs(self):
        stats = synthetic_stats(pre=(40, 1), test=(40, 2), hyper=(40, 3))
        est = EstimationParams(0.2, 0.05)
        sound = SoundnessParams(c=0.5, r=2.0, negl=0.001)
        report = certify(stats, est, sound)
        assert report.estimation == est
        assert report.soundness == sound
        pre, test, hyper = report.rates
        assert pre.rate == pytest.approx(1 / 40)
        assert test.rate == pytest.approx(2 / 40)
        assert hyper.rate == pytest.approx(3 / 40)
        want = 0.5 * (1 / 40 + 2 / 40 + 3 / 40) + 0.001
        assert report.t_est == pytest.approx(want, abs=1e-12)
        assert report.gamma == pytest.approx((15 / 40, 1.0, 8 * 3 / 40))
        assert report.confidence == pytest.approx(1.0 - 3 * 0.05)

    def test_end_to_end_honest_at_planned_sample_size(self):
        est = EstimationParams(1.0 / 6.0, 1e-10)
        n = sample_size(est)
        assert n == 427
        stats, _ = engine.run_batch(entcf.SecurityParam(4), "honest", n, 5)
        report = certify(stats, est, SoundnessParams())
        assert report.accept is True


class TestFidelityCertificate:
    def test_honest_state_certifies(self):
        for s in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
            cert = fidelity_certificate(qsim.target_state(*s), s)
            assert cert.fidelity == pytest.approx(1.0, abs=1e-12)
            assert cert.trace_distance == pytest.approx(0.0, abs=1e-6)
            assert cert.certified is True

    def test_plus_state_hits_the_bound(self):
        cert = fidelity_certificate(qsim.plus_state(3), (0, 0, 0))
        assert cert.fidelity == pytest.approx(9 / 16, abs=1e-12)
        assert cert.certified is False
        assert cert.trace_distance == pytest.approx(math.sqrt(7) / 4, abs=1e-10)

    def test_maximally_mixed(self):
        rho = qsim.DensityState(np.eye(8) / 8.0)
        cert = fidelity_certificate(rho, (0, 1, 0))
        assert cert.fidelity == pytest.approx(1 / 8, abs=1e-12)
        assert cert.certified is False
        assert cert.trace_distance == pytest.approx(7 / 8, abs=1e-10)

    def test_unpacks_as_tuple(self):
        cert = fidelity_certificate(qsim.target_state(0, 0, 0), (0, 0, 0))
        assert isinstance(cert, FidelityCertificate)
        f, dist, ok = cert
        assert f == pytest.approx(1.0)
        assert dist == pytest.approx(0.0, abs=1e-6)
        assert ok is True

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            fidelity_certificate(qsim.plus_state(2), (0, 0, 0))

    def test_bad_s_rejected(self):
        with pytest.raises(ParameterError):
            fidelity_certificate(qsim.plus_state(3), (0, 2, 0))

    def test_every_stabilizer_state_refused_for_every_phase_choice(self):
        states = qsim.enumerate_stabilizer_states(3)
        assert len(states) == 1080
        bound = 9 / 16 + 1e-9
        for s1 in (0, 1):
            for s2 in (0, 1):
                for s3 in (0, 1):
                    target = qsim.target_state(s1, s2, s3)
                    best = 0.0
                    for st_state in states:
                        f = float(np.abs(np.vdot(st_state.amps, target.amps)) ** 2)
                        best = max(best, f)
                        cert = fidelity_certificate(st_state, (s1, s2, s3))
                        assert cert.certified is False
                        assert cert.fidelity <= bound
                    assert best == pytest.approx(9 / 16, abs=1e-9)

    def test_pure_state_distance_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            raw = rng.normal(size=8) + 1j * rng.normal(size=8)
            sv = qsim.StateVector(raw / np.linalg.norm(raw))
            cert = fidelity_certificate(sv, (0, 0, 0))
            assert cert.trace_distance == pytest.approx(
                math.sqrt(1.0 - cert.fidelity), abs=1e-10
            )


class TestRendering:
    def make_report(self) -> CertificationReport:
        stats = synthetic_stats(pre=(80, 1), test=(80, 0), hyper=(80, 6))
        return certify(stats, EstimationParams(0.1, 0.05), SoundnessParams(c=2.0, r=1.0))

    def test_text_mentions_decision_and_constants(self):
        report = self.make_report()
        text = render_report(report)
        assert ("ACCEPT" in text) or ("REJECT" in text)
        assert "c = 2" in text
        assert "r = 1" in text
        assert "1/3" in text
        # every conditional shows up with its radius
        assert text.count("±") == 3 or text.lower().count("radius") >= 1

    def test_text_shows_the_deviation_exponent(self):
        report = self.make_report()
        text = render_report(report)
        assert "0.5" in text  # r/2 for r = 1

    def test_accept_flag_matches_strict_comparison(self):
        report = self.make_report()
        assert report.accept == (report.t_est < report.threshold)
