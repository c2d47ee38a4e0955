import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wpcn import channel
from wpcn.numerics import OPEN_END, integrate

bounds = st.floats(min_value=0.0, max_value=20.0)


class TestPdf:
    def test_values(self):
        assert channel.pdf(0.0) == 1.0
        assert channel.pdf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_normalization(self):
        assert integrate(channel.pdf, 0.0, OPEN_END) == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            channel.pdf(-0.1)


class TestIntervalProb:
    def test_full_support(self):
        assert channel.interval_prob(0.0, OPEN_END) == 1.0

    def test_degenerate(self):
        assert channel.interval_prob(1.3, 1.3) == 0.0

    @given(bounds)
    def test_complement_additivity(self, g):
        total = channel.interval_prob(0.0, g) + channel.interval_prob(g, OPEN_END)
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            channel.interval_prob(2.0, 1.0)
        with pytest.raises(ValueError):
            channel.interval_prob(-1.0, 1.0)


class TestIntervalGainMean:
    def test_full_mean(self):
        assert channel.interval_gain_mean(0.0, OPEN_END) == 1.0

    def test_tail_from_one(self):
        # quadrature oracle of the same moment
        ref = integrate(lambda g: g * math.exp(-g), 1.0, OPEN_END)
        assert channel.interval_gain_mean(1.0, OPEN_END) == pytest.approx(ref, abs=1e-12)
        assert channel.interval_gain_mean(1.0, OPEN_END) == pytest.approx(2.0 / math.e, rel=1e-14)

    def test_empty_tail_at_infinity(self):
        # the gains above an open band: an empty tail, not inf * 0
        assert channel.interval_gain_mean(OPEN_END, OPEN_END) == 0.0
        assert channel.interval_prob(OPEN_END, OPEN_END) == 0.0

    @given(bounds)
    def test_additivity(self, g):
        total = channel.interval_gain_mean(0.0, g) + channel.interval_gain_mean(g, OPEN_END)
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_matches_quadrature_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            a, b = np.sort(rng.uniform(0.0, 20.0, size=2))
            ref = integrate(lambda g: g * math.exp(-g), float(a), float(b))
            assert abs(channel.interval_gain_mean(float(a), float(b)) - ref) <= 1e-10


class TestSampler:
    def test_known_generator_outputs(self):
        # splitmix64 reference vector for seed 0 (first four raw outputs)
        raw = channel.splitmix64(0, 4)
        assert [int(v) for v in raw] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_determinism(self):
        a = channel.sample(5000, seed=99)
        b = channel.sample(5000, seed=99)
        assert np.array_equal(a.values, b.values)
        c = channel.sample(5000, seed=100)
        assert not np.array_equal(a.values, c.values)

    def test_mean_near_one(self):
        n = 100_000
        for seed in (0, 1, 12345):
            m = channel.sample(n, seed).values.mean()
            assert abs(m - 1.0) <= 3.0 / math.sqrt(n)  # sigma = 1 for unit exponential

    def test_interval_frequency_matches_probability(self):
        n = 100_000
        g = channel.sample(n, seed=7).values
        a, b = 0.5, 1.5
        p = channel.interval_prob(a, b)
        frac = np.mean((g >= a) & (g < b))
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(frac - p) <= 3.0 * se

    def test_kolmogorov_smirnov_below_critical(self):
        n = 100_000
        g = np.sort(channel.sample(n, seed=424242).values)
        cdf = -np.expm1(-g)
        k = np.arange(1, n + 1)
        dplus = np.max(k / n - cdf)
        dminus = np.max(cdf - (k - 1) / n)
        ks = max(dplus, dminus)
        assert ks < 1.63 / math.sqrt(n)  # 1% critical value

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            channel.sample(0, seed=1)
        with pytest.raises(ValueError):
            channel.GainSampleBatch(values=np.array([1.0, -2.0]), seed=0, count=2)

    def test_all_draws_non_negative_and_finite(self):
        g = channel.sample(200_000, seed=5).values
        assert np.all(g >= 0.0)
        assert np.all(np.isfinite(g))

