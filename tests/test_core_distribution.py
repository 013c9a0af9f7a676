"""Unit and property tests for OccupancyDistribution."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import OccupancyDistribution, uniform_reference
from repro.utils.errors import ValidationError
from tests.strategies import occupancy_samples


class TestConstruction:
    def test_atoms_merge_and_normalize(self):
        dist = OccupancyDistribution([0.5, 0.5, 1.0], [1, 1, 2])
        assert dist.values.tolist() == [0.5, 1.0]
        assert dist.weights.tolist() == [0.5, 0.5]
        assert dist.total_weight == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            OccupancyDistribution([0.0])
        with pytest.raises(ValidationError):
            OccupancyDistribution([1.5])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            OccupancyDistribution([])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError):
            OccupancyDistribution([0.5], [-1.0])

    def test_from_histogram(self):
        dist = OccupancyDistribution.from_histogram(
            np.array([2, 0, 0, 2]), ones_count=4
        )
        # Bin centers 0.125 and 0.875 plus atom at 1.0.
        assert dist.values.tolist() == [0.125, 0.875, 1.0]
        assert dist.weights.tolist() == [0.25, 0.25, 0.5]

    def test_from_histogram_rejects_empty(self):
        with pytest.raises(ValidationError):
            OccupancyDistribution.from_histogram(np.zeros(4))


class TestMoments:
    def test_mean_and_std(self):
        dist = OccupancyDistribution([0.2, 0.8])
        assert dist.mean() == pytest.approx(0.5)
        assert dist.std() == pytest.approx(0.3)

    def test_point_mass_has_zero_std(self):
        dist = OccupancyDistribution([1.0])
        assert dist.std() == 0.0
        assert dist.variation_coefficient() == 0.0

    def test_mass_at(self):
        dist = OccupancyDistribution([0.5, 1.0], [3, 1])
        assert dist.mass_at(1.0) == pytest.approx(0.25)
        assert dist.mass_at(0.7) == 0.0


class TestSurvival:
    def test_icd_steps(self):
        dist = OccupancyDistribution([0.25, 0.75])
        lam = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert dist.survival(lam).tolist() == [1.0, 0.5, 0.5, 0.0, 0.0]

    def test_icd_curve_shape(self):
        dist = OccupancyDistribution([0.5])
        lam, surv = dist.icd_curve(11)
        assert lam.size == surv.size == 11
        assert surv[0] == 1.0 and surv[-1] == 0.0


class TestMKDistance:
    def test_point_mass_at_one(self):
        # Survival is the constant 1 on [0, 1), so the distance is
        # \int_0^1 |1 - (1 - l)| dl = 1/2 (the maximally contracted state
        # reached when the whole stream aggregates into one snapshot).
        dist = OccupancyDistribution([1.0])
        assert dist.mk_distance_to_uniform() == pytest.approx(0.5)
        assert dist.mk_proximity() == pytest.approx(0.0)

    def test_point_mass_near_zero(self):
        dist = OccupancyDistribution([1e-9])
        assert dist.mk_distance_to_uniform() == pytest.approx(0.5, abs=1e-6)

    def test_uniform_reference_is_close(self):
        dist = uniform_reference(4096)
        assert dist.mk_distance_to_uniform() < 1e-3
        assert dist.mk_proximity() == pytest.approx(0.5, abs=1e-3)

    def test_symmetric_pair(self):
        # Atoms at 1/4 and 3/4: survival 1, .5, 0 on thirds -> exact value.
        dist = OccupancyDistribution([0.25, 0.75])
        # Segments [0,.25): |1-1+l| -> l; [.25,.75): |.5-1+l|; [.75,1]: |0-1+l|.
        expected = (
            0.25**2 / 2
            + 2 * (0.25**2 / 2)
            + 0.25**2 / 2
        )
        assert dist.mk_distance_to_uniform() == pytest.approx(expected)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.01, 1.0, 50)
        dist = OccupancyDistribution(values)
        lam = np.linspace(0, 1, 200001)
        numeric = np.trapezoid(np.abs(dist.survival(lam) - (1 - lam)), lam)
        assert dist.mk_distance_to_uniform() == pytest.approx(numeric, abs=1e-4)


class TestEntropies:
    def test_shannon_uniform_slots_is_log_k(self):
        dist = uniform_reference(1000)
        assert dist.shannon_entropy(10) == pytest.approx(np.log(10), abs=1e-3)

    def test_shannon_point_mass_is_zero(self):
        dist = OccupancyDistribution([0.35])
        assert dist.shannon_entropy(10) == 0.0

    def test_shannon_needs_slots(self):
        with pytest.raises(ValidationError):
            OccupancyDistribution([0.5]).shannon_entropy(0)

    def test_cre_uniform_is_quarter(self):
        dist = uniform_reference(4096)
        assert dist.cumulative_residual_entropy() == pytest.approx(0.25, abs=1e-3)

    def test_cre_point_mass_at_one(self):
        # Survival = 1 on [0,1): -1*log(1) = 0 everywhere.
        dist = OccupancyDistribution([1.0])
        assert dist.cumulative_residual_entropy() == pytest.approx(0.0)

    def test_cre_matches_numeric(self):
        rng = np.random.default_rng(1)
        dist = OccupancyDistribution(rng.uniform(0.05, 1.0, 30))
        lam = np.linspace(0, 1, 200001)
        surv = dist.survival(lam)
        integrand = np.where(surv > 0, -surv * np.log(np.maximum(surv, 1e-300)), 0.0)
        numeric = np.trapezoid(integrand, lam)
        assert dist.cumulative_residual_entropy() == pytest.approx(numeric, abs=1e-3)


@settings(max_examples=100, deadline=None)
@given(sample=occupancy_samples())
def test_statistic_bounds_hold_for_any_distribution(sample):
    values, weights = sample
    dist = OccupancyDistribution(values, weights)
    assert 0.0 <= dist.mk_distance_to_uniform() <= 0.5
    assert 0.0 <= dist.mk_proximity() <= 0.5
    assert 0.0 <= dist.std() <= 0.5 + 1e-12
    assert 0.0 <= dist.shannon_entropy(10) <= np.log(10) + 1e-12
    # CRE on [0,1] is maximized by the uniform density at 1/4... bounded
    # by e^-1 pointwise: -s log s <= 1/e, so CRE <= 1/e.
    assert 0.0 <= dist.cumulative_residual_entropy() <= 1 / np.e + 1e-12
    assert 0.0 < dist.mean() <= 1.0


@settings(max_examples=100, deadline=None)
@given(sample=occupancy_samples())
def test_survival_is_monotone_decreasing(sample):
    values, weights = sample
    dist = OccupancyDistribution(values, weights)
    lam = np.linspace(0, 1, 101)
    surv = dist.survival(lam)
    assert np.all(np.diff(surv) <= 1e-12)
    assert surv[0] <= 1.0 and surv[-1] == pytest.approx(0.0)
