"""Weighted distributions of occupancy rates.

The occupancy method compares, for each aggregation period Δ, the
distribution of occupancy rates of all minimal trips against the uniform
density on ``[0, 1]``.  :class:`OccupancyDistribution` stores such a
distribution as weighted atoms and computes every statistic Section 7 of
the paper evaluates: the Monge–Kantorovich distance/proximity, standard
deviation, variation coefficient, slotted Shannon entropy, and
cumulative residual entropy — all in closed form (the survival function
of an atomic distribution is a step function, so the integrals reduce to
exact sums).
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ValidationError


class OccupancyDistribution:
    """A probability distribution on ``(0, 1]`` given by weighted atoms.

    Atoms are deduplicated, sorted, and weights normalized to 1.  All
    occupancy rates lie in ``(0, 1]`` by Remark 2 of the paper
    (``0 < hops <= time`` in a graph series).
    """

    __slots__ = ("_values", "_weights", "_total")

    def __init__(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValidationError("distribution needs a non-empty 1-d array of values")
        if weights is None:
            weights = np.ones_like(values)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != values.shape:
                raise ValidationError("weights must match values")
            if np.any(weights < 0):
                raise ValidationError("weights must be non-negative")
        if np.any((values <= 0) | (values > 1)):
            raise ValidationError("occupancy rates must lie in (0, 1]")
        total = weights.sum()
        if total <= 0:
            raise ValidationError("total weight must be positive")
        order = np.argsort(values)
        values = values[order]
        weights = weights[order]
        # Merge equal atoms.
        fresh = np.ones(values.size, dtype=bool)
        fresh[1:] = values[1:] != values[:-1]
        idx = np.cumsum(fresh) - 1
        merged_values = values[fresh]
        merged_weights = np.zeros(merged_values.size)
        np.add.at(merged_weights, idx, weights)
        keep = merged_weights > 0
        self._values = merged_values[keep]
        self._weights = merged_weights[keep] / total
        self._total = float(total)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_histogram(
        cls, counts: np.ndarray, *, ones_count: float = 0.0
    ) -> "OccupancyDistribution":
        """Build from equal-width bin counts on ``(0, 1)`` plus an exact
        atom at 1.

        Bin ``j`` of ``k`` is represented by its midpoint ``(j + 0.5)/k``.
        The occupancy value 1 (single-hop trips — the mass the paper
        watches saturate) is kept exact rather than smeared into the last
        bin.
        """
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValidationError("histogram needs at least one bin")
        bins = counts.size
        centers = (np.arange(bins) + 0.5) / bins
        values = np.append(centers, 1.0)
        weights = np.append(counts, float(ones_count))
        mask = weights > 0
        if not np.any(mask):
            raise ValidationError("histogram is empty")
        return cls(values[mask], weights[mask])

    # -- basic accessors ------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Sorted distinct atom values."""
        return self._values

    @property
    def weights(self) -> np.ndarray:
        """Normalized atom probabilities (sum to 1)."""
        return self._weights

    @property
    def total_weight(self) -> float:
        """Unnormalized total mass (number of trips, for trip counts)."""
        return self._total

    def __repr__(self) -> str:
        return (
            f"OccupancyDistribution({self._values.size} atoms, "
            f"mean={self.mean():.4f}, total={self._total:g})"
        )

    # -- moments -----------------------------------------------------------

    def mean(self) -> float:
        return float(np.dot(self._values, self._weights))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot((self._values - mu) ** 2, self._weights))

    def std(self) -> float:
        """Standard deviation — the Section 7 'standard deviation' selector."""
        return float(np.sqrt(self.variance()))

    def variation_coefficient(self) -> float:
        """``σ / μ`` — the (rejected) Section 7 selector."""
        mu = self.mean()
        if mu == 0:
            raise ValidationError("variation coefficient undefined for zero mean")
        return self.std() / mu

    def mass_at(self, value: float) -> float:
        """Probability carried by one exact atom (e.g. occupancy 1)."""
        pos = np.searchsorted(self._values, value)
        if pos < self._values.size and self._values[pos] == value:
            return float(self._weights[pos])
        return 0.0

    # -- survival / ICD --------------------------------------------------------

    def survival(self, lam: np.ndarray) -> np.ndarray:
        """``P(X > λ)`` — the paper's Inverse Cumulative Distribution (ICD)."""
        lam = np.asarray(lam, dtype=np.float64)
        cum = np.concatenate([[0.0], np.cumsum(self._weights)])
        idx = np.searchsorted(self._values, lam, side="right")
        return 1.0 - cum[idx]

    def icd_curve(self, points: int = 101) -> tuple[np.ndarray, np.ndarray]:
        """Sampled ICD on a regular λ grid (for plotting/reporting)."""
        lam = np.linspace(0.0, 1.0, points)
        return lam, self.survival(lam)

    def _segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Constant-survival segments covering ``[0, 1]``.

        Returns ``(starts, ends, survivals)``: on ``[starts_i, ends_i)``
        the survival function equals ``survivals_i``.
        """
        starts = np.concatenate([[0.0], self._values])
        ends = np.concatenate([self._values, [1.0]])
        survivals = np.concatenate([[1.0], 1.0 - np.cumsum(self._weights)])
        # Numerical guard: the final survival is exactly 0.
        survivals[-1] = 0.0
        keep = ends > starts
        return starts[keep], ends[keep], survivals[keep]

    # -- uniformity statistics ----------------------------------------------

    def mk_distance_to_uniform(self) -> float:
        """Exact Monge–Kantorovich (Wasserstein-1) distance to the uniform
        density on ``[0, 1]``.

        ``d = ∫_0^1 |P(X > λ) − (1 − λ)| dλ`` — the area between the ICD
        and the diagonal ``y = 1 − x`` (Section 7).  Always ``< 1/2``.
        """
        a, b, s = self._segments()
        c = 1.0 - s  # the λ where the integrand changes sign on the segment
        below = np.minimum(np.maximum(c, a), b)  # clamp crossing into [a, b]
        # ∫_a^x (c - λ) dλ + ∫_x^b (λ - c) dλ with x = clamped crossing.
        left = (below - a) * (c - (a + below) / 2.0)
        right = (b - below) * ((below + b) / 2.0 - c)
        return float(np.sum(left + right))

    def mk_proximity(self) -> float:
        """``1/2 − d_MK`` — maximized by the occupancy method (Figure 3)."""
        return 0.5 - self.mk_distance_to_uniform()

    def shannon_entropy(self, slots: int = 10) -> float:
        """Shannon entropy of the distribution discretized into ``slots``
        equal-width slots of ``[0, 1]`` (Section 7; slot count is the
        parameter whose sensitivity the paper discusses).
        """
        if slots < 1:
            raise ValidationError("need at least one slot")
        idx = np.minimum((self._values * slots).astype(np.int64), slots - 1)
        probs = np.zeros(slots)
        np.add.at(probs, idx, self._weights)
        probs = probs[probs > 0]
        # Normalized weights can overshoot 1 by an ulp (e.g. all mass in
        # one slot), making -p log p a tiny negative; entropy is >= 0.
        return max(0.0, float(-(probs * np.log(probs)).sum()))

    def cumulative_residual_entropy(self) -> float:
        """CRE ``ε(X) = −∫_0^1 P(X>λ) log P(X>λ) dλ`` (Section 7).

        Maximal for the uniform density on the support; defined on the
        common support ``[0, 1]`` so distributions for different Δ are
        comparable.
        """
        a, b, s = self._segments()
        positive = s > 0
        lengths = (b - a)[positive]
        surv = s[positive]
        # Same ulp guard as shannon_entropy: survival values touching 1
        # from above would otherwise push the integral a hair below 0.
        return max(0.0, float(-(lengths * surv * np.log(surv)).sum()))


def uniform_reference(atoms: int = 512) -> OccupancyDistribution:
    """A fine atomic approximation of the uniform density on ``(0, 1]``.

    Useful in tests: its M-K distance to uniform tends to 0 as ``atoms``
    grows, and its CRE approaches the uniform maximum
    ``∫ −(1−λ)ln(1−λ) dλ = 1/4``.
    """
    centers = (np.arange(atoms) + 0.5) / atoms
    return OccupancyDistribution(centers)
