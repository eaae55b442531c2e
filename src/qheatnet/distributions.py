"""Discrete distributions over tolerance-binned real support points.

Binning rule: a sample x lands in the bin keyed by the integer vector
``round(x / binning)``, and samples share a bin exactly when their keys
agree in every coordinate.  ``np.round`` is odd-symmetric, so negating
some coordinates of every sample negates the same key coordinates and
leaves the partition of the samples into bins unchanged.  A distribution
and its mirror image over the same samples therefore have the same bins,
one to one.  The relation checks pair bins that way, not by matching
support points within ``binning`` (``prob_at``): two bins on either side
of a rounding boundary can lie closer than ``binning``, and a point match
then counts the mass of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Bins", "DiscreteDistribution"]

#: bin keys are int64; |x| / binning must stay below this so none wraps
_KEY_LIMIT = 2.0 ** 62


@dataclass(frozen=True)
class Bins:
    """A partition of samples into bins by the binning rule.

    ``values`` has shape (n, k); ``bin_id[i]`` is the bin of sample i,
    bins numbered in lexicographic key order; ``first[j]`` is the first
    sample of bin j in input order.  Distributions of any weights over the
    same samples share it (``DiscreteDistribution._collect``).

    Samples may carry a group label, acting as a leading key
    (``DiscreteDistribution._binned``): bins then run group by group,
    group g holding bins ``starts[g]:starts[g + 1]``, each group's bins
    in key order.  A plain binning is one group.
    """

    values: np.ndarray
    bin_id: np.ndarray
    first: np.ndarray
    binning: float
    starts: np.ndarray

    @cached_property
    def mirror(self) -> np.ndarray:
        """``mirror[j]``: the bin holding the samples of bin j once every
        sample is negated.  Negating every key coordinate reverses the
        lexicographic order of the keys within each group and keeps the
        input order within a bin."""
        lo, hi = self.starts[:-1], self.starts[1:]
        return (lo + hi - 1).repeat(hi - lo) - np.arange(len(self.first))

    def mirrored(self) -> "Bins":
        """The bins of the negated samples, without binning them again:
        bin j becomes bin ``mirror[j]``, with the same first sample."""
        return Bins(values=-self.values, bin_id=self.mirror[self.bin_id],
                    first=self.first[self.mirror], binning=self.binning, starts=self.starts)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability masses over points in R^k, merged within a bin tolerance.

    ``points`` has shape (n, k) with rows sorted lexicographically;
    ``probs`` are the matching masses.  Scalar-valued distributions use
    k = 1 but accept plain floats in lookups.
    """

    points: np.ndarray
    probs: np.ndarray
    binning: float = 1e-9

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.points.shape[0] != self.probs.shape[0]:
            raise ValueError("points and probs length mismatch")

    @classmethod
    def from_samples(
        cls,
        values: np.ndarray,
        weights: np.ndarray,
        binning: float = 1e-9,
    ) -> "DiscreteDistribution":
        """Bin weighted samples by the module's binning rule; every sample
        keeps its bin, even at zero weight.  Raises ValueError for a value
        that is not finite or whose key would overflow."""
        return cls._collect(cls._binned(values, binning), weights)

    @staticmethod
    def _binned(values, binning: float, group=None) -> "Bins":
        """The bin of each sample by the binning rule, without weights;
        the expensive half of ``from_samples``.  An integer ``group``
        label per sample (0, 1, ...) is a leading key: samples share a
        bin when they share a group and a key, and the bins of each group
        are those a binning of that group alone would give, in the same
        order and with the same first samples."""
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        scaled = vals / binning
        if not np.all(np.abs(scaled) < _KEY_LIMIT):
            raise ValueError(
                "cannot bin non-finite values or values with |x| / binning >= 2**62")

        keys = np.round(scaled).astype(np.int64)
        if group is not None:
            keys = np.column_stack((group, keys))
        order = np.lexsort(keys.T[::-1])
        ranked = keys[order]
        # first sample of each bin in key order (none without samples)
        heads = np.concatenate(([True], np.any(ranked[1:] != ranked[:-1], axis=1)))[:len(vals)]
        bin_id = np.empty(len(vals), dtype=np.intp)
        bin_id[order] = np.cumsum(heads) - 1
        first = order[heads]
        starts = (np.array([0, len(first)]) if group is None
                  else np.searchsorted(keys[first, 0], np.arange(group.max() + 2)))
        return Bins(values=vals, bin_id=bin_id, first=first, binning=binning, starts=starts)

    @classmethod
    def _collect(cls, bins: "Bins", weights) -> "DiscreteDistribution":
        """The distribution of ``weights`` over the samples of ``bins``."""
        vals, bin_id, first = bins.values, bins.bin_id, bins.first
        w = np.asarray(weights, dtype=float).ravel()
        if vals.shape[0] != w.shape[0]:
            raise ValueError("values and weights length mismatch")
        nbins = len(first)
        probs = np.bincount(bin_id, weights=w, minlength=nbins)
        # weighted mean location within each bin (spread < binning)
        pts = np.empty((nbins, vals.shape[1]))
        for j in range(vals.shape[1]):
            num = np.bincount(bin_id, weights=w * vals[:, j], minlength=nbins)
            with np.errstate(invalid="ignore"):
                pts[:, j] = np.where(probs > 0, num / np.where(probs > 0, probs, 1.0),
                                     vals[first, j])
        return cls(points=pts, probs=probs, binning=bins.binning)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def split(self, starts) -> list["DiscreteDistribution"]:
        """The distributions of consecutive runs of points, run j being
        ``starts[j]:starts[j + 1]`` (the groups of a binning by group)."""
        return [DiscreteDistribution(self.points[lo:hi], self.probs[lo:hi], self.binning)
                for lo, hi in zip(starts[:-1], starts[1:])]

    @property
    def total(self) -> float:
        return float(self.probs.sum())

    def scalar_points(self) -> np.ndarray:
        if self.points.shape[1] != 1:
            raise ValueError("distribution support is not one-dimensional")
        return self.points[:, 0]

    def prob_at(self, point, default: float = 0.0) -> float:
        """Mass of the bin containing ``point``; ``default`` if none."""
        q = np.atleast_1d(np.asarray(point, dtype=float))
        if q.shape[0] != self.points.shape[1]:
            raise ValueError("point dimension mismatch")
        hit = np.all(np.abs(self.points - q[None, :]) <= self.binning, axis=1)
        idx = np.flatnonzero(hit)
        if idx.size == 0:
            return default
        return float(self.probs[idx].sum())
