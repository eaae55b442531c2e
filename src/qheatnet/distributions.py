"""Discrete distributions over tolerance-binned real support points.

Binning rule: a sample x lands in the bin keyed by the integer vector
``round(x / binning)``, and samples share a bin exactly when their keys
agree in every coordinate.  ``np.round`` is odd-symmetric, so negating
some coordinates of every sample negates the same key coordinates and
leaves the partition of the samples into bins unchanged: the mirror
image of a bin is one bin of the mirrored samples.  The relation checks
therefore read the reverse mass at the mirror of each forward bin on the
forward binning itself (``Bins.masses``); negating every coordinate
reverses the key order, so the bins of the mirrored samples are the
forward bins of each group read backwards.
``DiscreteDistribution.masses_at`` looks points up by the same rule: it
reads the bin whose key is the point's key, never a neighbour, even one
closer than ``binning`` across a rounding boundary.  ``prob_at``, the
lookup of one point, reads through it, so the two share the key rule.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def masses(self, weights) -> np.ndarray:
        """``weights`` (one per sample, any shape) summed per bin in input
        order, as ``_collect`` sums them, so the reverse mass of a bin
        read here has the bits of a collect over the mirrored bins."""
        return np.bincount(self.bin_id, weights=np.ravel(weights), minlength=len(self.first))


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
        # the int64 keys one column at a time, a group label first
        keys = [] if group is None else [np.asarray(group, dtype=np.int64)]
        for column in vals.T:
            scaled = column / binning
            if not np.all(np.abs(scaled) < _KEY_LIMIT):
                raise ValueError(
                    "cannot bin non-finite values or values with |x| / binning >= 2**62")
            keys.append(np.round(scaled, out=scaled).astype(np.int64))
        order = np.lexsort(keys[::-1])
        # first sample of each bin in key order (none without samples): a
        # sample heads a bin when any key differs from its predecessor's
        heads = np.zeros(len(vals), dtype=bool)
        heads[:1] = True
        for key in keys:
            ranked = key[order]
            heads[1:] |= ranked[1:] != ranked[:-1]
        bin_id = np.empty(len(vals), dtype=np.intp)
        bin_id[order] = np.cumsum(heads) - 1
        first = order[heads]
        starts = (np.array([0, len(first)]) if group is None
                  else np.searchsorted(keys[0][first], np.arange(group.max() + 2)))
        return Bins(values=vals, bin_id=bin_id, first=first, binning=binning, starts=starts)

    @classmethod
    def _collect(cls, bins: "Bins", weights) -> "DiscreteDistribution":
        """The distribution of ``weights`` over the samples of ``bins``."""
        vals, bin_id, first = bins.values, bins.bin_id, bins.first
        w = np.asarray(weights, dtype=float).ravel()
        if vals.shape[0] != w.shape[0]:
            raise ValueError("values and weights length mismatch")
        nbins = len(first)
        probs = bins.masses(w)
        # weighted mean location within each bin (spread < binning); a bin
        # without mass keeps its first sample
        positive = probs > 0
        pts = vals[first]
        for j in range(vals.shape[1]):
            num = np.bincount(bin_id, weights=w * vals[:, j], minlength=nbins)
            with np.errstate(invalid="ignore"):
                np.divide(num, probs, out=pts[:, j], where=positive)
        return cls(points=pts, probs=probs, binning=bins.binning)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def total(self) -> float:
        return float(self.probs.sum())

    def scalar_points(self) -> np.ndarray:
        if self.points.shape[1] != 1:
            raise ValueError("distribution support is not one-dimensional")
        return self.points[:, 0]

    def masses_at(self, points, starts=None, default: float = 0.0) -> np.ndarray:
        """The mass at each of ``points`` in each group, shape
        (groups, n): entry [g, j] is the mass of the bins of group g whose
        key ``round(x / binning)`` is that of ``points[j]``, and
        ``default`` if there is none.  ``points`` has shape (n, k), or (n,)
        for k = 1.  Group g holds the points ``starts[g]:starts[g + 1]``
        (the groups of a binning by group, ``Bins.starts``); without
        ``starts`` all points are one group."""
        k = self.points.shape[1]
        q = np.asarray(points, dtype=float)
        if q.ndim == 1 and k == 1:
            q = q[:, None]
        if q.ndim != 2 or q.shape[1] != k:
            raise ValueError("point dimension mismatch")
        bounds = np.array([0, self.n_points]) if starts is None else np.asarray(starts)
        shape = (len(bounds) - 1, len(q))
        # np.rint: the rounding of np.round to integers, without its wrapper
        hit = np.all(np.rint(self.points / self.binning)[:, None]
                     == np.rint(q / self.binning), axis=2)
        row, col = np.nonzero(hit)
        cell = np.repeat(np.arange(shape[0]), np.diff(bounds))[row] * shape[1] + col
        mass = np.bincount(cell, weights=self.probs[row], minlength=shape[0] * shape[1])
        found = np.bincount(cell, minlength=mass.size) > 0
        return np.where(found, mass, default).reshape(shape)

    def prob_at(self, point, default: float = 0.0) -> float:
        """Mass of the bin whose key ``round(x / binning)`` is that of
        ``point``, by the binning rule; ``default`` if none."""
        return float(self.masses_at(np.reshape(point, (1, -1)), default=default)[0, 0])
