"""Discrete distributions over tolerance-binned real support points.

Binning rule: a sample x lands in the bin keyed by the integer vector
``round(x / binning)``, and samples share a bin exactly when their keys
agree in every coordinate.  The bins are found with one sort:
``DiscreteDistribution._binned`` folds the keys of a sample, a group label
first, into one int64 composite in their lexicographic order, each key
shifted to start at 0; where the product of the key widths would reach
2**62, the composite so far or the new key is replaced by its dense
rank, which keeps the order.  The bins are the runs of the sorted
composite, numbered in key order, each with its least input index as its
first sample.  ``np.round`` is odd-symmetric, so negating
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


def _keys(vals: np.ndarray, binning: float, group):
    """The int64 keys of the binning rule, a ``group`` label first, then
    ``round(x / binning)`` of each column, each shifted to start at 0 and
    given with its width, its largest value plus one."""
    if group is not None:
        yield _shifted(np.asarray(group))
    for column in vals.T:
        scaled = column / binning
        # np.rint: the rounding of np.round to integers, without its wrapper
        yield _shifted(np.rint(scaled, out=scaled))


def _shifted(key: np.ndarray) -> tuple[np.ndarray, int]:
    """``key`` less its least value as int64, and its width.  Raises
    ValueError for a key that is not finite or reaches 2**62."""
    low, high = (key.min(), key.max()) if key.size else (0, 0)
    if not -_KEY_LIMIT < low <= high < _KEY_LIMIT:
        raise ValueError(
            "cannot bin non-finite values or values with |x| / binning >= 2**62")
    return (np.subtract(key, low, dtype=np.int64, casting="unsafe"),
            int(high) - int(low) + 1)


def _rank(key: np.ndarray) -> int:
    """Replace ``key`` in place by its dense rank, 0 for its least value,
    and return the number of distinct values."""
    order = np.argsort(key)
    ranked = key[order]
    # the rank of a sorted entry is the number of changes before it
    np.add.accumulate(ranked[1:] != ranked[:-1], dtype=np.int64, out=ranked[1:])
    ranked[:1] = 0
    key[order] = ranked
    return int(ranked[-1]) + 1 if len(ranked) else 0


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

    def descending(self) -> np.ndarray:
        """Every bin index, each group's bins in descending key order."""
        lo, hi = self.starts[:-1], self.starts[1:]
        return (lo + hi - 1).repeat(hi - lo) - np.arange(len(self.first))


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
        # the keys folded into one int64 composite in their lexicographic
        # order, a key at a time: the composite so far times the key's
        # width, plus the key.  Where the product of the widths would reach
        # 2**62, the wider of the two is replaced by its dense rank first,
        # and the other too if that is not enough
        keys = _keys(vals, binning, group)
        composite, span = next(keys)
        for key, width in keys:
            if span * width >= _KEY_LIMIT and span >= width:
                span = _rank(composite)
            if span * width >= _KEY_LIMIT:
                width = _rank(key)
            if span * width >= _KEY_LIMIT:
                span = _rank(composite)
            composite *= width
            composite += key
            span *= width
        # the bin of a sample is the dense rank of its composite, and the
        # first sample of a bin the least input index in it
        first = np.full(_rank(composite), len(vals))
        np.minimum.at(first, composite, np.arange(len(vals)))
        starts = (np.array([0, len(first)]) if group is None
                  else np.searchsorted(np.asarray(group)[first], np.arange(group.max() + 2)))
        return Bins(values=vals, bin_id=composite, first=first, binning=binning, starts=starts)

    @classmethod
    def _collect(cls, bins: "Bins", weights) -> "DiscreteDistribution":
        """The distribution of ``weights`` over the samples of ``bins``."""
        vals, bin_id, first = bins.values, bins.bin_id, bins.first
        w = np.asarray(weights, dtype=float).ravel()
        if vals.shape[0] != w.shape[0]:
            raise ValueError("values and weights length mismatch")
        nbins = len(first)
        probs = bins.masses(w)
        # weighted mean location within each bin (spread < binning), a column
        # at a time: the weighted sums are added per bin in input order from
        # 0.0, as ``masses`` adds, straight into the column, through one
        # product buffer.  A bin without mass keeps its first sample
        positive = probs > 0
        empty = np.flatnonzero(~positive)
        pts = np.zeros((nbins, vals.shape[1]), order="F")
        product = np.empty_like(w)
        with np.errstate(invalid="ignore"):
            for column, values in zip(pts.T, vals.T):
                np.add.at(column, bin_id, np.multiply(w, values, out=product))
                np.divide(column, probs, out=column, where=positive)
                column[empty] = values[first[empty]]
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
