"""Stochastic ledgers and fluctuation-theorem checks on two-time grids.

Each forward trajectory is augmented with an anchor label for the
reversed process, drawn uniformly over the retained global labels; the
reversed process itself runs the interaction backwards from the same
initial eigenvectors.  Ledgers collect heat, information (classical and
coherent parts), athermality and the two-anchor mismatch term, and every
exchange-type relation in the hierarchy is evaluated as an exact finite
sum over (label, cell) tables, a cell being the outcomes (i0, i1): a
pair's summand is a forward-label x anchor-label x cell factor, but for
the joint FT's (Q, K, gamma), so only ``joint_distribution`` enumerates
the augmented pairs, for one time, each as its two positions in the
ledgers' lists of live forward and reverse entries.

Averages whose summand cancels the anchor population (the information
terms) are computed in the cancelled form over *all* labels, so states
with eigenvalues on the boundary of the simplex (exact zeros) keep their
unit averages; the naive restriction to retained trajectories would
silently lose the 0 * inf contributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import bayesnet, linalg, system
from .distributions import Bins, DiscreteDistribution

__all__ = [
    "FORWARD_QUANTITIES",
    "REVERSE_QUANTITIES",
    "LedgerSet",
    "CombinedFT",
    "JointFT",
    "PsiReport",
    "HeatBalance",
    "InfoMeans",
    "compute_ledgers",
    "integral_ft",
    "combined_integral_ft",
    "heat_distribution",
    "joint_distribution",
    "psi_factor",
    "mean_heat_balance",
    "mutual_information_check",
    "mean_quantity",
    "FT_TOL",
    "CHOI_TOL",
    "relation_checks",
]

#: quantities averaged over the forward (augmented) ensemble
FORWARD_QUANTITIES = ("i0", "j0", "c0", "sigma_a", "sigma_b", "gamma")
#: quantities averaged over the reversed / final-measurement ensemble
REVERSE_QUANTITIES = ("i1", "j1", "c1")

#: the (first, last) overlap tables of each side's weights (P_k first) last
_SIDES = {"forward": ("a0_table", "a1_table"), "reverse": ("b0_table", "b1_table")}


def _pair_positions(fwd_live: np.ndarray, rev_live: np.ndarray,
                    cells: int) -> tuple[np.ndarray, np.ndarray]:
    """The retained augmented pairs of one time as (pos_f, pos_r), int32
    positions in the live lists ``fwd_live`` and ``rev_live``: ascending
    flat indices label * cells + cell, ``cells`` = m * m.  A pair joins a
    forward and a reverse entry of the same cell.  Each forward entry, in
    list order, meets the reverse entries of its cell, label ascending, so
    the pairs run in the lexicographic order of (ki, i0, i1, kj), that of
    ``np.nonzero`` on the K x m x m x K product mask, in O(K m^2 + P) for
    P pairs, with no mask and no sort of pairs.  int32 holds every pair
    number below 2**31, over 200 GB of pair arrays at 97 B a pair."""
    fc, rc = fwd_live % cells, rev_live % cells
    # reverse entries grouped by cell: the list ascends label first, so a
    # stable sort keeps kj ascending inside a cell
    by_cell = np.argsort(rc, kind="stable").astype(np.int32)
    per_cell = np.bincount(rc, minlength=cells)
    cell_start = per_cell.cumsum() - per_cell
    fan = per_cell[fc]                      # reverse entries per forward entry
    run_start = fan.cumsum() - fan
    pos_r = (cell_start[fc] - run_start).astype(np.int32).repeat(fan)
    pos_r += np.arange(pos_r.size, dtype=np.int32)
    return np.arange(fc.size, dtype=np.int32).repeat(fan), by_cell.take(pos_r)


class LedgerSet:
    """Vectorized ledger data for a two-time basis, of one time or of a
    block of times.

    Tables of the time-t half carry the basis's leading time shape, none
    for one time and (T,) for a block; the per-label tables of the t = 0
    half (``a0_table``, ``joint0``, ``pp0``, ``e_a0``, ``e_b0``) have
    none.  The forward and reverse weights of the K retained labels over
    the cells, (P_k a0) a1 and (P_k b0) b1, are formed once, one side and
    one chunk of labels at a time (``_fold``), and never kept whole.  Kept
    are their (m, m) sums over the labels, ``fwd_cells`` and ``rev_cells``,
    bit for bit those of the whole tables, and their live entries (above the
    probability floor), ``fwd_live`` and ``rev_live``: ascending flat
    indices into (K,) + lead + (m, m), label first, 8 B per live entry.
    The fold counts the live labels per cell as it lists them, ``n_fwd``
    and ``n_rev``.  The joint FT takes its terms once per listed entry and
    addresses a pair by its positions in the two lists
    (``_pair_positions``); the gamma mean gathers from the lists.  Per
    cell, ``pair_mass`` is the reverse weight of the augmented pairs, live
    forward labels x retained reverse mass / K, and ``cell_factor`` is
    c(i0) = a_0 b_0 / (p^th_A0 p^th_B0).
    ``all_energy_conserving`` and ``detailed_residual`` have the time
    shape, and ``marg`` is ``bayesnet.local_marginals`` of the basis.
    The closed-form averages and relation checks below read the tables of
    one time and raise ValueError for a block, even of one time;
    ``heat_distribution`` and ``psi_factor`` take either.
    Raises ValueError when no global label is above the probability
    floor, leaving no anchor.
    """

    def __init__(self, basis: bayesnet.BasisSet):
        spec = basis.spec
        da, db, dim = spec.dim_a, spec.dim_b, spec.dim
        floor = spec.tol.probability_floor
        binning = spec.tol.binning
        lead = basis.overlaps[1].shape[:-3]

        self.basis = basis
        self.n_times = int(np.prod(lead))
        self.floor = floor
        self.binning = binning
        self.beta_a = spec.beta_a
        self.beta_b = spec.beta_b
        self.delta_beta = spec.beta_a - spec.beta_b
        self.dim_a, self.dim_b = da, db

        self.pops = basis.populations
        self.keep = np.flatnonzero(self.pops > floor)
        self.n_anchor = len(self.keep)
        if not self.n_anchor:
            raise ValueError(f"no global label has a population above "
                             f"probability_floor = {floor!r}")
        marg = bayesnet.local_marginals(basis)
        self.marg = marg

        m = da * db
        self.a0_table = basis.overlaps[0].reshape(dim, m)
        self.a1_table = basis.overlaps[1].reshape(lead + (dim, m))
        back = bayesnet.reverse_overlap_tables(basis)
        self.b1_table = back[0].reshape(lead + (dim, m))   # t1 local bases vs anchors
        self.b0_table = back[1].reshape(lead + (dim, m))   # t0 local bases vs backward-evolved

        self.joint0 = marg.joint_0.ravel()
        self.joint1 = marg.joint_1.reshape(lead + (m,))
        self.pp0 = np.outer(marg.a_0, marg.b_0).ravel()
        self.pp1 = (marg.a_1[..., :, None] * marg.b_1[..., None, :]).reshape(lead + (m,))

        self.e_a0, self.e_a1 = basis.energies_a
        self.e_b0, self.e_b1 = basis.energies_b
        ga, gb = basis.gibbs_a, basis.gibbs_b

        # thermal weights with energies from the ground energy, as in z_shifted
        def thermal(gibbs, energies):
            return np.exp(-gibbs.beta * (energies - gibbs.energies[0])) / gibbs.z_shifted
        self.gibbs_a, self.gibbs_b = ga, gb

        # heat tables over flattened outcome pairs (i0, i1)
        a0idx, b0idx = np.divmod(np.arange(m), db)
        self.flat_a, self.flat_b = a0idx, b0idx
        # the athermality terms' marginals and thermal weights per cell at t
        self.pa1_cell, self.pth_a1_cell = marg.a_1[..., a0idx], thermal(ga, self.e_a1)[..., a0idx]
        self.pb1_cell, self.pth_b1_cell = marg.b_1[..., b0idx], thermal(gb, self.e_b1)[..., b0idx]

        # the weight tables are never whole: one fold per side forms them a
        # chunk of labels at a time and keeps the per-cell sums, the live
        # entries and their counts, and each chunk is dropped once read, the
        # forward side's last before the reverse side's first is formed.
        # The heat tables are formed after the folds, which do not read them
        self.fwd_cells, self.fwd_live, _, self.n_fwd = self._fold("forward")
        self.rev_cells, self.rev_live, rev_ret, self.n_rev = self._fold("reverse")
        qa = self.e_a1[..., None, a0idx] - self.e_a0[a0idx][:, None]
        qb = self.e_b1[..., None, b0idx] - self.e_b0[b0idx][:, None]
        self.q_a_tab, self.q_b_tab = qa, qb

        # per time: no live forward cell moves energy out of the pair
        leak = np.where(self.n_fwd > 0, np.abs(qa + qb), 0.0)
        self.all_energy_conserving = (leak.max(axis=(-2, -1)) <= binning)[()]

        # a pair's forward weight times exp(-X) is its reverse weight times
        # c(i0): the label terms of X cancel, and the heat and athermality
        # terms leave the t = 0 marginals over their thermal weights.  So
        # the pointwise residual of every pair of a live cell is |ln c|, 0
        # when those marginals are thermal; c is computed, not assumed
        pth0 = np.outer(thermal(ga, self.e_a0), thermal(gb, self.e_b0)).ravel()
        self.cell_factor = _guarded_ratio(self.pp0, pth0, 0.0)[:, None]
        self.pair_mass = self.n_fwd * rev_ret / self.n_anchor
        ln_c = np.log(np.where((self.n_fwd > 0) & (rev_ret > 0), self.cell_factor, 1.0))
        self.detailed_residual = np.abs(ln_c).max(axis=(-2, -1))[()]

    def _fold(self, side: str) -> tuple[np.ndarray, ...]:
        """The weights of one side of the retained labels, (P_k a0) a1
        forward or (P_k b0) b1 reverse, folded one chunk of consecutive
        labels at a time into (cells, live, live_mass, count): per (time,
        cell) the sum over the labels, the live entries (above the
        probability floor) as ascending flat indices into (K,) + lead +
        (m, m), label first, the sum of the live weights and their number.

        A chunk holds as many labels as keep it within
        ``bayesnet.BLOCK_ELEMENTS`` entries, and at least one, so a block
        of a sweep is one chunk, and only one chunk exists at a time.  The
        running sum goes into the chunk's first label row, and numpy
        reduces an outer axis as a left fold, so ``cells`` is the sum of
        the whole table bit for bit (IEEE addition commutes, and no weight
        is -0.0); the live weights are added per cell in label order from
        0.0, the left fold over the labels of the masked table."""
        first, last = (np.moveaxis(getattr(self, name), -2, 0) for name in _SIDES[side])
        # a0 has no time axis: broadcast it over the lead shape of a block
        first = first.reshape(first.shape[:1] + (1,) * (last.ndim - first.ndim)
                              + first.shape[1:])
        shape = last.shape[1:] + last.shape[-1:]   # (time, cell): lead + (m, m)
        size = math.prod(shape)
        step = max(1, bayesnet.BLOCK_ELEMENTS // size)
        cells, live = 0.0, []
        live_mass, count = np.zeros(size), np.zeros(size, dtype=np.intp)
        for lo in range(0, self.n_anchor, step):
            kp = self.keep[lo:lo + step]
            pops = self.pops[kp].reshape((-1,) + (1,) * last.ndim)
            chunk = (pops * first[kp][..., :, None]) * last[kp][..., None, :]
            at = np.flatnonzero(chunk > self.floor)
            weights = chunk.take(at)
            live.append(at + lo * size)
            at %= size                          # the (time, cell) of each
            np.add.at(live_mass, at, weights)
            del weights
            count += np.bincount(at, minlength=size)
            chunk[0] += cells
            cells = chunk.sum(axis=0)
            del chunk
        return cells, np.concatenate(live), live_mass.reshape(shape), count.reshape(shape)

    def _per_cell(self, live: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per (time, cell), the sum of the ``weights`` of the live entries
        ``live`` in the order given."""
        cells = self.q_a_tab.size
        return np.bincount(live % cells, weights, cells).reshape(self.q_a_tab.shape)

    def _live_weights(self, live: np.ndarray, direction: str) -> tuple[np.ndarray, ...]:
        """The label populations P and the forward (P a0) a1 or reverse
        (P b0) b1 weights of one time at its live entries ``live``, taken
        in the fold's product order, so each has its chunk entry's bits."""
        label, i0, i1 = np.unravel_index(live, (self.n_anchor,) + self.q_a_tab.shape)
        kp = self.keep[label]
        first, last = (getattr(self, name) for name in _SIDES[direction])
        pops = self.pops[kp]
        return pops, pops * first[kp, i0] * last[kp, i1]

    @property
    def n_pairs(self) -> int:
        """Retained augmented pairs over all times, counted per cell."""
        return int(np.sum(self.n_fwd * self.n_rev))

    @cached_property
    def heat_bins(self) -> Bins:
        """The heat table ``q_a_tab`` binned once, on first use, with the
        time of a block as a leading key: the bins of time k are
        ``starts[k]:starts[k + 1]``, those of binning that time alone.
        The forward and reverse heat distributions and the psi numerator
        all collect their masses on it."""
        values = self.q_a_tab.ravel()
        time = np.arange(self.n_times).repeat(values.size // self.n_times)
        return DiscreteDistribution._binned(values, self.binning, time)


def compute_ledgers(basis: bayesnet.BasisSet) -> LedgerSet:
    """Build the ledgers for a two-time basis, of one time or of every
    time of a block at once."""
    return LedgerSet(basis)


def _one_time(ledgers: LedgerSet, name: str) -> None:
    """ValueError naming ``name`` for the ledgers of a block of times."""
    if isinstance(ledgers.basis.times, tuple):
        raise ValueError(f"{name} reads the ledgers of one time, not of a block "
                         f"of {ledgers.n_times} times")


def _guarded_ratio(num: np.ndarray, den: np.ndarray, floor: float) -> np.ndarray:
    out = np.zeros_like(num)
    ok = den > floor
    out[ok] = num[ok] / den[ok]
    return out


#: every log-ratio ledger term X = ln num - ln den, defined once: the time
#: (0 or t) whose outcome cell it reads, its numerator and its denominator,
#: per-cell tables of the ledgers, a numerator None being the label
#: population P_s.  The integral FTs, the information means and K read it.
_TERMS = {"i0": (0, None, "pp0"), "j0": (0, "joint0", "pp0"), "c0": (0, None, "joint0"),
          "i1": (1, None, "pp1"), "j1": (1, "joint1", "pp1"), "c1": (1, None, "joint1"),
          "sigma_a": (1, "pa1_cell", "pth_a1_cell"), "sigma_b": (1, "pb1_cell", "pth_b1_cell")}


def _term_values(ledgers: LedgerSet, name: str, labels, cells) -> tuple[np.ndarray, ...]:
    """Numerator and denominator of term ``name`` at global labels
    ``labels`` and outcome cells ``cells`` of the term's time."""
    _, num, den = _TERMS[name]
    top = ledgers.pops[labels] if num is None else getattr(ledgers, num)[cells]
    return top, getattr(ledgers, den)[cells]


def _log_ratio(ledgers: LedgerSet, name: str, labels, cells) -> np.ndarray:
    """Term ``name``, ln num - ln den, at ``labels`` and ``cells``."""
    top, bottom = _term_values(ledgers, name, labels, cells)
    return np.log(top) - np.log(bottom)


def integral_ft(ledgers: LedgerSet, quantity: str, measure: str) -> float:
    """<exp(-X)> for one ledger quantity under its own ensemble.

    Forward-ensemble quantities are i0, j0, c0, sigma_a, sigma_b and
    gamma; the information terms at the final time (i1, j1, c1) average
    over the reversed ensemble.  A mismatched measure raises ValueError.
    Sums that cancel the label population run over all labels, including
    zero-population ones.  Each is contracted one index at a time: the
    row sums and the table-vector products of the two D x m outcome
    tables, then one dot product over the D labels, O(D m) for
    m = d_A d_B outcome pairs.  The row sums are computed, not assumed
    to be 1.
    """
    _one_time(ledgers, "integral_ft")
    if measure not in ("forward", "reverse"):
        raise ValueError(f"unknown measure {measure!r}")
    expected = "forward" if quantity in FORWARD_QUANTITIES else (
        "reverse" if quantity in REVERSE_QUANTITIES else None)
    if expected is None:
        raise ValueError(f"unknown quantity {quantity!r}")
    if measure != expected:
        raise ValueError(
            f"quantity {quantity!r} averages over the {expected} ensemble, "
            f"not {measure!r}")

    if quantity == "gamma":
        kp = ledgers.keep
        overlap = np.dot(ledgers.b0_table[kp].sum(axis=1), ledgers.b1_table[kp].sum(axis=1))
        return float(ledgers.pops.sum() * overlap) / ledgers.n_anchor
    # sum_k w_k (t_k . v) (sum_j u_kj) over the labels k, O(D m): t is the
    # table of the outcome X reads, u the other, v = exp(-X) = den / num per
    # cell and w_k = P_k, or 1 where the numerator P_k cancels it
    time, num, den = _TERMS[quantity]
    tables, v = (ledgers.a0_table, ledgers.a1_table), getattr(ledgers, den)
    w, v = (1.0, v) if num is None else (
        ledgers.pops, _guarded_ratio(v, getattr(ledgers, num), ledgers.floor))
    return float(np.dot(w * (tables[time] @ v), tables[1 - time].sum(axis=1)))


@dataclass(frozen=True)
class CombinedFT:
    """<exp(-X)> over the augmented forward ensemble, with X the full
    exchange term; ``value_delta_beta`` replaces the two bath terms by
    Q_A * (beta_A - beta_B)."""

    value: float
    value_delta_beta: float
    all_energy_conserving: bool


def _exchange_cells(ledgers: LedgerSet, factor=1.0) -> np.ndarray:
    """Per cell, <exp(-X) * factor> over the augmented pairs: the reverse
    weight times c(i0) * factor, and for pairs dropped by the floor the
    reverse weight alone, the cancelled form that keeps
    boundary-of-simplex cases exact.  It reads only per-cell tables,
    ``rev_cells`` and ``pair_mass``, never a weight per label."""
    return ledgers.rev_cells + ledgers.pair_mass * (ledgers.cell_factor * factor - 1.0)


def combined_integral_ft(ledgers: LedgerSet) -> CombinedFT:
    _one_time(ledgers, "combined_integral_ft")
    # Q_A dbeta for the bath terms multiplies exp(-X) by
    # exp(beta_A Q_A + beta_B Q_B - dbeta Q_A) = exp(beta_B (Q_A + Q_B))
    bath = np.exp(ledgers.beta_b * (ledgers.q_a_tab + ledgers.q_b_tab))
    return CombinedFT(value=float(_exchange_cells(ledgers).sum()),
                      value_delta_beta=float(_exchange_cells(ledgers, bath).sum()),
                      all_energy_conserving=bool(ledgers.all_energy_conserving))


def heat_distribution(ledgers: LedgerSet, direction: str = "forward") -> DiscreteDistribution:
    """Distribution of the heat absorbed by subsystem A.

    ``forward`` bins the forward path weights; ``reverse`` bins the
    time-reversed process, whose heat values are sign-flipped relative to
    the forward energy differences.  Both collect on the ledgers' one
    binning of the heat table, ``heat_bins``, the per-cell weights
    ``fwd_cells`` and ``rev_cells`` that the ledgers summed over the
    labels chunk by chunk.  By the binning rule the reverse bins are the
    forward bins in reverse order: the reverse weights are collected on
    the negated heat values and read backwards.  The relations read
    P_r(-Q) on the forward bins instead (``PsiReport.p_r``).

    For the ledgers of a block the result holds the distributions of all
    its times, one after another: time k has the bins
    ``heat_bins.starts[k]:starts[k + 1]``, each equal to its one-time
    distribution bit for bit, the order reversed within each time.
    """
    bins = ledgers.heat_bins
    if direction == "forward":
        return DiscreteDistribution._collect(bins, ledgers.fwd_cells)
    if direction != "reverse":
        raise ValueError(f"unknown direction {direction!r}")
    # negated before the collect, so a bin at Q = 0 keeps +0.0
    rev = DiscreteDistribution._collect(replace(bins, values=-bins.values), ledgers.rev_cells)
    order = bins.descending()
    return DiscreteDistribution(rev.points[order], rev.probs[order], rev.binning)


@dataclass(frozen=True)
class JointFT:
    """Joint (Q, K, gamma) statistics and the bin-by-bin detailed check.

    ``p_r[j]`` is the reverse weight of the pairs of forward bin j: their
    reverse samples (-Q, -K, gamma) make up one reverse bin, so it is P_r
    at the mirror of bin j."""

    forward: DiscreteDistribution
    p_r: np.ndarray
    max_residual: float
    n_checked: int
    n_unverified: int


def _pairs(ledgers: LedgerSet) -> tuple[np.ndarray, ...]:
    """The augmented pairs of the ledgers of one time as (ki, kj, samples,
    w_f, w_r): forward and anchor labels (positions in ``keep``), the
    (P, 3) samples (Q, K, gamma) and the pair weights over the anchors,
    in the order of ``_pair_positions``.  Each term and weight is taken
    once per live entry and gathered per pair in the order of the per-pair
    sums, so each has the bits of its terms evaluated at the pair.  The
    logs are taken with divide and invalid warnings off: a marginal or a
    thermal weight may underflow to 0.0."""
    n, shape = ledgers.n_anchor, ledgers.q_a_tab.shape
    fwd, rev = ledgers.fwd_live, ledgers.rev_live
    pos_f, pos_r = _pair_positions(fwd, rev, ledgers.q_a_tab.size)
    ki, f0, f1 = np.unravel_index(fwd, (n,) + shape)
    kj, r0, r1 = np.unravel_index(rev, (n,) + shape)
    s, t = ledgers.keep[ki], ledgers.keep[kj]
    with np.errstate(divide="ignore", invalid="ignore"):
        # i = j + c: the classical part plus the coherent part
        col_i0 = _log_ratio(ledgers, "j0", s, f0) + _log_ratio(ledgers, "c0", s, f0)
        col_i1 = _log_ratio(ledgers, "j1", t, r1) + _log_ratio(ledgers, "c1", t, r1)
        sigma_a, sigma_b = (_log_ratio(ledgers, name, t, r1) for name in ("sigma_a", "sigma_b"))
        ln_a = np.log(ledgers.a0_table[s, f0]) + np.log(ledgers.a1_table[s, f1])
        ln_b0, ln_b1 = np.log(ledgers.b0_table[t, r0]), np.log(ledgers.b1_table[t, r1])
    samples = np.empty((pos_f.size, 3), order="F")
    q, col_k, col_gamma = samples.T
    ledgers.q_a_tab[f0, f1].take(pos_f, out=q)
    np.subtract(col_i1.take(pos_r), col_i0.take(pos_f), out=col_k)
    col_k += sigma_a.take(pos_r)
    col_k += sigma_b.take(pos_r)
    np.subtract(ln_a.take(pos_f), ln_b0.take(pos_r), out=col_gamma)
    col_gamma -= ln_b1.take(pos_r)
    w_f = ledgers._live_weights(fwd, "forward")[1].take(pos_f)
    w_f /= n
    w_r = ledgers._live_weights(rev, "reverse")[1].take(pos_r)
    w_r /= n
    return ki.take(pos_f), kj.take(pos_r), samples, w_f, w_r


def joint_distribution(ledgers: LedgerSet) -> JointFT:
    """Check each forward (Q, K, gamma) bin against the reverse bin of
    the same pairs.  The only relation that enumerates the augmented
    pairs: their samples are binned once, and by the binning rule the
    reverse samples (-Q, -K, gamma) of a forward bin make up one reverse
    bin, so both weights are collected on the forward bins."""
    _one_time(ledgers, "joint_distribution")
    floor = ledgers.floor
    samples, w_f, w_r = _pairs(ledgers)[2:]
    # each pair array is released as soon as it has been read
    bins = DiscreteDistribution._binned(samples, ledgers.binning)
    del samples
    pr = bins.masses(w_r)
    del w_r
    fwd = DiscreteDistribution._collect(bins, w_f)
    del w_f, bins
    pf = fwd.probs

    live = pf > floor
    checked = live & (pr > floor)
    n_checked = int(checked.sum())
    # the residual over all bins, read where checked; exp(0) stands in
    # for an unchecked bin, whose exponent may overflow
    q, kk, gg = fwd.points.T
    x = q * ledgers.delta_beta
    x -= kk
    x += gg
    x[~checked] = 0.0
    np.exp(x, out=x)
    x *= pr
    np.subtract(pf, x, out=x)
    resid = np.abs(x, out=x).max(initial=0.0, where=checked)
    return JointFT(forward=fwd, p_r=pr, max_residual=float(resid),
                   n_checked=n_checked,
                   n_unverified=int(live.sum()) - n_checked)


@dataclass(frozen=True)
class PsiReport:
    """Heat-conditioned correction factor and the modified detailed check.

    ``forward`` is the forward heat distribution and ``p_r[j]`` the
    reverse weight of the cells of its bin j, P_r(-Q).  For each forward
    bin above the floor, ``psi`` is the conditional average of
    exp(K - gamma); ``residuals`` compares P_f(Q) * psi(Q) against
    exp(Q * delta_beta) * P_r(-Q) where P_r(-Q) is above the floor too.
    Bins skipped for lack of forward or reverse mass are counted, not
    asserted."""

    forward: DiscreteDistribution
    p_r: np.ndarray
    q_values: np.ndarray
    psi: np.ndarray
    p_f: np.ndarray
    p_r_mirror: np.ndarray
    residuals: np.ndarray
    max_residual: float
    n_skipped: int


def psi_factor(ledgers: LedgerSet) -> PsiReport:
    """psi and the modified detailed check on every forward heat bin
    above the probability floor, in bin order.  For the ledgers of a
    block the report runs over the bins of all its times, time by time,
    as ``heat_distribution`` does; ``max_residual`` and ``n_skipped``
    cover the whole block."""
    bins, floor = ledgers.heat_bins, ledgers.floor
    p_f = heat_distribution(ledgers, "forward")
    p_r = bins.masses(ledgers.rev_cells)

    # numerator of psi per heat bin: exp(K - gamma) = exp(-X) times the
    # bath terms, summed per cell on p_f's bins; only cells with exchange
    # weight take the bath (no 0 * inf), in log space where it overflows
    exchange = _exchange_cells(ledgers)
    exponent = ledgers.beta_a * ledgers.q_a_tab + ledgers.beta_b * ledgers.q_b_tab
    cold = (exponent > np.log(np.finfo(float).max)) & (exchange > 0)
    with np.errstate(over="ignore"):
        terms = np.multiply(exchange, np.exp(exponent), out=np.zeros_like(exchange),
                            where=exchange != 0)
        terms[cold] = np.exp(np.log(exchange[cold]) + exponent[cold])
    num = bins.masses(terms)

    live = p_f.probs > floor
    q, pf, pr = p_f.scalar_points()[live], p_f.probs[live], p_r[live]
    psi = num[live] / pf
    ok = pr > floor
    resids = np.abs(pf[ok] * psi[ok] - np.exp(q[ok] * ledgers.delta_beta) * pr[ok])
    return PsiReport(forward=p_f, p_r=p_r, q_values=q, psi=psi, p_f=pf, p_r_mirror=pr,
                     residuals=resids, max_residual=float(resids.max(initial=0.0)),
                     n_skipped=int(p_r.size - np.count_nonzero(ok)))


@dataclass(frozen=True)
class HeatBalance:
    """Mean heat times the temperature bias against its entropic budget:
    the mutual-information change plus the athermality of both reduced
    states relative to their initial Gibbs states.

    ``lhs`` comes from the trajectory ensemble, ``rhs`` from the spectra
    of the reduced states: S(rho(t)) = S(rho_0) under the unitary, so the
    global entropies cancel, and D(rho_A(t)||gamma_A) is
    -S_A(t) + beta_A * sum_a p_a (e_a - E_0) + ln sum exp(-beta_A (E - E_0))
    over the eigenvalues p_a of rho_A(t), their energies e_a = <a|H_A|a>
    and the Gibbs energies E from the ground energy E_0 (likewise for B).
    No energy origin enters, and no threshold but that of the entropies:
    ``linalg.spectral_entropy``'s default cut counts eigenvalues at or
    below 1e-14 as zero, not ``probability_floor``."""

    mean_q_a: float
    lhs: float
    rhs: float
    residual: float
    heat_reversed: bool


def _athermality(pops: np.ndarray, energies: np.ndarray, gibbs: system.GibbsState,
                 entropy: float) -> float:
    """D(rho || gamma) of a reduced state with populations ``pops`` in its
    eigenbasis, its entropy S(pops) and energies <a|H|a> there against its
    Gibbs state, read from the spectra: no thermal weight enters, so none
    can underflow."""
    e0 = gibbs.energies[0]
    return float(gibbs.beta * np.dot(pops, energies - e0)
                 + np.log(gibbs.z_shifted) - entropy)


def mean_heat_balance(ledgers: LedgerSet) -> HeatBalance:
    _one_time(ledgers, "mean_heat_balance")
    mean_q_a = float(np.sum(ledgers.fwd_cells * ledgers.q_a_tab))
    lhs = mean_q_a * ledgers.delta_beta

    basis = ledgers.basis
    s_a0, s_b0, s_a1, s_b1 = (linalg.spectral_entropy(local[n].values)
                              for n in (0, 1) for local in (basis.local_a, basis.local_b))

    # the mutual-information change: S(rho(t)) = S(rho_0) cancels
    rhs = (s_a1 + s_b1 - (s_a0 + s_b0)
           + _athermality(basis.local_a[1].values, basis.energies_a[1], ledgers.gibbs_a, s_a1)
           + _athermality(basis.local_b[1].values, basis.energies_b[1], ledgers.gibbs_b, s_b1))
    return HeatBalance(
        mean_q_a=mean_q_a, lhs=lhs, rhs=rhs,
        residual=abs(lhs - rhs), heat_reversed=lhs < 0,
    )


@dataclass(frozen=True)
class InfoMeans:
    """Stochastic information averages against their entropic values."""

    mean_i0: float
    info_0: float
    mean_i1: float
    info_1: float

    @property
    def max_residual(self) -> float:
        return max(abs(self.mean_i0 - self.info_0), abs(self.mean_i1 - self.info_1))


def mutual_information_check(ledgers: LedgerSet) -> InfoMeans:
    _one_time(ledgers, "mutual_information_check")
    marg, floor = ledgers.marg, ledgers.floor
    s_global = linalg.spectral_entropy(ledgers.pops, floor)
    info_0 = (linalg.spectral_entropy(marg.a_0, floor)
              + linalg.spectral_entropy(marg.b_0, floor) - s_global)
    info_1 = (linalg.spectral_entropy(marg.a_1, floor)
              + linalg.spectral_entropy(marg.b_1, floor) - s_global)
    return InfoMeans(
        mean_i0=mean_quantity(ledgers, "i0"),
        info_0=info_0,
        mean_i1=mean_quantity(ledgers, "i1"),
        info_1=info_1,
    )


def mean_quantity(ledgers: LedgerSet, quantity: str) -> float:
    """<X> for one ledger quantity under its own ensemble, sigma's as in the heat balance."""
    _one_time(ledgers, "mean_quantity")
    kp, floor = ledgers.keep, ledgers.floor
    if quantity == "sigma_a":
        pops = ledgers.marg.a_1
        return _athermality(pops, ledgers.e_a1, ledgers.gibbs_a, linalg.spectral_entropy(pops))
    if quantity == "sigma_b":
        pops = ledgers.marg.b_1
        return _athermality(pops, ledgers.e_b1, ledgers.gibbs_b, linalg.spectral_entropy(pops))
    if quantity in _TERMS:
        time = _TERMS[quantity][0]
        w = ledgers.pops[kp, None] * (ledgers.a0_table, ledgers.a1_table)[time][kp]
        live = w > floor
        labels, cells = np.nonzero(live)
        top, bottom = _term_values(ledgers, quantity, kp[labels], cells)
        ok = (top > floor) & (bottom > floor)
        return float(np.sum(w[live][ok] * (np.log(top[ok]) - np.log(bottom[ok]))))
    if quantity == "gamma":
        # gamma of a pair (s, t) is g_f(s) - g_r(t), g = ln(weight / label
        # population): per cell, each forward term meets every live anchor
        # and each anchor term the live forward mass, summed in label order
        pops, f = ledgers._live_weights(ledgers.fwd_live, "forward")
        f_g_f = ledgers._per_cell(ledgers.fwd_live, f * np.log(f / pops))
        f_sum = ledgers._per_cell(ledgers.fwd_live, f)
        pops, r = ledgers._live_weights(ledgers.rev_live, "reverse")
        g_r_sum = ledgers._per_cell(ledgers.rev_live, np.log(r / pops))
        return float(np.sum(ledgers.n_rev * f_g_f - f_sum * g_r_sum)) / ledgers.n_anchor
    raise ValueError(f"unknown quantity {quantity!r}")


#: tolerance of every relation check but the channel-state route
FT_TOL = 1e-9
#: tolerance of the channel-state route against the path table
CHOI_TOL = 1e-12


def relation_checks(ledgers: LedgerSet) -> tuple[system.CheckResult, ...]:
    """Every relation of the hierarchy on the ledgers of one time, in a
    fixed order: the nine integral FTs (forward quantities, then
    reverse), the combined FT and, when every live forward cell conserves
    energy, its heat-bias form, then the pointwise, joint and psi-modified
    detailed FTs, the heat balance, the channel-state route and the
    stochastic information averages."""
    _one_time(ledgers, "relation_checks")
    check = system.CheckResult
    checks = [check(f"integral_ft[{name}]", integral_ft(ledgers, name, measure), FT_TOL, 1.0)
              for names, measure in ((FORWARD_QUANTITIES, "forward"),
                                     (REVERSE_QUANTITIES, "reverse"))
              for name in names]
    combined = combined_integral_ft(ledgers)
    checks.append(check("combined_ft", combined.value, FT_TOL, 1.0))
    if combined.all_energy_conserving:
        checks.append(check("combined_ft_delta_beta", combined.value_delta_beta, FT_TOL, 1.0))
    checks += [
        check("detailed_ft_pointwise", ledgers.detailed_residual, FT_TOL),
        check("joint_detailed_ft", joint_distribution(ledgers).max_residual, FT_TOL),
        check("modified_heat_ft", psi_factor(ledgers).max_residual, FT_TOL),
        check("mean_heat_balance", mean_heat_balance(ledgers).residual, FT_TOL),
    ]
    basis = ledgers.basis
    choi = np.abs(bayesnet.path_probability_table(basis)
                  - bayesnet.choi_path_probability(basis)).max()
    checks.append(check("choi_consistency", float(choi), CHOI_TOL))
    checks.append(check("mutual_information",
                        mutual_information_check(ledgers).max_residual, FT_TOL))
    return tuple(checks)
