"""Stochastic ledgers and fluctuation-theorem checks on two-time grids.

Each forward trajectory is augmented with an anchor label for the
reversed process, drawn uniformly over the retained global labels; the
reversed process itself runs the interaction backwards from the same
initial eigenvectors.  Per-pair ledgers collect heat, information
(classical and coherent parts), athermality and the two-anchor mismatch
term, and every exchange-type relation in the hierarchy is evaluated as
an exact finite sum.

Averages whose summand cancels the anchor population (the information
terms) are computed in the cancelled form over *all* labels, so states
with eigenvalues on the boundary of the simplex (exact zeros) keep their
unit averages; the naive restriction to retained trajectories would
silently lose the 0 * inf contributions.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _pair_indices(fmask: np.ndarray, rmask: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index arrays (t, ki, kj, i0, i1) of the retained augmented pairs
    of masks (T, K, m, m) over T times.

    A pair joins a live forward cell ``fmask[t, ki, i0, i1]`` with a live
    reverse cell ``rmask[t, kj, i0, i1]`` on the same time and outcomes.
    The arrays come in the lexicographic (t, ki, kj, i0, i1) order of
    ``np.nonzero`` on the T x K x K x m x m product mask, so the pairs of
    each time are one contiguous run and every sum over pairs keeps its
    bits, but the work is O(T K m^2 + P) for P pairs: each forward entry
    is expanded over the reverse labels of its own cell, then the unique
    integer keys of the pairs are sorted.
    """
    n_t, k, m, _ = fmask.shape
    cells = m * m
    # forward entries as (time * K + ki, cell); reverse entries grouped by
    # cell over all times, kj ascending inside a cell
    fk, fc = np.divmod(fmask.ravel().nonzero()[0], cells)
    rc, rk = np.divmod(rmask.reshape(n_t, k, cells).transpose(0, 2, 1).ravel().nonzero()[0], k)
    fcell = fk // k * cells + fc
    per_cell = np.bincount(rc, minlength=n_t * cells)
    cell_start = per_cell.cumsum() - per_cell
    fan = per_cell[fcell]                   # reverse labels per forward entry
    run_start = fan.cumsum() - fan
    kj = rk[(cell_start[fcell] - run_start).repeat(fan) + np.arange(fan.sum())]
    key = (fk.repeat(fan) * k + kj) * cells + fc.repeat(fan)
    key.sort()
    t_ki_kj, cell = np.divmod(key, cells)
    t_ki, kj = np.divmod(t_ki_kj, k)
    t, ki = np.divmod(t_ki, k)
    i0, i1 = np.divmod(cell, m)
    return t, ki, kj, i0, i1


class LedgerSet:
    """Vectorized ledger data for a two-time basis, of one time or of a
    block of times.

    Tables of the time-t half carry the basis's leading time shape, none
    for one time and (T,) for a block; the per-label tables of the t = 0
    half (``a0_table``, ``joint0``, ``pp0``, ``e_a0``, ``e_b0``) have
    none.  Pair arrays list the retained augmented pairs of all times,
    time-major, ``t_index`` holding each pair's time (0 for one time);
    the pairs of one time keep its one-time order.
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
        n_t = int(np.prod(lead))

        self.basis = basis
        self.n_times = n_t
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
        self.pth_a1 = np.exp(-spec.beta_a * (self.e_a1 - ga.energies[0])) / ga.z_shifted
        self.pth_b1 = np.exp(-spec.beta_b * (self.e_b1 - gb.energies[0])) / gb.z_shifted
        self.gibbs_a, self.gibbs_b = ga, gb

        # heat tables over flattened outcome pairs (i0, i1)
        a0idx, b0idx = np.divmod(np.arange(m), db)
        self.flat_a, self.flat_b = a0idx, b0idx
        qa = self.e_a1[..., None, a0idx] - self.e_a0[a0idx][:, None]
        qb = self.e_b1[..., None, b0idx] - self.e_b0[b0idx][:, None]
        self.q_a_tab, self.q_b_tab = qa, qb

        kp = self.keep
        self.fwd = ((self.pops[kp, None, None] * self.a0_table[kp][:, :, None])
                    * self.a1_table[..., kp, None, :])
        self.rev = (self.pops[kp, None, None]
                    * self.b0_table[..., kp, :, None]
                    * self.b1_table[..., kp, None, :])
        self.fmask = self.fwd > floor
        self.rmask = self.rev > floor

        # per time: no live forward cell moves energy out of the pair
        leak = np.where(self.fmask.any(axis=-3), np.abs(qa + qb), 0.0)
        self.all_energy_conserving = (leak.max(axis=(-2, -1)) <= binning)[()]

        # retained augmented pairs: forward label x anchor label, per time,
        # gathered from (T, ...) views of the tables, one time being T = 1
        def per_time(table):
            return table.reshape((n_t,) + table.shape[len(lead):])
        fwd, rev, a1, b0, b1 = map(per_time, (self.fwd, self.rev, self.a1_table,
                                               self.b0_table, self.b1_table))
        t, ki, kj, i0, i1 = _pair_indices(per_time(self.fmask), per_time(self.rmask))
        self.t_index, self.ki, self.kj, self.i0, self.i1 = t, ki, kj, i0, i1
        s_lab, t_lab = kp[ki], kp[kj]

        self.w_f = fwd[t, ki, i0, i1] / self.n_anchor
        self.w_r = rev[t, kj, i0, i1] / self.n_anchor

        ln_pops = np.log(self.pops[kp])
        ln_j0 = np.log(self.joint0[i0])
        ln_j1 = np.log(per_time(self.joint1)[t, i1])
        # i = j + c: the classical part ln(joint / product) plus the
        # coherent part ln(label population / joint)
        self.col_i0 = (ln_j0 - np.log(self.pp0[i0])) + (ln_pops[ki] - ln_j0)
        self.col_i1 = (ln_j1 - np.log(per_time(self.pp1)[t, i1])) + (ln_pops[kj] - ln_j1)
        at_a, at_b = t * da + a0idx[i1], t * db + b0idx[i1]   # flat (T, d) positions
        self.col_sigma_a = (np.log(marg.a_1.ravel()[at_a])
                            - np.log(self.pth_a1.ravel()[at_a]))
        self.col_sigma_b = (np.log(marg.b_1.ravel()[at_b])
                            - np.log(self.pth_b1.ravel()[at_b]))
        self.col_gamma = (
            np.log(self.a0_table[s_lab, i0]) + np.log(a1[t, s_lab, i1])
            - np.log(b0[t, t_lab, i0]) - np.log(b1[t, t_lab, i1])
        )
        self.col_k = self.col_i1 - self.col_i0 + self.col_sigma_a + self.col_sigma_b
        self.col_q_a = per_time(qa)[t, i0, i1]
        self.col_q_b = per_time(qb)[t, i0, i1]

        self.exponent = (self.beta_a * self.col_q_a + self.beta_b * self.col_q_b
                         + self.col_i0 - self.col_i1
                         - self.col_sigma_a - self.col_sigma_b + self.col_gamma)
        resid = np.log(self.w_f) - np.log(self.w_r) - self.exponent
        detailed = np.zeros(n_t)
        np.maximum.at(detailed, t, np.abs(resid))
        self.detailed_residual = detailed.reshape(lead)[()]

    @property
    def n_pairs(self) -> int:
        return len(self.w_f)

    @cached_property
    def heat_bins(self) -> Bins:
        """The heat table ``q_a_tab`` binned once, on first use, with the
        time of a block as a leading key: the bins of time k are
        ``starts[k]:starts[k + 1]``, those of binning that time alone.
        The forward and reverse heat distributions and the psi patch all
        collect their masses on it."""
        values = self.q_a_tab.ravel()
        if self.n_times == 1:               # one time is one group
            return DiscreteDistribution._binned(values, self.binning)
        time = np.arange(self.n_times).repeat(values.size // self.n_times)
        return DiscreteDistribution._binned(values, self.binning, time)


def compute_ledgers(basis: bayesnet.BasisSet) -> LedgerSet:
    """Build the augmented-pair ledgers for a two-time basis, of one
    time or of every time of a block at once."""
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


def integral_ft(ledgers: LedgerSet, quantity: str, measure: str) -> float:
    """<exp(-X)> for one ledger quantity under its own ensemble.

    Forward-ensemble quantities are i0, j0, c0, sigma_a, sigma_b and
    gamma; the information terms at the final time (i1, j1, c1) average
    over the reversed ensemble.  A mismatched measure raises ValueError.
    Sums that cancel the label population run over all labels, including
    zero-population ones.
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

    a0, a1 = ledgers.a0_table, ledgers.a1_table
    pops, floor = ledgers.pops, ledgers.floor

    if quantity == "i0":
        return float(np.einsum("ki,kj,i->", a0, a1, ledgers.pp0))
    if quantity == "c0":
        return float(np.einsum("ki,kj,i->", a0, a1, ledgers.joint0))
    if quantity == "j0":
        r = _guarded_ratio(ledgers.pp0, ledgers.joint0, floor)
        return float(np.einsum("k,ki,kj,i->", pops, a0, a1, r))
    if quantity == "sigma_a":
        r1 = _guarded_ratio(ledgers.pth_a1[ledgers.flat_a],
                            ledgers.marg.a_1[ledgers.flat_a], floor)
        return float(np.einsum("k,ki,kj,j->", pops, a0, a1, r1))
    if quantity == "sigma_b":
        r1 = _guarded_ratio(ledgers.pth_b1[ledgers.flat_b],
                            ledgers.marg.b_1[ledgers.flat_b], floor)
        return float(np.einsum("k,ki,kj,j->", pops, a0, a1, r1))
    if quantity == "gamma":
        kp = ledgers.keep
        return float(pops.sum() * np.dot(ledgers.b0_table[kp].sum(axis=1),
                                         ledgers.b1_table[kp].sum(axis=1))) / ledgers.n_anchor
    if quantity == "i1":
        return float(np.einsum("kj,ki,j->", a1, a0, ledgers.pp1))
    if quantity == "c1":
        return float(np.einsum("kj,ki,j->", a1, a0, ledgers.joint1))
    # j1
    r = _guarded_ratio(ledgers.pp1, ledgers.joint1, floor)
    return float(np.einsum("k,kj,ki,j->", pops, a1, a0, r))


@dataclass(frozen=True)
class CombinedFT:
    """<exp(-X)> over the augmented forward ensemble, with X the full
    exchange exponent; ``value_delta_beta`` replaces the two bath terms
    by Q_A * (beta_A - beta_B)."""

    value: float
    value_delta_beta: float
    all_energy_conserving: bool


def combined_integral_ft(ledgers: LedgerSet) -> CombinedFT:
    _one_time(ledgers, "combined_integral_ft")
    ret = float(np.sum(ledgers.w_f * np.exp(-ledgers.exponent)))
    # pairs dropped by the probability floor contribute their reverse
    # weight exactly (w_f * exp(-X) == w_r pointwise), so patch with the
    # cancelled form to keep boundary-of-simplex cases exact
    patch = float(ledgers.rev.sum() - np.sum(ledgers.w_r))
    exponent_db = (ledgers.delta_beta * ledgers.col_q_a
                   + ledgers.col_i0 - ledgers.col_i1
                   - ledgers.col_sigma_a - ledgers.col_sigma_b
                   + ledgers.col_gamma)
    ret_db = float(np.sum(ledgers.w_f * np.exp(-exponent_db)))
    return CombinedFT(
        value=ret + patch,
        value_delta_beta=ret_db + patch,
        all_energy_conserving=bool(ledgers.all_energy_conserving),
    )


def heat_distribution(ledgers: LedgerSet, direction: str = "forward") -> DiscreteDistribution:
    """Distribution of the heat absorbed by subsystem A.

    ``forward`` bins the forward path weights; ``reverse`` bins the
    time-reversed process, whose heat values are sign-flipped relative to
    the forward energy differences.  Both bin the same table of heat
    values, mirrored, so by the binning rule the reverse bins are the
    forward bins in reverse order: ``reverse.probs[::-1]`` is P_r(-Q) on
    the forward bins.  Both therefore collect on the ledgers' one binning
    of the table, ``heat_bins``.

    For the ledgers of a block the result holds the distributions of all
    its times, one after another: time k has the bins
    ``heat_bins.starts[k]:starts[k + 1]``, each equal to its one-time
    distribution bit for bit, and the mirror is taken within each time
    (``probs[heat_bins.mirror]`` is P_r(-Q) on the forward bins).
    """
    if direction == "forward":
        return DiscreteDistribution._collect(ledgers.heat_bins, ledgers.fwd.sum(axis=-3))
    if direction == "reverse":
        return DiscreteDistribution._collect(ledgers.heat_bins.mirrored(),
                                             ledgers.rev.sum(axis=-3))
    raise ValueError(f"unknown direction {direction!r}")


@dataclass(frozen=True)
class JointFT:
    """Joint (Q, K, gamma) statistics and the bin-by-bin detailed check.

    The reverse table holds the image of each reverse pair under the
    pairing bijection, i.e. coordinates (-Q, -K, gamma)."""

    forward: DiscreteDistribution
    reverse: DiscreteDistribution
    max_residual: float
    n_checked: int
    n_unverified: int


def joint_distribution(ledgers: LedgerSet) -> JointFT:
    """Bin both ensembles and check each forward bin against the reverse
    bin holding the same pairs (the binning rule makes that one to one)."""
    _one_time(ledgers, "joint_distribution")
    binning, floor = ledgers.binning, ledgers.floor
    samples = np.stack([ledgers.col_q_a, ledgers.col_k, ledgers.col_gamma], axis=1)
    mirrored = samples * np.array([-1.0, -1.0, 1.0])
    fwd_bins = DiscreteDistribution._binned(samples, binning)
    rev_bins = DiscreteDistribution._binned(mirrored, binning)
    fwd = DiscreteDistribution._collect(fwd_bins, ledgers.w_f)
    rev = DiscreteDistribution._collect(rev_bins, ledgers.w_r)
    partner = np.empty(fwd.n_points, dtype=np.intp)
    partner[fwd_bins.bin_id] = rev_bins.bin_id

    pf, pr = fwd.probs, rev.probs[partner]
    live = pf > floor
    checked = live & (pr > floor)
    q, kk, gg = fwd.points[checked].T
    resid = np.abs(pf[checked] - np.exp(q * ledgers.delta_beta - kk + gg) * pr[checked])
    return JointFT(forward=fwd, reverse=rev, max_residual=float(resid.max(initial=0.0)),
                   n_checked=int(checked.sum()),
                   n_unverified=int((live & ~checked).sum()))


@dataclass(frozen=True)
class PsiReport:
    """Heat-conditioned correction factor and the modified detailed check.

    For each forward heat bin, ``psi`` is the conditional average of
    exp(K - gamma); ``residuals`` compares P_f(Q) * psi(Q) against
    exp(Q * delta_beta) * P_r(-Q).  Bins skipped for lack of forward or
    reverse mass are counted, not asserted."""

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
    bins = ledgers.heat_bins
    p_f = heat_distribution(ledgers, "forward")
    p_r = heat_distribution(ledgers, "reverse")

    # numerator of psi per heat bin: retained pairs through the ledger
    # columns, floor-dropped pairs through the cancelled product form.
    # The patch is collected on p_f's bins of the heat table, and each
    # pair's heat is a table entry, so pairs are binned through it.
    nf = ledgers.fmask.sum(axis=-3)                    # retained forward labels
    r_ret = np.where(ledgers.rmask, ledgers.rev, 0.0)
    cnt_all = ledgers.n_anchor * ledgers.rev.sum(axis=-3)
    cnt_ret = nf[..., None, :, :] * r_ret
    patch_tab = (np.exp(ledgers.beta_a * ledgers.q_a_tab
                        + ledgers.beta_b * ledgers.q_b_tab)
                 * (cnt_all - cnt_ret.sum(axis=-3)) / ledgers.n_anchor)
    patch = DiscreteDistribution._collect(bins, patch_tab)
    m = ledgers.q_a_tab.shape[-1]
    cell = (ledgers.t_index * m + ledgers.i0) * m + ledgers.i1
    num = np.bincount(bins.bin_id[cell], minlength=p_f.n_points,
                      weights=ledgers.w_f * np.exp(ledgers.col_k - ledgers.col_gamma))

    live = p_f.probs > ledgers.floor
    q, pf, pr = p_f.scalar_points()[live], p_f.probs[live], p_r.probs[bins.mirror][live]
    psi = (num + patch.probs)[live] / pf
    resids = np.abs(pf * psi - np.exp(q * ledgers.delta_beta) * pr)
    return PsiReport(
        q_values=q, psi=psi, p_f=pf, p_r_mirror=pr,
        residuals=resids,
        max_residual=float(resids.max(initial=0.0)),
        n_skipped=int(np.count_nonzero(~live)),
    )


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
    No support threshold enters, and no energy origin."""

    mean_q_a: float
    lhs: float
    rhs: float
    residual: float
    heat_reversed: bool


def _athermality(local: linalg.EigenSystem, energies: np.ndarray,
                 gibbs: system.GibbsState) -> float:
    """D(rho || gamma) of a reduced state with eigensystem ``local`` and
    energies <a|H|a> against its Gibbs state, read from the spectra."""
    e0 = gibbs.energies[0]
    return float(gibbs.beta * np.dot(local.values, energies - e0)
                 + np.log(gibbs.z_shifted) - linalg.spectral_entropy(local.values))


def mean_heat_balance(ledgers: LedgerSet) -> HeatBalance:
    _one_time(ledgers, "mean_heat_balance")
    mean_q_a = float(np.sum(ledgers.fwd.sum(axis=0) * ledgers.q_a_tab))
    lhs = mean_q_a * ledgers.delta_beta

    basis = ledgers.basis

    def local_entropies(n):
        return (linalg.spectral_entropy(basis.local_a[n].values)
                + linalg.spectral_entropy(basis.local_b[n].values))

    # the mutual-information change: S(rho(t)) = S(rho_0) cancels
    rhs = (local_entropies(1) - local_entropies(0)
           + _athermality(basis.local_a[1], basis.energies_a[1], ledgers.gibbs_a)
           + _athermality(basis.local_b[1], basis.energies_b[1], ledgers.gibbs_b))
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
    """<X> for one ledger quantity under its own ensemble."""
    _one_time(ledgers, "mean_quantity")
    pops, floor = ledgers.pops, ledgers.floor
    kp = ledgers.keep
    label = pops[kp][:, None]
    # information terms: (outcome table, numerator, denominator) of the log
    info = {"i0": (ledgers.a0_table, label, ledgers.pp0),
            "j0": (ledgers.a0_table, ledgers.joint0, ledgers.pp0),
            "c0": (ledgers.a0_table, label, ledgers.joint0),
            "i1": (ledgers.a1_table, label, ledgers.pp1),
            "j1": (ledgers.a1_table, ledgers.joint1, ledgers.pp1),
            "c1": (ledgers.a1_table, label, ledgers.joint1)}
    athermal = {"sigma_a": (ledgers.marg.a_1, ledgers.pth_a1),
                "sigma_b": (ledgers.marg.b_1, ledgers.pth_b1)}
    if quantity in info:
        table, num, den = info[quantity]
        w = pops[kp, None] * table[kp]
        num, den = np.broadcast_to(num, w.shape), np.broadcast_to(den, w.shape)
        ok = (w > floor) & (num > floor) & (den > floor)
        return float(np.sum(w[ok] * (np.log(num[ok]) - np.log(den[ok]))))
    if quantity in athermal:
        p, q = athermal[quantity]
        ok = p > floor
        return float(np.sum(p[ok] * (np.log(p[ok]) - np.log(q[ok]))))
    if quantity == "gamma":
        return float(np.sum(ledgers.w_f * ledgers.col_gamma))
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
