"""Spectral bases and the two-time conditional probability tables.

The latent global state evolves deterministically: eigenvectors of the
initial joint state are pushed forward by the interaction unitary while
their populations stay fixed.  Local outcomes at t = 0 and at the grid
time t are eigenstates of the reduced states, and their probabilities
conditioned on the global state are squared overlaps.  The populations
and these (D, d_A, d_B) overlap tables are the whole two-time ensemble:
a path (s, a_0 b_0, a_1 b_1) weighs P_s times one overlap per time.
Everything at t = 0 is independent of t.  A basis holds the time-t half
of one time or of a block of times: its time-t arrays carry the leading
shape of its times, none for one time and (T,) for a block.  Only
``sweep_blocks`` builds a time-t half, one block at a time on one t = 0
half; a basis of one time is a block's time read off (``BasisSet.at``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import linalg, system

__all__ = [
    "TimeGrid",
    "BasisSet",
    "MarginalTables",
    "BLOCK_ELEMENTS",
    "build_bases",
    "sweep_blocks",
    "reverse_overlap_tables",
    "local_marginals",
    "path_probability_table",
    "choi_path_probability",
    "tpm_table",
]

#: Element budget of one block of a sweep: a block holds as many times
#: T_b as keep the ledger tables built on it, (T_b, K, m, m) for K
#: retained labels and m = d_A * d_B outcome pairs, within this many
#: entries, and at least one time.  The ledgers form their float weight
#: tables in chunks of labels within the same budget, at least one label,
#: so a block is one chunk and a single time past the budget (D >= 36
#: at the default) is several.  A larger budget means fewer numpy passes
#: per sweep but a higher peak memory.
BLOCK_ELEMENTS = 2 ** 15


@dataclass(frozen=True)
class TimeGrid:
    """Finite, non-negative, strictly increasing measurement times.

    ``build_bases`` takes a grid of one time t, the two-time basis at 0
    and t; t = 0 is an ordinary time, its unitary the identity to
    rounding.  A config file or the command line reads a longer grid as
    a list of such times, swept block by block (``sweep_blocks``).  A
    time of -0.0 is stored as 0.0, so no output carries its sign.
    """

    times: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) < 1:
            raise ValueError("time grid needs at least one time")
        prev = -np.inf
        for t in self.times:
            if not np.isfinite(t):
                raise ValueError(f"grid time {t!r} is not finite")
            if not (t >= 0 and t > prev):
                raise ValueError("grid times must be >= 0 and strictly increasing")
            prev = t
        object.__setattr__(self, "times", tuple(t + 0.0 for t in self.times))

    @property
    def n_steps(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class BasisSet:
    """Global and local spectral data at t = 0 (index 0) and at ``times``
    (index 1), one time t or a block of times.

    ``overlaps[n][..., s, a, b]`` is the probability of local outcomes
    (a, b) at time ``n`` conditioned on global label ``s``.  The t = 0
    half has no time axis; every time-t array carries the leading shape
    of ``times``, none for one time and (T,) for a tuple of T times:
    ``global_vectors[1]`` and ``unitaries[1]`` are (..., D, D),
    ``overlaps[1]`` is (..., D, d_A, d_B), ``energies_a[1]`` is
    (..., d_A) and ``local_a[1]`` an EigenSystem stacked the same way.
    """

    spec: system.BipartiteSpec
    times: float | tuple[float, ...]
    populations: np.ndarray               # P_s, descending
    global_vectors: tuple[np.ndarray, ...]  # columns U(t_n)|s>, n = 0, 1
    local_a: tuple[linalg.EigenSystem, ...]
    local_b: tuple[linalg.EigenSystem, ...]
    energies_a: tuple[np.ndarray, ...]    # <a_n|H_A|a_n>
    energies_b: tuple[np.ndarray, ...]
    overlaps: tuple[np.ndarray, ...]      # (..., D, d_A, d_B) per time
    unitaries: tuple[np.ndarray, ...]     # U(t_n), n = 0, 1
    gibbs_a: system.GibbsState            # the thermal states rho_0 is built on
    gibbs_b: system.GibbsState

    @property
    def dim(self) -> int:
        return self.populations.shape[0]

    def at(self, k: int) -> BasisSet:
        """Time ``k`` of a block as a basis of that one time, with no time
        axis: every time-t array read at ``k``, the t = 0 half shared."""
        pairs = {name: getattr(self, name) for name in _TIME_PAIRS}
        return BasisSet(spec=self.spec, times=self.times[k], populations=self.populations,
                        gibbs_a=self.gibbs_a, gibbs_b=self.gibbs_b,
                        **{name: (t0, tt[k]) for name, (t0, tt) in pairs.items()})


#: the fields of a basis that pair its t = 0 half with its time-t half
_TIME_PAIRS = ("global_vectors", "local_a", "local_b", "energies_a", "energies_b",
               "overlaps", "unitaries")
#: the fields of a basis that ``_local_frame`` fills, in its order
_FRAME = ("local_a", "local_b", "energies_a", "energies_b", "overlaps")


def _overlap_table(vecs_a: np.ndarray, vecs_b: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """|<a b|v_s>|^2 as a (D, d_A, d_B) table over the columns v_s of
    ``vecs``; stacks give a table per member."""
    # the amplitudes <a b|v_s>, (..., d_A*d_B, D)
    amp = linalg.tensor_product(vecs_a, vecs_b).conj().swapaxes(-1, -2) @ vecs
    shape = amp.shape[:-2] + (vecs.shape[-1], vecs_a.shape[-1], vecs_b.shape[-1])
    return np.abs(amp.swapaxes(-1, -2).reshape(shape)) ** 2


def _local_frame(spec: system.BipartiteSpec, populations: np.ndarray, vecs: np.ndarray):
    """Reduced-state eigensystems of the state with eigenvectors ``vecs``
    and eigenvalues ``populations``, their local energies <a|H_A|a> and
    <b|H_B|b>, and its overlap table.  For a stack (T, D, D) of
    eigenvector sets every result is stacked the same way."""
    rho_t = (vecs * populations) @ vecs.conj().swapaxes(-1, -2)
    local = []
    for keep, h in (("A", spec.h_a), ("B", spec.h_b)):
        reduced = linalg.partial_trace(rho_t, spec.dim_a, spec.dim_b, keep=keep)
        local.append(linalg.hermitian_eigendecompose(reduced, tiebreak=h))
    ea, eb = local
    energy_a = np.real(np.einsum("...ij,ik,...kj->...j", ea.vectors.conj(), spec.h_a, ea.vectors))
    energy_b = np.real(np.einsum("...ij,ik,...kj->...j", eb.vectors.conj(), spec.h_b, eb.vectors))
    return ea, eb, energy_a, energy_b, _overlap_table(ea.vectors, eb.vectors, vecs)


def build_bases(spec: system.BipartiteSpec, grid: TimeGrid) -> BasisSet:
    """Diagonalize the global state once and the reduced states at t = 0
    and at the grid's one time t, with Hamiltonian tie-breaking inside
    degenerate blocks: the one time of ``sweep_blocks``' one block, with
    no time axis.  A grid of more than one time raises ValueError."""
    if grid.n_steps != 1:
        raise ValueError("build_bases needs a grid of exactly one time (a two-time basis)")
    return next(sweep_blocks(spec, grid.times)).at(0)


def sweep_blocks(spec: system.BipartiteSpec, times: Iterable[float]) -> Iterator[BasisSet]:
    """Yield the two-time bases of ``times`` in order, in blocks of
    consecutive times, each one basis with a (T_b,) time axis.

    The list is checked as one ``TimeGrid`` (ValueError unless finite,
    >= 0 and strictly increasing) and the half no time changes is built
    once: the validated initial state and its Gibbs states, the global
    eigensystem and that of ``h_int`` before the first block, and the
    t = 0 local frame with it.  A block adds its time-t half (U(t), the
    evolved vectors, the reduced states' tie-broken eigensystems, the
    local energies and the overlap table) in one stacked numpy pass each,
    and holds as many times as keep its ledger tables within
    ``BLOCK_ELEMENTS`` entries, and at least one.  The first block's
    local frame is stacked on the t = 0 vectors as member 0, so a sweep
    of one block takes six decompositions: the two Gibbs states, rho_0,
    ``h_int`` and one stack per subsystem.  A stacked operation gives
    each member the bits of the one-time operation, so the t = 0 frame
    is that of v_0 alone and ``block.at(k)`` is the basis of that time
    alone bit for bit, whatever the block size.  The blocks share the
    t = 0 arrays: treat them as read-only.  The t = 0 member is one more
    than the budget counts, and being views of it, the t = 0 arrays keep
    the first block's whole local frame alive for the rest of the sweep;
    a failed check of a first-block decomposition names the stacked
    member, ``[0]`` for t = 0 and ``[k + 1]`` for its time k.
    """
    times = TimeGrid(tuple(times)).times
    start = system.initial_state(spec)
    glob = linalg.hermitian_eigendecompose(start.rho, tiebreak=spec.h_total)
    populations = np.clip(glob.values, 0.0, None)
    generator = linalg.hermitian_eigendecompose(spec.h_int)
    identity = np.eye(spec.dim, dtype=complex)
    # no label above the floor fails in the ledgers; size such blocks as one
    kept = max(1, np.count_nonzero(populations > spec.tol.probability_floor))
    size = max(1, BLOCK_ELEMENTS // (kept * spec.dim ** 2))
    for lo in range(0, len(times), size):
        block = times[lo:lo + size]
        u = linalg.unitary_from_eigensystem(generator, block)
        vecs = u @ glob.vectors
        if lo:
            frame = _local_frame(spec, populations, vecs)
        else:
            # the t = 0 frame is member 0 of the first block's stacked pass
            both = _local_frame(spec, populations, np.concatenate((glob.vectors[None], vecs)))
            frame0 = [item[0] for item in both]
            frame = [item[1:] for item in both]
        yield BasisSet(
            spec=spec,
            times=block,
            populations=populations,
            global_vectors=(glob.vectors, vecs),
            unitaries=(identity, u),
            gibbs_a=start.gibbs_a,        # the thermal states, not rho_0
            gibbs_b=start.gibbs_b,
            **{name: (t0, tt) for name, t0, tt in zip(_FRAME, frame0, frame)},
        )


def reverse_overlap_tables(basis: BasisSet) -> list[np.ndarray]:
    """Conditional probability tables of the time-reversed process.

    The reversed experiment starts from the same global eigenvectors and
    populations and runs the interaction backwards.  Entry ``m`` of the
    returned list (m = 0 is the start of the reversed process, physical
    time t) holds |<a_n b_n| U^dag(t - t_n) |s>|^2 with n = 1 - m: the
    local bases are visited in reverse chronological order while the
    backward evolution accumulates.  For a block both tables are stacked
    on its time axis.
    """
    u_t = basis.unitaries[1]
    back = u_t.conj().swapaxes(-1, -2)
    v0 = basis.global_vectors[0]
    # U^dag(t - t_n) == U(t_n) U(t)^dag for a fixed generator, and U(0) = I
    # takes no product
    return [_overlap_table(basis.local_a[n].vectors, basis.local_b[n].vectors, evolved)
            for n, evolved in ((1, u_t @ back @ v0), (0, back @ v0))]


@dataclass(frozen=True)
class MarginalTables:
    """Two-time outcome marginals; ``joint_1`` is checked against the
    direct matrix elements of the evolved state during construction.
    For a block the time-t tables carry its leading time axis."""

    joint_0: np.ndarray   # P(a_0, b_0)
    joint_1: np.ndarray   # P(a_1, b_1)
    a_0: np.ndarray
    b_0: np.ndarray
    a_1: np.ndarray
    b_1: np.ndarray


def local_marginals(basis: BasisSet) -> MarginalTables:
    """Outcome marginals at t = 0 and t.

    The final joint table is computed both by summing over the global
    label and as diagonal matrix elements of the evolved state; the two
    routes must agree to 1e-12, at every time of a block, else
    :class:`linalg.LinalgError`.
    """
    p = basis.populations
    joint_0 = np.einsum("s,sab->ab", p, basis.overlaps[0])
    joint_1 = np.einsum("s,...sab->...ab", p, basis.overlaps[1])

    vecs = basis.global_vectors[1]
    rho_t = (vecs * p) @ vecs.conj().swapaxes(-1, -2)
    prod = linalg.tensor_product(basis.local_a[1].vectors, basis.local_b[1].vectors)
    direct = np.real(np.sum(prod.conj() * (rho_t @ prod), axis=-2))
    direct = direct.reshape(joint_1.shape)
    dev = np.abs(direct - joint_1).max()
    if dev > 1e-12:
        raise linalg.LinalgError(f"marginal routes disagree by {dev:.3e}")

    return MarginalTables(
        joint_0=joint_0,
        joint_1=joint_1,
        a_0=joint_0.sum(axis=1),
        b_0=joint_0.sum(axis=0),
        a_1=joint_1.sum(axis=-1),
        b_1=joint_1.sum(axis=-2),
    )


def path_probability_table(basis: BasisSet) -> np.ndarray:
    """Two-time local path probabilities P(a_0,b_0,a_1,b_1) of a basis of
    one time, obtained by marginalizing the global label out of the
    trajectory weights."""
    return np.einsum(
        "s,sab,scd->abcd", basis.populations, basis.overlaps[0], basis.overlaps[1]
    )


def choi_path_probability(basis: BasisSet) -> np.ndarray:
    """Same table via the channel-state (Choi) route, as a product per
    label.

    A two-copy state correlates each global eigenvector with itself,
    Omega = sum_s P_s |w_s><w_s| with w_s = v_s (x) v_s, the second copy
    is pushed through the evolution channel (I (x) U), and the table is
    read off as diagonal expectations in the product of local bases at
    t = 0 (first copy) and t (second copy).  Each copy meets its own
    operators, so the amplitude of label s factors as A[k0, s] * B[k1, s]
    with A = prod0^dag v_0 and B = prod1^dag U v_0, and the table is
    (|A|^2 P) @ |B|^2^T: O(D^3) time and O(D^2) memory.

    The factors are built from ``linalg.tensor_product`` of the local
    eigenvectors and from ``unitaries[1]`` applied to the t = 0 global
    vectors, never from the overlap tables or ``global_vectors[1]``, so
    the route checks how the overlap tables are assembled.  It reads the
    same eigensystems as the path table and does not check the
    eigendecomposition.
    """
    v0 = basis.global_vectors[0]
    prod0 = linalg.tensor_product(basis.local_a[0].vectors, basis.local_b[0].vectors)
    prod1 = linalg.tensor_product(basis.local_a[1].vectors, basis.local_b[1].vectors)
    a2 = np.abs(prod0.conj().T @ v0) ** 2                          # |A|^2 [k0, s]
    b2 = np.abs(prod1.conj().T @ (basis.unitaries[1] @ v0)) ** 2   # |B|^2 [k1, s]
    table = (a2 * basis.populations) @ b2.T
    da, db = basis.spec.dim_a, basis.spec.dim_b
    return table.reshape(da, db, da, db)


def tpm_table(basis: BasisSet) -> np.ndarray:
    """Two-point-measurement path probabilities,
    P_a0 * P_b0 * |<a_1 b_1|U|a_0 b_0>|^2, in the same local bases."""
    marg = local_marginals(basis)
    prod0 = linalg.tensor_product(basis.local_a[0].vectors, basis.local_b[0].vectors)
    prod1 = linalg.tensor_product(basis.local_a[1].vectors, basis.local_b[1].vectors)
    amp = prod1.conj().T @ basis.unitaries[1] @ prod0
    da, db = basis.spec.dim_a, basis.spec.dim_b
    trans = (np.abs(amp) ** 2).reshape(da, db, da, db)  # [a1,b1,a0,b0]
    p0 = np.outer(marg.a_0, marg.b_0)
    return np.einsum("ab,cdab->abcd", p0, trans)
