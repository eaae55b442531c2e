"""Dense complex linear algebra primitives for small Hilbert spaces.

Everything here operates on plain complex numpy arrays.  Matrices are
dense, row-major, and small (soft cap 64x64), so LAPACK via numpy is more
than adequate; what this module adds on top is a deterministic treatment
of degenerate eigenspaces and spectral definitions of matrix functions
with an explicit 0*log(0) == 0 convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinalgError",
    "EigenSystem",
    "hermitian_eigendecompose",
    "tensor_product",
    "partial_trace",
    "unitary_from_hamiltonian",
    "unitary_from_eigensystem",
    "commutator_norm",
    "spectral_entropy",
]

#: Relative width (w.r.t. spectral range) within which eigenvalues are
#: treated as one degenerate cluster.
DEGENERACY_RTOL = 1e-9

#: Residual bound for the eigendecomposition contract,
#: ||V L V^dag - M||_max <= RESIDUAL_RTOL * ||M||_max.
RESIDUAL_RTOL = 1e-11


class LinalgError(ValueError):
    """Invalid input to a linear-algebra operation."""


def _as_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise LinalgError(f"{name} must be square, got shape {m.shape}")
    return m


def _member(name: str, lead: tuple, i: int) -> str:
    """``name``, followed by the index of member ``i`` of a stack of
    shape ``lead``; just ``name`` for a single matrix."""
    return f"{name} {list(map(int, np.unravel_index(i, lead)))}" if lead else name


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    ``values`` are real and sorted descending; column ``k`` of ``vectors``
    is the orthonormal eigenvector paired with ``values[k]``.  For a stack
    of matrices both carry the stack's leading axes.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values[..., None, :]) @ self.vectors.conj().swapaxes(-1, -2)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the first nonzero component of each column real positive; a
    stack (..., n, n) is fixed member by member."""
    n = vectors.shape[-1]
    v = vectors.reshape(-1, n, n)
    mag = np.abs(v)
    # first entry above 1e-12, or the largest entry of a column with none
    pivot = np.where(mag > 1e-12, np.inf, mag).argmax(axis=1)
    at = np.arange(len(v))[:, None], pivot, np.arange(n)
    z, az = v[at], mag[at]
    factor = z.conjugate() / np.where(az > 0, az, 1.0)     # a zero column stays zero
    return (v * factor[:, None, :]).reshape(vectors.shape)


def _rotate_clusters(w: np.ndarray, v: np.ndarray, half_budget: float,
                     tiebreak: np.ndarray) -> None:
    """Rotate each degenerate cluster of one member's eigenvalues ``w``,
    in place on the columns of ``v``, to diagonalize the projected
    tiebreak.  A cluster is a run within the gap of its first value."""
    # a rotation inside a cluster of spread delta moves the reconstruction
    # by at most delta, so distinct tiny eigenvalues of a cold state must
    # not share a cluster wider than the residual budget allows
    span = max(w[0] - w[-1], 0.0)
    gap = min(DEGENERACY_RTOL * max(span, 1e-300), half_budget)
    start = 0
    for stop in range(1, len(w) + 1):
        if stop < len(w) and w[start] - w[stop] <= gap:
            continue
        if stop - start > 1:
            blk = v[:, start:stop]
            t = blk.conj().T @ tiebreak @ blk
            _, r = np.linalg.eigh((t + t.conj().T) / 2.0)
            v[:, start:stop] = blk @ r  # eigh order: tiebreak expectation ascends
        start = stop


def hermitian_eigendecompose(
    m: np.ndarray,
    tiebreak: np.ndarray | None = None,
    hermiticity_tol: float = 1e-10,
) -> EigenSystem:
    """Eigendecompose a Hermitian matrix deterministically.

    Eigenvalues equal within ``DEGENERACY_RTOL`` times the spectral range,
    and within half the residual budget ``RESIDUAL_RTOL * max|M|``, form
    one cluster.  Inside each cluster the basis is rotated to
    diagonalize the projection of ``tiebreak``, ordered by ascending
    tiebreak expectation; without a tiebreak, only the column phases are
    fixed.  The result is a pure function of the input bits.

    ``m`` may be a stack (..., n, n) sharing one (n, n) tiebreak: each
    member is decomposed exactly as the 2-D call would decompose it, into
    values (..., n) and vectors (..., n, n).  An error names the first
    failing member.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise LinalgError(f"matrix must be square, got shape {m.shape}")
    n, lead = m.shape[-1], m.shape[:-2]
    flat = m.reshape(-1, n, n)
    checked = flat
    if tiebreak is not None:
        tiebreak = _as_square(tiebreak, "tiebreak")
        if tiebreak.shape != (n, n):
            raise LinalgError("tiebreak dimension mismatch")
        checked = np.concatenate((flat, tiebreak[None]))
    # Hermiticity of every member, then of the tiebreak, in one pass
    size = np.abs(checked).max(axis=(1, 2))
    dev = np.abs(checked - checked.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    bad = dev > hermiticity_tol * np.maximum(size, 1.0)
    if np.count_nonzero(bad):
        i = bad.argmax()
        name = "tiebreak" if i == len(flat) else _member("matrix", lead, i)
        raise LinalgError(f"{name} is not Hermitian (deviation {dev[i]:.3e})")

    try:
        w, v = np.linalg.eigh(flat)
    except np.linalg.LinAlgError as exc:  # iteration cap exceeded
        raise LinalgError(f"eigendecomposition failed to converge: {exc}")

    # eigh returns ascending order; the contract is descending.
    w = w[:, ::-1].copy()
    v = v[:, :, ::-1].copy()

    budget = RESIDUAL_RTOL * np.maximum(size[:len(flat)], 1e-300)
    if tiebreak is not None:
        # no gap exceeds half the budget, so only a member with an adjacent
        # pair that close can have a cluster
        near = 2.0 * (w[:, :-1] - w[:, 1:]) <= budget[:, None]
        if np.count_nonzero(near):
            for i in near.any(axis=1).nonzero()[0]:
                _rotate_clusters(w[i], v[i], 0.5 * budget[i], tiebreak)

    v = _fix_phases(v)

    resid = np.abs((v * w[:, None, :]) @ v.conj().transpose(0, 2, 1) - flat).max(axis=(1, 2))
    bad = resid > budget
    if np.count_nonzero(bad):
        i = bad.argmax()
        where = f" in {_member('matrix', lead, i)}" if lead else ""
        raise LinalgError(f"eigendecomposition residual too large{where}: {resid[i]:.3e}")
    return EigenSystem(values=w.reshape(m.shape[:-1]), vectors=v.reshape(m.shape))


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, the first factor index-major.

    Entry ((i, k), (j, l)) is a[i, j] * b[k, l], the same complex products
    as ``np.kron`` without its N-d set-up.  Raises :class:`LinalgError`
    unless both factors are 2-D.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise LinalgError(f"tensor factors must be 2-D, got shapes {a.shape} and {b.shape}")
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def partial_trace(m: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Trace out one subsystem of an operator on a ``dim_a * dim_b`` space.

    ``keep`` is ``"A"`` or ``"B"``; the trace of the result equals the
    trace of the input.  A stack (..., D, D) is traced member by member.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise LinalgError(f"matrix must be square, got shape {m.shape}")
    if m.shape[-1] != dim_a * dim_b:
        raise LinalgError(
            f"dimension mismatch: {m.shape[-1]} != {dim_a}*{dim_b}"
        )
    t = m.reshape(*m.shape[:-2], dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("...ikjk->...ij", t)
    if keep == "B":
        return np.einsum("...kikj->...ij", t)
    raise LinalgError(f"keep must be 'A' or 'B', got {keep!r}")


def unitary_from_hamiltonian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*t*H) computed spectrally for Hermitian H."""
    return unitary_from_eigensystem(hermitian_eigendecompose(h), t)


def unitary_from_eigensystem(eig: EigenSystem, t) -> np.ndarray:
    """exp(-i*t*H) from the spectral decomposition of H, so that one
    decomposition serves every time.  For an array of times the result
    is the stack of unitaries, each equal to its one-time result."""
    phases = np.exp((-1j * np.asarray(t, dtype=float))[..., None] * eig.values)
    return (eig.vectors * phases[..., None, :]) @ eig.vectors.conj().T


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry magnitude of the commutator AB - BA."""
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    if a.shape != b.shape:
        raise LinalgError("commutator of matrices with different dimensions")
    return float(np.abs(a @ b - b @ a).max())


def spectral_entropy(values: np.ndarray, zero_tol: float = 1e-14) -> float:
    """Von Neumann entropy -sum p ln p of a state from its eigenvalues
    ``values``, so that a state already decomposed needs no second
    decomposition.  Negative rounding noise is clipped to zero, and
    eigenvalues at or below ``zero_tol`` count as zero (0 ln 0 = 0)."""
    p = np.maximum(values, 0.0)
    p = p[p > zero_tol]
    return float(-np.sum(p * np.log(p)))
