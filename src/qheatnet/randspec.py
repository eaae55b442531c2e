"""Seeded random problem instances with exactly conserved local energy.

Local spectra are small integers chosen so the joint spectrum has at
least one degenerate shell; both the correlation term and the interaction
generator are restricted to block-diagonal form over those shells (they
commute with the total bare Hamiltonian).  That keeps the reduced states
diagonal in the local energy eigenbases at all times, so every retained
trajectory conserves the bare energy and the athermality terms use the
true local partition functions.
"""

from __future__ import annotations

import numpy as np

from . import linalg, system

__all__ = ["random_spec"]


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2.0


def _shell_mask(levels_a: np.ndarray, levels_b: np.ndarray) -> np.ndarray:
    tot = np.add.outer(levels_a, levels_b).ravel()
    return np.abs(np.subtract.outer(tot, tot)) < 1e-9


def _remove_marginals(x: np.ndarray, da: int, db: int) -> np.ndarray:
    tr_b = linalg.partial_trace(x, da, db, keep="A")
    tr_a = linalg.partial_trace(x, da, db, keep="B")
    ia, ib = np.eye(da), np.eye(db)
    out = (x
           - linalg.tensor_product(tr_b, ib) / db
           - linalg.tensor_product(ia, tr_a) / da
           + np.trace(x) * linalg.tensor_product(ia, ib) / (da * db))
    return (out + out.conj().T) / 2.0


def random_spec(
    seed,
    dim_a: int = 2,
    dim_b: int = 2,
    correlated: bool = True,
) -> system.BipartiteSpec:
    """Draw a valid spec; identical seeds give identical specs.

    ``seed`` may be an int or a ``numpy.random.Generator``.
    """
    if dim_a < 2 or dim_b < 2:
        raise ValueError("both subsystems need at least two levels")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    # integer ladders starting 0, 1 guarantee a degenerate joint shell
    # (|0 1> and |1 0>); extra levels are distinct integers drawn from
    # 2, 3, ..., max(3, d - 1) for the larger side d, so the smaller side
    # gets a random subset of them
    n_extra = max(dim_a, dim_b) - 2
    extra = rng.choice(np.arange(2, max(4, n_extra + 2)), size=n_extra, replace=False) \
        if n_extra > 0 else np.array([], dtype=int)
    levels_a = np.concatenate(([0, 1], np.sort(extra[: dim_a - 2]))).astype(float)
    levels_b = np.concatenate(([0, 1], np.sort(extra[: dim_b - 2]))).astype(float)

    beta_a = float(rng.uniform(0.3, 2.0))
    beta_b = float(rng.uniform(0.3, 2.0))
    if abs(beta_a - beta_b) < 0.1:
        beta_b = beta_a + 0.3 if beta_a < 1.5 else beta_a - 0.3

    h_a = np.diag(levels_a).astype(complex)
    h_b = np.diag(levels_b).astype(complex)
    dim = dim_a * dim_b
    shells = _shell_mask(levels_a, levels_b)

    h_int = _random_hermitian(rng, dim)
    h_int[~shells] = 0.0
    h_int = (h_int + h_int.conj().T) / 2.0
    scale = np.abs(h_int).max()
    if scale > 0:
        h_int /= scale

    if correlated:
        chi = _random_hermitian(rng, dim)
        chi[~shells] = 0.0
        chi = _remove_marginals((chi + chi.conj().T) / 2.0, dim_a, dim_b)
        ga = system.gibbs_state(h_a, beta_a)
        gb = system.gibbs_state(h_b, beta_b)
        prod = linalg.tensor_product(ga.rho, gb.rho)
        floor_pop = np.linalg.eigvalsh(prod).min()
        norm = np.abs(np.linalg.eigvalsh(chi)).max()
        if norm > 1e-12:
            chi *= 0.8 * floor_pop / norm
        else:
            chi = np.zeros((dim, dim), dtype=complex)
    else:
        chi = np.zeros((dim, dim), dtype=complex)

    return system.BipartiteSpec(
        h_a=h_a, h_b=h_b, beta_a=beta_a, beta_b=beta_b,
        chi=chi, h_int=h_int)
