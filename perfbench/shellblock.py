"""Seeded shell-block instances with more levels than ``randspec`` allows.

``randspec.random_spec`` draws its extra levels from {2, 3} and so stops
at four levels per side.  The ``wide`` workload needs joint dimensions
36, 49 and 64, so it builds its own instances here: both sides carry the
integer ladder 0, 1, ..., d-1, the interaction and the correlation term
are random Hermitian matrices restricted to the degenerate shells of the
total bare energy, and the correlation term has its marginals removed and
is scaled below the smallest product population, as in ``randspec``.
Every instance is checked with ``system.validate`` before it is used.
"""

from __future__ import annotations

import numpy as np

from qheatnet import linalg, system


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2.0


def _restrict_to_shells(m: np.ndarray, shells: np.ndarray) -> np.ndarray:
    m = np.where(shells, m, 0.0)
    return (m + m.conj().T) / 2.0


def _remove_marginals(x: np.ndarray, da: int, db: int) -> np.ndarray:
    tr_b = linalg.partial_trace(x, da, db, keep="A")
    tr_a = linalg.partial_trace(x, da, db, keep="B")
    ia, ib = np.eye(da), np.eye(db)
    out = (x
           - linalg.tensor_product(tr_b, ib) / db
           - linalg.tensor_product(ia, tr_a) / da
           + np.trace(x) * linalg.tensor_product(ia, ib) / (da * db))
    return (out + out.conj().T) / 2.0


def shell_block_spec(rng: np.random.Generator, levels: int) -> system.BipartiteSpec:
    """Correlated instance on two ``levels``-level integer ladders.

    Inverse temperatures lie in [0.2, 0.8], so the lowest product
    population at eight levels (about e^-11) stays far above the
    probability floor and the number of retained pairs is set by the
    shell structure, not by where the floor cuts.
    """
    ladder = np.arange(levels, dtype=float)
    h = np.diag(ladder).astype(complex)
    dim = levels * levels
    total = np.add.outer(ladder, ladder).ravel()
    shells = np.abs(np.subtract.outer(total, total)) < 0.5

    beta_a = float(rng.uniform(0.2, 0.8))
    beta_b = float(rng.uniform(0.2, 0.8))
    if abs(beta_a - beta_b) < 0.1:
        beta_b = beta_a + 0.2 if beta_a < 0.5 else beta_a - 0.2

    h_int = _restrict_to_shells(_random_hermitian(rng, dim), shells)
    h_int /= np.abs(h_int).max()

    chi = _remove_marginals(
        _restrict_to_shells(_random_hermitian(rng, dim), shells), levels, levels)
    prod = linalg.tensor_product(system.gibbs_state(h, beta_a).rho,
                                 system.gibbs_state(h, beta_b).rho)
    chi *= 0.8 * np.linalg.eigvalsh(prod).min() / np.abs(np.linalg.eigvalsh(chi)).max()

    spec = system.BipartiteSpec(h_a=h, h_b=h.copy(), beta_a=beta_a,
                                beta_b=beta_b, chi=chi, h_int=h_int)
    bad = system.validate(spec).first_failure()
    if bad is not None:
        raise ValueError(f"shell-block instance fails {bad.name} "
                         f"(residual {bad.residual:.3e})")
    return spec
