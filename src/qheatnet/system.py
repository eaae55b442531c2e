"""Physical setup: correlated bipartite initial states and their checks.

A :class:`BipartiteSpec` bundles the two local Hamiltonians, the inverse
temperatures, the correlation operator on the joint space and the
interaction generator.  ``validate`` runs every structural check the
construction relies on and reports residuals instead of raising, so a CLI
can name the first violated condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import linalg

__all__ = [
    "Tolerances",
    "BipartiteSpec",
    "GibbsState",
    "CheckResult",
    "ValidationReport",
    "SpecError",
    "InitialState",
    "gibbs_state",
    "initial_state",
    "build_initial_state",
    "validate",
]


class SpecError(ValueError):
    """A bipartite spec violates one of its structural invariants."""


@dataclass(frozen=True)
class Tolerances:
    """Validation tolerance bundle.  All values are absolute, finite and
    non-negative, ``binning`` positive and ``probability_floor`` below
    one (ValueError otherwise)."""

    hermiticity: float = 1e-10
    marginal: float = 1e-10
    commutator: float = 1e-10
    positivity: float = 1e-10
    #: probabilities at or below this count as zero: labels and paths this
    #: light get no ledger pair, and bins this light are not checked
    probability_floor: float = 1e-14
    #: distribution support points closer than this share one bin
    binning: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"tolerance {f.name} = {value!r} must be finite and >= 0")
        if not self.binning > 0:
            raise ValueError(f"tolerance binning = {self.binning!r} must be > 0")
        if not self.probability_floor < 1:
            raise ValueError(f"tolerance probability_floor = {self.probability_floor!r} "
                             f"must be < 1")

    def updated(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class BipartiteSpec:
    """One experiment: local Hamiltonians, temperatures, correlations,
    and the energy-conserving interaction generator."""

    h_a: np.ndarray
    h_b: np.ndarray
    beta_a: float
    beta_b: float
    chi: np.ndarray
    h_int: np.ndarray
    tol: Tolerances = field(default_factory=Tolerances)

    @property
    def dim_a(self) -> int:
        return self.h_a.shape[0]

    @property
    def dim_b(self) -> int:
        return self.h_b.shape[0]

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @cached_property
    def h_total(self) -> np.ndarray:
        """H_A x I + I x H_B on the joint space, built once per spec and
        shared by its readers, so it is returned read-only."""
        ia = np.eye(self.dim_a)
        ib = np.eye(self.dim_b)
        h = linalg.tensor_product(self.h_a, ib) + linalg.tensor_product(ia, self.h_b)
        h.flags.writeable = False
        return h


@dataclass(frozen=True)
class GibbsState:
    """Thermal state exp(-beta*H)/Z with its spectral data.

    ``z_shifted`` is the partition sum of the energies measured from the
    ground energy, sum exp(-beta*(E - E_0)), so it stays finite for any
    constant shift of H; Z itself is z_shifted * exp(-beta*E_0)."""

    rho: np.ndarray
    z_shifted: float
    beta: float
    energies: np.ndarray  # ascending, paired with rho's descending populations
    vectors: np.ndarray


def gibbs_state(h: np.ndarray, beta: float) -> GibbsState:
    """Thermal state of Hamiltonian ``h`` at inverse temperature ``beta``.

    ``beta == 0`` gives the maximally mixed state.  A ``beta`` that is
    negative or not finite (NaN, infinity) raises SpecError.
    """
    if not (np.isfinite(beta) and beta >= 0):
        raise SpecError(f"beta must be finite and nonnegative, got {beta}")
    eig = linalg.hermitian_eigendecompose(h)
    # eig.values descend; order by ascending energy so populations descend
    energies = eig.values[::-1].copy()
    vectors = eig.vectors[:, ::-1].copy()
    # subtract the ground energy before taking exp, for stability
    boltz = np.exp(-beta * (energies - energies[0]))
    z_shifted = float(boltz.sum())
    rho = (vectors * (boltz / z_shifted)) @ vectors.conj().T
    return GibbsState(rho=rho, z_shifted=z_shifted, beta=beta, energies=energies,
                      vectors=vectors)


@dataclass(frozen=True)
class InitialState:
    """Joint initial state with the two Gibbs states it is built from."""

    rho: np.ndarray
    gibbs_a: GibbsState
    gibbs_b: GibbsState


@dataclass(frozen=True)
class CheckResult:
    """A computed value against its expected value: the check passes
    when the residual |value - expected| is within the tolerance."""

    name: str
    value: float
    tolerance: float
    expected: float = 0.0

    @property
    def residual(self) -> float:
        return abs(self.value - self.expected)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    #: the state the checks were run on, if it could be built
    initial: InitialState | None = field(default=None, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None


def _hermiticity_residual(m: np.ndarray) -> float:
    return float(np.abs(m - m.conj().T).max())


def validate(spec: BipartiteSpec) -> ValidationReport:
    """Run all structural checks on a spec; failures are data, not errors."""
    tol = spec.tol
    checks: list[CheckResult] = []

    checks.append(CheckResult("h_a_hermitian", _hermiticity_residual(spec.h_a), tol.hermiticity))
    checks.append(CheckResult("h_b_hermitian", _hermiticity_residual(spec.h_b), tol.hermiticity))
    checks.append(CheckResult("h_int_hermitian", _hermiticity_residual(spec.h_int), tol.hermiticity))
    checks.append(CheckResult("chi_hermitian", _hermiticity_residual(spec.chi), tol.hermiticity))

    dim_ok = spec.h_int.shape[0] == spec.dim and spec.chi.shape[0] == spec.dim
    checks.append(CheckResult("joint_dimension", 0.0 if dim_ok else 1.0, 0.5))
    if not dim_ok:
        return ValidationReport(tuple(checks))

    checks.append(CheckResult("chi_traceless", float(abs(np.trace(spec.chi))), tol.marginal))
    tr_a = linalg.partial_trace(spec.chi, spec.dim_a, spec.dim_b, keep="B")
    tr_b = linalg.partial_trace(spec.chi, spec.dim_a, spec.dim_b, keep="A")
    checks.append(CheckResult("chi_marginal_a", float(np.abs(tr_b).max()), tol.marginal))
    checks.append(CheckResult("chi_marginal_b", float(np.abs(tr_a).max()), tol.marginal))

    initial = None
    try:
        initial = _raw_initial_state(spec)
        rho0 = initial.rho
        checks.append(CheckResult("rho0_unit_trace", float(abs(np.trace(rho0).real - 1.0)), 1e-10))
        eigvals = np.linalg.eigvalsh((rho0 + rho0.conj().T) / 2.0)
        neg = max(0.0, float(-eigvals.min()))
        checks.append(CheckResult("rho0_positive", neg, tol.positivity))
    except linalg.LinalgError:
        checks.append(CheckResult("rho0_constructible", 1.0, 0.5))

    try:
        comm = linalg.commutator_norm(spec.h_int, spec.h_total)
        checks.append(CheckResult("h_int_energy_conserving", comm, tol.commutator))
    except linalg.LinalgError:
        checks.append(CheckResult("h_int_energy_conserving", np.inf, tol.commutator))

    return ValidationReport(tuple(checks), initial)


def _raw_initial_state(spec: BipartiteSpec) -> InitialState:
    ga = gibbs_state(spec.h_a, spec.beta_a)
    gb = gibbs_state(spec.h_b, spec.beta_b)
    return InitialState(linalg.tensor_product(ga.rho, gb.rho) + spec.chi, ga, gb)


def initial_state(spec: BipartiteSpec) -> InitialState:
    """Validate the spec and return the state its checks were run on, so
    the Gibbs states are built once.

    Raises :class:`SpecError` naming the first failed check if the spec
    is invalid.
    """
    report = validate(spec)
    if not report.passed:
        bad = report.first_failure()
        raise SpecError(
            f"spec check {bad.name!r} failed with residual {bad.residual:.3e}"
        )
    return report.initial


def build_initial_state(spec: BipartiteSpec) -> np.ndarray:
    """Joint initial state: Gibbs product plus the correlation term.

    Raises :class:`SpecError` naming the first failed check if the spec
    is invalid.
    """
    return initial_state(spec).rho
