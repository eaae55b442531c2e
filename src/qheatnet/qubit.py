"""Two-qubit resonant exchange example with closed-form heat statistics.

Both qubits have unit level splitting and the interaction swaps one
excitation between them, so the heat absorbed by qubit A is always -1, 0
or +1.  The initial state is the thermal product, optionally augmented
with a maximal zero-discord correlation in the single-excitation sector.
The closed forms below serve as an independent oracle for the numeric
pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import system
from .distributions import DiscreteDistribution

__all__ = [
    "ExampleParams",
    "occupation_to_beta",
    "build_example_spec",
    "HEAT_VALUES",
    "analytic_heat_masses",
    "analytic_heat_distribution",
]

#: the heat values of qubit A, in the order of ``analytic_heat_masses``
HEAT_VALUES = (1.0, 0.0, -1.0)


def occupation_to_beta(p: float, gap: float = 1.0) -> float:
    """Inverse temperature of a two-level system with excited-state
    occupation ``p`` and level splitting ``gap``."""
    if not 0.0 < p < 0.5:
        raise ValueError("occupation must lie in (0, 0.5) for a positive temperature")
    return float(np.log((1.0 - p) / p) / gap)


@dataclass(frozen=True)
class ExampleParams:
    """Excited-state occupations, swap period and correlation switch."""

    occupation_a: float = 0.2
    occupation_b: float = 0.3
    tau: float = 1.0
    correlated: bool = True

    @property
    def beta_a(self) -> float:
        return occupation_to_beta(self.occupation_a)

    @property
    def beta_b(self) -> float:
        return occupation_to_beta(self.occupation_b)


def _boltzmann(params: ExampleParams) -> tuple[float, float, float, float]:
    ea = np.exp(-params.beta_a)
    eb = np.exp(-params.beta_b)
    return ea, eb, 1.0 + ea, 1.0 + eb


def _square(x) -> np.ndarray:
    """``x ** 2`` elementwise by libm's ``pow``, the rounding of
    ``np.float64 ** 2`` on one value, so the closed form has the same bits
    for one time and for an array of times.  The array square ``x * x``
    differs from it in the last bit for some values."""
    return np.asarray(np.frompyfunc(math.pow, 2, 1)(x, 2.0), dtype=float)


def build_example_spec(
    params: ExampleParams = ExampleParams(),
    tol: system.Tolerances | None = None,
) -> system.BipartiteSpec:
    """Spec for the example; basis order on the joint space is
    |00>, |01>, |10>, |11> with |0> the local ground state."""
    h = np.diag([0.0, 1.0]).astype(complex)
    ea, eb, za, zb = _boltzmann(params)

    chi = np.zeros((4, 4), dtype=complex)
    if params.correlated:
        # maximal correlation keeping both marginals thermal: the
        # single-excitation block becomes rank one
        alpha = -1j * np.sqrt(ea * eb) / (za * zb)
        chi[1, 2] = alpha
        chi[2, 1] = np.conj(alpha)

    h_int = np.zeros((4, 4), dtype=complex)
    g = np.pi / (2.0 * params.tau)
    h_int[1, 2] = g
    h_int[2, 1] = g

    kwargs = {} if tol is None else {"tol": tol}
    return system.BipartiteSpec(
        h_a=h, h_b=h.copy(), beta_a=params.beta_a, beta_b=params.beta_b,
        chi=chi, h_int=h_int, **kwargs)


def analytic_heat_masses(
    params: ExampleParams,
    times,
    direction: str = "forward",
) -> np.ndarray:
    """Closed-form probabilities of the heat absorbed by qubit A at each
    of ``times``, shape ``np.shape(times) + (3,)``: the masses at
    ``HEAT_VALUES`` = (+1, 0, -1).

    The reversed process is the same experiment run backwards, which
    amounts to flipping the sign of the time argument.
    """
    t = np.asarray(times, dtype=float)
    if direction == "reverse":
        t = -t
    elif direction != "forward":
        raise ValueError(f"unknown direction {direction!r}")

    ea, eb, za, zb = _boltzmann(params)
    theta = t * np.pi / (2.0 * params.tau)
    c, s = np.cos(theta), np.sin(theta)

    if params.correlated:
        norm = (ea + eb) * za * zb
        p_plus = eb * _square(np.sqrt(ea) * c - np.sqrt(eb) * s) / norm
        p_minus = ea * _square(np.sqrt(eb) * c + np.sqrt(ea) * s) / norm
    else:
        p_plus = eb * s * s / (za * zb)
        p_minus = ea * s * s / (za * zb)
    p_zero = 1.0 - p_plus - p_minus
    return np.stack((p_plus, p_zero, p_minus), axis=-1)


def analytic_heat_distribution(
    params: ExampleParams,
    t: float,
    direction: str = "forward",
) -> DiscreteDistribution:
    """Closed-form distribution of the heat absorbed by qubit A at one
    time, the masses of ``analytic_heat_masses`` binned on
    ``HEAT_VALUES``."""
    return DiscreteDistribution.from_samples(
        np.array(HEAT_VALUES), analytic_heat_masses(params, t, direction))
