"""Precision gate: every relation record, at its worst over the acceptance
bank, must sit at or below 1e-12, three orders of magnitude inside
``thermo.FT_TOL``.  The records reach about 1e-14 in float64, so a defect
that costs several digits of accuracy fails here while every user-facing
pass/fail, which reads ``FT_TOL`` and ``CHOI_TOL``, still passes."""

import copy

import numpy as np
import pytest

from qheatnet import thermo

#: the largest residual a record may reach on any bank entry
PRECISION_GATE = 1e-12

RECORDS = tuple(f"integral_ft[{name}]" for name in
                thermo.FORWARD_QUANTITIES + thermo.REVERSE_QUANTITIES) + (
    "combined_ft", "combined_ft_delta_beta", "detailed_ft_pointwise", "joint_detailed_ft",
    "modified_heat_ft", "mean_heat_balance", "choi_consistency", "mutual_information")


def _worst(checks, name) -> float:
    """The largest residual of record ``name`` over the entries that have
    it, NaN if any is NaN."""
    return float(np.max([entry[name].residual for entry in checks if name in entry]))


def _over_gate(checks) -> set:
    return {name for name in RECORDS if not _worst(checks, name) <= PRECISION_GATE}


def test_gate_covers_every_record(checks):
    # the heat-bias form is a record only where energy is conserved, but
    # some bank entry has it
    assert set().union(*checks) == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_within_precision_gate(checks, name):
    assert _worst(checks, name) <= PRECISION_GATE


def test_gate_fails_on_a_relative_error_of_1e11(bank, checks):
    # scaling one product entry's forward t-overlap table by (1 + 1e-11)
    # moves every integral FT that reads it by 1e-11: the gate fails
    # those eight, and every record still passes FT_TOL
    at = next(k for k, entry in enumerate(bank["entries"]) if entry[0] == "random-0")
    led = copy.copy(bank["entries"][at][3])
    led.a1_table = led.a1_table * (1 + 1e-11)
    perturbed = {c.name: c for c in thermo.relation_checks(led)}
    assert all(c.passed for c in perturbed.values())
    assert _over_gate(checks[:at] + [perturbed] + checks[at + 1:]) == {
        f"integral_ft[{name}]" for name in
        ("i0", "j0", "c0", "sigma_a", "sigma_b", "i1", "j1", "c1")}
    for name in ("integral_ft[i0]", "integral_ft[c1]"):
        assert perturbed[name].residual == pytest.approx(1e-11, rel=0.01)
