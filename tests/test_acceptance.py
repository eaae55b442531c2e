"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

The instance bank is shared across criteria: the solvable two-qubit
example (both branches, 21 times spanning a full period) plus 50 random
instances with subsystem dimensions 2 and 3.  Criteria 1, 2, 3, 8 (the
channel-state half) and 9 read the records of ``thermo.relation_checks``,
the list ``verify`` reports, by name.
"""

import time

import numpy as np
import pytest

from qheatnet import bayesnet, qubit, randspec, thermo
from conftest import ledgers_at

N_RANDOM = 50
EXAMPLE_TIMES = np.linspace(0.0, 2.0, 22)[1:]   # 21 positive times in (0, 2*tau]


def _report(num, label, ok, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


@pytest.fixture(scope="module")
def bank():
    start = time.monotonic()
    entries = []
    for correlated in (True, False):
        spec = qubit.build_example_spec(qubit.ExampleParams(correlated=correlated))
        for t in EXAMPLE_TIMES:
            entries.append(("example" if correlated else "example-product",
                            spec, float(t), ledgers_at(spec, t)))
    rng = np.random.default_rng(20240811)
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    for n in range(N_RANDOM):
        da, db = dims[n % 4]
        spec = randspec.random_spec(n, da, db, correlated=(n % 3 != 0))
        t = float(rng.uniform(0.2, 3.0))
        entries.append((f"random-{n}", spec, t, ledgers_at(spec, t)))
    elapsed = time.monotonic() - start
    return {"entries": entries, "elapsed": elapsed}


@pytest.fixture(scope="module")
def checks(bank):
    """The relation checks of each bank entry, by record name."""
    return [{c.name: c for c in thermo.relation_checks(led)}
            for _, _, _, led in bank["entries"]]


def _worst(checks, *names):
    """The largest residual of the named records over the bank, NaN if
    any is NaN; a record missing from an entry raises KeyError."""
    return float(np.max([entry[name].residual for entry in checks for name in names]))


def test_criterion_1_integral_fluctuation_theorems(bank, checks):
    worst = _worst(checks, *(f"integral_ft[{name}]" for name in
                             thermo.FORWARD_QUANTITIES + thermo.REVERSE_QUANTITIES))
    ok = worst <= 1e-10 and bank["elapsed"] < 10.0
    _report(1, "nine integral FTs equal one", ok,
            f"max |<exp(-X)> - 1| = {worst:.2e}, build {bank['elapsed']:.2f}s")


def test_criterion_2_pointwise_detailed_ft(checks):
    worst = _worst(checks, "detailed_ft_pointwise")
    _report(2, "pointwise detailed FT on augmented weights", worst <= 1e-9,
            f"max log-ratio residual = {worst:.2e}")


def test_criterion_3_combined_integral_ft(checks):
    worst = _worst(checks, "combined_ft")
    # the heat-bias form is a record only where energy is conserved
    worst_db = float(np.max([entry["combined_ft_delta_beta"].residual for entry in checks
                             if "combined_ft_delta_beta" in entry], initial=0.0))
    ok = worst <= 1e-9 and worst_db <= 1e-9
    _report(3, "combined integral FT", ok,
            f"exact form {worst:.2e}, heat-bias form {worst_db:.2e}")


def test_criterion_4_example_heat_curves():
    grid = np.linspace(0.0, 2.0, 101)
    worst = 0.0
    for correlated in (True, False):
        params = qubit.ExampleParams(correlated=correlated)
        spec = qubit.build_example_spec(params)
        for t in grid:
            led = ledgers_at(spec, t)
            for direction in ("forward", "reverse"):
                num = thermo.heat_distribution(led, direction)
                ana = qubit.analytic_heat_distribution(params, float(t), direction)
                for q in (-1.0, 0.0, 1.0):
                    worst = max(worst, abs(num.prob_at(q) - ana.prob_at(q)))
    _report(4, "closed-form heat curves on the 101-point grid", worst <= 1e-10,
            f"max deviation = {worst:.2e}")


def test_criterion_5_uncorrelated_limit():
    spec = qubit.build_example_spec(qubit.ExampleParams(correlated=False))
    worst_psi, worst_ratio = 0.0, 0.0
    for t in EXAMPLE_TIMES:
        led = ledgers_at(spec, t)
        psi = thermo.psi_factor(led)
        if len(psi.psi):
            worst_psi = max(worst_psi, float(np.abs(psi.psi - 1.0).max()))
        pf = thermo.heat_distribution(led, "forward")
        pr = thermo.heat_distribution(led, "reverse")
        if pf.prob_at(1.0) > 1e-12 and pr.prob_at(-1.0) > 1e-12:
            worst_ratio = max(worst_ratio,
                              abs(pf.prob_at(1.0) / pr.prob_at(-1.0) - 12.0 / 7.0))
    ok = worst_psi <= 1e-10 and worst_ratio <= 1e-9
    _report(5, "uncorrelated limit: psi = 1 and exchange ratio 12/7", ok,
            f"max |psi - 1| = {worst_psi:.2e}, max ratio error = {worst_ratio:.2e}")


def test_criterion_6_modified_heat_exchange_ft():
    spec = qubit.build_example_spec(qubit.ExampleParams(correlated=True))
    worst, departure = 0.0, 0.0
    for t in EXAMPLE_TIMES:
        psi = thermo.psi_factor(ledgers_at(spec, t))
        worst = max(worst, psi.max_residual)
        if len(psi.psi):
            departure = max(departure, float(np.abs(psi.psi - 1.0).max()))
    ok = worst <= 1e-9 and departure > 0.01
    _report(6, "psi-modified heat exchange FT", ok,
            f"max residual = {worst:.2e}, max |psi - 1| = {departure:.2f}")


def test_criterion_7_mean_heat_balance(bank):
    worst, reversed_seen = 0.0, False
    for name, _, _, led in bank["entries"]:
        bal = thermo.mean_heat_balance(led)
        worst = max(worst, bal.residual)
        if name == "example" and bal.heat_reversed:
            reversed_seen = True
    ok = worst <= 1e-9 and reversed_seen
    _report(7, "mean heat against its entropic budget", ok,
            f"max residual = {worst:.2e}, cold-to-hot flow seen = {reversed_seen}")


def test_criterion_8_channel_state_consistency(bank, checks):
    worst_choi = _worst(checks, "choi_consistency")
    worst_tpm = 0.0
    n_tpm = 0
    for name, spec, t, led in bank["entries"]:
        if np.abs(spec.chi).max() == 0.0:
            n_tpm += 1
            basis = led.basis
            worst_tpm = max(worst_tpm, float(np.abs(
                bayesnet.path_probability_table(basis) - bayesnet.tpm_table(basis)).max()))
    ok = worst_choi <= 1e-12 and worst_tpm <= 1e-12 and n_tpm > 0
    _report(8, "channel-state route and two-point-measurement limit", ok,
            f"choi {worst_choi:.2e} on {len(bank['entries'])}, "
            f"tpm {worst_tpm:.2e} on {n_tpm} product entries")


def test_criterion_9_stochastic_vs_entropic_information(checks):
    worst = _worst(checks, "mutual_information")
    _report(9, "stochastic information averages are entropic", worst <= 1e-9,
            f"max residual = {worst:.2e}")
