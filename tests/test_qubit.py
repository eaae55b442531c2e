import numpy as np
import pytest

from qheatnet import linalg, qubit, system, thermo
from conftest import ledgers_at


def test_occupation_to_beta():
    assert qubit.occupation_to_beta(0.2) == pytest.approx(np.log(4.0))
    assert qubit.occupation_to_beta(0.3) == pytest.approx(np.log(7.0 / 3.0))
    assert qubit.occupation_to_beta(0.1, gap=2.0) == pytest.approx(np.log(9.0) / 2.0)
    for bad in (0.0, 0.5, 0.9, -0.1):
        with pytest.raises(ValueError):
            qubit.occupation_to_beta(bad)


def test_default_params_temperatures(example_params):
    assert example_params.beta_a == pytest.approx(np.log(4.0))
    assert example_params.beta_b == pytest.approx(np.log(7.0 / 3.0))
    assert example_params.beta_a > example_params.beta_b  # A is colder


class TestSpecStructure:
    def test_validates(self, correlated_spec, product_spec):
        assert system.validate(correlated_spec).passed
        assert system.validate(product_spec).passed

    def test_interaction_block(self, correlated_spec):
        h = correlated_spec.h_int
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = mask[2, 1] = True
        assert np.all(h[~mask] == 0)
        assert h[1, 2] == pytest.approx(np.pi / 2.0)

    def test_correlation_block(self, correlated_spec):
        chi = correlated_spec.chi
        assert chi[1, 2] == pytest.approx(-1j * np.sqrt(0.25 * 3 / 7) / (1.25 * 10 / 7))
        assert abs(np.trace(chi)) == 0.0

    def test_full_swap_unitary(self, correlated_spec):
        u = linalg.unitary_from_hamiltonian(correlated_spec.h_int, 1.0)
        # one excitation swaps subsystems (up to phase) after time tau
        assert abs(u[2, 1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(u[1, 1]) == pytest.approx(0.0, abs=1e-12)


class TestAnalyticForms:
    def test_product_no_evolution(self):
        p = qubit.analytic_heat_distribution(
            qubit.ExampleParams(correlated=False), 0.0)
        assert p.prob_at(0.0) == pytest.approx(1.0)

    def test_correlated_fluctuates_without_evolution(self, example_params):
        # measurement back-action on the correlated sector gives apparent
        # heat even at t = 0
        p = qubit.analytic_heat_distribution(example_params, 0.0)
        assert p.prob_at(1.0) > 0.05

    def test_full_swap_product_values(self):
        p = qubit.analytic_heat_distribution(
            qubit.ExampleParams(correlated=False), 1.0)
        assert p.prob_at(1.0) == pytest.approx(0.24)
        assert p.prob_at(-1.0) == pytest.approx(0.14)
        assert p.prob_at(0.0) == pytest.approx(0.62)

    @pytest.mark.parametrize("correlated", [True, False])
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_normalized_everywhere(self, correlated, direction):
        params = qubit.ExampleParams(correlated=correlated)
        for t in np.linspace(0.0, 2.0, 41):
            p = qubit.analytic_heat_distribution(params, t, direction)
            assert p.total == pytest.approx(1.0, abs=1e-12)
            assert np.all(p.probs >= -1e-15)

    def test_periodicity(self, example_params):
        a = qubit.analytic_heat_distribution(example_params, 0.31)
        b = qubit.analytic_heat_distribution(example_params, 0.31 + 2.0)
        assert np.abs(a.probs - b.probs).max() < 1e-12

    @pytest.mark.parametrize("tau", [0.7, 1.0, 2.0])
    @pytest.mark.parametrize("correlated", [True, False])
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_array_form_equals_one_time_calls(self, tau, correlated, direction):
        params = qubit.ExampleParams(tau=tau, correlated=correlated)
        times = np.concatenate(([0.0], np.linspace(0.01, 2.0 * tau, 41), [tau, 3.7 * tau]))
        masses = qubit.analytic_heat_masses(params, times, direction)
        one_time = [[qubit.analytic_heat_distribution(params, t, direction).prob_at(q)
                     for q in qubit.HEAT_VALUES] for t in times]
        assert masses.shape == (len(times), 3)
        assert masses.tobytes() == np.array(one_time).tobytes()
        grid = qubit.analytic_heat_masses(params, times.reshape(4, 11), direction)
        assert grid.shape == (4, 11, 3) and grid.tobytes() == masses.tobytes()

    def test_square_is_the_one_value_power(self):
        # the closed form once squared numpy scalars one time at a time;
        # the array form keeps that rounding, which x * x does not always
        x = np.linspace(-3.0, 3.0, 20001)
        assert qubit._square(x).tobytes() == np.array([v ** 2 for v in x]).tobytes()
        assert qubit._square(x[7]).shape == ()

    def test_unknown_direction(self, example_params):
        with pytest.raises(ValueError, match="direction"):
            qubit.analytic_heat_masses(example_params, [0.5], "sideways")

    def test_reverse_is_time_mirror(self, example_params):
        a = qubit.analytic_heat_distribution(example_params, 0.77, "reverse")
        b = qubit.analytic_heat_distribution(example_params, -0.77, "forward")
        assert np.abs(a.probs - b.probs).max() == 0.0


class TestOracleAgreement:
    @pytest.mark.parametrize("correlated", [True, False])
    def test_numeric_matches_closed_form(self, correlated):
        params = qubit.ExampleParams(correlated=correlated)
        spec = qubit.build_example_spec(params)
        for t in np.linspace(0.08, 2.0, 25):
            led = ledgers_at(spec, t)
            num_f = thermo.heat_distribution(led, "forward")
            num_r = thermo.heat_distribution(led, "reverse")
            ana_f = qubit.analytic_heat_distribution(params, t, "forward")
            ana_r = qubit.analytic_heat_distribution(params, t, "reverse")
            for q in (-1.0, 0.0, 1.0):
                assert num_f.prob_at(q) == pytest.approx(ana_f.prob_at(q), abs=1e-12)
                assert num_r.prob_at(q) == pytest.approx(ana_r.prob_at(q), abs=1e-12)
