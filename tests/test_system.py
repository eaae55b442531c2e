import numpy as np
import pytest

from qheatnet import linalg, qubit, system

H2 = np.diag([0.0, 1.0]).astype(complex)


class TestGibbs:
    def test_two_level_occupations(self):
        g = system.gibbs_state(H2, np.log(4.0))
        assert np.allclose(np.diag(g.rho).real, [0.8, 0.2])
        assert g.z_shifted == pytest.approx(1.25)
        assert np.allclose(g.energies, [0.0, 1.0])

    def test_infinite_temperature(self):
        g = system.gibbs_state(H2, 0.0)
        assert np.abs(g.rho - np.eye(2) / 2).max() < 1e-15

    def test_deep_cold_is_stable(self):
        g = system.gibbs_state(np.diag([0.0, 50.0]).astype(complex), 50.0)
        assert np.isfinite(g.rho).all()
        assert g.rho[0, 0].real == pytest.approx(1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(system.SpecError):
            system.gibbs_state(H2, -0.1)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_non_finite_beta_rejected(self, beta):
        # NaN passes a bare beta < 0 test and would reach the eigensolver
        with pytest.raises(system.SpecError, match="finite and nonnegative"):
            system.gibbs_state(H2, beta)


class TestValidate:
    def test_example_passes(self, correlated_spec):
        report = system.validate(correlated_spec)
        assert report.passed
        assert report.first_failure() is None

    def test_bad_marginal(self, correlated_spec):
        chi = correlated_spec.chi.copy()
        chi[0, 0] = 0.05  # pushes weight into the A marginal
        bad = system.BipartiteSpec(
            h_a=correlated_spec.h_a, h_b=correlated_spec.h_b,
            beta_a=correlated_spec.beta_a, beta_b=correlated_spec.beta_b,
            chi=chi, h_int=correlated_spec.h_int)
        report = system.validate(bad)
        assert not report.passed
        names = {c.name for c in report.checks if not c.passed}
        assert names & {"chi_traceless", "chi_marginal_a", "chi_marginal_b"}

    def test_nonconserving_interaction(self, correlated_spec):
        h_int = linalg.tensor_product(
            np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2))
        bad = system.BipartiteSpec(
            h_a=correlated_spec.h_a, h_b=correlated_spec.h_b,
            beta_a=correlated_spec.beta_a, beta_b=correlated_spec.beta_b,
            chi=correlated_spec.chi, h_int=h_int)
        report = system.validate(bad)
        assert report.first_failure().name == "h_int_energy_conserving"

    def test_dimension_mismatch(self, correlated_spec):
        bad = system.BipartiteSpec(
            h_a=correlated_spec.h_a, h_b=correlated_spec.h_b,
            beta_a=1.0, beta_b=1.0,
            chi=np.zeros((6, 6), dtype=complex),
            h_int=correlated_spec.h_int)
        report = system.validate(bad)
        assert "joint_dimension" in {c.name for c in report.checks if not c.passed}

    def test_indefinite_state_rejected(self, correlated_spec):
        chi = correlated_spec.chi * 3.0  # overshoots the zero eigenvalue
        bad = system.BipartiteSpec(
            h_a=correlated_spec.h_a, h_b=correlated_spec.h_b,
            beta_a=correlated_spec.beta_a, beta_b=correlated_spec.beta_b,
            chi=chi, h_int=correlated_spec.h_int)
        report = system.validate(bad)
        assert "rho0_positive" in {c.name for c in report.checks if not c.passed}


class TestInitialState:
    def test_product_diagonal(self, product_spec):
        rho = system.initial_state(product_spec).rho
        assert np.allclose(np.diag(rho).real, [0.56, 0.24, 0.14, 0.06])
        assert np.abs(rho - np.diag(np.diag(rho))).max() < 1e-15

    def test_correlated_spectrum(self, correlated_spec):
        rho = system.initial_state(correlated_spec).rho
        evals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.allclose(evals, [0.56, 0.38, 0.06, 0.0], atol=1e-12)

    def test_marginals_stay_thermal(self, correlated_spec):
        rho = system.initial_state(correlated_spec).rho
        ra = linalg.partial_trace(rho, 2, 2, "A")
        rb = linalg.partial_trace(rho, 2, 2, "B")
        assert np.allclose(np.diag(ra).real, [0.8, 0.2])
        assert np.allclose(np.diag(rb).real, [0.7, 0.3])

    def test_initial_state_carries_its_gibbs_states(self, correlated_spec):
        start = system.initial_state(correlated_spec)
        assert np.array_equal(start.rho, system.initial_state(correlated_spec).rho)
        for got, h, beta in ((start.gibbs_a, correlated_spec.h_a, correlated_spec.beta_a),
                             (start.gibbs_b, correlated_spec.h_b, correlated_spec.beta_b)):
            want = system.gibbs_state(h, beta)
            assert np.array_equal(got.rho, want.rho) and got.z_shifted == want.z_shifted
        assert np.array_equal(
            start.rho, linalg.tensor_product(start.gibbs_a.rho, start.gibbs_b.rho)
            + correlated_spec.chi)

    def test_report_has_no_state_when_unbuildable(self, correlated_spec):
        bad = system.BipartiteSpec(
            h_a=correlated_spec.h_a, h_b=correlated_spec.h_b, beta_a=1.0, beta_b=1.0,
            chi=np.zeros((6, 6), dtype=complex), h_int=correlated_spec.h_int)
        assert system.validate(bad).initial is None
        assert system.validate(correlated_spec).initial is not None

    def test_invalid_raises_with_name(self, correlated_spec):
        bad = system.BipartiteSpec(
            h_a=correlated_spec.h_a, h_b=correlated_spec.h_b,
            beta_a=correlated_spec.beta_a, beta_b=correlated_spec.beta_b,
            chi=correlated_spec.chi * 3.0, h_int=correlated_spec.h_int)
        with pytest.raises(system.SpecError, match="rho0_positive"):
            system.initial_state(bad).rho

