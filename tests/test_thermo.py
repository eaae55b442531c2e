import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qheatnet import bayesnet, linalg, randspec, system, thermo
from qheatnet.distributions import DiscreteDistribution
from conftest import ledgers_at

ALL_QUANTITIES = thermo.FORWARD_QUANTITIES + thermo.REVERSE_QUANTITIES


def _measure(name):
    return "forward" if name in thermo.FORWARD_QUANTITIES else "reverse"


class TestLedgers:
    def test_requires_two_time_grid(self, correlated_spec):
        # ledgers are two-time quantities: a grid of two or more times is
        # rejected before any ledger is built
        from qheatnet import bayesnet
        with pytest.raises(ValueError):
            thermo.compute_ledgers(
                bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.3, 0.7))))

    def test_information_splits_exactly(self, correlated_spec):
        # i = j + c: classical plus coherent part, at 0 and at t
        led = ledgers_at(correlated_spec, 0.67)
        assert led.n_pairs > 0
        for i, j, c in (("i0", "j0", "c0"), ("i1", "j1", "c1")):
            parts = thermo.mean_quantity(led, j) + thermo.mean_quantity(led, c)
            assert thermo.mean_quantity(led, i) == pytest.approx(parts, abs=1e-12)

    def test_energy_conservation(self, correlated_spec):
        led = ledgers_at(correlated_spec, 0.67)
        assert led.all_energy_conserving
        assert (np.abs(led.col_q_a + led.col_q_b) <= led.binning).all()
        assert np.allclose(led.col_q_a, -led.col_q_b, rtol=0.0, atol=1e-12)

    def test_product_state_has_no_initial_information(self, product_spec):
        led = ledgers_at(product_spec, 0.67)
        assert led.n_pairs > 0
        assert np.abs(led.col_i0).max() < 1e-12

    def test_tiny_time_gamma_vanishes_on_diagonal(self, correlated_spec):
        led = ledgers_at(correlated_spec, 1e-10)
        diagonal = led.ki == led.kj
        assert diagonal.any()
        assert np.abs(led.col_gamma[diagonal]).max() < 1e-8
        assert set(np.abs(led.col_q_a)) <= {0.0, 1.0}

    def test_weights_positive_and_bounded(self, correlated_spec):
        led = ledgers_at(correlated_spec, 0.41)
        assert np.all(led.w_f > 0) and np.all(led.w_f <= 1)
        assert np.all(led.w_r > 0) and np.all(led.w_r <= 1)

    def test_detailed_ft_pointwise(self, correlated_spec, product_spec):
        for spec in (correlated_spec, product_spec):
            for t in (0.23, 1.0, 1.77):
                assert ledgers_at(spec, t).detailed_residual < 1e-12


def _dense_pairs(fmask, rmask):
    """Reference: every cell of the K x K x m x m product mask."""
    return np.nonzero(fmask[:, None] & rmask[None])


def _shell_ladder_spec(levels, seed):
    """Correlated instance on two integer ladders 0..levels-1, with the
    interaction and correlation term restricted to the energy shells."""
    rng = np.random.default_rng(seed)
    ladder = np.arange(levels, dtype=float)
    h = np.diag(ladder).astype(complex)
    dim = levels * levels
    total = np.add.outer(ladder, ladder).ravel()
    shells = np.abs(np.subtract.outer(total, total)) < 0.5

    def shell_hermitian():
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        x = np.where(shells, x + x.conj().T, 0.0)
        return x / np.abs(x).max()

    h_int, chi = shell_hermitian(), shell_hermitian()
    eye = np.eye(levels)
    chi = (chi - linalg.tensor_product(linalg.partial_trace(chi, levels, levels, "A"), eye) / levels
           - linalg.tensor_product(eye, linalg.partial_trace(chi, levels, levels, "B")) / levels
           + np.trace(chi) * np.eye(dim) / dim)
    beta_a, beta_b = 0.3, 0.6
    prod = linalg.tensor_product(system.gibbs_state(h, beta_a).rho,
                                 system.gibbs_state(h, beta_b).rho)
    chi *= 0.8 * np.linalg.eigvalsh(prod).min() / np.abs(np.linalg.eigvalsh(chi)).max()
    spec = system.BipartiteSpec(h_a=h, h_b=h.copy(), beta_a=beta_a, beta_b=beta_b,
                                chi=chi, h_int=h_int)
    assert system.validate(spec).passed
    return spec


class TestPairIndices:
    """The sparse pair builder against the dense product mask."""

    @staticmethod
    def assert_matches_dense(fmask, rmask):
        got = thermo._pair_indices(fmask[None], rmask[None])[1:]
        want = _dense_pairs(fmask, rmask)
        assert len(got) == 4
        for g, w in zip(got, want):
            assert g.dtype == np.intp
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_random_specs(self, dims, correlated):
        for seed in range(3):
            led = ledgers_at(randspec.random_spec(seed, *dims, correlated=correlated),
                             0.37 + seed)
            assert led.n_pairs > 0
            self.assert_matches_dense(led.fmask, led.rmask)

    def test_example_with_zero_population(self, correlated_spec):
        led = ledgers_at(correlated_spec, 0.71)
        assert led.n_anchor < correlated_spec.dim
        self.assert_matches_dense(led.fmask, led.rmask)

    @pytest.mark.parametrize("levels", [6, 8])
    def test_shell_ladders(self, levels):
        led = ledgers_at(_shell_ladder_spec(levels, seed=levels), 1.0)
        assert led.n_pairs > 0
        self.assert_matches_dense(led.fmask, led.rmask)

    @pytest.mark.parametrize("k, m", [(1, 1), (3, 2), (5, 4), (2, 7)])
    @pytest.mark.parametrize("density", [0.05, 0.5, 1.0])
    def test_random_masks(self, k, m, density):
        rng = np.random.default_rng(k * 100 + m)
        for _ in range(5):
            fmask = rng.random((k, m, m)) < density
            rmask = rng.random((k, m, m)) < density
            self.assert_matches_dense(fmask, rmask)

    def test_no_pairs(self):
        fmask = np.zeros((3, 2, 2), dtype=bool)
        rmask = np.zeros((3, 2, 2), dtype=bool)
        fmask[:, 0, 0] = True
        rmask[:, 1, 1] = True       # live cells, but never the same outcomes
        for f, r in ((fmask, rmask), (fmask, np.zeros_like(rmask))):
            got = thermo._pair_indices(f[None], r[None])[1:]
            assert [g.dtype for g in got] == [np.intp] * 4
            assert [g.size for g in got] == [0] * 4
            self.assert_matches_dense(f, r)

    def test_ledger_memory_below_dense_mask(self):
        # the dense product mask alone holds K^2 m^2 bytes
        spec = _shell_ladder_spec(8, seed=8)
        basis = bayesnet.build_bases(spec, bayesnet.TimeGrid((1.0,)))
        k = int(np.count_nonzero(basis.populations > spec.tol.probability_floor))
        m = spec.dim_a * spec.dim_b
        tracemalloc.start()
        try:
            thermo.compute_ledgers(basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k * k * m * m


class TestIntegralFTs:
    @pytest.mark.parametrize("name", ALL_QUANTITIES)
    def test_example_unit_average(self, correlated_spec, name):
        led = ledgers_at(correlated_spec, 0.37)
        assert thermo.integral_ft(led, name, _measure(name)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ALL_QUANTITIES)
    def test_random_spec_unit_average(self, name):
        led = ledgers_at(randspec.random_spec(13, 3, 2), 1.21)
        assert thermo.integral_ft(led, name, _measure(name)) == pytest.approx(1.0, abs=1e-12)

    def test_measure_mismatch_rejected(self, correlated_spec):
        led = ledgers_at(correlated_spec, 0.5)
        with pytest.raises(ValueError):
            thermo.integral_ft(led, "i0", "reverse")
        with pytest.raises(ValueError):
            thermo.integral_ft(led, "i1", "forward")
        with pytest.raises(ValueError):
            thermo.integral_ft(led, "heat", "forward")

    @pytest.mark.parametrize("seed,da,db", [(13, 3, 2), (31, 3, 3), (4, 4, 4)])
    def test_gamma_factored_sum_matches_full_contraction(self, seed, da, db):
        led = ledgers_at(randspec.random_spec(seed, da, db), 0.37)
        kp = led.keep
        full = float(np.einsum("k,mi,mj->", led.pops, led.b0_table[kp],
                               led.b1_table[kp])) / led.n_anchor
        assert thermo.integral_ft(led, "gamma", "forward") == pytest.approx(full, abs=1e-14)

    def test_jensen_bounds(self, correlated_spec):
        led = ledgers_at(correlated_spec, 0.83)
        for name in ALL_QUANTITIES:
            assert thermo.mean_quantity(led, name) >= -1e-10

    def test_combined_ft(self, correlated_spec):
        comb = thermo.combined_integral_ft(ledgers_at(correlated_spec, 0.61))
        assert comb.value == pytest.approx(1.0, abs=1e-12)
        assert comb.all_energy_conserving
        assert comb.value_delta_beta == pytest.approx(1.0, abs=1e-12)


class TestHeatDistributions:
    def test_full_swap_product(self, product_spec):
        p = thermo.heat_distribution(ledgers_at(product_spec, 1.0), "forward")
        assert p.prob_at(1.0) == pytest.approx(0.24, abs=1e-12)
        assert p.prob_at(-1.0) == pytest.approx(0.14, abs=1e-12)
        assert p.prob_at(0.0) == pytest.approx(0.62, abs=1e-12)

    def test_normalization(self, correlated_spec):
        led = ledgers_at(correlated_spec, 1.39)
        for direction in ("forward", "reverse"):
            assert thermo.heat_distribution(led, direction).total == pytest.approx(
                1.0, abs=1e-12)

    def test_unknown_direction(self, correlated_spec):
        with pytest.raises(ValueError):
            thermo.heat_distribution(ledgers_at(correlated_spec, 0.5), "sideways")

    def test_uncorrelated_exchange_symmetry(self, product_spec):
        # no initial correlations: detailed exchange relation for the
        # bare heat, P_f(Q) = exp(Q dbeta) P_r(-Q)
        led = ledgers_at(product_spec, 0.77)
        pf = thermo.heat_distribution(led, "forward")
        pr = thermo.heat_distribution(led, "reverse")
        for q in (-1.0, 1.0):
            assert pf.prob_at(q) == pytest.approx(
                np.exp(q * led.delta_beta) * pr.prob_at(-q), abs=1e-12)

    def test_uncorrelated_ratio_at_unit_heat(self, product_spec):
        led = ledgers_at(product_spec, 0.52)
        pf = thermo.heat_distribution(led, "forward")
        pr = thermo.heat_distribution(led, "reverse")
        assert pf.prob_at(1.0) / pr.prob_at(-1.0) == pytest.approx(12.0 / 7.0, abs=1e-9)


def _oracle_instances():
    """Random instances 2x2 to 4x4 with and without correlations, and a
    shell-ladder instance at D = 36 whose heat table has many ties."""
    for dims in ((2, 2), (3, 3), (4, 4)):
        for correlated in (True, False):
            yield (f"{dims[0]}x{dims[1]}-{'corr' if correlated else 'prod'}",
                   randspec.random_spec(5, *dims, correlated=correlated))
    yield "shell-6x6", _shell_ladder_spec(6, 3)


@pytest.fixture(scope="module", params=list(_oracle_instances()), ids=lambda p: p[0])
def oracle_ledgers(request):
    return ledgers_at(request.param[1], 0.83)


class TestSharedHeatBins:
    """The one binning of the heat table against binning each direction
    afresh, as ``heat_distribution`` did before it shared the bins."""

    def test_heat_distributions_match_fresh_binning(self, oracle_ledgers):
        led = oracle_ledgers
        for direction, values, weights in (("forward", led.q_a_tab, led.fwd),
                                           ("reverse", -led.q_a_tab, led.rev)):
            expect = DiscreteDistribution.from_samples(
                values.ravel(), weights.sum(axis=0).ravel(), binning=led.binning)
            got = thermo.heat_distribution(led, direction)
            assert got.points.tobytes() == expect.points.tobytes(), direction
            assert got.probs.tobytes() == expect.probs.tobytes(), direction

    def test_mirrored_bins_equal_binning_the_mirror(self, oracle_ledgers):
        bins = oracle_ledgers.heat_bins
        fresh = DiscreteDistribution._binned(-bins.values, bins.binning)
        mirrored = bins.mirrored()
        for name in ("values", "bin_id", "first"):
            assert getattr(mirrored, name).tobytes() == getattr(fresh, name).tobytes(), name

    def test_binned_once_per_ledger_set(self, correlated_spec, monkeypatch):
        calls = []
        binned = DiscreteDistribution._binned

        def counted(values, binning):
            calls.append(np.shape(values))
            return binned(values, binning)
        monkeypatch.setattr(DiscreteDistribution, "_binned", staticmethod(counted))
        led = ledgers_at(correlated_spec, 0.61)
        for direction in ("forward", "reverse", "forward"):
            thermo.heat_distribution(led, direction)
        thermo.psi_factor(led)
        assert calls == [(led.q_a_tab.size,)]


def _block_cases():
    """Random instances with several blocks of times each, and a D = 36
    shell ladder whose heat table has many ties."""
    for dims in ((2, 2), (3, 2), (3, 3), (4, 4)):
        for correlated in (True, False):
            yield (f"{dims[0]}x{dims[1]}-{'corr' if correlated else 'prod'}",
                   randspec.random_spec(7, *dims, correlated=correlated))
    yield "shell-6x6", _shell_ladder_spec(6, 3)


class TestLedgerBlocks:
    """A block of times against the one-time path at each of its times."""

    #: includes a repeated time and a time below the others
    TIMES = (0.0, 0.37, 0.9, 0.9, 1.6, 0.2, 2.9)
    #: ledger tables with the block's time axis, those shared by every
    #: time of a block, and those with one entry per pair
    AT_TIME = ("a1_table", "b0_table", "b1_table", "joint1", "pp1", "e_a1", "e_b1",
               "pth_a1", "pth_b1", "q_a_tab", "q_b_tab", "fwd", "rev", "fmask", "rmask")
    SHARED = ("floor", "binning", "beta_a", "beta_b", "delta_beta", "dim_a", "dim_b",
              "pops", "keep", "n_anchor", "a0_table", "joint0", "pp0", "e_a0", "e_b0",
              "gibbs_a", "gibbs_b", "flat_a", "flat_b")
    PAIRS = ("ki", "kj", "i0", "i1", "w_f", "w_r", "col_i0", "col_i1",
             "col_sigma_a", "col_sigma_b", "col_gamma", "col_k", "col_q_a", "col_q_b",
             "exponent")

    @pytest.fixture(params=list(_block_cases()), ids=lambda p: p[0])
    def blocks(self, request, monkeypatch):
        spec = request.param[1]
        kept = np.count_nonzero(bayesnet.build_bases(spec, bayesnet.TimeGrid((1.0,)))
                                .populations > spec.tol.probability_floor)
        # three times per block, so the last block is short
        monkeypatch.setattr(bayesnet, "BLOCK_ELEMENTS", 3 * kept * spec.dim ** 2)
        blocks = list(bayesnet.sweep_blocks(spec, self.TIMES))
        assert [len(b.times) for b in blocks] == [3, 3, 1]
        return spec, blocks

    def one_time(self, spec, t):
        return ledgers_at(spec, t)

    def test_tables_and_pairs_match_one_time(self, blocks):
        spec, blocks = blocks
        for block in blocks:
            led = thermo.compute_ledgers(block)
            assert isinstance(led, thermo.LedgerSet)
            assert np.all(np.diff(led.t_index) >= 0)            # time-major
            for k, t in enumerate(block.times):
                one = self.one_time(spec, t)
                for name in self.AT_TIME:
                    assert getattr(led, name)[k].tobytes() == getattr(one, name).tobytes(), name
                for name in self.SHARED:
                    got, want = getattr(led, name), getattr(one, name)
                    if isinstance(want, system.GibbsState):
                        assert got.rho.tobytes() == want.rho.tobytes(), name
                    elif isinstance(want, np.ndarray):
                        assert got.tobytes() == want.tobytes(), name
                    else:
                        assert got == want, name
                for name in self.PAIRS:
                    got = getattr(led, name)[led.t_index == k]
                    assert got.tobytes() == getattr(one, name).tobytes(), name
                for name in ("joint_1", "a_1", "b_1"):
                    assert (getattr(led.marg, name)[k].tobytes()
                            == getattr(one.marg, name).tobytes()), name
                assert led.detailed_residual[k] == one.detailed_residual
                assert led.all_energy_conserving[k] == one.all_energy_conserving

    def test_time_axis_only_on_blocks(self, blocks):
        spec, blocks = blocks
        one = self.one_time(spec, self.TIMES[1])
        for block in blocks:
            led = thermo.compute_ledgers(block)
            lead = (len(block.times),)
            for name in self.AT_TIME:
                assert getattr(led, name).shape == lead + getattr(one, name).shape, name
            for name in ("detailed_residual", "all_energy_conserving"):
                assert np.shape(getattr(led, name)) == lead and np.shape(getattr(one, name)) == ()
            assert one.a1_table.shape == one.a0_table.shape

    def test_heat_distributions_and_psi_match_one_time(self, blocks):
        spec, blocks = blocks
        for block in blocks:
            led = thermo.compute_ledgers(block)
            starts = led.heat_bins.starts
            p_f = thermo.heat_distribution(led, "forward")
            p_r = thermo.heat_distribution(led, "reverse")
            psi = thermo.psi_factor(led)
            live = np.concatenate(([0], np.cumsum(p_f.probs > led.floor)))[starts]
            for k, t in enumerate(block.times):
                one = self.one_time(spec, t)
                bins = slice(starts[k], starts[k + 1])
                for got, direction in ((p_f, "forward"), (p_r, "reverse")):
                    want = thermo.heat_distribution(one, direction)
                    assert got.points[bins].tobytes() == want.points.tobytes()
                    assert got.probs[bins].tobytes() == want.probs.tobytes()
                want = thermo.psi_factor(one)
                for name in ("q_values", "psi", "p_f", "p_r_mirror", "residuals"):
                    got_k = getattr(psi, name)[live[k]:live[k + 1]]
                    assert got_k.tobytes() == getattr(want, name).tobytes(), name
            per_time = [thermo.psi_factor(self.one_time(spec, t)) for t in block.times]
            assert psi.max_residual == max(r.max_residual for r in per_time)
            assert psi.n_skipped == sum(r.n_skipped for r in per_time)

    def test_heat_bins_grouped_by_time(self, blocks):
        spec, blocks = blocks
        for block in blocks:
            bins = thermo.compute_ledgers(block).heat_bins
            m2 = spec.dim ** 2
            for k, t in enumerate(block.times):
                one = self.one_time(spec, t).heat_bins
                cells = slice(k * m2, (k + 1) * m2)
                assert np.array_equal(bins.bin_id[cells] - bins.starts[k], one.bin_id)
                assert np.array_equal(bins.first[bins.starts[k]:bins.starts[k + 1]] - k * m2,
                                      one.first)
                assert np.array_equal(bins.mirror[bins.starts[k]:bins.starts[k + 1]]
                                      - bins.starts[k], one.mirror)

    @pytest.mark.parametrize("k, m", [(1, 1), (3, 2), (5, 4)])
    def test_block_pair_indices_are_per_time_runs(self, k, m):
        rng = np.random.default_rng(k * 10 + m)
        fmask = rng.random((4, k, m, m)) < 0.5
        rmask = rng.random((4, k, m, m)) < 0.5
        fmask[2] = False                    # a time without pairs
        t, *pairs = thermo._pair_indices(fmask, rmask)
        assert np.all(np.diff(t) >= 0)
        for step in range(4):
            for got, want in zip(pairs, _dense_pairs(fmask[step], rmask[step])):
                assert np.array_equal(got[t == step], want)


class TestJointAndPsi:
    def test_joint_detailed_ft(self, correlated_spec):
        joint = thermo.joint_distribution(ledgers_at(correlated_spec, 0.93))
        assert joint.n_checked > 0
        assert joint.max_residual < 1e-12

    def test_joint_counts_reverse_mass_once_across_rounding_boundary(self):
        # two forward bins of this instance sit within one binning of each
        # other, split by a gamma rounding boundary; matching support points
        # within +-binning counted the reverse mass of both bins for each
        led = ledgers_at(randspec.random_spec(31, 3, 3), 0.37)
        joint = thermo.joint_distribution(led)
        gap = np.abs(joint.forward.points[:, None] - joint.forward.points[None]).max(axis=2)
        np.fill_diagonal(gap, np.inf)
        assert gap.min() <= led.binning
        assert joint.n_checked > 0
        assert joint.max_residual < 1e-15

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)]),
           correlated=st.booleans(), t=st.floats(0.05, 3.0))
    def test_joint_bin_pairing_properties(self, seed, dims, correlated, t):
        led = ledgers_at(randspec.random_spec(seed, *dims, correlated=correlated), t)
        joint = thermo.joint_distribution(led)
        fwd, rev, b, floor = joint.forward, joint.reverse, led.binning, led.floor
        assert fwd.n_points == rev.n_points

        # each sample's forward bin key and mirrored reverse bin key pair up
        # one to one: a bijection between the bins
        samples = np.stack([led.col_q_a, led.col_k, led.col_gamma], axis=1)
        key_f = np.round(samples / b).astype(np.int64)
        key_r = np.round(samples * [-1.0, -1.0, 1.0] / b).astype(np.int64)
        n_f = len(np.unique(key_f, axis=0))
        assert n_f == len(np.unique(key_r, axis=0)) == fwd.n_points
        assert len(np.unique(np.hstack([key_f, key_r]), axis=0)) == n_f

        assert joint.n_checked + joint.n_unverified == np.count_nonzero(fwd.probs > floor)

        def isolated(points):
            gap = np.abs(points[:, None] - points[None]).max(axis=2)
            np.fill_diagonal(gap, np.inf)
            return gap.min(initial=np.inf) > 2 * b

        if isolated(fwd.points) and isolated(rev.points):
            resid, checked, unverified = 0.0, 0, 0
            for (q, kk, gg), pf in zip(fwd.points, fwd.probs):
                if pf <= floor:
                    continue
                hit = np.all(np.abs(rev.points - [-q, -kk, gg]) <= b, axis=1)
                pr = rev.probs[hit].sum()
                if pr <= floor:
                    unverified += 1
                    continue
                checked += 1
                resid = max(resid, abs(pf - np.exp(q * led.delta_beta - kk + gg) * pr))
            assert (joint.n_checked, joint.n_unverified) == (checked, unverified)
            assert joint.max_residual == resid

        psi = thermo.psi_factor(led)
        p_r = thermo.heat_distribution(led, "reverse")
        assert np.array_equal(psi.p_r_mirror, [p_r.prob_at(-q) for q in psi.q_values])

    def test_psi_unity_without_correlations(self, product_spec):
        psi = thermo.psi_factor(ledgers_at(product_spec, 0.93))
        assert np.abs(psi.psi - 1.0).max() < 1e-12

    def test_psi_departs_with_correlations(self, correlated_spec):
        psi = thermo.psi_factor(ledgers_at(correlated_spec, 0.37))
        assert np.abs(psi.psi - 1.0).max() > 0.01

    def test_modified_exchange_relation(self, correlated_spec):
        for t in (0.29, 0.93, 1.61):
            psi = thermo.psi_factor(ledgers_at(correlated_spec, t))
            assert psi.max_residual < 1e-12


class TestBalances:
    def test_mean_heat_balance(self, correlated_spec, product_spec):
        for spec in (correlated_spec, product_spec):
            bal = thermo.mean_heat_balance(ledgers_at(spec, 0.87))
            assert bal.residual < 1e-12

    def test_entropies_from_basis_spectra_match_fresh_decompositions(self, oracle_ledgers):
        # the reference route: rebuild both global states, trace them down
        # and decompose every state again, with matrix-log relative
        # entropies against the Gibbs states.  The closed form reads the
        # basis spectra instead, so the two agree to rounding, not bitwise.
        led = oracle_ledgers
        basis = led.basis
        da, db = led.dim_a, led.dim_b

        def entropy(rho):
            p = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
            p = p[p > 1e-14]
            return -np.sum(p * np.log(p))

        def relative_entropy(rho, sigma):
            w, v = np.linalg.eigh(sigma)
            ln_sigma = (v * np.log(w)) @ v.conj().T
            return -entropy(rho) - np.trace(rho @ ln_sigma).real

        def state(n):
            v = basis.global_vectors[n]
            rho = (v * basis.populations) @ v.conj().T
            return (rho, linalg.partial_trace(rho, da, db, keep="A"),
                    linalg.partial_trace(rho, da, db, keep="B"))

        (rho0, ra0, rb0), (rho1, ra1, rb1) = state(0), state(1)
        rhs = (entropy(ra1) + entropy(rb1) - entropy(rho1)
               - (entropy(ra0) + entropy(rb0) - entropy(rho0))
               + relative_entropy(ra1, led.gibbs_a.rho)
               + relative_entropy(rb1, led.gibbs_b.rho))
        assert thermo.mean_heat_balance(led).rhs == pytest.approx(rhs, abs=1e-14)

    def test_cold_gibbs_state_keeps_a_finite_balance(self, product_spec):
        # a Gibbs population of 4e-18 is still full rank; no support
        # threshold may reject the athermality of rho_A(t) against it
        spec = dataclasses.replace(product_spec, beta_a=40.0)
        bal = thermo.mean_heat_balance(ledgers_at(spec, 0.5))
        assert np.isfinite(bal.rhs)
        assert bal.residual <= 1e-9

    def test_correlations_reverse_heat_flow(self, correlated_spec):
        bal = thermo.mean_heat_balance(ledgers_at(correlated_spec, 0.1))
        assert bal.heat_reversed
        assert bal.lhs < 0

    def test_uncorrelated_heat_flows_downhill(self, product_spec):
        for t in (0.25, 0.75, 1.5):
            bal = thermo.mean_heat_balance(ledgers_at(product_spec, t))
            assert bal.lhs >= -1e-14

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4), (5, 3)]),
           correlated=st.booleans(), t=st.floats(0.05, 3.0))
    def test_mean_heat_is_local_energy_change(self, seed, dims, correlated, t):
        # <Q_A> from the trajectory ensemble against tr[H_A (rho_A(t) - rho_A(0))]
        # from the states: equal because the outcomes a_n diagonalize rho_A(t_n)
        from qheatnet import linalg
        led = ledgers_at(randspec.random_spec(seed, *dims, correlated=correlated), t)
        basis, spec = led.basis, led.basis.spec

        def energy_a(vecs):
            rho = (vecs * basis.populations) @ vecs.conj().T
            reduced = linalg.partial_trace(rho, spec.dim_a, spec.dim_b, keep="A")
            return np.trace(spec.h_a @ reduced).real

        expect = energy_a(basis.global_vectors[1]) - energy_a(basis.global_vectors[0])
        assert thermo.mean_heat_balance(led).mean_q_a == pytest.approx(expect, abs=1e-12)

    def test_stochastic_information_matches_entropic(self, correlated_spec):
        info = thermo.mutual_information_check(ledgers_at(correlated_spec, 0.44))
        assert info.max_residual < 1e-12
        assert info.info_0 > 0.1  # genuinely correlated initial state

    def test_product_state_information_free(self, product_spec):
        info = thermo.mutual_information_check(ledgers_at(product_spec, 0.44))
        assert abs(info.mean_i0) < 1e-12
        assert abs(info.info_0) < 1e-12


class TestOneTimeRelations:
    """Relations that read the tables of one time refuse block ledgers."""

    ONE_TIME = {
        "integral_ft": lambda led: thermo.integral_ft(led, "i0", "forward"),
        "combined_integral_ft": thermo.combined_integral_ft,
        "mean_heat_balance": thermo.mean_heat_balance,
        "mutual_information_check": thermo.mutual_information_check,
        "joint_distribution": thermo.joint_distribution,
        "mean_quantity[gamma]": lambda led: thermo.mean_quantity(led, "gamma"),
        "mean_quantity[sigma_a]": lambda led: thermo.mean_quantity(led, "sigma_a"),
        "relation_checks": thermo.relation_checks,
    }

    @pytest.mark.parametrize("times", [(0.5,), (0.0, 0.5, 1.0, 1.5)], ids=len)
    @pytest.mark.parametrize("call", sorted(ONE_TIME))
    def test_block_ledgers_rejected(self, correlated_spec, times, call):
        block, = bayesnet.sweep_blocks(correlated_spec, times)
        name = call.partition("[")[0]
        with pytest.raises(ValueError, match=f"^{name} reads the ledgers of one time"):
            self.ONE_TIME[call](thermo.compute_ledgers(block))
        self.ONE_TIME[call](ledgers_at(correlated_spec, times[0]))


class TestRandomSpecs:
    @pytest.mark.parametrize("seed", range(6))
    def test_generator_yields_valid_specs(self, seed):
        from qheatnet import system
        spec = randspec.random_spec(seed, 2 + seed % 2, 2 + (seed // 2) % 2)
        assert system.validate(spec).passed

    def test_seed_determinism(self):
        a = randspec.random_spec(5, 3, 3)
        b = randspec.random_spec(5, 3, 3)
        assert np.array_equal(a.chi, b.chi) and np.array_equal(a.h_int, b.h_int)
        assert a.beta_a == b.beta_a

    def test_commutant_structure(self):
        spec = randspec.random_spec(2, 3, 2)
        from qheatnet import linalg
        assert linalg.commutator_norm(spec.h_int, spec.h_total) < 1e-12
        assert linalg.commutator_norm(spec.chi, spec.h_total) < 1e-12

    @pytest.mark.parametrize("seed, levels_a, beta_a, beta_b", [
        (0, [0.0, 1.0, 2.0], "0x1.846c1f80234afp-1", "0x1.7a86d67f4b11cp-2"),
        (1, [0.0, 1.0, 2.0], "0x1.ea7119d8c8a62p+0", "0x1.1713974484bc5p-1"),
        (2, [0.0, 1.0, 3.0], "0x1.9d681cea9256ep-1", "0x1.af26aab5674abp+0"),
        (3, [0.0, 1.0, 3.0], "0x1.67b849119c2f6p-1", "0x1.a983bfec35547p+0"),
    ])
    def test_small_draws_pinned(self, seed, levels_a, beta_a, beta_b):
        # up to four levels a side the draws predate the wider ladders
        spec = randspec.random_spec(seed, 3, 4)
        assert np.diag(spec.h_a).real.tolist() == levels_a
        assert np.diag(spec.h_b).real.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert (spec.beta_a.hex(), spec.beta_b.hex()) == (beta_a, beta_b)

    @pytest.mark.parametrize("dims", [(5, 5), (6, 6), (7, 7), (8, 8), (2, 8), (8, 3), (5, 2)])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_wide_ladders_validate(self, dims, correlated):
        from qheatnet import system
        for seed in range(3):
            spec = randspec.random_spec(seed, *dims, correlated=correlated)
            assert (spec.dim_a, spec.dim_b) == dims
            assert system.validate(spec).passed
            levels = np.diag(spec.h_a).real, np.diag(spec.h_b).real
            for lv in levels:
                assert list(lv[:2]) == [0.0, 1.0]
                assert len(np.unique(lv)) == len(lv)
            assert max(lv.max() for lv in levels) == max(dims) - 1

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_full_relation_stack(self, seed):
        spec = randspec.random_spec(seed, 2, 3)
        led = ledgers_at(spec, 0.8 + 0.3 * seed)
        assert led.detailed_residual < 1e-12
        assert led.all_energy_conserving
        for name in ALL_QUANTITIES:
            assert thermo.integral_ft(led, name, _measure(name)) == pytest.approx(
                1.0, abs=1e-12)
        assert thermo.psi_factor(led).max_residual < 1e-12
        assert thermo.mean_heat_balance(led).residual < 1e-12
