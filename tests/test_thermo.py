import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qheatnet import bayesnet, linalg, qubit, randspec, system, thermo
from qheatnet.distributions import Bins, DiscreteDistribution
from conftest import dense_masks, dense_pair_indices, dense_pairs, dense_weights, ledgers_at

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
        live = dense_masks(led)[0].any(axis=0)
        assert np.array_equal(live, led.n_fwd > 0)
        q_a, q_b = led.q_a_tab[live], led.q_b_tab[live]
        assert live.any() and (np.abs(q_a + q_b) <= led.binning).all()
        assert np.allclose(q_a, -q_b, rtol=0.0, atol=1e-12)

    def test_product_state_has_no_initial_information(self, product_spec):
        # i0 = ln(label population / product of the t = 0 marginals) on
        # every live forward (label, cell) entry
        led = ledgers_at(product_spec, 0.67)
        label, i0, _ = np.nonzero(dense_masks(led)[0])
        assert label.size > 0
        i0_term = np.log(led.pops[led.keep][label]) - np.log(led.pp0[i0])
        assert np.abs(i0_term).max() < 1e-12

    def test_tiny_time_gamma_vanishes_on_diagonal(self, correlated_spec):
        led = ledgers_at(correlated_spec, 1e-10)
        ki, kj, samples, _, _ = thermo._pairs(led)
        diagonal = ki == kj
        assert diagonal.any()
        assert np.abs(samples[diagonal, 2]).max() < 1e-8
        assert set(np.abs(samples[:, 0])) <= {0.0, 1.0}

    def test_weights_positive_and_bounded(self, correlated_spec):
        *_, w_f, w_r = thermo._pairs(ledgers_at(correlated_spec, 0.41))
        assert np.all(w_f > 0) and np.all(w_f <= 1)
        assert np.all(w_r > 0) and np.all(w_r <= 1)

    def test_detailed_ft_pointwise(self, correlated_spec, product_spec):
        for spec in (correlated_spec, product_spec):
            for t in (0.23, 1.0, 1.77):
                assert ledgers_at(spec, t).detailed_residual < 1e-12


def _shell_ladder_spec(levels, seed, coherent=False):
    """Correlated instance on two integer ladders 0..levels-1, with the
    interaction restricted to the energy shells, and the correlation
    term too unless ``coherent``: then it is a random Hermitian matrix
    with coherences across the shells."""
    rng = np.random.default_rng(seed)
    ladder = np.arange(levels, dtype=float)
    h = np.diag(ladder).astype(complex)
    dim = levels * levels
    total = np.add.outer(ladder, ladder).ravel()
    shells = np.abs(np.subtract.outer(total, total)) < 0.5

    def shell_hermitian(restrict=True):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        x = np.where(shells | (not restrict), x + x.conj().T, 0.0)
        return x / np.abs(x).max()

    h_int, chi = shell_hermitian(), shell_hermitian(not coherent)
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
    def assert_matches_dense(fmask, rmask, live=None):
        """The pairs of the masks' live entries against the product mask,
        in order, each pair's positions mapped back through the lists;
        ``live``, the entries the ledgers gather chunk by chunk, must be
        those of the masks."""
        entries = np.flatnonzero(fmask), np.flatnonzero(rmask)
        if live is not None:
            for g, w in zip(live, entries, strict=True):
                assert g.dtype == np.intp
                assert np.array_equal(g, w)
        cells = fmask[0].size
        got = thermo._pair_positions(*entries, cells)
        assert len(got) == 2
        assert [g.dtype for g in got] == [np.int32] * 2
        (ki, f_cell), (kj, r_cell) = (np.divmod(e[pos], cells) for e, pos in zip(entries, got))
        assert np.array_equal(f_cell, r_cell)
        i0, i1 = np.divmod(f_cell, fmask.shape[-1])
        for g, w in zip((ki, kj, i0, i1), dense_pairs(fmask, rmask), strict=True):
            assert np.array_equal(g, w)

    @classmethod
    def assert_ledgers_match_dense(cls, led):
        cls.assert_matches_dense(*dense_masks(led), (led.fwd_live, led.rev_live))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_random_specs(self, dims, correlated):
        for seed in range(3):
            led = ledgers_at(randspec.random_spec(seed, *dims, correlated=correlated),
                             0.37 + seed)
            assert led.n_pairs > 0
            self.assert_ledgers_match_dense(led)

    def test_example_with_zero_population(self, correlated_spec):
        led = ledgers_at(correlated_spec, 0.71)
        assert led.n_anchor < correlated_spec.dim
        self.assert_ledgers_match_dense(led)

    @pytest.mark.parametrize("levels", [6, 8])
    def test_shell_ladders(self, levels):
        led = ledgers_at(_shell_ladder_spec(levels, seed=levels), 1.0)
        assert led.n_pairs > 0
        self.assert_ledgers_match_dense(led)

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
        for f, r in ((fmask, rmask), (fmask, np.zeros_like(rmask)),
                     (np.zeros_like(fmask), rmask)):
            got = thermo._pair_positions(np.flatnonzero(f), np.flatnonzero(r), 4)
            assert [g.dtype for g in got] == [np.int32] * 2
            assert [g.size for g in got] == [0] * 2
            self.assert_matches_dense(f, r)

    @pytest.mark.parametrize("case", ["8x8", "shell-8x8", "example"])
    def test_ledgers_keep_no_label_cell_table(self, case, correlated_spec):
        # every array the ledgers keep has fewer than K m^2 entries, the
        # size of one (K, m, m) weight table or mask of one time
        spec = {"8x8": lambda: randspec.random_spec(0, 8, 8),
                "shell-8x8": lambda: _shell_ladder_spec(8, seed=8),
                "example": lambda: correlated_spec}[case]()
        led = ledgers_at(spec, 1.0)
        thermo.joint_distribution(led)
        thermo.heat_distribution(led)
        limit = led.n_anchor * led.pp0.size ** 2
        arrays = {name: value for name, value in vars(led).items()
                  if isinstance(value, np.ndarray)}
        assert {"fwd_cells", "rev_cells", "n_fwd", "n_rev", "pair_mass"} <= arrays.keys()
        for name, value in arrays.items():
            assert value.size < limit, name
        assert led.n_pairs == int(np.sum(led.n_fwd * led.n_rev)) > 0

    def test_coherent_joint_memory_per_pair(self):
        # chi with coherences across the shells at D = 25: nearly every
        # (label, cell) entry is live, so the joint FT holds about 4e5
        # pairs, each its own bin.  Measured at 97 B per pair (numpy 2.4,
        # Linux x86-64; 160 B before its pair arrays were freed as read,
        # 113 B while the weighted sums of a bin's location were formed
        # apart from its column); the bound leaves 10 % over the measurement
        spec = _shell_ladder_spec(5, seed=0, coherent=True)
        assert system.validate(spec).passed
        led = ledgers_at(spec, 0.9)
        assert not led.all_energy_conserving
        assert led.n_pairs > 0.5 * led.n_anchor * led.pp0.size ** 2
        thermo.joint_distribution(led)
        tracemalloc.start()
        try:
            thermo.joint_distribution(led)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 97 * led.n_pairs

    def test_shell_ladder_joint_memory(self):
        # the D = 64 shell-block ladder of the ``wide`` benchmark family:
        # 13 448 pairs in 13 443 bins.  Measured at 1.25 MiB (numpy 2.4,
        # Linux x86-64; 1.45 MiB with the three-key lexsort and the
        # weighted sums formed apart from the location columns); the bound
        # leaves 10 % over the measurement
        led = ledgers_at(_shell_ladder_spec(8, seed=8), 1.0)
        assert led.n_pairs == 13448
        thermo.joint_distribution(led)
        tracemalloc.start()
        try:
            thermo.joint_distribution(led)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 1.25 * 2 ** 20

    def test_coherent_ledger_memory(self):
        # nearly every entry of the coherent D = 25 ladder is live, so the
        # kept lists near K m^2 entries of 8 B each: compute_ledgers was
        # measured at 0.643 MiB (numpy 2.4, Linux x86-64; 0.40 MiB before
        # the ledgers kept the lists, 0.767 MiB while both sides' chunks
        # were formed together); the bound leaves 10 % over it
        spec = _shell_ladder_spec(5, seed=0, coherent=True)
        led = ledgers_at(spec, 0.9)
        assert led.fwd_live.size > 0.99 * led.n_anchor * led.pp0.size ** 2
        thermo.compute_ledgers(led.basis)
        tracemalloc.start()
        try:
            thermo.compute_ledgers(led.basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 0.643 * 2 ** 20

    def test_weight_chunks_formed_once(self, correlated_spec, monkeypatch):
        # the ledgers' one fold per side decides liveness; the joint FT,
        # psi and the gamma mean read its lists and per-cell tables
        calls = []
        fold = thermo.LedgerSet._fold

        def counted(led, side):
            calls.append(side)
            return fold(led, side)
        monkeypatch.setattr(thermo.LedgerSet, "_fold", counted)
        for spec in (randspec.random_spec(0, 8, 8), _shell_ladder_spec(6, 3),
                     correlated_spec):
            led = ledgers_at(spec, 1.0)
            assert calls == ["forward", "reverse"]
            thermo.relation_checks(led)
            thermo.mean_quantity(led, "gamma")
            thermo.heat_distribution(led, "reverse")
            assert calls == ["forward", "reverse"]
            calls.clear()

    def test_ledger_memory_below_dense_mask(self):
        # the dense product mask alone holds K^2 m^2 bytes
        spec = _shell_ladder_spec(8, seed=8)
        basis = bayesnet.build_bases(spec, bayesnet.TimeGrid((1.0,)))
        k = int(np.count_nonzero(basis.populations > spec.tol.probability_floor))
        m = spec.dim_a * spec.dim_b
        tracemalloc.start()
        try:
            thermo._pairs(thermo.compute_ledgers(basis))
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

    @pytest.mark.parametrize("case", ["2x2", "3x2", "3x3-prod", "4x4", "cold"])
    def test_contraction_matches_full_einsum(self, case, product_spec):
        # reference: each average as one four-operand sum over (k, i, j),
        # O(D m^2); "cold" is the example's product branch at beta_a = 40,
        # t = 0.5, where j1 sits on its absolute-continuity boundary
        if case == "cold":
            led = ledgers_at(dataclasses.replace(product_spec, beta_a=40.0), 0.5)
        else:
            da, db = int(case[0]), int(case[2])
            led = ledgers_at(randspec.random_spec(17, da, db, correlated="prod" not in case),
                             0.61)
        a0, a1, pops, floor = led.a0_table, led.a1_table, led.pops, led.floor

        def ratio(num, den):
            return np.where(den > floor, num / np.where(den > floor, den, 1.0), 0.0)
        full = {
            "i0": np.einsum("ki,kj,i->", a0, a1, led.pp0),
            "c0": np.einsum("ki,kj,i->", a0, a1, led.joint0),
            "j0": np.einsum("k,ki,kj,i->", pops, a0, a1, ratio(led.pp0, led.joint0)),
            "sigma_a": np.einsum("k,ki,kj,j->", pops, a0, a1,
                                 ratio(led.pth_a1_cell, led.marg.a_1[led.flat_a])),
            "sigma_b": np.einsum("k,ki,kj,j->", pops, a0, a1,
                                 ratio(led.pth_b1_cell, led.marg.b_1[led.flat_b])),
            "i1": np.einsum("kj,ki,j->", a1, a0, led.pp1),
            "c1": np.einsum("kj,ki,j->", a1, a0, led.joint1),
            "j1": np.einsum("k,kj,ki,j->", pops, a1, a0, ratio(led.pp1, led.joint1)),
        }
        for name, want in full.items():
            assert abs(thermo.integral_ft(led, name, _measure(name)) - want) <= 1e-14, name

    def test_jensen_bounds(self, correlated_spec, product_spec):
        # the cold product cases (beta_a = 40 and 800, t = 0.5) have cells
        # whose thermal weight is below the floor, at 800 exactly 0.0:
        # sigma's mean must keep them, as D(rho(t) || gamma) does
        for spec, t in ((correlated_spec, 0.83),
                        (dataclasses.replace(product_spec, beta_a=40.0), 0.5),
                        (dataclasses.replace(product_spec, beta_a=800.0), 0.5)):
            led = ledgers_at(spec, t)
            for name in ALL_QUANTITIES:
                mean = thermo.mean_quantity(led, name)
                assert np.isfinite(mean) and mean >= -1e-10, name

    @pytest.mark.parametrize("case", ["cold-40", "cold-745", "cold-800", "2x2", "3x2-prod",
                                      "3x3", "4x4-prod"])
    def test_sigma_mean_is_the_balance_athermality(self, case, product_spec):
        # p^th of the example's excited A level is exp(-745) = 5e-324, a
        # denormal, at beta_a = 745 and 0.0 at 800: sigma's mean reads no
        # thermal weight, so it stays exact and finite
        if case.startswith("cold"):
            spec = dataclasses.replace(product_spec, beta_a=float(case[5:]))
            led = ledgers_at(spec, 0.5)
        else:
            da, db = int(case[0]), int(case[2])
            led = ledgers_at(randspec.random_spec(5, da, db, correlated="prod" not in case),
                             0.71)
        means = {}
        for name, p, e, gibbs in (("sigma_a", led.marg.a_1, led.e_a1, led.gibbs_a),
                                  ("sigma_b", led.marg.b_1, led.e_b1, led.gibbs_b)):
            means[name] = thermo.mean_quantity(led, name)
            assert np.isfinite(means[name])
            assert means[name] == thermo._athermality(p, e, gibbs, linalg.spectral_entropy(p))
            # D(p || p^th) term by term, ln p^th = -beta (e - E_0) - ln Z
            # taken without an exponential
            ln_pth = -gibbs.beta * (e - gibbs.energies[0]) - np.log(gibbs.z_shifted)
            live = p > 0
            direct = np.sum(p[live] * (np.log(p[live]) - ln_pth[live]))
            assert means[name] == pytest.approx(direct, rel=1e-12, abs=1e-14), name
        # the heat balance's right-hand side is the information change plus
        # these two means, its terms read from the reduced spectra
        info = thermo.mutual_information_check(led)
        rhs = thermo.mean_heat_balance(led).rhs
        assert rhs == pytest.approx(info.info_1 - info.info_0 + sum(means.values()),
                                    rel=1e-12, abs=1e-12)

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


def _assert_groups_reversed(bins: Bins, mirror: Bins) -> None:
    """``mirror``, a fresh binning of the negated samples of ``bins`` with
    the same groups, is the partition of ``bins`` with each group's bins
    in reverse order, each keeping its first sample; that order is
    ``bins.descending()``."""
    spans = zip(bins.starts[:-1], bins.starts[1:])
    order = np.concatenate([np.arange(lo, hi)[::-1] for lo, hi in spans]).astype(np.intp)
    assert bins.descending().tobytes() == order.tobytes()
    assert mirror.values.tobytes() == (-bins.values).tobytes()
    assert mirror.starts.tobytes() == bins.starts.tobytes()
    assert mirror.first.tobytes() == bins.first[order].tobytes()
    # reversing a group's bins is its own inverse: bin j goes to order[j]
    assert mirror.bin_id.tobytes() == order[bins.bin_id].tobytes()
    assert mirror.binning == bins.binning


class TestSharedHeatBins:
    """The one binning of the heat table against binning each direction
    afresh, as ``heat_distribution`` did before it shared the bins."""

    def test_heat_distributions_match_fresh_binning(self, oracle_ledgers):
        led = oracle_ledgers
        fwd, rev = dense_weights(led)
        for direction, values, weights in (("forward", led.q_a_tab, fwd),
                                           ("reverse", -led.q_a_tab, rev)):
            expect = DiscreteDistribution.from_samples(
                values.ravel(), weights.sum(axis=0).ravel(), binning=led.binning)
            got = thermo.heat_distribution(led, direction)
            assert got.points.tobytes() == expect.points.tobytes(), direction
            assert got.probs.tobytes() == expect.probs.tobytes(), direction

    def test_mirrored_bins_equal_binning_the_mirror(self, oracle_ledgers):
        bins = oracle_ledgers.heat_bins
        _assert_groups_reversed(bins, DiscreteDistribution._binned(-bins.values, bins.binning))

    @pytest.mark.parametrize("seed, correlated, stop", [(0, True, 2.0), (0, False, 2.0),
                                                       (1, False, 3.0), (2, True, 3.0)])
    def test_reverse_block_matches_fresh_binning(self, seed, correlated, stop):
        # each time of a 21-time 3x3 block against the mirrored heat values
        # binned afresh, the sign of zero included: some reverse bins have
        # the point Q = 0.0 exactly, and it is +0.0 as a fresh binning gives
        spec = randspec.random_spec(seed, 3, 3, correlated=correlated)
        block, = bayesnet.sweep_blocks(spec, np.linspace(0.0, stop, 21))
        led = thermo.compute_ledgers(block)
        got, starts = thermo.heat_distribution(led, "reverse"), led.heat_bins.starts
        for k in range(len(block.times)):
            want = DiscreteDistribution.from_samples(-led.q_a_tab[k].ravel(),
                                                     led.rev_cells[k].ravel(), led.binning)
            assert got.points[starts[k]:starts[k + 1]].tobytes() == want.points.tobytes()
            assert got.probs[starts[k]:starts[k + 1]].tobytes() == want.probs.tobytes()
        zero = got.points[:, 0] == 0.0
        assert np.any(zero & (got.probs > led.floor))
        assert not np.signbit(got.points[zero, 0]).any()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 3), grouped=st.booleans(),
           binning=st.sampled_from([0.25, 1e-9]))
    def test_mirror_of_leading_coordinates_equals_fresh_binning(self, data, k, grouped,
                                                                binning):
        # few integer keys, so bins share leading coordinates, and offsets
        # on and next to the rounding boundary at half a binning
        size = data.draw(st.integers(1, 40))
        keys = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                                  min_size=size, max_size=size))
        offsets = data.draw(st.lists(
            st.lists(st.sampled_from([0.0, 0.2, -0.3, 0.5, -0.5, 0.4999999, -0.5000001]),
                     min_size=k, max_size=k), min_size=size, max_size=size))
        values = (np.array(keys) + np.array(offsets)) * binning
        group = (np.array(data.draw(st.lists(st.integers(0, 3), min_size=size,
                                             max_size=size)))
                 if grouped else None)
        _assert_groups_reversed(DiscreteDistribution._binned(values, binning, group),
                                DiscreteDistribution._binned(-values, binning, group))

    def test_binned_once_per_ledger_set(self, correlated_spec, monkeypatch):
        calls = []
        binned = DiscreteDistribution._binned

        def counted(values, binning, group):
            calls.append(np.shape(values))
            return binned(values, binning, group)
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

    #: a sweep is strictly increasing; t = 0 is an ordinary time
    TIMES = (0.0, 0.2, 0.37, 0.9, 1.3, 1.6, 2.9)
    #: ledger tables with the block's time axis, and those shared by every
    #: time of a block
    AT_TIME = ("a1_table", "b0_table", "b1_table", "joint1", "pp1", "e_a1", "e_b1",
               "q_a_tab", "q_b_tab", "fwd_cells", "rev_cells",
               "n_fwd", "n_rev", "pair_mass", "pa1_cell", "pth_a1_cell", "pb1_cell",
               "pth_b1_cell")
    SHARED = ("floor", "binning", "beta_a", "beta_b", "delta_beta", "dim_a", "dim_b",
              "pops", "keep", "n_anchor", "a0_table", "joint0", "pp0", "e_a0", "e_b0",
              "gibbs_a", "gibbs_b", "flat_a", "flat_b", "cell_factor")

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
            assert led.n_pairs == sum(self.one_time(spec, t).n_pairs for t in block.times)
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
            time = np.arange(len(block.times)).repeat(m2)
            mirror = DiscreteDistribution._binned(-bins.values, bins.binning, time)
            for k, t in enumerate(block.times):
                one = self.one_time(spec, t).heat_bins
                cells = slice(k * m2, (k + 1) * m2)
                assert np.array_equal(bins.bin_id[cells] - bins.starts[k], one.bin_id)
                assert np.array_equal(bins.first[bins.starts[k]:bins.starts[k + 1]] - k * m2,
                                      one.first)
                # the negated block binned afresh, time as the group, holds
                # each time's one-time bins in reverse order
                assert np.array_equal(mirror.bin_id[cells] - mirror.starts[k],
                                      len(one.first) - 1 - one.bin_id)


def _flat_bytes(record) -> bytes:
    """The bytes of every field of a relation's result dataclass."""
    parts = []
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, DiscreteDistribution):
            parts += [value.points.tobytes(), value.probs.tobytes()]
        else:
            parts.append(np.asarray(value).tobytes())
    return b"".join(parts)


class TestLabelChunks:
    """Ledgers whose weights are formed in three or more chunks of labels,
    the last one short, against the default chunks and against a dense
    reference: the whole (K, m, m) weight tables, summed over the labels
    with ``sum(axis=-3)``.  Equal bytes pin numpy's left fold over an
    outer axis, which the running sums rely on."""

    TABLES = ("fwd_cells", "rev_cells", "n_fwd", "n_rev", "pair_mass",
              "detailed_residual", "all_energy_conserving")

    @staticmethod
    def ledgers(case):
        spec = (_shell_ladder_spec(6, 3) if case == "shell-6x6"
                else randspec.random_spec(5, 3, 3))
        if case == "3x3-block":
            block, = bayesnet.sweep_blocks(spec, (0.2, 0.83, 1.6))
            assert len(block.times) == 3
            return thermo.compute_ledgers(block)
        return ledgers_at(spec, 0.83)

    @classmethod
    def outputs(cls, led):
        out = {name: np.asarray(getattr(led, name)).tobytes() for name in cls.TABLES}
        out["psi_factor"] = _flat_bytes(thermo.psi_factor(led))
        out["live_entries"] = led.fwd_live.tobytes() + led.rev_live.tobytes()
        if not isinstance(led.basis.times, tuple):      # one time
            out["joint_distribution"] = _flat_bytes(thermo.joint_distribution(led))
            *_, w_f, w_r = thermo._pairs(led)
            out["pair_weights"] = w_f.tobytes() + w_r.tobytes()
            for name in ALL_QUANTITIES:
                out[f"mean_{name}"] = np.float64(thermo.mean_quantity(led, name)).tobytes()
        return out

    @staticmethod
    def dense(led):
        """The tables, live entries, pair weights and gamma mean from the
        whole weight tables, each sum over the labels one ``sum(axis=-3)``."""
        fwd, rev = dense_weights(led)
        fmask, rmask = fwd > led.floor, rev > led.floor
        n_fwd = fmask.sum(axis=-3)
        rev_ret = np.where(rmask, rev, 0.0).sum(axis=-3)
        leak = np.where(fmask.any(axis=-3), np.abs(led.q_a_tab + led.q_b_tab), 0.0)
        ln_c = np.log(np.where((n_fwd > 0) & (rev_ret > 0), led.cell_factor, 1.0))
        out = {"fwd_cells": fwd.sum(axis=-3), "rev_cells": rev.sum(axis=-3),
               "n_fwd": n_fwd, "n_rev": rmask.sum(axis=-3),
               "pair_mass": n_fwd * rev_ret / led.n_anchor,
               "detailed_residual": np.abs(ln_c).max(axis=(-2, -1))[()],
               "all_energy_conserving": (leak.max(axis=(-2, -1)) <= led.binning)[()]}
        out = {name: np.asarray(value).tobytes() for name, value in out.items()}
        # live entries label first: flat indices into (K,) + lead + (m, m)
        entries = tuple(np.flatnonzero(np.moveaxis(mask, -3, 0)) for mask in (fmask, rmask))
        out["live_entries"] = b"".join(e.tobytes() for e in entries)
        if not isinstance(led.basis.times, tuple):      # one time
            ki, kj, i0, i1 = dense_pairs(fmask, rmask)
            n = led.n_anchor
            out["pair_weights"] = ((fwd[ki, i0, i1] / n).tobytes()
                                   + (rev[kj, i0, i1] / n).tobytes())
            pops = led.pops[led.keep, None, None]
            f = np.where(fmask, fwd, 0.0)
            g_f = np.log(np.where(fmask, fwd / pops, 1.0))
            g_r = np.log(np.where(rmask, rev / pops, 1.0))
            gamma = float(np.sum(rmask.sum(axis=0) * (f * g_f).sum(axis=0)
                                 - f.sum(axis=0) * g_r.sum(axis=0))) / n
            out["mean_gamma"] = np.float64(gamma).tobytes()
        return out

    @pytest.mark.parametrize("case", ["3x3", "3x3-block", "shell-6x6"])
    def test_short_last_chunk_matches_default_chunks_and_dense_tables(self, case,
                                                                      monkeypatch):
        led = self.ledgers(case)
        assert led.n_pairs > 0
        want, dense = self.outputs(led), self.dense(led)
        # the largest chunk that leaves three or more chunks, the last short
        k = led.n_anchor
        size = max(c for c in range(1, k) if -(-k // c) >= 3 and k % c)
        monkeypatch.setattr(bayesnet, "BLOCK_ELEMENTS", size * led.n_times * led.pp0.size ** 2)
        # each fold reads its chunks' labels as slices of ``keep``
        sizes, fold = [], thermo.LedgerSet._fold

        class Keep(np.ndarray):
            def __getitem__(self, index):
                labels = self.view(np.ndarray)[index]
                if isinstance(index, slice):
                    sizes.append(labels.size)
                return labels

        def recorded(led, side):
            led.keep = led.keep.view(Keep)
            try:
                return fold(led, side)
            finally:
                led.keep = led.keep.view(np.ndarray)
        monkeypatch.setattr(thermo.LedgerSet, "_fold", recorded)
        chunked = thermo.compute_ledgers(led.basis)
        half = len(sizes) // 2
        assert sizes[:half] == sizes[half:]             # forward, then reverse
        sizes = sizes[:half]
        assert len(sizes) >= 3 and sizes[:-1] == [size] * (len(sizes) - 1)
        assert 0 < sizes[-1] < size
        got = self.outputs(chunked)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name] == want[name], name
        for name in dense:
            assert got[name] == dense[name], name


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

    @pytest.mark.parametrize("case", [
        # two bins of 3x3 seed 31 are split by a gamma rounding boundary
        ("3x3-seed31", lambda: ledgers_at(randspec.random_spec(31, 3, 3), 0.37)),
        ("2x3-seed4", lambda: ledgers_at(randspec.random_spec(4, 2, 3), 1.9)),
        ("4x4-prod", lambda: ledgers_at(randspec.random_spec(5, 4, 4, correlated=False), 0.37)),
        ("shell-6x6", lambda: ledgers_at(_shell_ladder_spec(6, 3), 0.83)),
    ], ids=lambda case: case[0])
    def test_joint_equals_two_independent_binnings(self, case):
        # the reference bins the forward samples and their mirror image
        # (-Q, -K, gamma) separately and pairs the bins through the samples
        led = case[1]()
        _, _, samples, w_f, w_r = thermo._pairs(led)
        fwd_bins = DiscreteDistribution._binned(samples, led.binning)
        rev_bins = DiscreteDistribution._binned(samples * [-1.0, -1.0, 1.0], led.binning)
        fwd = DiscreteDistribution._collect(fwd_bins, w_f)
        rev = DiscreteDistribution._collect(rev_bins, w_r)
        partner = np.empty(fwd.n_points, dtype=np.intp)
        partner[fwd_bins.bin_id] = rev_bins.bin_id
        pf, pr = fwd.probs, rev.probs[partner]
        live = pf > led.floor
        checked = live & (pr > led.floor)
        q, kk, gg = fwd.points[checked].T
        resid = np.abs(pf[checked] - np.exp(q * led.delta_beta - kk + gg) * pr[checked])

        joint = thermo.joint_distribution(led)
        assert joint.n_checked > 0
        assert joint.forward.points.tobytes() == fwd.points.tobytes()
        assert joint.forward.probs.tobytes() == fwd.probs.tobytes()
        assert joint.forward.binning == fwd.binning
        assert joint.p_r.tobytes() == pr.tobytes()
        assert joint.max_residual == float(resid.max(initial=0.0))
        assert joint.n_checked == int(checked.sum())
        assert joint.n_unverified == int((live & ~checked).sum())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)]),
           correlated=st.booleans(), t=st.floats(0.05, 3.0))
    def test_joint_bin_pairing_properties(self, seed, dims, correlated, t):
        led = ledgers_at(randspec.random_spec(seed, *dims, correlated=correlated), t)
        joint = thermo.joint_distribution(led)
        _, _, samples, _, w_r = thermo._pairs(led)
        rev = DiscreteDistribution.from_samples(samples * [-1.0, -1.0, 1.0], w_r, led.binning)
        fwd, b, floor = joint.forward, led.binning, led.floor
        assert fwd.n_points == rev.n_points

        # each sample's forward bin key and mirrored reverse bin key pair up
        # one to one: a bijection between the bins
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
        assert np.array_equal(psi.p_r, [p_r.prob_at(-q) for q in psi.forward.scalar_points()])

    def test_joint_bins_once_and_never_mirrors(self, monkeypatch):
        # both weights are collected on the one binning of the forward
        # samples of the pairs, never on their mirror
        led = ledgers_at(randspec.random_spec(31, 3, 3), 0.37)
        calls = []
        binned = DiscreteDistribution._binned

        def counted(values, binning, group=None):
            calls.append(np.array(values))
            return binned(values, binning, group)
        monkeypatch.setattr(DiscreteDistribution, "_binned", staticmethod(counted))
        joint = thermo.joint_distribution(led)
        assert joint.n_checked > 0
        assert len(calls) == 1
        assert calls[0].tobytes() == thermo._pairs(led)[2].tobytes()

    @pytest.mark.parametrize("beta_a", [745.0, 800.0])
    def test_psi_on_cold_subsystem(self, product_spec, beta_a):
        # at this beta_A the bin Q_A = +1 keeps forward mass but its mirror
        # none above the floor, and exp(beta_A Q_A) overflows: the bin is
        # skipped, not checked as 0 * inf
        led = ledgers_at(dataclasses.replace(product_spec, beta_a=beta_a), 0.5)
        psi = thermo.psi_factor(led)
        live = psi.forward.probs > led.floor
        checked = live & (psi.p_r > led.floor)
        assert np.any(live & ~checked)
        assert psi.n_skipped == np.count_nonzero(~checked)
        assert len(psi.psi) == len(psi.q_values) == np.count_nonzero(live)
        assert len(psi.residuals) == np.count_nonzero(checked)
        assert psi.max_residual < thermo.FT_TOL
        checks = thermo.relation_checks(led)
        assert all(np.isfinite(c.value) for c in checks)
        assert [c.name for c in checks if not c.passed] == ["integral_ft[j1]"]

        # psi at Q = +1 in log space: ln sum over the bin's cells of the
        # exchange weight times exp(beta_A Q_A + beta_B Q_B), less ln P_f.
        # About 1.6e290 at beta_A = 745, finite although the bath alone
        # overflows; past the float range, so inf, at 800
        bins = led.heat_bins
        j = np.flatnonzero(np.isclose(psi.forward.scalar_points(), 1.0))[0]
        exchange = thermo._exchange_cells(led).ravel()
        exponent = (led.beta_a * led.q_a_tab + led.beta_b * led.q_b_tab).ravel()
        cells = (bins.bin_id == j) & (exchange > 0)
        ln_psi = (np.logaddexp.reduce(np.log(exchange[cells]) + exponent[cells])
                  - np.log(psi.forward.probs[j]))
        got = psi.psi[np.isclose(psi.q_values, 1.0)][0]
        if ln_psi < np.log(np.finfo(float).max):
            assert np.isfinite(got) and np.log(got) == pytest.approx(ln_psi, rel=1e-12)
        else:
            assert got == np.inf
        if beta_a == 745.0:
            assert got == pytest.approx(1.6057e290, rel=1e-4)

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


def _cell_form_cases():
    """Random instances 2x2 to 4x4 on both branches, the example, whose
    zero population leaves fewer anchors than labels, and the cold
    product case.  At 8x8 seed 131 the computed t = 0 marginals miss
    their thermal weights by about 4e-6 relative, so the cell factor is
    not 1 there."""
    for dims in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)):
        for correlated in (True, False):
            yield (f"{dims[0]}x{dims[1]}-{'corr' if correlated else 'prod'}",
                   randspec.random_spec(11, *dims, correlated=correlated), 0.61)
    yield ("8x8-seed131", randspec.random_spec(131, 8, 8), 1.0)
    yield ("example", qubit.build_example_spec(qubit.ExampleParams()), 0.71)
    yield ("cold", dataclasses.replace(
        qubit.build_example_spec(qubit.ExampleParams(correlated=False)), beta_a=40.0), 0.5)


class TestCellForms:
    """The exchange sums read off (label, cell) tables against explicit
    sums over the augmented pairs."""

    @pytest.mark.parametrize("case", list(_cell_form_cases()), ids=lambda c: c[0])
    def test_cell_tables_match_pair_sums(self, case):
        name, spec, t = case
        led = ledgers_at(spec, t)
        if name == "example":
            assert led.n_anchor < spec.dim
        ki, kj, i0, i1 = dense_pair_indices(led)
        assert led.n_pairs == ki.size > 0
        kp, n, m = led.keep, led.n_anchor, led.pp0.size
        s, r = kp[ki], kp[kj]
        fwd, rev = dense_weights(led)
        w_f, w_r = fwd[ki, i0, i1] / n, rev[kj, i0, i1] / n
        q_a, q_b = led.q_a_tab[i0, i1], led.q_b_tab[i0, i1]
        a, b = led.flat_a[i1], led.flat_b[i1]
        gamma = (np.log(led.a0_table[s, i0]) + np.log(led.a1_table[s, i1])
                 - np.log(led.b0_table[r, i0]) - np.log(led.b1_table[r, i1]))
        rest = (np.log(led.pops[s]) - np.log(led.pp0[i0])
                - np.log(led.pops[r]) + np.log(led.pp1[i1])
                - np.log(led.marg.a_1[a]) + np.log(led.pth_a1_cell[i1])
                - np.log(led.marg.b_1[b]) + np.log(led.pth_b1_cell[i1]) + gamma)
        x = led.beta_a * q_a + led.beta_b * q_b + rest
        # pairs dropped by the floor enter through their reverse weight
        cell = i0 * m + i1
        dropped = rev.sum(axis=0).ravel() - np.bincount(cell, w_r, minlength=m * m)

        comb = thermo.combined_integral_ft(led)
        assert abs(comb.value - (np.sum(w_f * np.exp(-x)) + dropped.sum())) <= 1e-13
        x_db = led.delta_beta * q_a + rest
        assert abs(comb.value_delta_beta - (np.sum(w_f * np.exp(-x_db)) + dropped.sum())) <= 1e-13
        pointwise = np.abs(np.log(w_f) - np.log(w_r) - x).max()
        assert abs(led.detailed_residual - pointwise) <= 1e-13
        assert abs(thermo.mean_quantity(led, "gamma") - np.sum(w_f * gamma)) <= 1e-13

        # psi numerator per heat bin: sum of w_f exp(K - gamma) over pairs
        bath = np.exp(led.beta_a * led.q_a_tab + led.beta_b * led.q_b_tab).ravel()
        bin_id, n_bins = led.heat_bins.bin_id, len(led.heat_bins.first)
        num = (np.bincount(bin_id[cell], w_f * np.exp(led.beta_a * q_a + led.beta_b * q_b - x),
                           minlength=n_bins)
               + np.bincount(bin_id, bath * dropped, minlength=n_bins))
        psi = thermo.psi_factor(led)
        live = thermo.heat_distribution(led, "forward").probs > led.floor
        assert np.abs(psi.psi * psi.p_f - num[live]).max() <= 1e-13

    def test_thermal_weight_underflow_keeps_combined_ft(self, product_spec):
        # at beta_a = 800 the excited thermal weight exp(-800) is 0.0, as is
        # that level's population: c of its dead cells is 0 / 0 unguarded
        led = ledgers_at(dataclasses.replace(product_spec, beta_a=800.0), 0.5)
        assert np.isfinite(led.cell_factor).all()
        assert led.detailed_residual < 1e-12
        assert thermo.combined_integral_ft(led).value == pytest.approx(1.0, abs=1e-12)


class TestTermTable:
    """Each log-ratio ledger term is one entry of ``thermo._TERMS``."""

    @pytest.mark.parametrize("name", ["j0", "j1", "sigma_a"])
    def test_one_entry_moves_every_reader(self, name, monkeypatch):
        # swapping an entry's numerator and denominator turns X into -X:
        # the integral FT, the mean (i, j and c only: sigma's mean is the
        # heat balance's D(rho(t) || gamma)) and the joint FT's K all follow
        led = ledgers_at(randspec.random_spec(3, 3, 3), 0.7)
        before = (thermo.integral_ft(led, name, _measure(name)),
                  thermo.mean_quantity(led, name), thermo._pairs(led)[2][:, 1])
        time, num, den = thermo._TERMS[name]
        assert num is not None
        monkeypatch.setitem(thermo._TERMS, name, (time, den, num))
        after = (thermo.integral_ft(led, name, _measure(name)),
                 thermo.mean_quantity(led, name), thermo._pairs(led)[2][:, 1])
        assert abs(before[0] - 1.0) < 1e-12 and abs(after[0] - 1.0) > 1e-6
        if name.startswith("sigma"):
            assert after[1] == before[1]
        else:
            assert abs(before[1]) > 1e-6
            assert after[1] == pytest.approx(-before[1], abs=1e-12)
        assert np.abs(after[2] - before[2]).max() > 1e-6

    @staticmethod
    def per_pair_route(led, ki, kj, i0, i1):
        """The samples and weights with every term evaluated at each pair
        through ``_log_ratio``, against which the per-entry terms gathered
        per pair must keep their bits."""
        s_lab, t_lab = led.keep[ki], led.keep[kj]
        a0, a1 = led.a0_table[s_lab, i0], led.a1_table[s_lab, i1]
        b0, b1 = led.b0_table[t_lab, i0], led.b1_table[t_lab, i1]
        w_f = led.pops[s_lab] * a0 * a1 / led.n_anchor
        w_r = led.pops[t_lab] * b0 * b1 / led.n_anchor

        def term(name):
            time = thermo._TERMS[name][0]
            return thermo._log_ratio(led, name, (s_lab, t_lab)[time], (i0, i1)[time])
        col_i0 = term("j0") + term("c0")
        col_i1 = term("j1") + term("c1")
        col_gamma = np.log(a0) + np.log(a1) - np.log(b0) - np.log(b1)
        col_k = col_i1 - col_i0 + term("sigma_a") + term("sigma_b")
        return np.stack([led.q_a_tab[i0, i1], col_k, col_gamma], axis=1), w_f, w_r

    @staticmethod
    def bank_style_cases():
        """The random classes of the acceptance bank, both branches, and
        the 6x6 and 8x8 shell ladders."""
        for dims in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)):
            for correlated in (True, False):
                for seed in range(2):
                    yield (f"{dims[0]}x{dims[1]}-{'corr' if correlated else 'prod'}-{seed}",
                           lambda dims=dims, correlated=correlated, seed=seed: ledgers_at(
                               randspec.random_spec(seed, *dims, correlated=correlated),
                               0.37 + seed))
        for levels in (6, 8):
            yield (f"shell-{levels}x{levels}",
                   lambda levels=levels: ledgers_at(_shell_ladder_spec(levels, levels), 1.0))

    @pytest.mark.parametrize("case", list(bank_style_cases.__func__()), ids=lambda c: c[0])
    def test_label_cell_tables_match_per_pair_terms(self, case):
        led = case[1]()
        ki, kj, samples, w_f, w_r = thermo._pairs(led)
        got_ki, got_kj, i0, i1 = dense_pair_indices(led)
        assert np.array_equal(ki, got_ki) and np.array_equal(kj, got_kj) and ki.size > 0
        want, want_f, want_r = self.per_pair_route(led, ki, kj, i0, i1)
        assert samples.tobytes() == want.tobytes()
        assert w_f.tobytes() == want_f.tobytes()
        assert w_r.tobytes() == want_r.tobytes()

    @pytest.mark.parametrize("case", list(_cell_form_cases()), ids=lambda c: c[0])
    def test_pair_samples_match_explicit_columns(self, case):
        # K and gamma spelt out column by column, i = j + c in this order
        _, spec, t = case
        led = ledgers_at(spec, t)
        ki, kj, samples, _, _ = thermo._pairs(led)
        _, _, i0, i1 = dense_pair_indices(led)
        kp, marg = led.keep, led.marg
        s_lab, t_lab = kp[ki], kp[kj]
        ln_pops = np.log(led.pops[kp])
        ln_j0, ln_j1 = np.log(led.joint0[i0]), np.log(led.joint1[i1])
        col_i0 = (ln_j0 - np.log(led.pp0[i0])) + (ln_pops[ki] - ln_j0)
        col_i1 = (ln_j1 - np.log(led.pp1[i1])) + (ln_pops[kj] - ln_j1)
        at_a, at_b = led.flat_a[i1], led.flat_b[i1]
        col_sigma_a = np.log(marg.a_1[at_a]) - np.log(led.pth_a1_cell[i1])
        col_sigma_b = np.log(marg.b_1[at_b]) - np.log(led.pth_b1_cell[i1])
        col_gamma = (np.log(led.a0_table[s_lab, i0]) + np.log(led.a1_table[s_lab, i1])
                     - np.log(led.b0_table[t_lab, i0]) - np.log(led.b1_table[t_lab, i1]))
        col_k = col_i1 - col_i0 + col_sigma_a + col_sigma_b
        want = np.stack([led.q_a_tab[i0, i1], col_k, col_gamma], axis=1)
        assert samples.tobytes() == want.tobytes()


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
