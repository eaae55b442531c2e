import dataclasses
import tracemalloc

import numpy as np
import pytest

from qheatnet import bayesnet, linalg, qubit, randspec, system, thermo
from conftest import dense_weights, ledgers_at, reference_basis

EA = 0.25        # exp(-beta_a) for occupation 0.2
EB = 3.0 / 7.0   # exp(-beta_b) for occupation 0.3


class TestTimeGrid:
    def test_basic(self):
        grid = bayesnet.TimeGrid((0.5, 1.0))
        assert grid.n_steps == 2
        assert grid.times == (0.5, 1.0)

    @pytest.mark.parametrize("times", [(), (-1.0,), (1.0, 0.5), (1.0, 1.0)])
    def test_rejects_bad_times(self, times):
        with pytest.raises(ValueError):
            bayesnet.TimeGrid(times)

    @pytest.mark.parametrize("times", [(0.0,), (0.0, 0.5)])
    def test_accepts_zero(self, times):
        assert bayesnet.TimeGrid(times).times == times

    @pytest.mark.parametrize("times", [(np.inf,), (0.5, np.inf), (np.nan,)])
    def test_rejects_nonfinite_times(self, times):
        with pytest.raises(ValueError, match="not finite"):
            bayesnet.TimeGrid(times)

    @pytest.mark.parametrize("times", [(-0.0,), (-0.0, 0.5), (np.float64(-0.0), 1.0)])
    def test_negative_zero_reads_as_zero(self, times):
        # -0.0 >= 0 passes, but its sign must not reach any output
        got = bayesnet.TimeGrid(times).times
        assert got == times
        assert np.copysign(1.0, got[0]) == 1.0
        assert got[1:] == times[1:]


class TestBuildBases:
    def test_correlated_populations(self, correlated_spec):
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.4,)))
        assert np.allclose(basis.populations, [0.56, 0.38, 0.06, 0.0], atol=1e-12)

    def test_correlated_eigenvector(self, correlated_spec):
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.4,)))
        # the 0.38 eigenvector lives in the single-excitation sector
        phi = basis.global_vectors[0][:, 1]
        expect = np.array([0.0, np.sqrt(EB), 1j * np.sqrt(EA), 0.0]) / np.sqrt(EA + EB)
        phase = phi[np.argmax(np.abs(expect))] / expect[np.argmax(np.abs(expect))]
        assert np.abs(phi - expect * phase).max() < 1e-12

    def test_local_energies(self, correlated_spec):
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.73,)))
        for n in range(2):
            assert np.allclose(np.sort(basis.energies_a[n]), [0.0, 1.0], atol=1e-12)
            assert np.allclose(np.sort(basis.energies_b[n]), [0.0, 1.0], atol=1e-12)

    def test_overlap_normalization(self, correlated_spec):
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((1.3,)))
        for table in basis.overlaps:
            assert np.allclose(table.sum(axis=(1, 2)), 1.0, atol=1e-12)


def _assert_bit_identical(a, b, where="basis"):
    """Every array reachable from two dataclass trees is array_equal."""
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), where
    elif isinstance(a, tuple):
        assert len(a) == len(b), where
        for n, (x, y) in enumerate(zip(a, b)):
            _assert_bit_identical(x, y, f"{where}[{n}]")
    elif isinstance(a, (bayesnet.BasisSet, linalg.EigenSystem, system.GibbsState)):
        for f in dataclasses.fields(a):
            _assert_bit_identical(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    else:
        assert a is b or a == b, where


def _at_time(block, k):
    """The basis of a block at its k-th time: every time-t array read at k,
    the reference for ``BasisSet.at``."""
    def pick(pair):
        t0, tt = pair
        if isinstance(tt, linalg.EigenSystem):
            return t0, linalg.EigenSystem(tt.values[k], tt.vectors[k])
        return t0, tt[k]
    return dataclasses.replace(block, times=block.times[k], **{
        name: pick(getattr(block, name))
        for name in ("global_vectors", "local_a", "local_b", "energies_a", "energies_b",
                     "overlaps", "unitaries")})


SWEEP_TIMES = (0.0, 0.2, 0.37, 1.0, 1.9, 2.9)
SWEEP_SPECS = {
    f"example-{'corr' if c else 'prod'}": qubit.build_example_spec(qubit.ExampleParams(correlated=c))
    for c in (True, False)}
SWEEP_SPECS.update({
    f"rand-{d}x{d}-{'corr' if c else 'prod'}": randspec.random_spec(seed, d, d, correlated=c)
    for seed, d in ((0, 2), (1, 3), (2, 4)) for c in (True, False)})


def _assert_times_match_reference(spec, blocks):
    """Each time of ``blocks`` read off with ``at``, and ``build_bases`` at
    that time, equal the no-axis reference basis bit for bit, and ``at``
    reads the same arrays as the test's own slice ``_at_time``."""
    at = [(block, k) for block in blocks for k in range(len(block.times))]
    assert [block.times[k] for block, k in at] == list(SWEEP_TIMES)
    for t, (block, k) in zip(SWEEP_TIMES, at):
        reference = reference_basis(spec, t)
        _assert_bit_identical(block.at(k), _at_time(block, k))
        _assert_bit_identical(block.at(k), reference)
        _assert_bit_identical(bayesnet.build_bases(spec, bayesnet.TimeGrid((t,))), reference)


class TestSweepBases:
    @pytest.mark.parametrize("name", sorted(SWEEP_SPECS))
    def test_sweep_matches_single_time(self, name):
        spec = SWEEP_SPECS[name]
        _assert_times_match_reference(spec, list(bayesnet.sweep_blocks(spec, SWEEP_TIMES)))

    @pytest.mark.parametrize("name", sorted(SWEEP_SPECS))
    @pytest.mark.parametrize("per_block", [1, 2, 4, None])
    def test_blocks_hold_the_budgeted_times(self, name, per_block, monkeypatch):
        spec = SWEEP_SPECS[name]
        kept = np.count_nonzero(bayesnet.build_bases(spec, bayesnet.TimeGrid((1.0,)))
                                .populations > spec.tol.probability_floor)
        per_time = kept * spec.dim ** 2
        if per_block is None:
            per_block = max(1, bayesnet.BLOCK_ELEMENTS // per_time)
        else:   # a budget a little short of the next time
            monkeypatch.setattr(bayesnet, "BLOCK_ELEMENTS", (per_block + 1) * per_time - 1)
        blocks = list(bayesnet.sweep_blocks(spec, SWEEP_TIMES))
        assert [b.times for b in blocks] == [SWEEP_TIMES[i:i + per_block]
                                            for i in range(0, len(SWEEP_TIMES), per_block)]
        _assert_times_match_reference(spec, blocks)
        assert all(b.overlaps[0] is blocks[0].overlaps[0] for b in blocks)

    def test_time_independent_half_is_shared(self, correlated_spec, monkeypatch):
        monkeypatch.setattr(bayesnet, "BLOCK_ELEMENTS", 1)     # one time per block
        first, second = bayesnet.sweep_blocks(correlated_spec, (0.3, 0.8))
        assert second.overlaps[0] is first.overlaps[0]
        assert second.local_a[0] is first.local_a[0]
        assert second.gibbs_a is first.gibbs_a
        assert not np.array_equal(second.overlaps[1], first.overlaps[1])

    @pytest.mark.parametrize("name", ["example-corr", "rand-3x3-prod", "rand-4x4-corr"])
    def test_time_bases_match_build_bases(self, name, monkeypatch):
        # the basis of each time read off its block, without a time axis,
        # sharing the t = 0 half, in blocks of two times and of all six
        spec = SWEEP_SPECS[name]
        bases = [block.at(k) for block in bayesnet.sweep_blocks(spec, SWEEP_TIMES)
                 for k in range(len(block.times))]
        monkeypatch.setattr(bayesnet, "BLOCK_ELEMENTS", 1)     # one time per block
        bases += [block.at(0) for block in bayesnet.sweep_blocks(spec, SWEEP_TIMES)]
        assert [b.times for b in bases] == 2 * list(SWEEP_TIMES)
        for t, basis in zip(2 * SWEEP_TIMES, bases):
            assert np.shape(basis.times) == () and basis.overlaps[1].ndim == 3
            _assert_bit_identical(basis, bayesnet.build_bases(spec, bayesnet.TimeGrid((t,))))
        assert all(b.overlaps[0] is bases[0].overlaps[0] for b in bases[:6])
        assert all(b.gibbs_a is bases[0].gibbs_a for b in bases[:6])

    @pytest.mark.parametrize("times", [(0.5, -0.25), (np.inf,), (0.5, 0.5)])
    def test_time_bases_reject_bad_times_before_any_basis(self, correlated_spec, times,
                                                          monkeypatch):
        # the times are checked before the spec is validated or any basis built
        calls, validate = [], system.validate
        monkeypatch.setattr(system, "validate", lambda spec: calls.append(spec) or validate(spec))
        with pytest.raises(ValueError):
            next(bayesnet.sweep_blocks(correlated_spec, times))
        assert calls == []

    def test_time_axis_only_on_blocks(self, correlated_spec):
        one = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.37,)))
        block, = bayesnet.sweep_blocks(correlated_spec, (0.37, 0.9, 1.6))
        assert one.times == 0.37 and block.times == (0.37, 0.9, 1.6)
        pairs = [(getattr(one, name), getattr(block, name))
                 for name in ("global_vectors", "energies_a", "energies_b", "overlaps",
                              "unitaries")]
        pairs += [((getattr(one, name)[0].values, getattr(one, name)[1].values),
                   (getattr(block, name)[0].values, getattr(block, name)[1].values))
                  for name in ("local_a", "local_b")]
        for (one_0, one_t), (block_0, block_t) in pairs:
            assert one_t.shape == one_0.shape == block_0.shape
            assert block_t.shape == (3,) + one_t.shape

    def test_basis_carries_the_gibbs_states(self, correlated_spec):
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.5,)))
        for got, h, beta in ((basis.gibbs_a, correlated_spec.h_a, correlated_spec.beta_a),
                             (basis.gibbs_b, correlated_spec.h_b, correlated_spec.beta_b)):
            _assert_bit_identical(got, system.gibbs_state(h, beta))
        assert thermo.compute_ledgers(basis).gibbs_a is basis.gibbs_a

    @pytest.mark.parametrize("times", [(0.5, -0.25), (np.inf,), (-1.0, 0.5)])
    def test_bad_time_rejected_before_any_basis(self, correlated_spec, times):
        with pytest.raises(ValueError):
            next(bayesnet.sweep_blocks(correlated_spec, times))

    @pytest.mark.parametrize("times", [(1.0, 1.0, 1.0), (0.5, 0.5), (0.2, 0.9, 0.4)])
    def test_repeated_or_decreasing_times_rejected(self, correlated_spec, times):
        # a sweep is one time grid: no time is swept twice or out of order
        with pytest.raises(ValueError, match="strictly increasing"):
            next(bayesnet.sweep_blocks(correlated_spec, times))

    def test_invalid_spec_raises_with_name(self, correlated_spec):
        bad = dataclasses.replace(correlated_spec, chi=correlated_spec.chi * 3.0)
        with pytest.raises(system.SpecError, match="rho0_positive"):
            next(bayesnet.sweep_blocks(bad, (0.5,)))


class TestConditionalProb:
    def test_product_state_is_deterministic(self, product_spec):
        basis = bayesnet.build_bases(product_spec, bayesnet.TimeGrid((0.9,)))
        table = basis.overlaps[0].reshape(4, 4)
        assert np.allclose(np.sort(table, axis=1)[:, :-1], 0.0, atol=1e-14)
        assert np.allclose(table.sum(axis=1), 1.0)

    def test_correlated_value(self, correlated_spec):
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.9,)))
        # outcome (0, 1) given the single-excitation eigenvector at t=0
        assert basis.overlaps[0][1, 0, 1] == pytest.approx(EB / (EA + EB), abs=1e-12)


class TestEnumerate:
    """The forward two-time ensemble: P_s times one overlap per time."""

    def test_weights_sum_to_one(self, correlated_spec):
        fwd, _ = dense_weights(ledgers_at(correlated_spec, 0.6))
        assert fwd.shape == (3, 4, 4)
        assert fwd.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_population_branch_absent(self, correlated_spec):
        led = ledgers_at(correlated_spec, 0.6)
        assert 3 not in led.keep  # the exactly-zero eigenvalue
        ki, kj, *_ = thermo._pairs(led)
        assert 3 not in led.keep[ki] and 3 not in led.keep[kj]

    def test_weights_match_tables(self, correlated_spec):
        led = ledgers_at(correlated_spec, 0.6)
        basis, (fwd, _) = led.basis, dense_weights(led)
        for k, s in enumerate(led.keep):
            expect = (basis.populations[s]
                      * np.multiply.outer(basis.overlaps[0][s].ravel(),
                                          basis.overlaps[1][s].ravel()))
            assert np.allclose(fwd[k], expect, rtol=1e-12, atol=0.0)


class TestReverseEnumerate:
    """The reversed ensemble against the forward one, as heat histograms:
    reversed heat is the mirrored table, so a product state gives equal
    forward and reverse statistics."""

    def test_normalized(self, correlated_spec):
        _, rev = dense_weights(ledgers_at(correlated_spec, 0.8))
        assert rev.sum() == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _hists(spec, t):
        led = ledgers_at(spec, t)
        return (thermo.heat_distribution(led, "forward"),
                thermo.heat_distribution(led, "reverse"))

    def test_product_state_matches_forward(self, product_spec):
        fwd, rev = self._hists(product_spec, 0.8)
        for q in (-1.0, 0.0, 1.0):
            assert rev.prob_at(q) == pytest.approx(fwd.prob_at(q), abs=1e-12)

    def test_tiny_time_matches_forward(self, correlated_spec):
        fwd, rev = self._hists(correlated_spec, 1e-9)
        for q in (-1.0, 0.0, 1.0):
            assert rev.prob_at(q) == pytest.approx(fwd.prob_at(q), abs=1e-7)

    def test_correlated_differs_from_forward(self, correlated_spec):
        fwd, rev = self._hists(correlated_spec, 0.8)
        assert abs(fwd.prob_at(1.0) - rev.prob_at(1.0)) > 1e-3

    @pytest.mark.parametrize("dims, correlated", [((2, 3), True), ((3, 3), False),
                                                  ((4, 4), True)])
    def test_tables_match_product_with_identity(self, dims, correlated):
        # the t0 table evolves by U(t)^dag alone: U(0) = I, the product
        # U(0) U(t)^dag v0 it replaces gives the same bits, one time and
        # stacked over a block
        spec = randspec.random_spec(2, *dims, correlated=correlated)
        for basis in (bayesnet.build_bases(spec, bayesnet.TimeGrid((0.7,))),
                      *bayesnet.sweep_blocks(spec, (0.0, 0.4, 1.3))):
            back = basis.unitaries[1].conj().swapaxes(-1, -2)
            assert np.array_equal(basis.unitaries[0], np.eye(spec.dim))
            want = [bayesnet._overlap_table(basis.local_a[n].vectors, basis.local_b[n].vectors,
                                            basis.unitaries[n] @ back @ basis.global_vectors[0])
                    for n in (1, 0)]
            got = bayesnet.reverse_overlap_tables(basis)
            for g, w in zip(got, want, strict=True):
                assert g.tobytes() == w.tobytes()


class TestMarginals:
    def test_initial_marginals_thermal(self, correlated_spec):
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.5,)))
        marg = bayesnet.local_marginals(basis)
        assert np.allclose(np.sort(marg.a_0), [0.2, 0.8], atol=1e-12)
        assert np.allclose(np.sort(marg.b_0), [0.3, 0.7], atol=1e-12)

    def test_full_swap(self, correlated_spec):
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((1.0,)))
        marg = bayesnet.local_marginals(basis)
        assert np.allclose(np.sort(marg.a_1), [0.3, 0.7], atol=1e-12)

    def test_joints_normalized(self, correlated_spec):
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((1.7,)))
        marg = bayesnet.local_marginals(basis)
        assert marg.joint_0.sum() == pytest.approx(1.0, abs=1e-12)
        assert marg.joint_1.sum() == pytest.approx(1.0, abs=1e-12)

    def test_disagreeing_routes_are_typed_error(self, correlated_spec):
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.6,)))
        o0, o1 = basis.overlaps
        perturbed = o1.copy()
        perturbed[0, 0, 0] += 1e-9
        bad = dataclasses.replace(basis, overlaps=(o0, perturbed))
        with pytest.raises(linalg.LinalgError, match="marginal routes disagree"):
            bayesnet.local_marginals(bad)
        assert issubclass(linalg.LinalgError, ValueError)  # the CLI's exit 2


def _ladder_spec(levels: int, seed: int) -> system.BipartiteSpec:
    """Correlated instance on two integer ladders 0..levels-1: interaction
    and correlation are random Hermitian blocks on the shells of the total
    bare energy, the correlation has no marginals and is scaled below the
    smallest product population."""
    rng = np.random.default_rng(seed)
    ladder = np.arange(levels, dtype=float)
    h = np.diag(ladder).astype(complex)
    dim = levels * levels
    total = np.add.outer(ladder, ladder).ravel()
    shells = np.abs(np.subtract.outer(total, total)) < 0.5

    def shell_hermitian():
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return np.where(shells, x + x.conj().T, 0.0)

    h_int = shell_hermitian()
    h_int /= np.abs(h_int).max()
    chi = shell_hermitian()
    eye = np.eye(levels)
    chi = (chi
           - linalg.tensor_product(linalg.partial_trace(chi, levels, levels, keep="A"), eye) / levels
           - linalg.tensor_product(eye, linalg.partial_trace(chi, levels, levels, keep="B")) / levels
           + np.trace(chi) * np.eye(dim) / dim)
    beta_a, beta_b = 0.3, 0.6
    prod = linalg.tensor_product(system.gibbs_state(h, beta_a).rho,
                                 system.gibbs_state(h, beta_b).rho)
    chi *= 0.8 * np.linalg.eigvalsh(prod).min() / np.abs(np.linalg.eigvalsh(chi)).max()
    return system.BipartiteSpec(h_a=h, h_b=h.copy(), beta_a=beta_a, beta_b=beta_b,
                                chi=chi, h_int=h_int)


def _choi_by_purification(basis: bayesnet.BasisSet) -> np.ndarray:
    """The channel-state table through the purification w[i, j, s] =
    v_s[i] v_s[j] of the two-copy state, U and the two local-basis bras
    contracted one copy index at a time: O(D^4) time, O(D^3) memory."""
    d = basis.dim
    v0 = basis.global_vectors[0]
    w = basis.unitaries[1] @ (v0[:, None, :] * v0[None, :, :])   # U on the second copy
    prod0 = linalg.tensor_product(basis.local_a[0].vectors, basis.local_b[0].vectors)
    prod1 = linalg.tensor_product(basis.local_a[1].vectors, basis.local_b[1].vectors)
    w = prod1.conj().T @ w                                          # [i, k1, s]
    amp = (prod0.conj().T @ w.reshape(d, d * d)).reshape(d, d, d)   # [k0, k1, s]
    table = (np.abs(amp) ** 2) @ basis.populations
    return table.reshape(basis.spec.dim_a, basis.spec.dim_b,
                         basis.spec.dim_a, basis.spec.dim_b)


class TestPathTables:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_choi_product_matches_purification(self, dims):
        for seed in range(10):
            basis = bayesnet.build_bases(randspec.random_spec(seed, *dims),
                                         bayesnet.TimeGrid((0.7,)))
            assert np.abs(bayesnet.choi_path_probability(basis)
                          - _choi_by_purification(basis)).max() <= 1e-15

    def test_choi_route_reads_no_overlap_table(self, correlated_spec, monkeypatch):
        # a separate assembly: no overlap table, evolved vectors or overlaps
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.7,)))
        want = bayesnet.choi_path_probability(basis)

        def forbidden(*args):
            raise AssertionError("overlap table assembled")
        monkeypatch.setattr(bayesnet, "_overlap_table", forbidden)
        bare = dataclasses.replace(basis, overlaps=None,
                                   global_vectors=(basis.global_vectors[0], None))
        assert bayesnet.choi_path_probability(bare).tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [0.3, 1.0, 1.9])
    def test_choi_route_agrees(self, correlated_spec, t):
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((t,)))
        table = bayesnet.path_probability_table(basis)
        choi = bayesnet.choi_path_probability(basis)
        assert np.abs(table - choi).max() < 1e-12

    def test_choi_route_random_specs(self):
        cases = [(seed, 2, 3, True) for seed in range(5)]
        cases += [(seed, 4, 4, corr) for seed in range(3) for corr in (True, False)]
        for seed, da, db, correlated in cases:
            spec = randspec.random_spec(seed, da, db, correlated=correlated)
            basis = bayesnet.build_bases(spec, bayesnet.TimeGrid((0.9,)))
            assert np.abs(bayesnet.path_probability_table(basis)
                          - bayesnet.choi_path_probability(basis)).max() < 1e-12

    def test_choi_route_agrees_on_ladder_d36(self):
        spec = _ladder_spec(6, seed=3)
        assert system.validate(spec).first_failure() is None
        assert np.abs(spec.chi).max() > 0.0
        basis = bayesnet.build_bases(spec, bayesnet.TimeGrid((0.7,)))
        assert basis.dim == 36
        assert np.abs(bayesnet.path_probability_table(basis)
                      - bayesnet.choi_path_probability(basis)).max() < 1e-12

    def test_choi_route_reads_the_unitary(self, correlated_spec):
        # the Choi route evolves with unitaries[1] itself rather than
        # reusing the overlap tables, so a different U must show
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.7,)))
        other = linalg.unitary_from_hamiltonian(correlated_spec.h_int, 0.4)
        swapped = dataclasses.replace(basis, unitaries=(basis.unitaries[0], other))
        assert np.abs(bayesnet.path_probability_table(swapped)
                      - bayesnet.choi_path_probability(swapped)).max() > 1e-6

    def test_choi_route_forms_no_two_copy_operator(self):
        basis = bayesnet.build_bases(randspec.random_spec(0, 4, 4),
                                     bayesnet.TimeGrid((0.9,)))
        d = basis.dim
        tracemalloc.start()
        try:
            bayesnet.choi_path_probability(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * d ** 4   # bytes of one dense complex D^2 x D^2 matrix

    def test_tpm_reduction_for_product(self, product_spec):
        basis = bayesnet.build_bases(product_spec, bayesnet.TimeGrid((0.7,)))
        assert np.abs(bayesnet.path_probability_table(basis)
                      - bayesnet.tpm_table(basis)).max() < 1e-12

    def test_tpm_misses_correlations(self, correlated_spec):
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.7,)))
        assert np.abs(bayesnet.path_probability_table(basis)
                      - bayesnet.tpm_table(basis)).max() > 1e-3

    def test_table_normalized(self, correlated_spec):
        basis = bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.7,)))
        assert bayesnet.path_probability_table(basis).sum() == pytest.approx(1.0, abs=1e-12)

    def test_requires_two_time_grid(self, correlated_spec):
        # every table is two-time, so a grid of two or more times is
        # rejected where the basis is built
        with pytest.raises(ValueError, match="exactly one time"):
            bayesnet.build_bases(correlated_spec, bayesnet.TimeGrid((0.3, 0.7)))
