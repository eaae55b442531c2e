import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qheatnet import linalg

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(seed, dim):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2


class TestEigendecompose:
    def test_pauli_z(self):
        eig = linalg.hermitian_eigendecompose(PAULI_Z)
        assert np.allclose(eig.values, [1.0, -1.0])
        assert np.allclose(np.abs(eig.vectors), np.eye(2))

    def test_descending_order(self):
        eig = linalg.hermitian_eigendecompose(random_hermitian(0, 6))
        assert np.all(np.diff(eig.values) <= 0)

    def test_degenerate_tiebreak_ordering(self):
        # identity is fully degenerate; the tiebreak expectation ascends
        tiebreak = np.diag([2.0, 1.0]).astype(complex)
        eig = linalg.hermitian_eigendecompose(np.eye(2, dtype=complex), tiebreak=tiebreak)
        expect = [np.real(v.conj() @ tiebreak @ v) for v in eig.vectors.T]
        assert expect[0] < expect[1]
        assert np.allclose(np.abs(eig.vectors), [[0, 1], [1, 0]])

    def test_phase_convention(self):
        eig = linalg.hermitian_eigendecompose(random_hermitian(3, 5))
        for col in eig.vectors.T:
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_determinism(self):
        m = random_hermitian(7, 4)
        a = linalg.hermitian_eigendecompose(m, tiebreak=np.diag([1.0, 2, 3, 4]))
        b = linalg.hermitian_eigendecompose(m.copy(), tiebreak=np.diag([1.0, 2, 3, 4]))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 8))
    def test_reconstruction(self, seed, dim):
        m = random_hermitian(seed, dim)
        eig = linalg.hermitian_eigendecompose(m)
        assert np.abs(eig.reconstruct() - m).max() < 1e-12
        gram = eig.vectors.conj().T @ eig.vectors
        assert np.abs(gram - np.eye(dim)).max() < 1e-12

    def test_cold_state_tiny_eigenvalues_stay_apart(self):
        # distinct populations a few 1e-10 apart lie inside one
        # DEGENERACY_RTOL cluster; rotating them by the tiebreak used to
        # break the residual bound
        rng = np.random.default_rng(5)
        pops = np.concatenate((np.geomspace(0.5, 1e-6, 8), [4e-10, 2.5e-10, 1e-10, 0.0]))
        pops /= pops.sum()
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))
        rho = (q * pops) @ q.conj().T
        rho = (rho + rho.conj().T) / 2
        eig = linalg.hermitian_eigendecompose(rho, tiebreak=random_hermitian(6, 12))
        span = eig.values[0] - eig.values[-1]
        assert eig.values[-4] - eig.values[-1] <= linalg.DEGENERACY_RTOL * span
        assert np.abs(eig.reconstruct() - rho).max() <= (
            linalg.RESIDUAL_RTOL * np.abs(rho).max())
        assert np.allclose(eig.values[-4:], pops[-4:], rtol=0.0, atol=1e-15)

    def test_rejects_nonsquare(self):
        with pytest.raises(linalg.LinalgError):
            linalg.hermitian_eigendecompose(np.ones((2, 3)))

    def test_rejects_nonhermitian(self):
        with pytest.raises(linalg.LinalgError):
            linalg.hermitian_eigendecompose(np.array([[0, 1], [0, 0]], dtype=complex))



def _eigendecompose_one(m, tiebreak=None):
    """The one-matrix routine as it was before stacks were accepted,
    kept as the reference for bits and for cost."""
    m = np.asarray(m, dtype=complex)
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.conj().T).max() > 1e-10 * scale:
        raise linalg.LinalgError("matrix is not Hermitian")
    if tiebreak is not None:
        tiebreak = np.asarray(tiebreak, dtype=complex)
        if np.abs(tiebreak - tiebreak.conj().T).max() > 1e-10 * max(np.abs(tiebreak).max(), 1.0):
            raise linalg.LinalgError("tiebreak is not Hermitian")
    w, v = np.linalg.eigh(m)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    span = max(w[0] - w[-1], 0.0)
    scale = max(np.abs(m).max(), 1e-300)
    gap = min(linalg.DEGENERACY_RTOL * max(span, 1e-300), 0.5 * linalg.RESIDUAL_RTOL * scale)
    start = 0
    for stop in range(1, len(w) + 1):
        if stop < len(w) and w[start] - w[stop] <= gap:
            continue
        if stop - start > 1 and tiebreak is not None:
            blk = v[:, start:stop]
            t = blk.conj().T @ tiebreak @ blk
            _, r = np.linalg.eigh((t + t.conj().T) / 2.0)
            v[:, start:stop] = blk @ r
        start = stop
    mag = np.abs(v)
    big = mag > 1e-12
    pivot = np.where(big.any(axis=0), big.argmax(axis=0), mag.argmax(axis=0))
    cols = np.arange(v.shape[1])
    z, az = v[pivot, cols], mag[pivot, cols]
    ok = az > 0
    v[:, ok] *= z[ok].conjugate() / az[ok]
    resid = np.abs((v * w) @ v.conj().T - m).max()
    if resid > linalg.RESIDUAL_RTOL * scale:
        raise linalg.LinalgError("eigendecomposition residual too large")
    return linalg.EigenSystem(values=w, vectors=v)


def _hermitian_stack(seed, n, count=6):
    """Hermitian members of scales 0.1 to 100 with distinct, exactly
    degenerate, nearly degenerate (gaps of 1e-13 to 1e-10 of the range)
    and tiny eigenvalues."""
    rng = np.random.default_rng(seed)
    members = []
    for k in range(count):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        vals = np.sort(rng.normal(size=n))[::-1]
        if k % 3 == 1:
            vals[(n - 1) // 2:] = vals[-1]
        elif k % 3 == 2:
            vals[1:] = vals[0] - np.cumsum(rng.choice([1e-13, 1e-11, 1e-10, 0.3], n - 1))
        if k == count - 1:
            vals = np.geomspace(1.0, 1e-12, n) * np.where(np.arange(n) % 2, 0.0, 1.0)
        x = (q * vals) @ q.conj().T * 10.0 ** (k % 4 - 1)   # each member its own scale
        members.append((x + x.conj().T) / 2)
    return np.stack(members)


class TestStackedEigendecompose:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("tiebreak", ["none", "diagonal", "random"])
    def test_members_equal_one_matrix_calls(self, n, tiebreak):
        stack = _hermitian_stack(n, n)
        tb = {"none": None, "diagonal": np.diag(np.arange(n, 0, -1.0)).astype(complex),
              "random": random_hermitian(100 + n, n)}[tiebreak]
        eig = linalg.hermitian_eigendecompose(stack, tiebreak=tb)
        assert eig.values.shape == (len(stack), n) and eig.vectors.shape == stack.shape
        for k, member in enumerate(stack):
            one = linalg.hermitian_eigendecompose(member, tiebreak=tb)
            ref = _eigendecompose_one(member, tiebreak=tb)
            for got in (one, ref):
                assert eig.values[k].tobytes() == got.values.tobytes()
                assert eig.vectors[k].tobytes() == got.vectors.tobytes()

    def test_leading_axes_kept(self):
        stack = _hermitian_stack(3, 4).reshape(2, 3, 4, 4)
        eig = linalg.hermitian_eigendecompose(stack, tiebreak=np.diag([1.0, 2, 3, 4]))
        assert eig.values.shape == (2, 3, 4) and eig.vectors.shape == (2, 3, 4, 4)
        assert eig.vectors[1, 2].tobytes() == linalg.hermitian_eigendecompose(
            stack[1, 2], tiebreak=np.diag([1.0, 2, 3, 4])).vectors.tobytes()
        assert np.abs(eig.reconstruct() - stack).max() < 1e-12

    @pytest.mark.parametrize("index", [0, 1, -1, (1, 2), slice(1, None), (1, slice(None, 2))])
    def test_index_reads_members(self, index):
        eig = linalg.hermitian_eigendecompose(_hermitian_stack(3, 4, count=6).reshape(2, 3, 4, 4))
        got = eig[index]
        assert isinstance(got, linalg.EigenSystem)
        assert got.values.tobytes() == eig.values[index].tobytes()
        assert got.vectors.tobytes() == eig.vectors[index].tobytes()
        assert got.values.shape == eig.values[index].shape

    @pytest.mark.parametrize("shape,index", [((5,), "[3]"), ((2, 4), "[0, 3]")])
    def test_non_hermitian_member_named(self, shape, index):
        stack = _hermitian_stack(9, 3, count=int(np.prod(shape))).reshape(*shape, 3, 3)
        flat = stack.reshape(-1, 3, 3)
        flat[3, 0, 1] += 1e-3
        with pytest.raises(linalg.LinalgError, match=re.escape(f"matrix {index} is not Hermitian")):
            linalg.hermitian_eigendecompose(stack)

    def test_non_hermitian_tiebreak_named(self):
        tb = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(linalg.LinalgError, match="tiebreak is not Hermitian"):
            linalg.hermitian_eigendecompose(_hermitian_stack(2, 2), tiebreak=tb)

    @pytest.mark.parametrize("n", [2, 4])
    def test_one_matrix_costs_no_more_than_before(self, n, monkeypatch):
        # verify makes 14 one-matrix calls; taking stacks must not add work
        # to them: one LAPACK call and, with no near-degenerate pair, no
        # cluster rotation.  Their speed is a benchmark matter, not a test's.
        m, tb = random_hermitian(n, n), np.diag(np.arange(n, dtype=float)).astype(complex)
        assert np.diff(np.linalg.eigvalsh(m)).min() > 1e-3
        calls = {"eigh": 0, "rotate": 0}
        eigh, rotate = np.linalg.eigh, linalg._rotate_clusters

        def counted_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        def counted_rotate(*args, **kwargs):
            calls["rotate"] += 1
            return rotate(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(linalg, "_rotate_clusters", counted_rotate)
        linalg.hermitian_eigendecompose(m, tiebreak=tb)
        assert calls == {"eigh": 1, "rotate": 0}

def _fix_phases_loop(vectors):
    """Column-by-column reference for ``linalg._fix_phases``."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        j = idx[0] if idx.size else int(np.argmax(np.abs(col)))
        z = col[j]
        if np.abs(z) > 0:
            out[:, k] = col * (z.conjugate() / np.abs(z))
    return out


class TestFixPhases:
    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
    def test_matches_loop_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        _, v = np.linalg.eigh(random_hermitian(dim, dim))
        # leading entries at or below 1e-12, and columns with none above it
        v[: dim // 2] *= rng.choice([0.0, 1e-13, 1e-12, 1.0], size=dim)
        v[:, :: 3] *= rng.choice([1.0, 1e-13], size=len(v[0, :: 3]))
        got = linalg._fix_phases(v)
        assert got.tobytes() == _fix_phases_loop(v).tobytes()

    def test_zero_and_tiny_columns(self):
        v = np.array([[0.0, 1e-13j, 0.0],
                      [0.0, -3e-13, 1e-12],
                      [0.0, 2e-13, -0.5j]], dtype=complex)
        got = linalg._fix_phases(v)
        assert got.tobytes() == _fix_phases_loop(v).tobytes()
        assert got[:, 0].tobytes() == v[:, 0].tobytes()   # zero column left alone
        assert got[1, 1] == 3e-13                          # largest entry made positive
        assert got[2, 2] == 0.5                            # 1e-12 is not above the cut


class TestTensorAndTrace:
    def test_kron_order(self):
        out = linalg.tensor_product(np.diag([1.0, 2.0]), np.eye(2))
        assert np.allclose(np.diag(out), [1, 1, 2, 2])

    @pytest.mark.parametrize("shape_a,shape_b", [((2, 2), (3, 3)), ((2, 3), (4, 1)),
                                                 ((1, 5), (3, 2)), ((4, 4), (4, 4))])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_kron_bit_for_bit(self, shape_a, shape_b, dtype):
        rng = np.random.default_rng(7)

        def draw(shape):
            x = rng.normal(size=shape)
            return x + 1j * rng.normal(size=shape) if dtype is complex else x

        a, b = draw(shape_a), draw(shape_b)
        expect = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
        got = linalg.tensor_product(a, b)
        assert got.shape == expect.shape and got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("shape_a,shape_b", [((1, 2, 2), (1, 3, 3)), ((4, 2, 3), (4, 3, 2)),
                                                 ((2, 2), (5, 3, 3)), ((3, 1, 2, 2), (4, 2, 2))])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stacks_match_kron_member_by_member(self, shape_a, shape_b, dtype):
        rng = np.random.default_rng(11)

        def draw(shape):
            x = rng.normal(size=shape)
            return x + 1j * rng.normal(size=shape) if dtype is complex else x

        a, b = draw(shape_a), draw(shape_b)
        got = linalg.tensor_product(a, b)
        lead = np.broadcast_shapes(shape_a[:-2], shape_b[:-2])
        assert got.shape == lead + (shape_a[-2] * shape_b[-2], shape_a[-1] * shape_b[-1])
        a_b = np.broadcast_to(a, lead + shape_a[-2:])
        b_b = np.broadcast_to(b, lead + shape_b[-2:])
        for i in np.ndindex(lead):
            expect = np.kron(np.asarray(a_b[i], dtype=complex), np.asarray(b_b[i], dtype=complex))
            assert got[i].tobytes() == expect.tobytes()

    @pytest.mark.parametrize("a,b", [(np.ones(2), np.eye(2)), (np.eye(2), np.ones(2)),
                                     (np.float64(1.0), np.eye(2))])
    def test_rejects_non_matrix_factors(self, a, b):
        with pytest.raises(linalg.LinalgError, match="2-D"):
            linalg.tensor_product(a, b)

    def test_partial_trace_product(self):
        ra = np.diag([0.8, 0.2]).astype(complex)
        rb = np.diag([0.7, 0.3]).astype(complex)
        rho = linalg.tensor_product(ra, rb)
        assert np.abs(linalg.partial_trace(rho, 2, 2, "A") - ra).max() < 1e-15
        assert np.abs(linalg.partial_trace(rho, 2, 2, "B") - rb).max() < 1e-15

    def test_partial_trace_bell(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        for keep in ("A", "B"):
            assert np.abs(linalg.partial_trace(rho, 2, 2, keep) - np.eye(2) / 2).max() < 1e-15

    def test_trace_preserved(self):
        m = random_hermitian(11, 6)
        assert np.isclose(np.trace(linalg.partial_trace(m, 2, 3, "A")), np.trace(m))

    def test_bad_keep(self):
        with pytest.raises(linalg.LinalgError):
            linalg.partial_trace(np.eye(4), 2, 2, "C")


class TestUnitary:
    def test_zero_time_identity(self):
        u = linalg.unitary_from_hamiltonian(random_hermitian(1, 4), 0.0)
        assert np.abs(u - np.eye(4)).max() < 1e-14

    def test_composition(self):
        h = random_hermitian(2, 4)
        u = linalg.unitary_from_hamiltonian(h, 0.4) @ linalg.unitary_from_hamiltonian(h, 0.7)
        assert np.abs(u - linalg.unitary_from_hamiltonian(h, 1.1)).max() < 1e-12

    def test_unitarity(self):
        u = linalg.unitary_from_hamiltonian(random_hermitian(5, 6), 2.3)
        assert np.abs(u.conj().T @ u - np.eye(6)).max() < 1e-13


def test_commutator_norm():
    assert linalg.commutator_norm(PAULI_X, PAULI_Z) == pytest.approx(2.0)
    assert linalg.commutator_norm(np.diag([1.0, 2]), np.diag([3.0, 4])) == 0.0


class TestEntropies:
    def test_pure_state(self):
        assert linalg.spectral_entropy(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert linalg.spectral_entropy(np.full(3, 1 / 3)) == pytest.approx(np.log(3))
