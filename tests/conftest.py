import time

import numpy as np
import pytest

from qheatnet import bayesnet, linalg, qubit, randspec, system, thermo

#: random instances of the acceptance bank
N_RANDOM = 50
EXAMPLE_TIMES = np.linspace(0.0, 2.0, 22)[1:]   # 21 positive times in (0, 2*tau]


def ledgers_at(spec, t):
    basis = bayesnet.build_bases(spec, bayesnet.TimeGrid((float(t),)))
    return thermo.compute_ledgers(basis)


def reference_basis(spec, t):
    """The two-time basis at the one time ``t`` built with no time axis:
    ``bayesnet._local_frame`` on U(t) v_0 at a scalar t.  ``sweep_blocks``
    builds every basis in stacked blocks, so this is the reference that
    keeps each time of a block, and with it every one-time output, that
    of the time alone bit for bit."""
    start = system.initial_state(spec)
    glob = linalg.hermitian_eigendecompose(start.rho, tiebreak=spec.h_total)
    populations = np.clip(glob.values, 0.0, None)
    generator = linalg.hermitian_eigendecompose(spec.h_int)
    u = linalg.unitary_from_eigensystem(generator, t)
    vecs = u @ glob.vectors
    ea0, eb0, energy_a0, energy_b0, overlap0 = bayesnet._local_frame(spec, populations,
                                                                     glob.vectors)
    ea, eb, energy_a, energy_b, overlap = bayesnet._local_frame(spec, populations, vecs)
    return bayesnet.BasisSet(
        spec=spec,
        times=t,
        populations=populations,
        global_vectors=(glob.vectors, vecs),
        local_a=(ea0, ea),
        local_b=(eb0, eb),
        energies_a=(energy_a0, energy_a),
        energies_b=(energy_b0, energy_b),
        overlaps=(overlap0, overlap),
        unitaries=(np.eye(spec.dim, dtype=complex), u),
        gibbs_a=start.gibbs_a,
        gibbs_b=start.gibbs_b,
    )


def dense_weights(led):
    """The reference (K, m, m) forward and reverse weight tables of all
    retained labels at once, (P_k a0) a1 and (P_k b0) b1, with the leading
    time shape of a block: the ledgers form them one chunk of labels at a
    time and keep only their per-cell sums and live entries."""
    kp = led.keep
    fwd = ((led.pops[kp, None, None] * led.a0_table[kp][:, :, None])
           * led.a1_table[..., kp, None, :])
    rev = (led.pops[kp, None, None]
           * led.b0_table[..., kp, :, None]
           * led.b1_table[..., kp, None, :])
    return fwd, rev


def dense_masks(led):
    """The reference (K, m, m) live entries of ``dense_weights``, those
    above the probability floor: the ledgers keep them as flat indices,
    ``fwd_live`` and ``rev_live``, and no mask."""
    fwd, rev = dense_weights(led)
    return fwd > led.floor, rev > led.floor


def reference_binned(values, binning, group=None):
    """The binning rule by a lexsort over the int64 keys, a group label
    first: (bin_id, first, starts) as ``DiscreteDistribution._binned``
    gives them from its one composite key and one sort."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    keys = [] if group is None else [np.asarray(group, dtype=np.int64)]
    for column in vals.T:
        scaled = column / binning
        if not np.all(np.abs(scaled) < 2.0 ** 62):
            raise ValueError("cannot bin values with |x| / binning >= 2**62")
        keys.append(np.round(scaled, out=scaled).astype(np.int64))
    order = np.lexsort(keys[::-1])
    # a sample heads a bin when any key differs from its predecessor's
    heads = np.zeros(len(vals), dtype=bool)
    heads[:1] = True
    for key in keys:
        ranked = key[order]
        heads[1:] |= ranked[1:] != ranked[:-1]
    bin_id = np.empty(len(vals), dtype=np.intp)
    bin_id[order] = np.cumsum(heads) - 1
    first = order[heads]
    starts = (np.array([0, len(first)]) if group is None
              else np.searchsorted(keys[0][first], np.arange(group.max() + 2)))
    return bin_id, first, starts


def dense_pair_indices(led):
    """``thermo._pair_indices`` of one time on the live entries of the
    dense reference masks."""
    fmask, rmask = dense_masks(led)
    return thermo._pair_indices(np.flatnonzero(fmask), np.flatnonzero(rmask),
                                *fmask.shape[:2])


@pytest.fixture(scope="session")
def example_params():
    return qubit.ExampleParams()


@pytest.fixture(scope="session")
def correlated_spec():
    return qubit.build_example_spec(qubit.ExampleParams(correlated=True))


@pytest.fixture(scope="session")
def product_spec():
    return qubit.build_example_spec(qubit.ExampleParams(correlated=False))


@pytest.fixture(scope="session")
def bank():
    """The acceptance bank: the two-qubit example on both branches at
    ``EXAMPLE_TIMES`` and ``N_RANDOM`` random instances with subsystem
    dimensions 2 and 3, each as (name, spec, t, ledgers), and the time
    it took to build."""
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


@pytest.fixture(scope="session")
def checks(bank):
    """The relation checks of each bank entry, by record name."""
    return [{c.name: c for c in thermo.relation_checks(led)}
            for _, _, _, led in bank["entries"]]
