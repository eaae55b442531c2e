import numpy as np
import pytest

from qheatnet import bayesnet, qubit, thermo


def ledgers_at(spec, t):
    basis = bayesnet.build_bases(spec, bayesnet.TimeGrid((float(t),)))
    return thermo.compute_ledgers(basis)


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
