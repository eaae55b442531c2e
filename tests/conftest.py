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
    time and keep only their masks and per-cell sums."""
    kp = led.keep
    fwd = ((led.pops[kp, None, None] * led.a0_table[kp][:, :, None])
           * led.a1_table[..., kp, None, :])
    rev = (led.pops[kp, None, None]
           * led.b0_table[..., kp, :, None]
           * led.b1_table[..., kp, None, :])
    return fwd, rev


@pytest.fixture(scope="session")
def example_params():
    return qubit.ExampleParams()


@pytest.fixture(scope="session")
def correlated_spec():
    return qubit.build_example_spec(qubit.ExampleParams(correlated=True))


@pytest.fixture(scope="session")
def product_spec():
    return qubit.build_example_spec(qubit.ExampleParams(correlated=False))
