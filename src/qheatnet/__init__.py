"""Heat-exchange statistics of correlated bipartite thermal systems.

The pipeline: describe an instance (:mod:`qheatnet.system`), diagonalize
its bases into two-time conditional probability tables
(:mod:`qheatnet.bayesnet`), then build stochastic ledgers from those
tables and check the fluctuation relations (:mod:`qheatnet.thermo`).  A solvable two-qubit instance with closed-form
heat statistics lives in :mod:`qheatnet.qubit`.
"""

from .bayesnet import BasisSet, TimeGrid, build_bases, sweep_bases
from .distributions import DiscreteDistribution
from .system import BipartiteSpec, Tolerances, build_initial_state, validate
from .thermo import LedgerSet, compute_ledgers

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BipartiteSpec",
    "Tolerances",
    "build_initial_state",
    "validate",
    "TimeGrid",
    "BasisSet",
    "build_bases",
    "sweep_bases",
    "DiscreteDistribution",
    "LedgerSet",
    "compute_ledgers",
]
