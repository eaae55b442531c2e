"""Spans around qheatnet's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced module attribute (and the two
``DiscreteDistribution`` methods) with a wrapper that records a span:
name, start and end in nanoseconds, the index of the enclosing span, and
the op id current when it started.  Calls made inside the package go
through the same module attributes, so nested calls nest their spans.
``Tracer.uninstall`` puts the original objects back.  Spans stay in
memory until ``write_spans``.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from qheatnet import (bayesnet, cli, config, linalg, qubit, randspec, system,
                      thermo)
from qheatnet.distributions import DiscreteDistribution

MODULES = {
    "system": (system, ("validate", "gibbs_state")),
    "linalg": (linalg, ("hermitian_eigendecompose", "unitary_from_hamiltonian")),
    "bayesnet": (bayesnet, ("build_bases", "reverse_overlap_tables",
                            "local_marginals", "path_probability_table",
                            "choi_path_probability")),
    "thermo": (thermo, ("compute_ledgers", "integral_ft", "combined_integral_ft",
                        "heat_distribution", "joint_distribution", "psi_factor",
                        "mean_heat_balance", "mutual_information_check")),
    "config": (config, ("load_config", "save_config")),
    "cli": (cli, ("main",)),
    "qubit": (qubit, ("analytic_heat_distribution",)),
    "randspec": (randspec, ("random_spec",)),
}
#: DiscreteDistribution methods, reported under the module name
METHODS = ("from_samples", "prob_at")

TRACED = tuple(f"{mod}.{fn}" for mod, (_, fns) in MODULES.items() for fn in fns) \
    + tuple(f"distributions.{m}" for m in METHODS)


# Sizes read from a call's arguments or result, stored on its span.  Each
# returns a tuple that is summed over the spans of one name.
def _ledger_sizes(args, ledgers):
    m = ledgers.dim_a * ledgers.dim_b
    return ledgers.n_pairs, ledgers.n_anchor ** 2 * m ** 2


def _joint_sizes(args, joint):
    return joint.forward.n_points, joint.n_checked, joint.n_unverified


def _choi_sizes(args, table):
    # dense D^2 x D^2 complex operators formed per call: omega, one
    # two-copy projector per global label, the lifted unitary, the two
    # products giving the evolved state, and the product-basis kets
    d = args[0].dim
    return (16 * d ** 4 * (d + 5),)


SIZES = {
    "thermo.compute_ledgers": _ledger_sizes,
    "thermo.joint_distribution": _joint_sizes,
    "thermo.psi_factor": lambda args, psi: (psi.n_skipped,),
    "distributions.prob_at": lambda args, p: (args[0].n_points,),
    "bayesnet.choi_path_probability": _choi_sizes,
}


class Tracer:
    """Records spans while installed; ``op`` tags the spans that follow."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, op, sizes]
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, sizes = self.spans, self._stack, SIZES.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if sizes is not None:
                rec[5] = sizes(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, (mod, fns) in MODULES.items():
            for fn in fns:
                orig = getattr(mod, fn)
                self._saved.append((mod, fn, orig))
                setattr(mod, fn, self._wrap(f"{mod_name}.{fn}", orig))
        for meth in METHODS:
            raw = DiscreteDistribution.__dict__[meth]
            self._saved.append((DiscreteDistribution, meth, raw))
            name = f"distributions.{meth}"
            if isinstance(raw, classmethod):
                setattr(DiscreteDistribution, meth,
                        classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(DiscreteDistribution, meth, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    @contextlib.contextmanager
    def recording(self, op):
        """Installed for the ``with`` body, tagging spans with ``op``."""
        self.op = op
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def tables(self, group=lambda op: op) -> dict:
        """Per ``group(op)``: name -> [calls, self_ns, summed sizes]."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op, sizes in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, None]))
        for (name, start, end, parent, op, sizes), kids in zip(self.spans, child_ns):
            row = out[group(op)][name]
            row[0] += 1
            row[1] += end - start - kids
            if sizes is not None:
                row[2] = sizes if row[2] is None else tuple(
                    a + b for a, b in zip(row[2], sizes))
        return out

    def write_spans(self, path, op_labels: dict) -> None:
        """One JSON line of op id labels, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": {str(k): v for k, v in op_labels.items()},
                                 "fields": ["name", "start_ns", "end_ns",
                                            "parent", "op", "sizes"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
