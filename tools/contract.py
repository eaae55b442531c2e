"""The behaviour contract: hash the outputs a change must keep.

    PYTHONPATH=src python tools/contract.py > head.json
    PYTHONPATH=/path/to/other/checkout/src python tools/contract.py > base.json
    PYTHONPATH=src python tools/contract.py --compare base.json head.json

A run makes a fixed list of calls in process, on whichever ``qheatnet``
``PYTHONPATH`` names, and prints one JSON object: the Python and numpy
versions and {name: sha256} of every output.  The CLI calls are each
hashed with their stdout, stderr, exit code, any ``--out`` or
``--report`` body and the category and text of any warning:

- the ``bank`` call lists of the benchmark at seeds 0 and 1 (the
  configs of ``perfbench/worker.py``'s ``bank_calls``, each config body
  hashed too);
- ``verify --dims`` 2x2 to 8x8 at seeds 0, 1 and 131: plain,
  ``--product``, ``--time 0.37`` and ``--tol binning`` at 1e-16 and
  1e-3;
- ``heat --sweep 0:1:5`` on randspec 8x8 and 6x6 and ``heat --sweep
  0:3:101`` on randspec 2x2 to 4x4, each on both branches, and
  ``example`` plain, ``--product``, ``--tau 0.7``, ``--sweep 0:40:1001``
  and ``--sweep 0:2:101`` on both branches;
- the cold configs of the example's product branch at beta_A = 40, 745
  and 800, and randspec configs, each with one to five times, through
  ``verify``, ``heat`` and ``verify --time`` at each time, each config
  body hashed too;
- the randspec 3x3 seed-0 config with every zero of its matrices
  written as -0.0, through ``verify`` and ``heat``, its body hashed too;
- unusable input, which exits 2: configs of the example with ``beta_a``
  NaN, Infinity, true or "1.5", ``times`` [true] or an entry [1.0,
  -Infinity] in ``h_a``, a negative ``--seed``, sweeps that repeat a
  time, a bad ``--tol`` on each verb and ``example --report=`` with the
  CSV on stdout; and the example with 1e-8 added to the real part of
  ``h_int[1][2]``, through ``validate``, ``verify`` and ``heat`` with
  ``--tol hermiticity=1e-6`` (``linalg`` refuses what ``validate``
  accepts).

The library outputs are hashed array by array, each with its dtype and
shape: the ledger tables, both heat distributions, the ``PsiReport``,
the ``JointFT``, every ``mean_quantity``, ``relation_checks`` and the
path, Choi and TPM tables, on the acceptance bank of ``tests/conftest.py``,
the ``wide`` benchmark ladders (seeds 0 and 1) and a coherent D = 25
ladder.

``--compare A.json B.json`` lists the names whose hash changed, and
those in only one file, and exits 1 if there are any.  Bits vary with
BLAS and numpy, so compare two runs on one machine, never against
stored hashes.  BLAS is pinned to one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from qheatnet import bayesnet, cli, config, linalg, qubit, randspec, system, thermo  # noqa: E402

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import shellblock  # noqa: E402

#: ``perfbench/worker.py``'s ``bank`` instances: the example on both
#: branches, then 9 of each random class, drawn from [seed, 2, k]
BANK_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4))
BANK_PER_CLASS = 9
BANK_SEEDS = (0, 1)
VERIFY_SEEDS = (0, 1, 131)
VERIFY_VARIANTS = ((), ("--product",), ("--time", "0.37"),
                   ("--tol", "binning=1e-16"), ("--tol", "binning=1e-3"))
WIDE_LEVELS = (6, 7, 8)
WIDE_SEEDS = (0, 1)
COLD_BETAS = (40.0, 745.0, 800.0)
TIME_LISTS = ((0.5,), (0.0, 0.5), (0.0, 0.5, 1.0))
#: randspec configs of several times: (seed, dim_a, dim_b, correlated)
MULTI_TIME_SPECS = ((0, 4, 4, True), (1, 3, 3, True), (2, 4, 4, False))
MULTI_TIMES = (0.1, 0.4, 0.9, 1.6, 2.5)
#: config values that are no usable input: (name, key, value), each set
#: on the example's config
BAD_CONFIGS = (("beta_a-nan", "beta_a", float("nan")),
               ("beta_a-inf", "beta_a", float("inf")),
               ("beta_a-true", "beta_a", True),
               ("beta_a-string", "beta_a", "1.5"),
               ("times-true", "times", [True]))


def _feed(h, obj) -> None:
    """Feed one leaf value to the hash ``h``: an array with its dtype
    and shape, a Python scalar by its exact text."""
    if isinstance(obj, (np.ndarray, np.generic)):
        arr = np.ascontiguousarray(obj)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif obj is None or isinstance(obj, (bool, int, str)):
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def _leaves(name: str, obj):
    """(name, leaf) of every array or scalar reachable from ``obj``
    through dataclass fields, tuples and lists; the spec, an input, is
    left out."""
    if isinstance(obj, system.BipartiteSpec):
        return
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _leaves(f"{name}.{field.name}", getattr(obj, field.name))
    elif isinstance(obj, (tuple, list)):
        for n, item in enumerate(obj):
            yield from _leaves(f"{name}[{n}]", item)
    else:
        yield name, obj


class Contract:
    """The hashes of one run, by name."""

    def __init__(self):
        self.hashes: dict[str, str] = {}

    def add(self, name: str, *values) -> None:
        if name in self.hashes:
            raise ValueError(f"duplicate contract name {name!r}")
        h = hashlib.sha256()
        for value in values:
            _feed(h, value)
        self.hashes[name] = h.hexdigest()

    def add_tree(self, name: str, obj) -> None:
        for leaf_name, leaf in _leaves(name, obj):
            self.add(leaf_name, leaf)

    def cli(self, name: str, argv: list[str], outputs=()) -> None:
        """Run ``qheatnet`` on ``argv`` and hash what it printed, its exit
        code, its warnings and the files ``outputs`` it wrote."""
        for path in outputs:
            Path(path).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = cli.main(argv)
        bodies = [Path(p).read_text() if Path(p).exists() else None for p in outputs]
        said = [f"{w.category.__name__}: {w.message}" for w in caught]
        self.add(f"cli/{name}", code, out.getvalue(), err.getvalue(), *said, *bodies)


# ------------------------------------------------------------ instances

def bank_jobs(seed: int):
    """(name, spec, t) of the ``bank`` benchmark at ``seed``."""
    def rng(k):
        return np.random.default_rng([seed, 2, k])
    jobs = []
    for correlated in (True, False):
        spec = qubit.build_example_spec(qubit.ExampleParams(correlated=correlated))
        jobs.append((f"example-{'corr' if correlated else 'prod'}", spec,
                     float(rng(len(jobs)).uniform(0.2, 2.0))))
    for rep in range(BANK_PER_CLASS):
        for da, db in BANK_DIMS:
            for correlated in (True, False):
                r = rng(len(jobs))
                spec = randspec.random_spec(r, da, db, correlated=correlated)
                jobs.append((f"rand-{da}x{db}-{'corr' if correlated else 'prod'}-{rep}",
                             spec, float(r.uniform(0.2, 2.0))))
    return jobs


def acceptance_bank():
    """(name, spec, t) of the acceptance bank of ``tests/conftest.py``."""
    entries = []
    for correlated in (True, False):
        spec = qubit.build_example_spec(qubit.ExampleParams(correlated=correlated))
        for t in np.linspace(0.0, 2.0, 22)[1:]:
            entries.append((f"example-{'corr' if correlated else 'prod'}@{float(t)!r}",
                            spec, float(t)))
    rng = np.random.default_rng(20240811)
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    for n in range(50):
        da, db = dims[n % 4]
        spec = randspec.random_spec(n, da, db, correlated=(n % 3 != 0))
        entries.append((f"random-{n}", spec, float(rng.uniform(0.2, 3.0))))
    return entries


def coherent_ladder(levels: int = 5, seed: int = 0) -> system.BipartiteSpec:
    """Two integer ladders with the interaction restricted to the energy
    shells and a correlation term with coherences across them, as the
    coherent ladder of ``tests/test_thermo.py``."""
    rng = np.random.default_rng(seed)
    ladder = np.arange(levels, dtype=float)
    h = np.diag(ladder).astype(complex)
    dim = levels * levels
    total = np.add.outer(ladder, ladder).ravel()
    shells = np.abs(np.subtract.outer(total, total)) < 0.5

    def hermitian(restrict):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        x = np.where(shells | (not restrict), x + x.conj().T, 0.0)
        return x / np.abs(x).max()

    h_int, chi = hermitian(True), hermitian(False)
    eye = np.eye(levels)
    tr_b = linalg.partial_trace(chi, levels, levels, "A")
    tr_a = linalg.partial_trace(chi, levels, levels, "B")
    chi = (chi - linalg.tensor_product(tr_b, eye) / levels
           - linalg.tensor_product(eye, tr_a) / levels + np.trace(chi) * np.eye(dim) / dim)
    beta_a, beta_b = 0.3, 0.6
    prod = linalg.tensor_product(system.gibbs_state(h, beta_a).rho,
                                 system.gibbs_state(h, beta_b).rho)
    chi *= 0.8 * np.linalg.eigvalsh(prod).min() / np.abs(np.linalg.eigvalsh(chi)).max()
    return system.BipartiteSpec(h_a=h, h_b=h.copy(), beta_a=beta_a, beta_b=beta_b,
                                chi=chi, h_int=h_int)


# ---------------------------------------------------------------- calls

def cli_calls(c: Contract) -> None:
    Path("cfg").mkdir()
    for seed in BANK_SEEDS:
        for name, spec, t in bank_jobs(seed):
            cfg = f"cfg/bank-{seed}-{name}.json"
            config.save_config(spec, bayesnet.TimeGrid((t,)), cfg)
            c.cli(f"bank/{seed}/{name}", ["verify", "--config", cfg, "--out", "report.json"],
                  ["report.json"])
            c.add(f"cli/bank/{seed}/{name}:config", Path(cfg).read_text())

    for d in range(2, 9):
        for seed in VERIFY_SEEDS:
            for variant in VERIFY_VARIANTS:
                argv = ["verify", "--dims", f"{d}x{d}", "--seed", str(seed), *variant]
                c.cli(" ".join(argv), argv)

    sweeps = [["heat", "--dims", dims, "--seed", "0", "--sweep", "0:1:5", *product]
               for dims in ("8x8", "6x6") for product in ((), ("--product",))]
    sweeps += [["heat", "--dims", f"{d}x{d}", "--seed", str(seed), "--sweep", "0:3:101",
                *product]
               for d in (2, 3, 4) for seed in (0, 1) for product in ((), ("--product",))]
    for argv in sweeps:
        c.cli(" ".join(argv), argv + ["--out", "out.csv"], ["out.csv"])
    for args in ((), ("--product",), ("--tau", "0.7"), ("--sweep", "0:40:1001"),
                 ("--sweep", "0:2:101"), ("--sweep", "0:2:101", "--product")):
        argv = ["example", *args]
        c.cli(" ".join(argv), argv + ["--out", "out.csv", "--report", "report.json"],
              ["out.csv", "report.json"])

    configs = []
    for beta_a in COLD_BETAS:
        spec = dataclasses.replace(
            qubit.build_example_spec(qubit.ExampleParams(correlated=False)), beta_a=beta_a)
        configs += [(f"cold-{beta_a!r}", spec, times) for times in TIME_LISTS]
    for seed, da, db, correlated in MULTI_TIME_SPECS:
        spec = randspec.random_spec(seed, da, db, correlated=correlated)
        configs += [(f"rand-{da}x{db}-{seed}-{'corr' if correlated else 'prod'}", spec,
                     MULTI_TIMES)]
    for name, spec, times in configs:
        cfg = f"cfg/{name}-{len(times)}.json"
        config.save_config(spec, bayesnet.TimeGrid(times), cfg)
        label = f"{name} times={','.join(map(repr, times))}"
        c.add(f"cli/{label}:config", Path(cfg).read_text())
        c.cli(f"verify {label}", ["verify", "--config", cfg, "--out", "report.json"],
              ["report.json"])
        c.cli(f"heat {label}", ["heat", "--config", cfg, "--out", "out.csv"], ["out.csv"])
        for t in times:
            c.cli(f"verify {label} --time {t!r}",
                  ["verify", "--config", cfg, "--time", repr(t)])

    cfg = "cfg/rand-3x3-0-negative-zeros.json"
    config.save_config(negative_zeros(randspec.random_spec(0, 3, 3)), bayesnet.TimeGrid((1.0,)),
                       cfg)
    c.add(f"cli/{cfg}:config", Path(cfg).read_text())
    for verb in ("verify", "heat"):
        c.cli(f"{verb} {cfg}", [verb, "--config", cfg])
    input_error_calls(c)


def negative_zeros(spec: system.BipartiteSpec) -> system.BipartiteSpec:
    """``spec`` with every zero of its matrices, real or imaginary part,
    written as -0.0."""
    def flip(m):
        parts = np.stack([m.real, m.imag], axis=-1)
        return np.where(parts == 0, -0.0, parts).view(complex)[..., 0]
    return dataclasses.replace(spec, **{name: flip(getattr(spec, name))
                                        for name in ("h_a", "h_b", "chi", "h_int")})


def input_error_calls(c: Contract) -> None:
    """Unusable input: each call exits 2 with one ``error:`` line, but
    ``validate`` of an ``h_int`` within a loosened ``--tol hermiticity``
    and past ``linalg.HERMITICITY_TOL``, which exits 0."""
    example = config.config_dict(qubit.build_example_spec(), bayesnet.TimeGrid((1.0,)))
    cases = [(name, {**example, key: value}) for name, key, value in BAD_CONFIGS]
    h_a = [list(row) for row in example["h_a"]]
    h_a[0][1] = [1.0, float("-inf")]
    cases.append(("h_a-infinite", {**example, "h_a": h_a}))
    for name, data in cases:
        cfg = f"cfg/bad-{name}.json"
        Path(cfg).write_text(json.dumps(data))
        for verb in ("validate", "verify"):
            c.cli(f"{verb} {cfg}", [verb, "--config", cfg])
    calls = [["verify", "--dims", "2x2", "--seed", "-1"],
             ["heat", "--dims", "2x2", "--seed", "-1"],
             ["heat", "--dims", "2x2", "--sweep", "1:1:3"],
             ["example", "--sweep", "0.5:0.5:2"],
             ["example", "--sweep", "0:1:2", "--report="]]
    calls += [[*source, "--tol", "binning=-1"]
              for source in (["validate", "--config", "cfg/bank-0-example-corr.json"],
                             ["verify", "--dims", "2x2"], ["heat", "--dims", "2x2"],
                             ["example", "--sweep", "0:1:2"])]
    h_int = [list(row) for row in example["h_int"]]
    h_int[1][2] = [h_int[1][2][0] + 1e-8, h_int[1][2][1]]
    cfg = "cfg/bad-h_int-hermiticity.json"
    Path(cfg).write_text(json.dumps({**example, "h_int": h_int}))
    calls += [[verb, "--config", cfg, "--tol", "hermiticity=1e-6"]
              for verb in ("validate", "verify", "heat")]
    for argv in calls:
        c.cli(" ".join(argv), argv)


def library_calls(c: Contract) -> None:
    instances = [(f"bank/{name}", spec, t) for name, spec, t in acceptance_bank()]
    for seed in WIDE_SEEDS:
        for k, levels in enumerate(WIDE_LEVELS):
            rng = np.random.default_rng([seed, 3, k])
            spec = shellblock.shell_block_spec(rng, levels)
            instances.append((f"wide/{seed}/{levels}x{levels}", spec,
                              float(rng.uniform(0.3, 1.5))))
    instances.append(("coherent/5x5", coherent_ladder(), 0.83))

    for name, spec, t in instances:
        basis = bayesnet.build_bases(spec, bayesnet.TimeGrid((t,)))
        led = thermo.compute_ledgers(basis)
        led.heat_bins     # binned on first use: hashed whether or not a relation read it
        for attr, value in sorted(vars(led).items()):
            c.add_tree(f"lib/{name}/ledgers.{attr}", value)
        for direction in ("forward", "reverse"):
            c.add_tree(f"lib/{name}/heat_{direction}",
                       thermo.heat_distribution(led, direction))
        c.add_tree(f"lib/{name}/psi", thermo.psi_factor(led))
        c.add_tree(f"lib/{name}/joint", thermo.joint_distribution(led))
        for quantity in thermo.FORWARD_QUANTITIES + thermo.REVERSE_QUANTITIES:
            c.add(f"lib/{name}/mean[{quantity}]", thermo.mean_quantity(led, quantity))
        for check in thermo.relation_checks(led):
            c.add_tree(f"lib/{name}/check[{check.name}]", check)
        for table in ("path_probability_table", "choi_path_probability", "tpm_table"):
            c.add(f"lib/{name}/{table}", getattr(bayesnet, table)(basis))


def run() -> dict:
    c = Contract()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        # relative paths keep every output independent of the directory
        home = os.getcwd()
        os.chdir(work)
        try:
            cli_calls(c)
        finally:
            os.chdir(home)
    library_calls(c)
    print(f"contract: {len(c.hashes)} hashes in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "hashes": c.hashes}


def compare(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    for key in ("python", "numpy"):
        if a[key] != b[key]:
            print(f"note: {key} {a[key]} in {a_path}, {b[key]} in {b_path}")
    ha, hb = a["hashes"], b["hashes"]
    changed = sorted(n for n in ha.keys() & hb.keys() if ha[n] != hb[n])
    only_a, only_b = sorted(ha.keys() - hb.keys()), sorted(hb.keys() - ha.keys())
    for label, names in (("changed", changed), (f"only in {a_path}", only_a),
                         (f"only in {b_path}", only_b)):
        for n in names:
            print(f"{label}: {n}")
    print(f"{len(ha.keys() & hb.keys())} names in both, {len(changed)} changed, "
          f"{len(only_a)} only in {a_path}, {len(only_b)} only in {b_path}")
    return 1 if changed or only_a or only_b else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="list the names whose hashes differ between two runs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    json.dump(run(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
