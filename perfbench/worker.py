"""One benchmark process: set up a workload, then stop, time it or trace it.

``run.py`` starts this file in a fresh interpreter, with BLAS pinned to
one thread, and reads the JSON object on the last line of its output.

Both modes first set up: import, instances, config files and one
warm-up call.  Then:
  run    whole passes over the call list for about ``--seconds``,
         checking every output
  trace  check the call counts of one example sweep, then alternate
         untraced and traced passes (set-up runs with spans on)

Setup time runs from ``--t-spawn``, the parent's monotonic clock just
before it started this process, to the end of the warm-up call.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qheatnet  # noqa: E402
from qheatnet import (bayesnet, cli, config, qubit, randspec,  # noqa: E402
                      thermo)

import shellblock  # noqa: E402
import tracing  # noqa: E402

WORKLOAD_TAGS = {"sweep": 1, "bank": 2, "wide": 3}
SWEEP_DIMS = ((2, 2), (3, 3), (4, 4))
BANK_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4))
#: 12 random classes x 9 + the example on both branches = 110 instances
BANK_PER_CLASS = 9
WIDE_LEVELS = (6, 7, 8)
#: P_f must sum to one at each sweep time within this
HEAT_NORM_TOL = 1e-9
#: exact call counts of one ``example --sweep 0:2:101``
SELF_CHECK_ARGV = ("example", "--sweep", "0:2:101")
SELF_CHECK_COUNTS = {
    "system.validate": 101,
    "system.gibbs_state": 606,
    "linalg.hermitian_eigendecompose": 1212,
    "linalg.unitary_from_hamiltonian": 101,
}


@dataclass
class Call:
    """One public invocation.  ``check`` gets what ``run`` returned and
    gives the number of failed ops and the first reason, or (0, None)."""

    label: str
    ops: int
    run: Callable[[], object]
    check: Callable[[object], tuple[int, str | None]]


# ---------------------------------------------------------------- checks

def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_heat(code, out: Path, points: int):
    if code != 0:
        return points, f"exit code {code}"
    totals: dict[str, float] = defaultdict(float)
    for row in _read_rows(out):
        totals[row["t"]] += float(row["P_f"])
    bad = [t for t, s in totals.items() if not abs(s - 1.0) <= HEAT_NORM_TOL]
    missing = points - len(totals)
    if bad or missing:
        return len(bad) + missing, (f"P_f sums off by more than {HEAT_NORM_TOL} at "
                                    f"{len(bad)} times, {missing} times missing")
    return 0, None


def _check_example(code, out: Path, points: int):
    if code != 0:
        return points, f"exit code {code}"
    worst: dict[str, float] = defaultdict(float)
    for row in _read_rows(out):
        dev = max(abs(float(row["P_f"]) - float(row["P_f_analytic"])),
                  abs(float(row["P_r"]) - float(row["P_r_analytic"])))
        worst[row["t"]] = max(worst[row["t"]], dev)
    bad = sum(1 for d in worst.values() if not d <= cli.ORACLE_TOL)
    missing = points - len(worst)
    if bad or missing:
        return bad + missing, (f"{bad} times off the closed form by more than "
                               f"{cli.ORACLE_TOL}, {missing} times missing")
    return 0, None


def _check_verify(code, out: Path):
    if code != 0:
        failed = [r["name"] for r in json.loads(out.read_text())["records"]
                  if not r["passed"]] if out.exists() else []
        return 1, f"exit code {code}, failed {failed}"
    return 0, None


def _check_suite(result):
    residuals, n_checked = result
    bad = {k: v for k, v in residuals.items() if not v <= cli.FT_TOL}
    if bad:
        return 1, "residuals above cli.FT_TOL: " + ", ".join(
            f"{k}={v:.3e}" for k, v in bad.items())
    if n_checked == 0:
        return 1, "joint detailed FT checked no bin"
    return 0, None


# ------------------------------------------------------------- workloads

def _rng(seed: int, workload: str, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_TAGS[workload], k])


def _example_call(work: Path, correlated: bool) -> Call:
    out = work / f"example-{'corr' if correlated else 'prod'}.csv"
    argv = list(SELF_CHECK_ARGV) + ["--out", str(out)]
    if not correlated:
        argv.append("--product")
    return Call(f"example --sweep 0:2:101{'' if correlated else ' --product'}",
                101, lambda: cli.main(argv),
                lambda code: _check_example(code, out, 101))


def _write_config(work: Path, name: str, spec, t: float) -> Path:
    path = work / f"{name}.json"
    config.save_config(spec, bayesnet.TimeGrid((t,)), path)
    return path


def sweep_calls(seed: int, work: Path) -> list[Call]:
    calls = [_example_call(work, True), _example_call(work, False)]
    k = 0
    for da, db in SWEEP_DIMS:
        for correlated in (True, False):
            spec = randspec.random_spec(_rng(seed, "sweep", k), da, db,
                                        correlated=correlated)
            name = f"heat-{da}x{db}-{'corr' if correlated else 'prod'}"
            cfg = _write_config(work, name, spec, 1.0)
            out = work / f"{name}.csv"
            argv = ["heat", "--config", str(cfg), "--sweep", "0:3:101",
                    "--out", str(out)]
            calls.append(Call(f"heat {da}x{db} {'corr' if correlated else 'prod'}",
                              101, lambda argv=argv: cli.main(argv),
                              lambda code, out=out: _check_heat(code, out, 101)))
            k += 1
    return calls


def bank_calls(seed: int, work: Path) -> list[Call]:
    jobs = []
    for correlated in (True, False):
        rng = _rng(seed, "bank", len(jobs))
        spec = qubit.build_example_spec(qubit.ExampleParams(correlated=correlated))
        jobs.append((f"example-{'corr' if correlated else 'prod'}", spec,
                     float(rng.uniform(0.2, 2.0))))
    for rep in range(BANK_PER_CLASS):
        for da, db in BANK_DIMS:
            for correlated in (True, False):
                rng = _rng(seed, "bank", len(jobs))
                spec = randspec.random_spec(rng, da, db, correlated=correlated)
                jobs.append((f"rand-{da}x{db}-{'corr' if correlated else 'prod'}-{rep}",
                             spec, float(rng.uniform(0.2, 2.0))))
    calls = []
    for name, spec, t in jobs:
        cfg = _write_config(work, name, spec, t)
        out = work / f"{name}.report.json"
        argv = ["verify", "--config", str(cfg), "--out", str(out)]
        calls.append(Call(f"verify {name}", 1, lambda argv=argv: cli.main(argv),
                          lambda code, out=out: _check_verify(code, out)))
    return calls


def relation_suite(spec, t: float):
    """Every relation of the library tour on one instance: residuals
    against their exact values, and the number of joint bins checked."""
    basis = bayesnet.build_bases(spec, bayesnet.TimeGrid((t,)))
    ledgers = thermo.compute_ledgers(basis)
    res = {}
    for name in thermo.FORWARD_QUANTITIES:
        res[f"integral_ft[{name}]"] = abs(thermo.integral_ft(ledgers, name, "forward") - 1.0)
    for name in thermo.REVERSE_QUANTITIES:
        res[f"integral_ft[{name}]"] = abs(thermo.integral_ft(ledgers, name, "reverse") - 1.0)
    combined = thermo.combined_integral_ft(ledgers)
    res["combined_ft"] = abs(combined.value - 1.0)
    if combined.all_energy_conserving:
        res["combined_ft_delta_beta"] = abs(combined.value_delta_beta - 1.0)
    res["detailed_ft_pointwise"] = ledgers.detailed_residual
    joint = thermo.joint_distribution(ledgers)
    res["joint_detailed_ft"] = joint.max_residual
    res["modified_heat_ft"] = thermo.psi_factor(ledgers).max_residual
    res["mean_heat_balance"] = thermo.mean_heat_balance(ledgers).residual
    res["mutual_information"] = thermo.mutual_information_check(ledgers).max_residual
    return res, joint.n_checked


def wide_calls(seed: int, work: Path) -> list[Call]:
    calls = []
    for k, levels in enumerate(WIDE_LEVELS):
        rng = _rng(seed, "wide", k)
        spec = shellblock.shell_block_spec(rng, levels)
        t = float(rng.uniform(0.3, 1.5))
        calls.append(Call(f"suite {levels}x{levels}", 1,
                          lambda spec=spec, t=t: relation_suite(spec, t),
                          _check_suite))
    return calls


CALL_LISTS = {"sweep": sweep_calls, "bank": bank_calls, "wide": wide_calls}


# ------------------------------------------------------------------ loop

class Tally:
    """Ops attempted and failed, and the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, call: Call) -> tuple[float, int]:
        """Time one call and check it; returns (seconds, ops passed)."""
        t0 = time.perf_counter()
        try:
            result = call.run()
        except Exception:
            dt = time.perf_counter() - t0
            n_bad, reason = call.ops, "raised " + traceback.format_exc(limit=3)
        else:
            dt = time.perf_counter() - t0
            n_bad, reason = call.check(result)
        self.attempted += call.ops
        self.failed += n_bad
        if reason and len(self.reasons) < 5:
            self.reasons.append(f"{call.label}: {reason}")
        return dt, call.ops - n_bad


def run_pass(calls: list[Call], tally: Tally, tracer=None, base_op: int = 0):
    """One pass; returns per-call milliseconds, total seconds, ops passed.
    With a tracer, call ``i`` tags its spans with op id ``base_op + i``."""
    ms, total, done = [], 0.0, 0
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.op = base_op + i
        dt, ok = tally.run(call)
        ms.append(dt * 1e3)
        total += dt
        done += ok
    return ms, total, done


def _time_left(start: float, seconds: float, last: float) -> bool:
    """Whether another round of ``last`` seconds would end nearer to the
    ``seconds`` budget than stopping now does."""
    return time.monotonic() - start + last / 2 < seconds


def timed_run(calls, seconds: float, tally: Tally) -> dict:
    samples, rates = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        ms, total, done = run_pass(calls, tally)
        samples.extend(ms)
        rates.append(done / total)
        if not _time_left(start, seconds, time.monotonic() - t0):
            break
    return {"call_ms": samples, "pass_ops_per_s": rates}


def traced_run(calls, seconds: float, tally: Tally, tracer, work: Path,
               labels: dict) -> dict:
    """Self-check, then untraced and traced passes in alternating order.
    Op ids: 0 is the setup, then the self-check, then one per traced call."""
    sc_op = len(labels)
    labels[sc_op] = "self-check: " + " ".join(SELF_CHECK_ARGV)
    with tracer.recording(sc_op):
        code = cli.main(list(SELF_CHECK_ARGV) + ["--out", str(work / "self-check.csv")])
    counted = tracer.tables()[sc_op]
    got = {name: counted[name][0] for name in SELF_CHECK_COUNTS}
    self_check = {"expected": SELF_CHECK_COUNTS, "counted": got, "exit_code": code,
                  "passed": got == SELF_CHECK_COUNTS and code == 0}

    pass_of: dict[int, int] = {}
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        first_pair = len(walls["traced"]) % 2 == 0
        for kind in ("untraced", "traced") if first_pair else ("traced", "untraced"):
            if kind == "untraced":
                walls[kind].append(run_pass(calls, tally)[1])
                continue
            n, base = len(walls["traced"]), len(labels)
            for i, call in enumerate(calls):
                labels[base + i] = f"traced pass {n}: {call.label}"
                pass_of[base + i] = n
            with tracer.recording(base):
                walls[kind].append(run_pass(calls, tally, tracer, base)[1])
        if not _time_left(start, seconds, time.monotonic() - t0):
            break

    by_group = tracer.tables(lambda op: pass_of.get(op, f"op{op}"))
    per_pass = [by_group[n] for n in range(len(walls["traced"]))]
    overhead = statistics.median(
        t / u for t, u in zip(walls["traced"], walls["untraced"])) - 1.0
    return {"self_check": self_check,
            "layers": layer_metrics(by_group["op0"], per_pass, overhead),
            "walls_s": walls}


def layer_metrics(setup: dict, per_pass: list[dict], overhead: float) -> dict:
    """Per-layer values for one setup plus one pass over the call list.

    Call counts and sizes repeat exactly from pass to pass and are taken
    from the first traced pass; self times are the median over traced
    passes.  Both add the setup phase (instance generation and config
    files), where ``random_spec`` and ``save_config`` run."""
    empty = (0, 0, None)

    def sizes(name: str, width: int) -> tuple:
        parts = [t.get(name, empty)[2] for t in (setup, per_pass[0])]
        parts = [x for x in parts if x is not None]
        return tuple(map(sum, zip(*parts))) if parts else (0,) * width

    out = {}
    for name in tracing.TRACED:
        out[f"{name}.calls"] = (
            setup.get(name, empty)[0] + per_pass[0].get(name, empty)[0], "count")
        self_ns = statistics.median(p.get(name, empty)[1] for p in per_pass)
        out[f"{name}.self_ms"] = ((setup.get(name, empty)[1] + self_ns) / 1e6, "ms")

    pairs, pair_base = sizes("thermo.compute_ledgers", 2)
    bins, checked, unverified = sizes("thermo.joint_distribution", 3)
    out["thermo.compute_ledgers.pairs"] = (pairs, "count.computed")
    out["thermo.compute_ledgers.pair_yield"] = (
        pairs / pair_base if pair_base else 0.0, "ratio")
    out["thermo.joint_distribution.bins"] = (bins, "count.computed")
    out["thermo.joint_distribution.checked_frac"] = (
        checked / (checked + unverified) if checked + unverified else 0.0, "ratio")
    out["thermo.psi_factor.skipped"] = (sizes("thermo.psi_factor", 1)[0], "count")
    out["distributions.prob_at.points_scanned"] = (
        sizes("distributions.prob_at", 1)[0], "count.computed")
    out["bayesnet.choi_path_probability.bytes_computed"] = (
        sizes("bayesnet.choi_path_probability", 1)[0], "B.computed")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# ------------------------------------------------------------ provenance

def provenance(args) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = "none: the checkout is not a git repository"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qheatnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "qheatnet": qheatnet.__version__,
        "workload": args.workload,
        "seed": args.seed,
    }


# ------------------------------------------------------------------ main

def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(CALL_LISTS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("run", "trace"), required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--spans", type=Path)
    args = p.parse_args()
    if args.mode == "trace" and args.spans is None:
        p.error("--mode trace needs --spans")

    src = (ROOT / "src").resolve()
    if src not in Path(qheatnet.__file__).resolve().parents:
        print(f"error: qheatnet imported from {qheatnet.__file__}, not {src}",
              file=sys.stderr)
        return 2

    args.work.mkdir(parents=True, exist_ok=True)
    try:
        tracer = tracing.Tracer() if args.mode == "trace" else None
        labels = {0: "setup: instance generation and config files"}
        with tracer.recording(0) if tracer else contextlib.nullcontext():
            calls = CALL_LISTS[args.workload](args.seed, args.work)
        warm = Tally()
        warm.run(calls[0])
        setup_s = time.monotonic() - args.t_spawn
        result = {"setup_s": setup_s, "n_calls": len(calls)}
        tally = Tally()
        if args.mode == "run":
            result.update(timed_run(calls, args.seconds, tally))
        else:
            result.update(traced_run(calls, args.seconds, tally, tracer,
                                     args.work, labels))
            tracer.write_spans(args.spans, labels)
        result.update({
            "attempted": tally.attempted, "failed": tally.failed,
            "fail_reasons": tally.reasons + [f"warm-up: {r}" for r in warm.reasons],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "provenance": provenance(args),
        })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(args.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
