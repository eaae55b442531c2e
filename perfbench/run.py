"""qheatnet benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload sweep|bank|wide --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; qheatnet is imported from
``src/``.  Measurements run in fresh worker processes (worker.py) with
BLAS pinned to one thread.  With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` the per-layer metrics from a
traced run.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Records and spans are written to ``.perfbench_out/``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep", "bank", "wide")
#: the timed passes are split over this many fresh processes, so that
#: set-up is measured several times and every metric samples the
#: machine's state across the whole run rather than one stretch of it
SEGMENTS = 4
#: every worker must have ended by then, so the run ends within 180 s
BUDGET_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """A worker failed or ran out of time; no result is printed."""


def run_worker(args, mode: str, tag: str, seconds: float, deadline: float,
               spans: Path | None = None) -> dict:
    work = OUT / f"work-{args.workload}-{os.getpid()}-{tag}"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", repr(seconds), "--work", str(work)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **BLAS_ENV}
    t_spawn = time.monotonic()
    cmd += ["--t-spawn", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within the time budget")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(samples: list[float]) -> tuple[float | None, int]:
    """p90 and the number of samples beyond it; None below 10 beyond."""
    if len(samples) < 2:
        return None, 0
    p90 = statistics.quantiles(samples, n=10)[-1]
    beyond = sum(1 for s in samples if s > p90)
    return (p90 if beyond >= 10 else None), beyond


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    segs = [run_worker(args, "run", f"seg{i}", args.seconds / SEGMENTS, deadline)
            for i in range(SEGMENTS)]
    setups = [r["setup_s"] for r in segs]
    rates = [x for r in segs for x in r["pass_ops_per_s"]]
    ms = [x for r in segs for x in r["call_ms"]]
    rss = max(r["peak_rss_mb"] for r in segs)
    rec = {"attempted": sum(r["attempted"] for r in segs),
           "failed": sum(r["failed"] for r in segs),
           "fail_reasons": [x for r in segs for x in r["fail_reasons"]][:5],
           "provenance": segs[0]["provenance"], "n_calls": segs[0]["n_calls"],
           "setup_samples_s": setups, "pass_ops_per_s": rates, "call_ms": ms,
           "peak_rss_samples_mb": [r["peak_rss_mb"] for r in segs]}
    p90, beyond = tail_percentile(ms)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "call_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    fail_frac = rec["failed"] / rec["attempted"]
    lines = [
        f"setup_s      {metrics['setup_s']['value']:.4f} s    median of {len(setups)} "
        f"fresh-process setups {[round(s, 4) for s in setups]}",
        f"ops_per_s    {metrics['ops_per_s']['value']:.4f} 1/s  median over "
        f"{len(rates)} passes of {rec['n_calls']} calls in {SEGMENTS} processes",
        f"call_ms_p50  {metrics['call_ms_p50']['value']:.4f} ms   n={len(ms)} calls",
        (f"call_ms_p90  {p90:.4f} ms   n={len(ms)} calls, {beyond} beyond p90"
         if p90 is not None else
         f"call_ms_p90  omitted: {beyond} of {len(ms)} calls lie beyond p90, "
         f"fewer than 10"),
        f"fail_frac    {fail_frac:.6g}  {rec['failed']} of {rec['attempted']} ops failed",
        f"peak_rss_mb  {rss:.4f} MB   largest ru_maxrss of the {SEGMENTS} processes",
    ]
    rec["call_ms_p90"] = p90
    return metrics, rec, lines


def per_layer(args, deadline: float) -> tuple[dict, dict, list[str]]:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    rec = run_worker(args, "trace", "trace", args.seconds, deadline, spans=spans)
    sc = rec["self_check"]
    lines = [f"self-check   {'passed' if sc['passed'] else 'counts differ'}: "
             f"{' '.join(f'{k}={v}' for k, v in sc['counted'].items())}"
             f" (expected {' '.join(str(v) for v in sc['expected'].values())})",
             f"spans        {spans.relative_to(ROOT)}"]
    lines += [f"{name:55s} {m['value']:.6g} {m['unit']}"
              for name, m in rec["layers"].items()]
    return rec["layers"], rec, lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + BUDGET_S
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "qheatnet" / "__init__.py").is_file():
        print(f"error: no qheatnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    try:
        metrics, rec, lines = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = rec["failed"] == 0
    print(f"qheatnet benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance   " + json.dumps(rec["provenance"]))
    for line in lines:
        print(line)
    for reason in rec["fail_reasons"]:
        print(f"failure      {reason}")
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**rec, "metrics": metrics, "correct": correct},
                                 indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
