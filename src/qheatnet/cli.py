"""Command-line front end.

Verbs: ``validate`` a config, ``verify`` the fluctuation relations on one
instance, ``heat`` for distribution sweeps over time as CSV, ``example``
to compare the two-qubit pipeline against its closed forms.  Exit code 0
means all checks passed, 1 means a physics check failed, 2 means the
input was unusable (a bad flag, config value or output path): each such
input raises a ValueError or an OSError where it is read, and ``main``
prints it as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bayesnet, config, qubit, randspec, system, thermo
from .thermo import FT_TOL  # perfbench reads the tolerances as cli.FT_TOL, cli.ORACLE_TOL

__all__ = ["main"]

#: tolerance for the analytic-oracle comparison in ``example``
ORACLE_TOL = 1e-10


class CliError(ValueError):
    """Unusable command-line input (exit code 2)."""


def _csv_rows(*columns: np.ndarray) -> list[str]:
    """The rows of equal-length ``columns`` as one CSV text formatted in one
    ``%`` call, each value with 17 significant digits; none for no rows."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(columns))
    return ["\n".join([row] * len(table)) % tuple(table.ravel().tolist())] if len(table) else []


def _parse_tol(pairs, base: system.Tolerances) -> system.Tolerances:
    kwargs = {}
    known = {f.name for f in dataclasses.fields(system.Tolerances)}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep or name not in known:
            raise CliError(f"bad --tol entry {item!r} (expect NAME=VALUE, "
                           f"names: {', '.join(sorted(known))})")
        try:
            kwargs[name] = float(value)
        except ValueError:
            raise CliError(f"bad --tol value in {item!r}")
    return base.updated(**kwargs) if kwargs else base


def _check_time(t: float, flag: str) -> float:
    if not (np.isfinite(t) and t >= 0):
        raise CliError(f"bad {flag} time {t!r} (times must be finite and >= 0)")
    return t


def _parse_sweep(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"bad --sweep {text!r} (expect START:STOP:STEPS)")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise CliError(f"bad --sweep {text!r}")
    _check_time(start, "--sweep")
    _check_time(stop, "--sweep")
    if steps < 1 or stop < start:
        raise CliError(f"bad --sweep {text!r}")
    return np.linspace(start, stop, steps)


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        da, db = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise CliError(f"bad --dims {text!r} (expect AxB, e.g. 2x3)")
    return da, db


def _load_spec(args) -> tuple[system.BipartiteSpec, tuple[float, ...]]:
    if args.cfg:
        # a config is the whole spec; these describe a random one instead
        for flag, given in (("--dims", args.dims), ("--seed", args.seed is not None),
                            ("--product", args.product)):
            if given:
                raise CliError(f"give either --config or {flag}, not both")
        loaded = config.load_config(args.cfg)
        spec, times = loaded.spec, loaded.grid.times
    elif args.dims:
        da, db = _parse_dims(args.dims)
        if args.seed is not None and args.seed < 0:
            raise CliError(f"bad --seed {args.seed} (expect an integer >= 0)")
        spec = randspec.random_spec(
            args.seed or 0, da, db, correlated=not args.product)
        times = (1.0,)
    else:
        raise CliError("give either --config or --dims with --seed")
    tol = _parse_tol(args.tol, spec.tol)
    if tol != spec.tol:
        spec = dataclasses.replace(spec, tol=tol)
    return spec, times


def _write_out(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


#: json's spelling of the floats whose repr it does not use
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_RECORD_KEYS = ("name", "value", "expected", "tolerance", "passed")


def _json_float(x) -> str:
    text = repr(float(x))
    return _JSON_SPECIAL.get(text, text)


def _report_text(command: str, checks, times=None) -> str:
    """The JSON report of a verb: a record per check and whether all
    passed.  With ``times``, one per check, each record names its time
    first.  The text is that of ``json.dumps(report, indent=2) + "\\n"``,
    its records formatted in one ``%`` call."""
    records = [(encode_basestring_ascii(c.name), _json_float(c.value),
                _json_float(c.expected), _json_float(c.tolerance),
                "true" if c.passed else "false") for c in checks]
    keys = _RECORD_KEYS
    if times is not None:
        records = [(_json_float(t), *r) for t, r in zip(times, records)]
        keys = ("time",) + keys
    record = "    {\n" + ",\n".join(f'      "{k}": %s' for k in keys) + "\n    }"
    rows = ",\n".join([record] * len(records)) % tuple(v for r in records for v in r)
    body = f"[\n{rows}\n  ]" if records else "[]"
    passed = "true" if all(r[-1] == "true" for r in records) else "false"
    return (f'{{\n  "command": {encode_basestring_ascii(command)},\n  "passed": {passed},\n'
            f'  "records": {body}\n}}\n')


def _emit_report(args, command: str, checks, times=None) -> int:
    _write_out(args, _report_text(command, checks, times))
    return 0 if all(c.passed for c in checks) else 1


def cmd_validate(args) -> int:
    if not args.cfg:
        raise CliError("give --config")
    loaded = config.load_config(args.cfg)
    spec = dataclasses.replace(
        loaded.spec, tol=_parse_tol(args.tol, loaded.spec.tol))
    return _emit_report(args, "validate", system.validate(spec).checks)


def cmd_verify(args) -> int:
    """Every relation at every time of a config's ``times``, or at the one
    time of ``--time`` or ``--dims``, each time read off a block of
    ``sweep_blocks``.  The report of several times names the time of
    each record; that of one time names none."""
    spec, times = _load_spec(args)
    if args.time is not None:
        times = (_check_time(args.time, "--time"),)
    checks, at = [], []
    for block in bayesnet.sweep_blocks(spec, times):
        for k, t in enumerate(block.times):
            # one ledger set per time, dropped before the next
            found = thermo.relation_checks(thermo.compute_ledgers(block.at(k)))
            checks += found
            at += [t] * len(found)
    return _emit_report(args, "verify", checks, at if len(times) > 1 else None)


_HEAT_HEADER = "t,Q,P_f,P_r,ratio,exp_QdBeta,Psi"


def _heat_rows(ledgers: thermo.LedgerSet) -> list[str]:
    """The CSV rows of every time of the ledgers of a block, each time's
    bins in descending heat order."""
    psi = thermo.psi_factor(ledgers)
    p_f, bins = psi.forward, ledgers.heat_bins
    # psi has a row for each forward bin above the floor, in bin order
    psi_by_bin = np.full(p_f.n_points, np.nan)
    psi_by_bin[p_f.probs > ledgers.floor] = psi.psi
    order = bins.descending()
    q, pf, pr = p_f.scalar_points()[order], p_f.probs[order], psi.p_r[order]
    # exp(Q * delta_beta) of a cold subsystem may read inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(pr > ledgers.floor, pf / pr, np.nan)
        exp_q = np.exp(q * ledgers.delta_beta)
    return _csv_rows(np.repeat(ledgers.basis.times, np.diff(bins.starts)), q, pf, pr, ratio,
                     exp_q, psi_by_bin[order])


def cmd_heat(args) -> int:
    if args.sweep and args.time is not None:
        raise CliError("give either --sweep or --time, not both")
    spec, times = _load_spec(args)
    if args.sweep:
        sweep = _parse_sweep(args.sweep)
    elif args.time is not None:
        sweep = np.array([_check_time(args.time, "--time")])
    else:
        sweep = np.asarray(times)
    lines = [_HEAT_HEADER]
    for block in bayesnet.sweep_blocks(spec, sweep):
        # the ledgers of one block are dropped before the next is built
        lines.extend(_heat_rows(thermo.compute_ledgers(block)))
    _write_out(args, "\n".join(lines) + "\n")
    return 0


def _check_tau(tau: float) -> float:
    # the coupling is pi / (2 tau) and the default sweep ends at 2 tau
    with np.errstate(over="ignore", divide="ignore"):
        twice = 2.0 * np.float64(tau)
        coupling = np.pi / twice
    if not (tau > 0 and np.isfinite(twice) and np.isfinite(coupling)):
        raise CliError(f"bad --tau {tau!r} (the swap time must be positive, with "
                       f"2 tau and the coupling pi / (2 tau) finite)")
    return tau


def cmd_example(args) -> int:
    tau = _check_tau(args.tau)
    params = qubit.ExampleParams(
        occupation_a=args.occupation_a,
        occupation_b=args.occupation_b,
        tau=tau,
        correlated=not args.product,
    )
    spec = qubit.build_example_spec(params, tol=_parse_tol(args.tol, system.Tolerances()))
    if args.sweep:
        sweep = _parse_sweep(args.sweep)
    else:
        sweep = np.linspace(0.0, 2.0 * tau, 101)

    lines = ["t,Q,P_f,P_f_analytic,P_r,P_r_analytic"]
    deviations = []
    for block in bayesnet.sweep_blocks(spec, sweep):
        ledgers = thermo.compute_ledgers(block)
        # (time, Q) tables of P_f, P_f_analytic, P_r, P_r_analytic at
        # Q = +1, 0, -1, each read in one pass over the block
        tables = []
        for direction in ("forward", "reverse"):
            numeric = thermo.heat_distribution(ledgers, direction)
            tables.append(numeric.masses_at(qubit.HEAT_VALUES, ledgers.heat_bins.starts))
            tables.append(qubit.analytic_heat_masses(params, block.times, direction))
        p_f, a_f, p_r, a_r = tables
        # np.maximum and np.max, unlike max, keep a NaN deviation
        deviations.append(np.maximum(np.abs(p_f - a_f), np.abs(p_r - a_r)).max())
        lines.extend(_csv_rows(np.repeat(block.times, len(qubit.HEAT_VALUES)),
                               np.tile(qubit.HEAT_VALUES, len(block.times)),
                               *(table.ravel() for table in tables)))
    _write_out(args, "\n".join(lines) + "\n")
    check = system.CheckResult("analytic_oracle_deviation", float(np.max(deviations)),
                               ORACLE_TOL)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(_report_text("example", [check]))
    return 0 if check.passed else 1


def _add_common(p: argparse.ArgumentParser, spec_source: bool = True) -> None:
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override one validation tolerance (repeatable)")
    p.add_argument("--out", help="write output to this file instead of stdout")
    if spec_source:
        p.add_argument("--config", dest="cfg", help="JSON problem configuration")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="qheatnet",
        description="Heat-exchange statistics of correlated bipartite "
                    "thermal systems via conditional trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run structural checks on a config")
    _add_common(p)

    p = sub.add_parser("verify", help="check the fluctuation relations")
    _add_common(p)
    p.add_argument("--dims", help="random instance dimensions, e.g. 2x3")
    p.add_argument("--seed", type=int, help="random instance seed (default 0)")
    p.add_argument("--product", action="store_true",
                   help="random instance without initial correlations")
    p.add_argument("--time", type=float,
                   help="evolution time (default: each time of the config, 1 for --dims)")

    p = sub.add_parser("heat", help="heat distributions over time as CSV")
    _add_common(p)
    p.add_argument("--dims", help="random instance dimensions, e.g. 2x3")
    p.add_argument("--seed", type=int, help="random instance seed (default 0)")
    p.add_argument("--product", action="store_true",
                   help="random instance without initial correlations")
    p.add_argument("--time", type=float, help="single evolution time")
    p.add_argument("--sweep", metavar="START:STOP:STEPS", help="time sweep")

    p = sub.add_parser("example",
                       help="two-qubit example against its closed forms")
    _add_common(p, spec_source=False)
    p.add_argument("--occupation-a", type=float, default=0.2)
    p.add_argument("--occupation-b", type=float, default=0.3)
    p.add_argument("--tau", type=float, default=1.0, help="full swap time")
    p.add_argument("--product", action="store_true",
                   help="drop the initial correlation term")
    p.add_argument("--sweep", metavar="START:STOP:STEPS",
                   help="time sweep (default 0:2*tau:101)")
    p.add_argument("--report", help="also write a JSON pass/fail report here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "validate": cmd_validate,
        "verify": cmd_verify,
        "heat": cmd_heat,
        "example": cmd_example,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
