"""JSON problem configurations.

A config holds the two local Hamiltonians, the temperatures (directly or
as two-level excited-state occupations), the correlation and interaction
matrices, the measurement times and optional tolerance overrides.
Complex matrices are nested row-major lists of ``[re, im]`` pairs.
Saving and re-loading reproduces every float bit for bit, the sign of a
zero included; a matrix entry that is not finite is a ConfigError.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import qubit, system
from .bayesnet import TimeGrid

__all__ = [
    "ConfigError",
    "LoadedConfig",
    "encode_matrix",
    "decode_matrix",
    "load_config",
    "config_dict",
    "save_config",
    "json_float",
]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


def _pairs(m: np.ndarray) -> np.ndarray:
    """The (rows, cols, 2) float array of the [re, im] pairs of ``m``."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2)


def encode_matrix(m: np.ndarray) -> list:
    return _pairs(m).tolist()


#: what ``float`` reads (``float(True)``, ``float("1.5")``) but is no number here
_NOT_NUMBERS = (bool, np.bool_, str, bytes)


def decode_matrix(obj, name: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} is not a numeric matrix")
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(
            f"{name} must be a square matrix of [re, im] pairs, got shape {arr.shape}")
    kinds = {type(x) for row in obj for pair in row for x in pair}
    if any(issubclass(kind, _NOT_NUMBERS) for kind in kinds):
        raise ConfigError(f"{name} is not a numeric matrix")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name} has an entry that is not finite")
    # the layout of _pairs: each [re, im] pair is one complex number
    return np.ascontiguousarray(arr).view(complex)[..., 0]


@dataclass(frozen=True)
class LoadedConfig:
    spec: system.BipartiteSpec
    grid: TimeGrid


def _number(value, name: str) -> float:
    """``value`` as a float; a JSON boolean or string is no number here."""
    if isinstance(value, _NOT_NUMBERS):
        raise ConfigError(f"{name} must be a number, not {value!r}")
    return float(value)


def _beta_from(data: dict, side: str, h: np.ndarray) -> float:
    beta_key, occ_key = f"beta_{side}", f"occupation_{side}"
    if beta_key in data and occ_key in data:
        raise ConfigError(f"give either {beta_key} or {occ_key}, not both")
    if beta_key in data:
        return _number(data[beta_key], beta_key)
    if occ_key in data:
        if h.shape[0] != 2:
            raise ConfigError(f"{occ_key} shorthand needs a two-level system")
        evals = np.linalg.eigvalsh(h)
        gap = float(evals[1] - evals[0])
        if gap <= 0:
            raise ConfigError(f"{occ_key} shorthand needs a nonzero level splitting")
        return qubit.occupation_to_beta(_number(data[occ_key], occ_key), gap=gap)
    raise ConfigError(f"missing {beta_key} (or {occ_key})")


def load_config(source) -> LoadedConfig:
    """Build a spec and time grid from a JSON file path or a dict.  Any
    unusable value raises ConfigError."""
    data = source
    if isinstance(source, (str, Path)):
        if source == "":     # Path("") would read the working directory "."
            raise ConfigError("config path is empty")
        try:
            data = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, not {type(data).__name__}")
    try:
        return _build(data)
    except ConfigError:
        raise
    except TypeError as exc:     # a value of the wrong type, e.g. "beta_a": null
        raise ConfigError(f"malformed config value: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build(data: dict) -> LoadedConfig:
    for key in ("h_a", "h_b", "chi", "h_int", "times"):
        if key not in data:
            raise ConfigError(f"missing config key {key!r}")

    h_a = decode_matrix(data["h_a"], "h_a")
    h_b = decode_matrix(data["h_b"], "h_b")
    chi = decode_matrix(data["chi"], "chi")
    h_int = decode_matrix(data["h_int"], "h_int")

    if "dims" in data:
        dims = tuple(data["dims"])
        if dims != (h_a.shape[0], h_b.shape[0]):
            raise ConfigError(
                f"dims {dims} disagree with matrix shapes "
                f"({h_a.shape[0]}, {h_b.shape[0]})")

    tol_kwargs = dict(data.get("tolerances", {}))
    # older configs carry a "unitarity" tolerance that nothing ever read
    tol_kwargs.pop("unitarity", None)
    known = {f.name for f in dataclasses.fields(system.Tolerances)}
    unknown = set(tol_kwargs) - known
    if unknown:
        raise ConfigError(f"unknown tolerance names: {sorted(unknown)}")
    tol = system.Tolerances(**{k: _number(v, k) for k, v in tol_kwargs.items()})

    spec = system.BipartiteSpec(
        h_a=h_a, h_b=h_b,
        beta_a=_beta_from(data, "a", h_a),
        beta_b=_beta_from(data, "b", h_b),
        chi=chi, h_int=h_int, tol=tol)

    times = data["times"]
    if not isinstance(times, (list, tuple)) or not times:
        raise ConfigError("times must be a non-empty list")
    return LoadedConfig(spec=spec, grid=TimeGrid(tuple(_number(t, "times entry")
                                                         for t in times)))


def _config(spec: system.BipartiteSpec, grid: TimeGrid, matrix) -> dict:
    """The config of ``spec`` and ``grid``, each matrix as ``matrix`` of it."""
    return {
        "dims": [spec.dim_a, spec.dim_b],
        "beta_a": spec.beta_a,
        "beta_b": spec.beta_b,
        "h_a": matrix(spec.h_a),
        "h_b": matrix(spec.h_b),
        "chi": matrix(spec.chi),
        "h_int": matrix(spec.h_int),
        "times": [float(t) for t in grid.times],
        "tolerances": dataclasses.asdict(spec.tol),
    }


def config_dict(spec: system.BipartiteSpec, grid: TimeGrid) -> dict:
    return _config(spec, grid, encode_matrix)


#: json's spelling of the floats whose repr it does not use
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_float(x) -> str:
    """``x`` as json writes a float: its ``float.__repr__``, or NaN,
    Infinity or -Infinity."""
    text = repr(float(x))
    return _JSON_SPECIAL.get(text, text)


def _json_list(items: list[str], depth: int) -> str:
    """json's ``indent=2`` text of a list of the texts ``items`` nested
    ``depth`` levels deep."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def save_config(spec: system.BipartiteSpec, grid: TimeGrid, path) -> None:
    """Write the text of ``json.dumps(config_dict(spec, grid), indent=2)``
    and a newline.  json's ``indent`` encoder runs in Python, so it lays
    out only the scalars, a ``%s`` in place of each matrix, and the
    matrices' [re, im] pairs are formatted in one ``%`` call."""
    pairs = []

    def placeholder(m: np.ndarray) -> str:
        pairs.append(_pairs(m))
        return "%s"

    layout = json.dumps(_config(spec, grid, placeholder), indent=2).replace('"%s"', "%s")
    pair = _json_list(["%s", "%s"], 3)
    template = layout % tuple(_json_list([_json_list([pair] * p.shape[1], 2)] * p.shape[0], 1)
                              for p in pairs)
    values = np.concatenate([p.ravel() for p in pairs])
    values = (values.tolist() if np.isfinite(values).all()
              else [json_float(v) for v in values.tolist()])
    Path(path).write_text(template % tuple(values) + "\n")
