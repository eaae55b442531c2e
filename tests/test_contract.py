"""``tools/contract.py``: its ``bank`` call list is the benchmark's, and
``--compare`` names every difference between two runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qheatnet import bayesnet, config

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def contract():
    return _load(ROOT / "tools" / "contract.py", "contract")


@pytest.mark.parametrize("seed", [0, 1])
def test_bank_configs_are_the_benchmark_configs(contract, seed, tmp_path):
    worker = _load(ROOT / "perfbench" / "worker.py", "perfbench_worker")
    bench, mine = tmp_path / "bench", tmp_path / "contract"
    bench.mkdir()
    mine.mkdir()
    calls = worker.bank_calls(seed, bench)
    jobs = contract.bank_jobs(seed)
    assert [c.label for c in calls] == [f"verify {name}" for name, _, _ in jobs]
    for name, spec, t in jobs:
        config.save_config(spec, bayesnet.TimeGrid((t,)), mine / f"{name}.json")
        assert (mine / f"{name}.json").read_text() == (bench / f"{name}.json").read_text()


def test_compare_names_every_difference(contract, tmp_path, capsys):
    def write(name, hashes):
        path = tmp_path / name
        path.write_text(json.dumps({"python": "3", "numpy": "2", "hashes": hashes}))
        return str(path)
    a = write("a.json", {"same": "1", "changed": "2", "gone": "3"})
    b = write("b.json", {"same": "1", "changed": "9", "new": "4"})
    assert contract.main(["--compare", a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["changed: changed", f"only in {a}: gone", f"only in {b}: new"]
    assert contract.main(["--compare", a, a]) == 0
    assert capsys.readouterr().out.startswith("3 names in both, 0 changed")
