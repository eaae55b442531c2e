import csv
import dataclasses
import gc
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qheatnet import (bayesnet, cli, config, distributions, linalg, qubit, randspec, system,
                      thermo)
from qheatnet.distributions import DiscreteDistribution
from conftest import ledgers_at, reference_binned, reference_report_text


@pytest.fixture()
def example_config(tmp_path, correlated_spec):
    path = tmp_path / "example.json"
    config.save_config(correlated_spec, bayesnet.TimeGrid((1.0,)), path)
    return str(path)


#: values of the wrong type or shape, each set on a valid config; a key
#: of None replaces the whole config
MALFORMED = {
    "beta_a-null": ("beta_a", None),
    "beta_a-list": ("beta_a", [1]),
    "times-nested": ("times", [[1]]),
    "times-null": ("times", [None]),
    "dims-int": ("dims", 3),
    "tolerances-list": ("tolerances", [1, 2]),
    "top-level-number": (None, 5),
    "top-level-null": (None, None),
}

#: numbers that are no temperature or time: NaN and infinity are not
#: finite, and a JSON boolean or string is no number although float(true)
#: is 1.0 and float("1.5") is 1.5
BAD_NUMBERS = {
    "beta_a-nan": ("beta_a", float("nan")),
    "beta_a-inf": ("beta_a", float("inf")),
    "beta_a-true": ("beta_a", True),
    "times-true": ("times", [True]),
    "beta_a-string": ("beta_a", "1.5"),
}


def _malformed(spec, case: str):
    key, value = {**MALFORMED, **BAD_NUMBERS}[case]
    if key is None:
        return value
    d = config.config_dict(spec, bayesnet.TimeGrid((1.0,)))
    d[key] = value
    return d


class TestMatrixCodec:
    def test_round_trip(self):
        m = np.array([[1.0, 2 - 3j], [2 + 3j, -0.5]])
        assert np.array_equal(config.decode_matrix(config.encode_matrix(m), "m"), m)

    @pytest.mark.parametrize("bad", [
        "x", [[1, 2]], [[[1, 2], [3, 4]]], [[[1], [2]]],
        # float() reads these, but a string or boolean entry is no number
        [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, " 2 "]]],
        [[[True, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, False]]],
        [[[1.0, np.bool_(True)]]],
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(config.ConfigError):
            config.decode_matrix(bad, "m")


class TestConfigIO:
    def test_round_trip_bit_identical(self, tmp_path, correlated_spec, example_config):
        loaded = config.load_config(example_config)
        assert np.array_equal(loaded.spec.chi, correlated_spec.chi)
        assert loaded.spec.beta_a == correlated_spec.beta_a
        second = tmp_path / "second.json"
        config.save_config(loaded.spec, loaded.grid, second)
        assert second.read_text() == Path(example_config).read_text()

    def test_occupation_shorthand(self, correlated_spec):
        d = config.config_dict(correlated_spec, bayesnet.TimeGrid((1.0,)))
        del d["beta_a"]
        d["occupation_a"] = 0.2
        assert config.load_config(d).spec.beta_a == pytest.approx(np.log(4.0))

    def test_occupation_needs_two_levels(self, correlated_spec):
        d = config.config_dict(correlated_spec, bayesnet.TimeGrid((1.0,)))
        d["h_a"] = config.encode_matrix(np.diag([0.0, 1.0, 2.0]))
        del d["beta_a"]
        d["occupation_a"] = 0.2
        del d["dims"]
        with pytest.raises(config.ConfigError):
            config.load_config(d)

    def test_both_temperature_keys_rejected(self, correlated_spec):
        d = config.config_dict(correlated_spec, bayesnet.TimeGrid((1.0,)))
        d["occupation_a"] = 0.2
        with pytest.raises(config.ConfigError):
            config.load_config(d)

    @pytest.mark.parametrize("key", ["h_a", "chi", "h_int", "times"])
    def test_missing_key(self, correlated_spec, key):
        d = config.config_dict(correlated_spec, bayesnet.TimeGrid((1.0,)))
        del d[key]
        with pytest.raises(config.ConfigError, match=key):
            config.load_config(d)

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_value_is_config_error(self, correlated_spec, case):
        with pytest.raises(config.ConfigError, match="malformed config value|JSON object"):
            config.load_config(_malformed(correlated_spec, case))

    @pytest.mark.parametrize("key,value", [
        ("beta_a", True), ("beta_b", False), ("occupation_a", True), ("occupation_b", True),
        ("times", [0.5, True]), ("tolerances", {"binning": True}),
        # nor is a JSON string, though float() reads it
        ("beta_a", "1.5"), ("beta_b", " 2 "), ("beta_a", "nan"), ("occupation_a", "0.2"),
        ("times", ["0.5"]), ("tolerances", {"binning": "1e-3"}),
    ])
    def test_boolean_is_not_a_number(self, product_spec, key, value):
        d = config.config_dict(product_spec, bayesnet.TimeGrid((1.0,)))
        if key.startswith("occupation"):
            del d["beta" + key[len("occupation"):]]
        d[key] = value
        with pytest.raises(config.ConfigError, match="must be a number, not"):
            config.load_config(d)

    def test_unknown_tolerance(self, correlated_spec):
        d = config.config_dict(correlated_spec, bayesnet.TimeGrid((1.0,)))
        d["tolerances"]["fuzziness"] = 1.0
        with pytest.raises(config.ConfigError):
            config.load_config(d)

    def test_dims_consistency(self, correlated_spec):
        d = config.config_dict(correlated_spec, bayesnet.TimeGrid((1.0,)))
        d["dims"] = [3, 2]
        with pytest.raises(config.ConfigError):
            config.load_config(d)

    def test_legacy_unitarity_tolerance_dropped(self, correlated_spec):
        d = config.config_dict(correlated_spec, bayesnet.TimeGrid((1.0,)))
        assert "unitarity" not in d["tolerances"]
        d["tolerances"]["unitarity"] = 1e-10   # as saved by earlier versions
        loaded = config.load_config(d)
        assert loaded.spec.tol == correlated_spec.tol
        assert config.config_dict(loaded.spec, loaded.grid) == config.config_dict(
            correlated_spec, bayesnet.TimeGrid((1.0,)))

    def test_tolerance_override(self, correlated_spec):
        d = config.config_dict(correlated_spec, bayesnet.TimeGrid((1.0,)))
        d["tolerances"]["binning"] = 1e-7
        assert config.load_config(d).spec.tol.binning == 1e-7


class TestDistribution:
    def test_binning_merges_close_points(self):
        d = DiscreteDistribution.from_samples(
            np.array([1.0, 1.0 + 1e-12, 2.0]), np.array([0.3, 0.3, 0.4]))
        assert d.n_points == 2
        assert d.prob_at(1.0) == pytest.approx(0.6)

    def test_prob_at_reads_the_bin_of_the_key(self):
        # within one binning of each other, but keyed 1 and 2: two bins
        d = DiscreteDistribution.from_samples([1.4e-9, 1.6e-9], [0.3, 0.7])
        assert d.n_points == 2
        assert d.prob_at(1.6e-9) == 0.7
        assert d.prob_at(1.4e-9) == 0.3

    def test_prob_at_miss(self):
        d = DiscreteDistribution.from_samples(np.array([1.0]), np.array([1.0]))
        assert d.prob_at(2.0) == 0.0

    def test_multidimensional(self):
        pts = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, -1.0]])
        d = DiscreteDistribution.from_samples(pts, np.array([0.2, 0.2, 0.6]))
        assert d.n_points == 2
        assert d.prob_at((0.0, 1.0)) == pytest.approx(0.4)

    @pytest.mark.parametrize("spec", ["correlated", "product", "random 3x3"])
    def test_masses_at_equals_prob_at_on_every_group(self, spec, correlated_spec,
                                                     product_spec):
        spec = {"correlated": correlated_spec, "product": product_spec,
                "random 3x3": randspec.random_spec(4, 3, 3)}[spec]
        block = next(bayesnet.sweep_blocks(spec, np.linspace(0.0, 2.0, 9)))
        ledgers = thermo.compute_ledgers(block)
        starts = ledgers.heat_bins.starts
        assert len(starts) == 10
        for direction in ("forward", "reverse"):
            dist = thermo.heat_distribution(ledgers, direction)
            # every bin of the block, the example's heat values and keys
            # no bin has (0.5 lies between the example's bins)
            points = np.concatenate((dist.scalar_points(), qubit.HEAT_VALUES, [0.5, 7.0]))
            masses = dist.masses_at(points, starts)
            groups = [DiscreteDistribution(dist.points[lo:hi], dist.probs[lo:hi], dist.binning)
                      for lo, hi in zip(starts[:-1], starts[1:])]
            expect = [[group.prob_at(x) for x in points] for group in groups]
            assert masses.shape == (9, len(points))
            assert masses.tobytes() == np.array(expect).tobytes()
            assert np.all(masses[:, -1] == 0.0)

    def test_masses_at_two_coordinates(self):
        pts = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, -1.0]])
        d = DiscreteDistribution.from_samples(pts, np.array([0.2, 0.2, 0.6]))
        queries = [(0.0, 1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 1.0 + 1e-12)]
        masses = d.masses_at(queries)
        assert masses.tolist() == [[d.prob_at(x) for x in queries]]
        assert masses[0, 2] == 0.0 and masses[0, 0] == masses[0, 3]
        with pytest.raises(ValueError, match="dimension"):
            d.masses_at([0.0, 1.0])

    def test_masses_at_reads_the_bin_of_the_key(self):
        # the rounding-boundary case of test_prob_at_reads_the_bin_of_the_key
        d = DiscreteDistribution.from_samples([1.4e-9, 1.6e-9], [0.3, 0.7])
        points = [1.6e-9, 1.4e-9, 2.6e-9]
        assert d.masses_at(points).tolist() == [[0.7, 0.3, 0.0]]
        assert d.masses_at(points).tolist() == [[d.prob_at(x) for x in points]]
        assert d.masses_at(points, default=-1.0).tolist() == [[0.7, 0.3, -1.0]]

    def test_masses_at_empty_group_reads_default(self):
        values = np.array([0.0, 1.0, 1.0, -1.0])
        bins = DiscreteDistribution._binned(values, 1e-9, np.array([0, 0, 2, 2]))
        d = DiscreteDistribution._collect(bins, [0.1, 0.9, 0.25, 0.75])
        assert bins.starts.tolist() == [0, 2, 2, 4]
        assert d.masses_at([1.0, 0.0, -1.0], bins.starts).tolist() == [
            [0.9, 0.1, 0.0], [0.0, 0.0, 0.0], [0.25, 0.0, 0.75]]


    @pytest.mark.parametrize("values", [[1e10, 2e10, -3e10], [0.0, np.nan, 1.0],
                                        [np.inf, 0.0, 1.0]])
    def test_unbinnable_values_rejected(self, values):
        with pytest.raises(ValueError, match="2\\*\\*62"):
            DiscreteDistribution.from_samples(np.array(values), np.array([0.2, 0.3, 0.5]))


class TestBinningRule:
    """``DiscreteDistribution._binned``, one composite key and one sort,
    against the lexsort over the keys (``conftest.reference_binned``)."""

    @staticmethod
    def assert_matches_reference(values, binning, group=None):
        bins = DiscreteDistribution._binned(values, binning, group)
        for name, want in zip(("bin_id", "first", "starts"),
                              reference_binned(values, binning, group)):
            got = getattr(bins, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        return bins

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.integers(1, 3), grouped=st.booleans(),
           binning=st.sampled_from([0.25, 1e-9, 1e-16]))
    def test_drawn_samples(self, data, k, grouped, binning):
        # few keys, so bins share leading coordinates, with negatives, both
        # zeros and offsets on and next to the rounding boundary (k + 1/2)
        size = data.draw(st.integers(1, 40))
        entry = st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.builds(lambda key, offset: (key + offset) * binning, st.integers(-3, 3),
                      st.sampled_from([0.0, 0.2, -0.3, 0.5, -0.5, 0.4999999, -0.5000001])))
        values = np.array(data.draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                                             min_size=size, max_size=size)))
        group = (np.array(data.draw(st.lists(st.integers(0, 3), min_size=size,
                                             max_size=size)))
                 if grouped else None)
        self.assert_matches_reference(values, binning, group)

    @pytest.mark.parametrize("values", [np.empty(0), np.empty((0, 3)), [0.7], [[-0.0, 1.5]]])
    def test_no_sample_and_one_sample(self, values):
        bins = self.assert_matches_reference(values, 1e-9)
        assert len(bins.first) == len(values)
        if len(values):
            self.assert_matches_reference(values, 1e-9, np.array([2]))

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("scales", [(100.0, 100.0, 100.0), (29.0, 115.0)])
    def test_key_spans_past_two_to_the_62_run_the_rank_step(self, scales, grouped,
                                                             monkeypatch):
        # columns of |x| about 100 at binning 1e-16 span about 2**61 keys
        # each: the composite so far is replaced by its dense rank.  After a
        # first column of about 2**59 keys the wider second is ranked, and
        # then the composite too
        ranked = []
        rank = distributions._rank

        def counted(key):
            ranked.append(key.size)
            return rank(key)
        monkeypatch.setattr(distributions, "_rank", counted)
        rng = np.random.default_rng(5)
        pool = rng.uniform(-1.0, 1.0, (12, len(scales))) * scales
        values = pool[rng.integers(0, 12, 300)]
        values[::7, 1] = pool[0, 1] + 1e-14         # ties in some columns only
        group = rng.integers(0, 3, 300) if grouped else None
        bins = self.assert_matches_reference(values, 1e-16, group)
        assert len(ranked) > 2                      # rank steps and the final sort
        assert 1 < len(bins.first) < 300

    def test_keys_far_from_zero(self):
        # keys near 2**40 and -2**41 whose widths multiply to about 2**41:
        # the composite fits in int64 only because each key is shifted to
        # start at 0; unshifted, 2**40 times the second width passes 2**63
        first, second = 2.0 ** 40 + np.array([0.0, 2.0 ** 18]), -(2.0 ** 41) + np.array(
            [0.0, 2.0 ** 23])
        values = np.array([[first[i], second[j]]
                           for i, j in [(1, 0), (0, 1), (1, 1), (0, 0), (1, 0)]])
        bins = self.assert_matches_reference(values, 1.0)
        assert bins.bin_id.tolist() == [2, 1, 3, 0, 2]

    @pytest.mark.parametrize("values", [[2.0 ** 62], [-(2.0 ** 62)], [[0.0, -np.inf]],
                                        [[np.nan, 0.0]]])
    def test_key_limit_and_non_finite_rejected(self, values):
        with pytest.raises(ValueError, match="2\\*\\*62"):
            DiscreteDistribution._binned(values, 1.0)
        below = np.nextafter(2.0 ** 62, 0.0)
        self.assert_matches_reference([below, -below, 0.0], 1.0)


def _csv_layout(text: str, header: str, sweep: str) -> np.ndarray:
    """The rows of a ``heat`` or ``example`` CSV ``text`` as floats, once
    its layout holds: the ``header``, every field its own ``'%.17g'``
    text, the times of ``sweep`` (START:STOP:STEPS) in order, each in one
    run of rows, and within each time Q (column 1) strictly descending."""
    head, *lines = text.splitlines()
    assert head == header
    fields = [line.split(",") for line in lines]
    assert all(len(row) == header.count(",") + 1 for row in fields)
    assert all(f == "%.17g" % float(f) for row in fields for f in row)
    rows = np.array(fields, dtype=float)
    start, stop, steps = sweep.split(":")
    t, q = rows[:, 0], rows[:, 1]
    swept = np.linspace(float(start), float(stop), int(steps)).tolist()
    assert list(dict.fromkeys(t)) == swept
    assert np.all(np.diff(t) >= 0)
    assert np.all(np.diff(q)[np.diff(t) == 0] < 0)
    return rows


def _fresh_cli(argv, *flags) -> subprocess.CompletedProcess:
    """``python FLAGS -m qheatnet.cli ARGV`` in a fresh interpreter that
    imports the qheatnet these tests import."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, *flags, "-m", "qheatnet.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestCli:
    def test_validate_ok(self, example_config, capsys):
        assert cli.main(["validate", "--config", example_config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert any(r["name"] == "chi_marginal_a" for r in report["records"])

    def test_validate_catches_bad_state(self, tmp_path, correlated_spec, capsys):
        d = config.config_dict(correlated_spec, bayesnet.TimeGrid((1.0,)))
        chi = config.decode_matrix(d["chi"], "chi") * 3.0
        d["chi"] = config.encode_matrix(chi)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert cli.main(["validate", "--config", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [r["name"] for r in report["records"] if not r["passed"]]
        assert "rho0_positive" in failed

    def test_verify_from_config(self, example_config, capsys):
        assert cli.main(["verify", "--config", example_config]) == 0
        report = json.loads(capsys.readouterr().out)
        names = {r["name"] for r in report["records"]}
        assert {"combined_ft", "detailed_ft_pointwise", "choi_consistency"} <= names
        assert sum(n.startswith("integral_ft[") for n in names) == 9

    #: the verify records in order, with their expected values
    VERIFY_RECORDS = (
        *((f"integral_ft[{name}]", 1.0)
          for name in thermo.FORWARD_QUANTITIES + thermo.REVERSE_QUANTITIES),
        ("combined_ft", 1.0), ("combined_ft_delta_beta", 1.0),
        ("detailed_ft_pointwise", 0.0), ("joint_detailed_ft", 0.0),
        ("modified_heat_ft", 0.0), ("mean_heat_balance", 0.0),
        ("choi_consistency", 0.0), ("mutual_information", 0.0),
    )

    def test_verify_reports_the_relation_checks(self, example_config, capsys):
        sources = [(["--config", example_config], config.load_config(example_config).spec, 1.0),
                   (["--dims", "3x3", "--seed", "31", "--time", "0.37"],
                    randspec.random_spec(31, 3, 3), 0.37)]
        for argv, spec, t in sources:
            assert cli.main(["verify", *argv]) == 0
            records = json.loads(capsys.readouterr().out)["records"]
            assert [(r["name"], r["expected"]) for r in records] == list(self.VERIFY_RECORDS)
            assert [r["tolerance"] for r in records] == [
                1e-12 if r["name"] == "choi_consistency" else 1e-9 for r in records]
            checks = thermo.relation_checks(ledgers_at(spec, t))
            assert records == [{"name": c.name, "value": c.value, "expected": c.expected,
                                "tolerance": c.tolerance, "passed": c.passed} for c in checks]

        # chi with coherences across the energy shells: the spec is valid,
        # but live forward cells move energy out of the pair, so the
        # heat-bias form of the combined FT is not reported
        rng = np.random.default_rng(5)
        spec = randspec.random_spec(rng, 2, 2)
        chi = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        chi = randspec._remove_marginals((chi + chi.conj().T) / 2.0, 2, 2)
        product = np.kron(system.gibbs_state(spec.h_a, spec.beta_a).rho,
                          system.gibbs_state(spec.h_b, spec.beta_b).rho)
        chi *= 0.8 * np.linalg.eigvalsh(product).min() / np.abs(np.linalg.eigvalsh(chi)).max()
        spec = dataclasses.replace(spec, chi=chi)
        assert system.validate(spec).passed
        led = ledgers_at(spec, 0.7)
        assert not led.all_energy_conserving
        names = [c.name for c in thermo.relation_checks(led)]
        assert names == [n for n, _ in self.VERIFY_RECORDS if n != "combined_ft_delta_beta"]

    def test_verify_random_instance(self, capsys):
        assert cli.main(["verify", "--dims", "2x3", "--seed", "11", "--time", "0.8"]) == 0
        capsys.readouterr()

    def test_verify_instance_with_bins_across_rounding_boundary(self, capsys):
        assert cli.main(["verify", "--dims", "3x3", "--seed", "31", "--time", "0.37"]) == 0
        report = json.loads(capsys.readouterr().out)
        joint = next(r for r in report["records"] if r["name"] == "joint_detailed_ft")
        assert joint["value"] < 1e-15

    def test_heat_key_overflow_is_input_error(self, capsys):
        argv = ["heat", "--dims", "2x2", "--seed", "0", "--time", "0.5",
                "--tol", "binning=1e-300"]
        assert cli.main(argv) == 2
        assert "2**62" in capsys.readouterr().err

    def test_verify_needs_source(self, capsys):
        assert cli.main(["verify"]) == 2
        assert "error" in capsys.readouterr().err

    def test_validate_needs_config(self, capsys):
        assert cli.main(["validate"]) == 2
        assert capsys.readouterr().err == "error: give --config\n"

    @pytest.mark.parametrize("case", [*MALFORMED, *BAD_NUMBERS])
    def test_malformed_config_is_input_error(self, tmp_path, correlated_spec, case, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(_malformed(correlated_spec, case)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["verify", "--config", str(path)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if case in BAD_NUMBERS:   # named as the bad number, not as a later failure
            assert BAD_NUMBERS[case][0].split("_")[0] in captured.err

    @pytest.mark.parametrize("argv", [
        ["verify", "--dims", "2x2", "--out", "{missing}/x.json"],
        ["heat", "--dims", "2x2", "--out", "{missing}/h.csv"],
        ["example", "--sweep", "0:2:3", "--out", "{dir}/ex.csv", "--report", "{missing}/r.json"],
        ["verify", "--dims", "2x2", "--out", "{dir}"],
        ["verify", "--dims", "2x2", "--out="],
        ["example", "--sweep", "0:1:2", "--out", "{dir}/ex.csv", "--report="],
    ], ids=["verify-out", "heat-out", "example-report", "out-is-directory", "empty-out",
            "empty-report"])
    def test_unwritable_output_is_input_error(self, argv, tmp_path, capsys):
        argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["verify", "heat"])
    def test_negative_seed_named(self, verb, capsys):
        # numpy's own error named no flag
        assert cli.main([verb, "--dims", "2x2", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad --seed -1 (expect an integer >= 0)\n"

    def test_bad_tol_flag(self, example_config, capsys):
        assert cli.main(["verify", "--config", example_config, "--tol", "nope=1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("verb", ["verify", "heat"])
    @pytest.mark.parametrize("tol,name", [
        ("probability_floor=0.9", "probability_floor"),   # no label above it
        ("probability_floor=1", "probability_floor"),
        ("probability_floor=nan", "probability_floor"),
        ("binning=inf", "binning"),
        ("binning=-1e-9", "binning"),
        ("binning=0", "binning"),
        ("marginal=-1", "marginal"),
    ])
    def test_bad_tolerance_is_input_error(self, verb, tol, name, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([verb, "--dims", "2x2", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and name in captured.err

    @pytest.mark.parametrize("tol", [{"binning": float("inf")}, {"probability_floor": 1.5},
                                     {"hermiticity": -1e-12}, {"binning": "x"}])
    def test_bad_config_tolerance_is_config_error(self, tmp_path, correlated_spec, tol):
        d = config.config_dict(correlated_spec, bayesnet.TimeGrid((1.0,)))
        d["tolerances"].update(tol)
        with pytest.raises(config.ConfigError):
            config.load_config(d)

    def test_removed_unitarity_tol_flag_rejected(self, example_config, capsys):
        argv = ["verify", "--config", example_config, "--tol", "unitarity=1"]
        assert cli.main(argv) == 2
        assert "bad --tol entry 'unitarity=1'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["verify", "heat"])
    def test_config_with_infinite_time_rejected(self, tmp_path, correlated_spec,
                                                verb, capsys):
        d = config.config_dict(correlated_spec, bayesnet.TimeGrid((1.0,)))
        d["times"] = [float("inf")]
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(d))   # written as the JSON token Infinity
        assert "Infinity" in path.read_text()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([verb, "--config", str(path)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid time inf is not finite" in captured.err

    def test_heat_csv(self, example_config, tmp_path):
        out = tmp_path / "heat.csv"
        assert cli.main(["heat", "--config", example_config,
                         "--sweep", "0.5:1.5:3", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,Q,P_f,P_r,ratio,exp_QdBeta,Psi"
        assert len(lines) == 1 + 3 * 3
        # full precision round trip
        val = lines[1].split(",")[2]
        assert float(f"{float(val):.17g}") == float(val)

    @pytest.mark.parametrize("argv", [
        ["--dims", "3x3", "--seed", "0", "--sweep", "0:3:21"],
        ["--dims", "4x4", "--seed", "1", "--product", "--sweep", "0:3:21"],
        ["--dims", "2x3", "--seed", "2", "--sweep", "0:3:21"],
        # joint dimensions 64 and 36 on both branches: each time is a block
        # of its own, its weights formed in chunks of labels, the last one
        # short at 6x6
        *(["--dims", dims, "--seed", "0", *product, "--sweep", "0:1:5"]
          for dims in ("8x8", "6x6") for product in ([], ["--product"])),
        # the rows of a block are formatted together: three blocks of times
        ["--dims", "3x3", "--seed", "0", "--sweep", "0:3:101"],
    ])
    def test_heat_rows_descend_in_q(self, argv, capsys):
        # each time's rows run in strictly descending heat, every time once;
        # at each time P_f sums to 1, and psi is finite on every row with
        # P_f > 1e-14
        assert cli.main(["heat", *argv]) == 0
        rows = _csv_layout(capsys.readouterr().out, cli._HEAT_HEADER, argv[-1])
        t, p_f, psi = rows[:, 0], rows[:, 2], rows[:, 6]
        for time in np.unique(t):
            assert np.count_nonzero(t == time) > 1, time
            assert abs(p_f[t == time].sum() - 1.0) <= 1e-9, time
        assert np.all(np.isfinite(psi[p_f > 1e-14]))

    @pytest.mark.parametrize("source", ["config", "dims", "2x2", "2x2-product",
                                        "4x4", "4x4-product"])
    def test_heat_sweep_equals_single_times(self, example_config, source, monkeypatch,
                                            capsys):
        # one spectral set-up and block-by-block evaluation for the sweep
        # must give the rows of a fresh set-up per time, byte for byte,
        # whether the sweep fits one block or spans several
        if source in ("config", "dims"):
            argv = {"config": ["--config", example_config],
                    "dims": ["--dims", "3x3", "--seed", "2"]}[source]
            lengths = [11]
        else:
            dims, _, product = source.partition("-")
            argv = ["--dims", dims, "--seed", "3"] + (["--product"] if product else [])
            d = int(dims[0])
            spec = randspec.random_spec(3, d, d, correlated=not product)
            kept = np.count_nonzero(bayesnet.build_bases(spec, bayesnet.TimeGrid((1.0,)))
                                    .populations > spec.tol.probability_floor)
            per_time = kept * spec.dim ** 2
            per_block = max(1, bayesnet.BLOCK_ELEMENTS // per_time)
            if per_block > 8:         # keep the one-time reference runs few
                per_block = 4
                monkeypatch.setattr(bayesnet, "BLOCK_ELEMENTS", per_block * per_time)
            lengths = [max(1, per_block - 1), per_block + 1, 3 * per_block + 2]
            spans = [sum(1 for _ in bayesnet.sweep_blocks(spec, np.linspace(0.1, 3.0, n)))
                     for n in lengths]
            assert spans == [1, 2, 4]
        for n in lengths:
            assert cli.main(["heat", *argv, "--sweep", f"0:3:{n}"]) == 0
            swept = capsys.readouterr().out
            expect = [cli._HEAT_HEADER]
            for t in np.linspace(0.0, 3.0, n):
                assert cli.main(["heat", *argv, "--time", repr(float(t))]) == 0
                header, *rows = capsys.readouterr().out.splitlines()
                assert header == cli._HEAT_HEADER
                expect.extend(rows)
            assert swept == "\n".join(expect) + "\n"

    @staticmethod
    def traced_peak(call) -> int:
        """tracemalloc's peak of a second ``call``, after a first one has
        filled the caches."""
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sweep_memory_bounded_by_block_budget(self, tmp_path):
        # a block's stacked tables are float arrays of at most
        # BLOCK_ELEMENTS entries, and one weight chunk of one side exists
        # at a time: measured at 0.75 MiB (numpy 2.4, Linux x86-64), 0.98
        # MiB while both sides' chunks were formed together.  Holding all
        # 101 times of a 4x4 sweep at once (about 4e5 entries per table)
        # does not fit this bound
        argv = ["heat", "--dims", "4x4", "--seed", "0", "--sweep", "0:3:101",
                "--out", str(tmp_path / "heat.csv")]

        def run():
            assert cli.main(argv) == 0
        assert self.traced_peak(run) < 3.5 * 8 * bayesnet.BLOCK_ELEMENTS

    #: tracemalloc peaks at D = 64 (randspec 8x8, seed 0), in MiB, measured
    #: with numpy 2.4 on Linux x86-64; the bounds allow 10 % over them.
    #: While the ledgers kept (K, m, m) live masks and folded by copying
    #: they were 1.90, 2.04, 2.42 and 2.56 MiB; while the joint FT and the
    #: gamma mean formed the weight chunks again, and the ledgers held a
    #: reverse chunk while forming the next, 1.21, 1.57, 1.96 and 1.87 MiB,
    #: the joint FT 1.14 MiB; while the ledgers formed the forward and
    #: reverse chunks of each label chunk together, 0.85, 1.43 and 1.45 MiB
    #: for compute_ledgers, verify and heat; while the joint FT sorted its
    #: keys by a lexsort, 0.36 MiB for the joint FT, and while it built
    #: (label, cell) log tables over all retained labels, 0.31 MiB: all
    #: above these bounds
    SOFT_CAP_PEAK_MIB = {"compute_ledgers": 0.65, "gamma_mean": 0.20,
                         "joint_distribution": 0.102, "verify": 1.30, "heat": 1.25}

    @classmethod
    def soft_cap_bound(cls, name) -> float:
        return 1.1 * cls.SOFT_CAP_PEAK_MIB[name] * 2 ** 20

    def test_soft_cap_ledgers_memory_bounded_by_block_budget(self):
        # at D = 64 the forward and reverse weight tables of one time are
        # 8 budgets of float64 each (2 MiB); formed once, one side and one
        # chunk of labels at a time, and kept as per-cell sums and lists of
        # the live entries, the ledgers stay below about 3 budgets, and the
        # joint FT and the gamma mean, which read the lists, below 2
        led = ledgers_at(randspec.random_spec(0, 8, 8), 1.0)
        assert led.n_anchor * led.pp0.size ** 2 >= 8 * bayesnet.BLOCK_ELEMENTS
        for name, call in (("compute_ledgers", lambda: thermo.compute_ledgers(led.basis)),
                           ("gamma_mean", lambda: thermo.mean_quantity(led, "gamma")),
                           ("joint_distribution", lambda: thermo.joint_distribution(led))):
            assert self.traced_peak(call) < self.soft_cap_bound(name), name

    @pytest.mark.parametrize("argv", [["verify", "--dims", "8x8", "--seed", "0"],
                                      ["heat", "--dims", "8x8", "--seed", "0",
                                       "--sweep", "0:1:5"]], ids=["verify", "heat"])
    def test_soft_cap_cli_memory_bounded_by_block_budget(self, argv, tmp_path):
        argv = argv + ["--out", str(tmp_path / "out")]

        def run():
            assert cli.main(argv) == 0
        assert self.traced_peak(run) < self.soft_cap_bound(argv[0])

    def test_sweep_validates_and_diagonalizes_once(self, example_config, monkeypatch,
                                                   tmp_path):
        counts = {}

        def count(owner, name):
            fn = getattr(owner, name)
            wrap = isinstance(inspect.getattr_static(owner, name),
                              (staticmethod, classmethod))

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, staticmethod(counted) if wrap else counted)

        for owner, name in ((system, "validate"), (system, "gibbs_state"),
                            (linalg, "hermitian_eigendecompose"),
                            (linalg, "unitary_from_hamiltonian"),
                            (qubit, "analytic_heat_distribution"),
                            (DiscreteDistribution, "prob_at"),
                            (DiscreteDistribution, "from_samples"),
                            (DiscreteDistribution, "_binned")):
            count(owner, name)
        out = tmp_path / "example.csv"
        assert cli.main(["example", "--sweep", "0:2:101", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 101 * 3
        # per sweep: one validation building both Gibbs states; the global,
        # h_int and t = 0 local decompositions; then two stacked local ones
        # per block of times, and a block holds at least one time
        assert counts["validate"] == 1
        assert counts["gibbs_state"] <= 6
        assert counts["hermitian_eigendecompose"] <= 212
        assert "unitary_from_hamiltonian" not in counts
        # the oracle reads each block's masses by bin key and its closed
        # form for all of the block's times at once: one heat binning per
        # block, no per-time lookup or closed-form distribution
        for name in ("analytic_heat_distribution", "prob_at", "from_samples"):
            assert name not in counts
        spec = qubit.build_example_spec(qubit.ExampleParams())
        assert counts["_binned"] <= sum(
            1 for _ in bayesnet.sweep_blocks(spec, np.linspace(0.0, 2.0, 101)))

        counts.clear()
        assert cli.main(["verify", "--config", example_config,
                         "--out", str(tmp_path / "report.json")]) == 0
        assert counts["validate"] == 1
        assert counts["gibbs_state"] <= 2   # built once per spec, read by the ledgers

    def test_verify_and_heat_compute_nothing_twice(self, example_config, monkeypatch,
                                                   tmp_path):
        counts = {"eig": 0, "binned": 0}
        eig = linalg.hermitian_eigendecompose
        binned = DiscreteDistribution._binned

        def counted_eig(*args, **kwargs):
            counts["eig"] += 1
            return eig(*args, **kwargs)

        def counted_binned(*args, **kwargs):
            counts["binned"] += 1
            return binned(*args, **kwargs)
        monkeypatch.setattr(linalg, "hermitian_eigendecompose", counted_eig)
        monkeypatch.setattr(DiscreteDistribution, "_binned", staticmethod(counted_binned))

        out = str(tmp_path / "out")
        assert cli.main(["verify", "--config", example_config, "--out", out]) == 0
        # two Gibbs states, the global state, h_int and four reduced states
        # for the basis; the heat balance reads the spectra these left.
        # One binning of the heat table and one of the joint samples, whose
        # reverse bins are read off it.
        assert counts["eig"] <= 8
        assert counts["binned"] <= 2
        # heat bins its heat tables once per block of times, not per time
        spec = config.load_config(example_config).spec
        for argv, sweep in ((["--time", "0.7"], [0.7]),
                            (["--sweep", "0:1:4"], np.linspace(0.0, 1.0, 4))):
            counts["binned"] = 0
            assert cli.main(["heat", "--config", example_config, *argv, "--out", out]) == 0
            blocks = bayesnet.sweep_blocks(spec, sweep)
            assert counts["binned"] <= sum(1 for _ in blocks)

    def test_heat_collects_each_distribution_once(self, example_config, monkeypatch,
                                                   tmp_path):
        # psi_factor returns the forward heat distribution it reads and sums
        # the reverse weights and the psi numerator on its bins, so a block
        # collects that one distribution only
        calls = []
        collect = DiscreteDistribution._collect.__func__

        def counted(cls, bins, weights):
            calls.append(bins)
            return collect(cls, bins, weights)
        monkeypatch.setattr(DiscreteDistribution, "_collect", classmethod(counted))
        out = str(tmp_path / "heat.csv")
        assert cli.main(["heat", "--config", example_config, "--time", "0.7",
                         "--out", out]) == 0
        assert len(calls) == 1

    def test_heat_and_example_build_no_pairs(self, monkeypatch, tmp_path):
        # only the joint FT enumerates augmented pairs; the heat
        # distributions and psi read the (label, cell) tables
        def no_pairs(*args):
            raise AssertionError("augmented pairs enumerated")
        monkeypatch.setattr(thermo, "_pair_positions", no_pairs)
        out = str(tmp_path / "out.csv")
        for argv in (["heat", "--dims", "3x3", "--seed", "0", "--sweep", "0:3:11"],
                     ["heat", "--dims", "2x2", "--product", "--sweep", "0:3:11"],
                     ["example", "--sweep", "0:2:21"]):
            assert cli.main([*argv, "--out", out]) == 0, argv
        with pytest.raises(AssertionError, match="augmented pairs"):
            cli.main(["verify", "--dims", "2x2", "--out", out])

    @pytest.mark.parametrize("argv,flags", [
        (["heat", "--dims", "2x2", "--sweep", "0:1:3", "--time", "5"], ("--sweep", "--time")),
        (["heat", "CONFIG", "--sweep", "0:1:3", "--time", "0.5"], ("--sweep", "--time")),
        (["verify", "CONFIG", "--dims", "2x2"], ("--config", "--dims")),
        (["heat", "CONFIG", "--dims", "3x3"], ("--config", "--dims")),
        (["heat", "CONFIG", "--dims", "3x3", "--time", "0.5"], ("--config", "--dims")),
        (["verify", "CONFIG", "--seed", "3"], ("--config", "--seed")),
        (["heat", "CONFIG", "--seed", "0", "--time", "0.5"], ("--config", "--seed")),
        (["verify", "CONFIG", "--product"], ("--config", "--product")),
        # an empty value is a given flag
        (["heat", "--dims", "2x2", "--time", "0.5", "--sweep="], ("--sweep", "--time")),
        (["verify", "--config=", "--dims", "2x2"], ("--config", "--dims")),
    ])
    def test_conflicting_sources_rejected(self, example_config, argv, flags, capsys):
        argv = [a for arg in argv
                for a in (["--config", example_config] if arg == "CONFIG" else [arg])]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert all(flag in captured.err for flag in flags)

    def test_shared_parser_keeps_no_state_between_calls(self, example_config, capsys):
        """Each call after another in one process prints what a fresh
        process prints."""
        def fresh(argv):
            proc = _fresh_cli(argv)
            return proc.returncode, proc.stdout

        def here(argv):
            code = cli.main(argv)
            return code, capsys.readouterr().out

        cfg = ["--config", example_config]
        # a floor this high drops labels the relations need, so it fails
        before = here(["verify", *cfg, "--tol", "marginal=1e-3",
                       "--tol", "probability_floor=0.2"])
        argv = ["verify", *cfg]
        assert here(argv) == fresh(argv) != before

        before = here(["heat", *cfg, "--sweep", "0:1:3"])
        argv = ["heat", *cfg, "--time", "0.4"]
        assert here(argv) == fresh(argv) != before

        with pytest.raises(SystemExit):
            cli.main(["heat", "--time", "not-a-number"])
        capsys.readouterr()
        argv = ["heat", "--dims", "2x3", "--seed", "4"]
        assert here(argv) == fresh(argv)

    def test_wide_random_instances(self, capsys):
        # joint dimension 64 runs the sparse ledger pairs end to end at the
        # linalg soft cap, its weights formed in 8 full chunks of 8 labels,
        # and --time 0 the exact t = 0 basis; at 6x6 (K = 36, m^2 = 1296) a
        # chunk holds 25 labels, so the last chunk is short.  The joint FT
        # bins its pairs on one composite key: at binning 1e-16 each
        # column's keys span up to about 2**59, so every column after the
        # first replaces the composite or its own keys by their dense rank;
        # at 1e-3 bins hold many pairs each
        binned = (["8x8", "--seed", "0"], ["3x3", "--seed", "0"],
                  ["4x4", "--seed", "2", "--product"])
        for argv in (["5x5"], *(["8x8", "--seed", seed] for seed in "012"),
                     ["8x8", "--seed", "0", "--time", "0"], ["6x6", "--seed", "0"],
                     ["6x6", "--seed", "1"],
                     *([*dims, "--tol", f"binning={binning}"]
                       for dims in binned for binning in ("1e-16", "1e-3"))):
            assert cli.main(["verify", "--dims", *argv]) == 0, argv
            assert json.loads(capsys.readouterr().out)["passed"], argv
        assert cli.main(["heat", "--dims", "6x6", "--sweep", "0:1:5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"0", "0.25", "0.5", "0.75", "1"}

    def test_cold_seven_level_instance_verifies(self, capsys):
        # its distinct tiny populations used to share one degenerate cluster
        assert cli.main(["verify", "--dims", "7x7", "--seed", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]

    def test_cold_gibbs_state_reaches_the_heat_balance(self, tmp_path, product_spec, capsys):
        # gamma_A has a population of 4e-18 yet full rank: the balance
        # passes.  j1 fails at this absolute-continuity boundary, exit 1:
        # one joint outcome at t is below the floor where the product of
        # the marginals is not.
        path = tmp_path / "cold.json"
        spec = dataclasses.replace(product_spec, beta_a=40.0)
        config.save_config(spec, bayesnet.TimeGrid((0.5,)), path)
        assert cli.main(["verify", "--config", str(path)]) == 1
        records = {r["name"]: r for r in json.loads(capsys.readouterr().out)["records"]}
        assert records["mean_heat_balance"]["passed"]
        assert [n for n, r in records.items() if not r["passed"]] == ["integral_ft[j1]"]

    def test_verify_checks_every_time_of_a_config(self, tmp_path, product_spec, capsys):
        # the cold product spec passes at t = 0 and fails j1 at t = 0.5:
        # a config of both times fails, naming the time of each record.
        # Each time's records, less the time, are the report of that time
        # alone, and the exit code is the worst of those runs
        spec = dataclasses.replace(product_spec, beta_a=40.0)
        path, out = tmp_path / "cold.json", tmp_path / "report.json"
        for source, times, codes, failed in (
                (spec, (0.0, 0.5), [0, 1], [(0.5, "integral_ft[j1]")]),
                (randspec.random_spec(0, 4, 4), (0.3, 0.9, 1.6), [0, 0, 0], [])):
            config.save_config(source, bayesnet.TimeGrid(times), path)
            code = cli.main(["verify", "--config", str(path), "--out", str(out)])
            report = json.loads(out.read_text())
            assert report["command"] == "verify" and report["passed"] == (not failed)
            records = report["records"]
            assert [(r["time"], r["name"]) for r in records if not r["passed"]] == failed
            assert all(list(r)[0] == "time" for r in records)
            alone_codes = []
            for t in times:
                alone_codes.append(cli.main(["verify", "--config", str(path),
                                             "--time", repr(t)]))
                alone = json.loads(capsys.readouterr().out)
                assert alone["records"] and alone["passed"] == (alone_codes[-1] == 0)
                assert [{k: v for k, v in r.items() if k != "time"}
                        for r in records if r["time"] == t] == alone["records"]
            assert alone_codes == codes and code == max(codes)
            assert len(records) == len(times) * len(alone["records"])

        # a config of one time reports no time, byte for byte the --time run
        config.save_config(spec, bayesnet.TimeGrid((0.0,)), path)
        assert cli.main(["verify", "--config", str(path)]) == 0
        one = capsys.readouterr().out
        assert cli.main(["verify", "--config", str(path), "--time", "0"]) == 0
        assert capsys.readouterr().out == one
        assert all("time" not in r for r in json.loads(one)["records"])

    def test_verify_sets_up_each_config_once(self, tmp_path, monkeypatch, capsys):
        # five times of one block share one validation and the global and
        # h_int decompositions (two Gibbs states and two more), and the
        # t = 0 local frame joins the block's two stacked reduced-state
        # decompositions: 6, as one time alone
        path = tmp_path / "five.json"
        times = (0.1, 0.4, 0.9, 1.6, 2.5)
        config.save_config(randspec.random_spec(0, 4, 4), bayesnet.TimeGrid(times), path)
        counts = {"validate": 0, "eig": 0}
        validate, eig = system.validate, linalg.hermitian_eigendecompose

        def counted_validate(*args, **kwargs):
            counts["validate"] += 1
            return validate(*args, **kwargs)

        def counted_eig(*args, **kwargs):
            counts["eig"] += 1
            return eig(*args, **kwargs)
        monkeypatch.setattr(system, "validate", counted_validate)
        monkeypatch.setattr(linalg, "hermitian_eigendecompose", counted_eig)
        assert cli.main(["verify", "--config", str(path)]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert counts == {"validate": 1, "eig": 6}
        monkeypatch.undo()
        # each time's records are the report of that time alone
        for t in times:
            assert cli.main(["verify", "--config", str(path), "--time", repr(t)]) == 0
            alone = json.loads(capsys.readouterr().out)["records"]
            assert [{k: v for k, v in r.items() if k != "time"}
                    for r in records if r["time"] == t] == alone

    def test_negative_zero_time_reads_as_zero(self, tmp_path, capsys):
        # -0.0 passes as a time >= 0; no output carries its sign, and every
        # output is that of 0.0
        def run(*argv):
            code = cli.main(list(argv))
            return code, capsys.readouterr().out
        heat = run("heat", "--dims", "2x2", "--time", "-0.0")
        assert heat == run("heat", "--dims", "2x2", "--time", "0.0")
        assert {row.split(",")[0] for row in heat[1].splitlines()[1:]} == {"0"}

        spec = randspec.random_spec(0, 2, 2)
        negative, zero = tmp_path / "negative.json", tmp_path / "zero.json"
        data = config.config_dict(spec, bayesnet.TimeGrid((0.5,)))
        for path, first in ((negative, -0.0), (zero, 0.0)):
            path.write_text(json.dumps({**data, "times": [first, 0.5]}))
        verify = run("verify", "--config", str(negative))
        assert verify == run("verify", "--config", str(zero))
        assert verify[0] == 0 and '"time": -0.0' not in verify[1]
        assert {r["time"] for r in json.loads(verify[1])["records"]} == {0.0, 0.5}

        loaded = config.load_config(negative)
        config.save_config(loaded.spec, loaded.grid, tmp_path / "saved.json")
        saved = json.loads((tmp_path / "saved.json").read_text())["times"]
        assert saved == [0.0, 0.5] and np.copysign(1.0, saved[0]) == 1.0

    def test_verify_time_flag_checks_one_time(self, tmp_path, correlated_spec, capsys):
        path = tmp_path / "three.json"
        config.save_config(correlated_spec, bayesnet.TimeGrid((0.2, 0.5, 1.0)), path)
        assert cli.main(["verify", "--config", str(path)]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert [r["time"] for r in records[::len(self.VERIFY_RECORDS)]] == [0.2, 0.5, 1.0]
        assert cli.main(["verify", "--config", str(path), "--time", "0.5"]) == 0
        report = capsys.readouterr().out
        assert report == cli._report_text(
            "verify", thermo.relation_checks(ledgers_at(correlated_spec, 0.5)))

    @pytest.mark.parametrize("beta_a", [745.0, 800.0])
    def test_psi_on_cold_subsystem_reports_strict_json(self, tmp_path, product_spec,
                                                       beta_a):
        # exp(beta_A Q_A) overflows on a bin whose mirror has no reverse
        # mass: psi skips that bin, so the report has no NaN and no warning
        path, out = tmp_path / "cold.json", tmp_path / "report.json"
        spec = dataclasses.replace(product_spec, beta_a=beta_a)
        config.save_config(spec, bayesnet.TimeGrid((0.5,)), path)
        assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 1

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")
        records = json.loads(out.read_text(), parse_constant=reject)["records"]
        assert [r["name"] for r in records if not r["passed"]] == ["integral_ft[j1]"]

    @pytest.mark.parametrize("beta_a", [745.0, 800.0])
    def test_heat_on_cold_subsystem_without_warning(self, tmp_path, product_spec, beta_a):
        # exp(Q dbeta) of the Q = +1 row overflows and reads inf; psi there
        # is finite at 745 (about 1.6e290) and past the float range at 800.
        # A fresh process, so the warning filter covers the whole run
        path = tmp_path / "cold.json"
        config.save_config(dataclasses.replace(product_spec, beta_a=beta_a),
                           bayesnet.TimeGrid((0.5,)), path)
        proc = _fresh_cli(["heat", "--config", str(path)], "-W", "error::RuntimeWarning")
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = {float(r["Q"]): r for r in csv.DictReader(proc.stdout.splitlines())}
        assert rows[1.0]["exp_QdBeta"] == "inf"
        psi = float(rows[1.0]["Psi"])
        assert np.isfinite(psi) if beta_a == 745.0 else psi == np.inf

    @pytest.mark.parametrize("spec", [
        *(qubit.build_example_spec(qubit.ExampleParams(correlated=c)) for c in (True, False)),
        *(randspec.random_spec(seed, *dims, correlated=c)
          for dims in ((2, 2), (2, 3), (3, 3)) for seed in (0, 1) for c in (True, False)),
    ])
    def test_energy_origin_is_free(self, spec, tmp_path, capsys):
        # shifting H_A and H_B by constants changes no state and no heat
        path = tmp_path / "shifted.json"
        for shift_a, shift_b in ((600, 0), (-600, 0), (0, 600), (0, -600),
                                 (600, -600), (-600, 250)):
            shifted = dataclasses.replace(spec, h_a=spec.h_a + shift_a * np.eye(spec.dim_a),
                                          h_b=spec.h_b + shift_b * np.eye(spec.dim_b))
            config.save_config(shifted, bayesnet.TimeGrid((1.0,)), path)
            assert cli.main(["verify", "--config", str(path)]) == 0
            records = json.loads(capsys.readouterr().out)["records"]
            balance, = (r for r in records if r["name"] == "mean_heat_balance")
            assert balance["value"] <= 1e-12

    def test_bad_sweep(self, example_config, capsys):
        assert cli.main(["heat", "--config", example_config, "--sweep", "1:2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["verify", "--dims", "2x2", "--seed", "1", "--time", "-5"],
        ["verify", "--dims", "2x2", "--seed", "1", "--time", "nan"],
        ["verify", "--dims", "2x2", "--seed", "1", "--time", "inf"],
        ["heat", "--dims", "2x2", "--seed", "1", "--time", "-0.5"],
        ["heat", "--dims", "2x2", "--seed", "1", "--time", "nan"],
        ["heat", "--dims", "2x2", "--seed", "1", "--sweep=-1:0:2"],
        ["heat", "--dims", "2x2", "--seed", "1", "--sweep", "0:inf:3"],
        ["heat", "--dims", "2x2", "--seed", "1", "--sweep", "nan:1:2"],
        ["heat", "--dims", "2x2", "--seed", "1", "--sweep", "1:inf:1"],
        ["example", "--sweep=-1:1:3"],
        ["example", "--sweep", "0:nan:3"],
    ])
    def test_negative_or_nonfinite_time_rejected(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite and >= 0" in captured.err

    @pytest.mark.parametrize("argv", [
        ["heat", "--dims", "2x2", "--sweep", "1:1:3"],
        ["example", "--sweep", "0.5:0.5:2"],
    ])
    def test_repeated_sweep_time_rejected(self, argv, capsys):
        # a sweep is one time grid, as a config's times are: a time swept
        # twice once wrote its rows twice
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "strictly increasing" in captured.err

    def test_input_errors_through_the_module_entry_point(self, tmp_path, product_spec):
        # a bad config and a repeated sweep time in a fresh process, its
        # RuntimeWarnings errors: exit 2 with one error line, no traceback.
        # At beta_A = 1.5 the product spec is valid, so only the string fails
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_malformed(product_spec, "beta_a-string")))
        repeated = ["heat", "--dims", "2x2", "--sweep", "1:1:3"]
        for argv, named in ((["verify", "--config", str(path)], "beta_a"),
                            (repeated, "strictly increasing")):
            proc = _fresh_cli(argv, "-W", "error::RuntimeWarning")
            assert (proc.returncode, proc.stdout) == (2, ""), argv
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, argv
            assert named in proc.stderr and "Traceback" not in proc.stderr, argv

    def test_one_point_sweep_accepted(self, capsys):
        assert cli.main(["heat", "--dims", "2x2", "--sweep", "1:1:1"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert rows and {row.split(",")[0] for row in rows} == {"1"}

    @pytest.mark.parametrize("tau", ["0", "-1", "-0.0", "nan", "inf", "1e-320", "1e308"])
    @pytest.mark.parametrize("sweep", [[], ["--sweep", "0:1:3"]])
    def test_bad_swap_time_rejected(self, tau, sweep, capsys):
        # zero divided by zero, negative times ran silently at TINY_TIME,
        # and a subnormal tau overflowed the coupling to a nan residual
        assert cli.main(["example", "--tau", tau, *sweep]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tau" in captured.err

    def test_zero_time_still_accepted(self, capsys):
        assert cli.main(["verify", "--dims", "2x2", "--seed", "1", "--time", "0"]) == 0
        capsys.readouterr()

    def test_config_times_may_start_at_zero(self, tmp_path, correlated_spec, capsys):
        path = tmp_path / "zero.json"
        config.save_config(correlated_spec, bayesnet.TimeGrid((0.0, 0.5)), path)
        cfg = ["--config", str(path)]
        assert cli.main(["verify", *cfg]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]
        assert cli.main(["heat", *cfg]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert {row.split(",")[0] for row in rows} == {"0", "0.5"}
        assert cli.main(["heat", *cfg, "--time", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == \
            [header] + [row for row in rows if row.startswith("0,")]

    @pytest.mark.parametrize("product", [[], ["--product"]], ids=["correlated", "product"])
    def test_example_exact_at_zero_time(self, product, tmp_path):
        # the default sweep starts at t = 0, where U is the identity
        report = tmp_path / "report.json"
        assert cli.main(["example", *product, "--out", str(tmp_path / "example.csv"),
                         "--report", str(report)]) == 0
        rep = json.loads(report.read_text())
        record, = rep["records"]
        assert rep["passed"] is True and record["value"] <= 1e-14

    def test_example_against_oracle(self, tmp_path):
        # the sweep of 1001 times spans two blocks
        out = tmp_path / "example.csv"
        report = tmp_path / "report.json"
        for args, sweep in ((["--sweep", "0:2:9"], "0:2:9"), (["--tau", "0.7"], "0:1.4:101"),
                            (["--sweep", "0:40:1001"], "0:40:1001")):
            assert cli.main(["example", *args, "--out", str(out),
                             "--report", str(report)]) == 0, args
            assert json.loads(report.read_text())["passed"] is True, args
            rows = _csv_layout(out.read_text(), "t,Q,P_f,P_f_analytic,P_r,P_r_analytic", sweep)
            assert len(rows) == 3 * int(sweep.split(":")[2]), args

    @pytest.mark.parametrize("side", ["closed form", "numeric"])
    def test_example_nan_deviation_fails(self, side, monkeypatch, tmp_path):
        # a NaN mass at the sixth of eleven times, after finite deviations
        if side == "closed form":
            closed_form = qubit.analytic_heat_masses

            def patched(params, times, direction="forward"):
                masses = closed_form(params, times, direction).copy()
                masses[5, 1] = np.nan
                return masses
            monkeypatch.setattr(qubit, "analytic_heat_masses", patched)
        else:
            heat_distribution = thermo.heat_distribution

            def patched(ledgers, direction="forward"):
                dist = heat_distribution(ledgers, direction)
                probs = dist.probs.copy()
                probs[ledgers.heat_bins.starts[5]] = np.nan
                return DiscreteDistribution(dist.points, probs, dist.binning)
            monkeypatch.setattr(thermo, "heat_distribution", patched)
        out, report = tmp_path / "example.csv", tmp_path / "report.json"
        assert cli.main(["example", "--sweep", "0:2:11", "--out", str(out),
                         "--report", str(report)]) == 1
        rep = json.loads(report.read_text())
        assert rep["passed"] is False
        record, = rep["records"]
        assert np.isnan(record["value"]) and record["passed"] is False
        rows = out.read_text().splitlines()[1:]
        assert [i // 3 for i, row in enumerate(rows) if "nan" in row] == [5]

    @pytest.mark.parametrize("n_blocks", [1, 2, 4])
    @pytest.mark.parametrize("product", [[], ["--product"]], ids=["correlated", "product"])
    def test_example_csv_matches_one_time_route(self, product, n_blocks, monkeypatch,
                                                tmp_path):
        """The CSV and report equal, byte for byte, those built time by
        time from one-time ledgers, ``prob_at`` lookups and the one-time
        closed form, for sweeps of one, two and four blocks."""
        params = qubit.ExampleParams(correlated=not product)
        spec = qubit.build_example_spec(params)
        sweep = np.linspace(0.0, 2.0, 101)
        kept = ledgers_at(spec, 1.0).n_anchor
        monkeypatch.setattr(bayesnet, "BLOCK_ELEMENTS",
                            -(-len(sweep) // n_blocks) * kept * spec.dim ** 2)
        assert sum(1 for _ in bayesnet.sweep_blocks(spec, sweep)) == n_blocks

        lines, worst = ["t,Q,P_f,P_f_analytic,P_r,P_r_analytic"], 0.0
        for t in sweep:
            ledgers = ledgers_at(spec, t)
            p_f = thermo.heat_distribution(ledgers, "forward")
            p_r = thermo.heat_distribution(ledgers, "reverse")
            a_f = qubit.analytic_heat_distribution(params, t, "forward")
            a_r = qubit.analytic_heat_distribution(params, t, "reverse")
            for q in (1.0, 0.0, -1.0):
                row = (p_f.prob_at(q), a_f.prob_at(q), p_r.prob_at(q), a_r.prob_at(q))
                worst = max(worst, abs(row[0] - row[1]), abs(row[2] - row[3]))
                lines.append(",".join(f"{v:.17g}" for v in (t, q, *row)))

        out, report = tmp_path / "example.csv", tmp_path / "report.json"
        assert cli.main(["example", *product, "--out", str(out),
                         "--report", str(report)]) == 0
        assert out.read_text() == "\n".join(lines) + "\n"
        record, = json.loads(report.read_text())["records"]
        assert record["value"] == worst


class TestReportText:
    """``cli._report_text`` spells every report as the json.dumps reference
    does, byte for byte."""

    @staticmethod
    def assert_matches(command, checks, times=None):
        text = cli._report_text(command, checks, times)
        assert text.encode("ascii") == reference_report_text(command, checks, times).encode()
        return text

    def test_acceptance_bank_reports(self, checks):
        for found in checks:
            self.assert_matches("verify", list(found.values()))

    def test_multi_time_report(self, tmp_path, capsys):
        spec, times = randspec.random_spec(3, 3, 3), (0.0, 0.4, 1.3)
        path = tmp_path / "three.json"
        config.save_config(spec, bayesnet.TimeGrid(times), path)
        checks, at = [], []
        for t in times:
            found = thermo.relation_checks(ledgers_at(spec, t))
            checks += found
            at += [t] * len(found)
        text = self.assert_matches("verify", checks, at)
        assert cli.main(["verify", "--config", str(path)]) == 0
        assert capsys.readouterr().out == text

    def test_validate_and_example_reports(self, example_config, tmp_path, capsys):
        assert cli.main(["validate", "--config", example_config]) == 0
        spec = config.load_config(example_config).spec
        assert capsys.readouterr().out == self.assert_matches(
            "validate", system.validate(spec).checks)
        report = tmp_path / "report.json"
        assert cli.main(["example", "--sweep", "0:2:5", "--out", str(tmp_path / "ex.csv"),
                         "--report", str(report)]) == 0
        record, = json.loads(report.read_text())["records"]
        check = system.CheckResult(record["name"], record["value"], cli.ORACLE_TOL)
        assert report.read_text() == self.assert_matches("example", [check])

    SYNTHETIC = [
        system.CheckResult("nan", np.nan, 1e-9),
        system.CheckResult("inf", np.inf, 1e-9, expected=-np.inf),
        system.CheckResult("-inf", -np.inf, np.inf),
        system.CheckResult("negative zero", -0.0, 0.0, expected=-0.0),
        system.CheckResult("tiny", 1e-300, 1e-300, expected=np.float64(5e-324)),
        system.CheckResult('quote " backslash \\ psi \u03c8 e \u00e9', np.float64(0.1), 0.25),
        system.CheckResult("control \n\t\x00", 123456789.125, 1e300, expected=1.0),
    ]

    @pytest.mark.parametrize("timed", [False, True])
    def test_synthetic_records(self, timed):
        times = [0.0, -0.0, 1e-300, np.nan, np.inf, 2.5, 1e22] if timed else None
        for command in ("verify", "validate", "example"):
            text = self.assert_matches(command, self.SYNTHETIC, times)
            assert text.isascii() and "NaN" in text and "-Infinity" in text
        # one failed record fails the report; records that pass pass it
        passing = [c for c in self.SYNTHETIC if c.passed]
        assert passing and len(passing) < len(self.SYNTHETIC)
        self.assert_matches("verify", passing, times and times[:len(passing)])

    @pytest.mark.parametrize("times", [None, []])
    def test_no_records(self, times):
        text = self.assert_matches("validate", [], times)
        assert '"records": []' in text


class TestOutputFile:
    """``--out`` and ``example --report`` leave exactly the new bytes in an
    existing file and write to the null device, closing what they open."""

    @staticmethod
    def run(*argv):
        # a file object left open warns only when it is collected
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(list(argv))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        return code

    @pytest.mark.parametrize("old_size", [65536, 10])
    def test_rewrites_existing_file(self, old_size, tmp_path):
        # over a longer or shorter file, then over the file's own output
        example = ["example", "--sweep", "0:2:5", "--out", str(tmp_path / "ex.csv"), "--report"]
        for argv in (["verify", "--dims", "2x2", "--seed", "0", "--out"],
                     ["verify", "--dims", "3x3", "--seed", "0", "--out"],
                     ["heat", "--dims", "2x2", "--sweep", "0:1:3", "--out"],
                     ["heat", "--dims", "3x3", "--seed", "0", "--sweep", "0:3:101", "--out"],
                     example):
            fresh, old = tmp_path / "fresh", tmp_path / "old"
            fresh.unlink(missing_ok=True)
            old.write_bytes(b"x" * old_size)
            assert self.run(*argv, str(fresh)) == self.run(*argv, str(old)) == 0
            assert old.read_bytes() == fresh.read_bytes()
            assert self.run(*argv, str(old)) == 0
            assert old.read_bytes() == fresh.read_bytes()

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_null_device(self, capsys):
        assert self.run("verify", "--dims", "2x2", "--out", os.devnull) == 0
        assert self.run("verify", "--dims", "3x3", "--seed", "0", "--out", os.devnull) == 0
        assert self.run("heat", "--dims", "2x2", "--sweep", "0:1:3", "--out", os.devnull) == 0
        assert capsys.readouterr() == ("", "")
