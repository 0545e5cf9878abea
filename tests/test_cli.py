"""File formats and the command-line surface."""

import ast
import csv
import importlib
import json
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ensrisk
import ensrisk.cli
from ensrisk import dataio, estimators, oracle, synthetic
from ensrisk.cli import _parse_estimators, _parse_rules, main
from ensrisk.dataio import (
    SchemaError,
    atomic_write,
    dumps_prediction_set,
    load_prediction_set,
    loads_prediction_set,
    save_prediction_set,
    write_csv,
    write_measures_csv,
)
from ensrisk.estimators import (
    EnsembleBatch,
    EstimatorId,
    MeasureColumn,
    MeasureMatrix,
    PredictionSet,
    measure_matrix,
)
from ensrisk.scores import ScoringRule


def _tracing_tree() -> ast.Module:
    """The syntax tree of ``perfbench/tracing.py``, read without importing it."""
    tracing = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tracing.py")
    with open(tracing, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def make_prediction_set(n=10, members=4, seed=0, targets=True, groups=None):
    rng = np.random.default_rng(seed)
    means, variances, tgs = [], [], []
    for _ in range(n):
        means.append(rng.normal(size=members))
        variances.append(rng.uniform(0.2, 2.0, members))
        tgs.append(float(rng.normal()) if targets else None)
    return PredictionSet([f"p{i}" for i in range(n)], means, variances, tgs, groups)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSerialization:
    def test_round_trip_byte_identical(self):
        ps = make_prediction_set(groups=["id"] * 5 + ["ood"] * 5)
        text = dumps_prediction_set(ps)
        again = dumps_prediction_set(loads_prediction_set(text))
        assert text == again

    def test_round_trip_mixed_sizes_and_partial_fields(self):
        rng = np.random.default_rng(7)
        sizes = [1, 2, 5, 10, 10, 5, 2, 1, 10]
        targets = [None if i % 3 == 0 else float(rng.normal()) for i in range(9)]
        groups = [None if i % 2 else ("id", "ood")[i % 4 // 2] for i in range(9)]
        ps = PredictionSet([f"q{i}" for i in range(9)],
                           [rng.normal(size=m) for m in sizes],
                           [rng.uniform(0.1, 3.0, m) for m in sizes], targets, groups)
        text = dumps_prediction_set(ps)
        again = loads_prediction_set(text)
        assert dumps_prediction_set(again) == text
        doc = json.loads(text)
        assert [len(p["members"]) for p in doc["points"]] == sizes
        assert [p.get("target") for p in doc["points"]] == targets
        assert [p.get("group") for p in doc["points"]] == groups

    def test_optional_fields_omitted(self):
        ps = make_prediction_set(n=2, targets=False)
        doc = json.loads(dumps_prediction_set(ps))
        assert "target" not in doc["points"][0]
        assert "group" not in doc["points"][0]

    def test_parse_errors_name_the_field(self):
        with pytest.raises(SchemaError, match="line 1"):
            loads_prediction_set("{not json")
        with pytest.raises(SchemaError, match="schema"):
            loads_prediction_set('{"points": []}')
        with pytest.raises(SchemaError, match=r"points\[0\]\.members"):
            loads_prediction_set(
                '{"schema": "prediction_set/v1", "points": [{"id": "a", "members": []}]}')
        with pytest.raises(SchemaError, match=r"members\[0\]"):
            loads_prediction_set(
                '{"schema": "prediction_set/v1", '
                '"points": [{"id": "a", "members": [{"mu": 0, "sigma2": -1}]}]}')
        # JSON booleans decode to bool, which is an int subclass
        for member, target, field in (('{"mu": true, "sigma2": 1}', "0", r"members\[0\]"),
                                      ('{"mu": 0, "sigma2": true}', "0", r"members\[0\]"),
                                      ('{"mu": 0, "sigma2": 1}', "false", r"\.target")):
            with pytest.raises(SchemaError, match=field):
                loads_prediction_set(
                    '{"schema": "prediction_set/v1", "points": [{"id": "a", '
                    f'"members": [{member}], "target": {target}}}]}}')

    def test_accepted_labels_survive_save_then_load(self, tmp_path):
        ps = PredictionSet(["a b", "é", "x'y", "p;4"], np.zeros((4, 2)), np.ones((4, 2)),
                           None, [" ", "", None, "ood"])
        path = str(tmp_path / "labels.json")
        save_prediction_set(ps, path)
        again = load_prediction_set(path)
        assert again.ids == ps.ids and again.group_labels == ps.group_labels

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_constructor_and_loader_accept_the_same_labels(self, data):
        """One rule for ids and groups: what the constructor refuses the
        loader refuses, and what it accepts loads back unchanged."""
        text = st.text(st.sampled_from(["a", "b", " ", ",", '"', "\n", "\r", "é"]),
                       max_size=3)
        n = data.draw(st.integers(1, 4))
        ids = data.draw(st.lists(st.one_of(text, st.integers(0, 2)), min_size=n, max_size=n))
        groups = data.draw(st.lists(st.one_of(st.none(), text, st.integers(0, 2)),
                                    min_size=n, max_size=n))
        points = [{"id": i, "members": [{"mu": 0.0, "sigma2": 1.0}],
                   **({} if g is None else {"group": g})} for i, g in zip(ids, groups)]
        try:
            ps = PredictionSet(ids, np.zeros((n, 1)), np.ones((n, 1)), None, groups)
        except ValueError:
            with pytest.raises(SchemaError):
                _load_points(points)
            return
        again = loads_prediction_set(dumps_prediction_set(ps))
        assert again.ids == ps.ids and again.group_labels == ps.group_labels

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SchemaError, match="unique"):
            loads_prediction_set(
                '{"schema": "prediction_set/v1", "points": ['
                '{"id": "a", "members": [{"mu": 0, "sigma2": 1}]},'
                '{"id": "a", "members": [{"mu": 0, "sigma2": 1}]}]}')


def _schema_points(n=6, m=4):
    """A valid prediction_set/v1 point list, to be broken in place."""
    return [{"id": f"p{i}",
             "members": [{"mu": 0.5 * j - i, "sigma2": 1.0 + j} for j in range(m)],
             "target": 0.25 * i, "group": ("id", "ood")[i % 2]} for i in range(n)]


def _load_points(points):
    # json.dumps writes nan/inf as the NaN/Infinity literals json.loads accepts
    return loads_prediction_set(json.dumps({"schema": "prediction_set/v1",
                                            "points": points}))


_DEL = object()


def _set(*path_and_value):
    """A fault: set points[path] = value (the key is deleted for _DEL)."""
    *path, value = path_and_value

    def apply(points):
        node = points
        for key in path[:-1]:
            node = node[key]
        if value is _DEL:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return apply


_M = "points[3].members[2]"
_CSV = "must not contain a comma, a double quote or a line break"
# a JSON integer beyond the double range
_HUGE = 10 ** 400

SCHEMA_FAULTS = [
    (_set(3, [1.0, 2.0]), "points[3]: expected an object"),
    (_set(3, "p3"), "points[3]: expected an object"),
    (_set(3, None), "points[3]: expected an object"),
    (_set(3, "id", _DEL), "points[3].id: expected a non-empty string"),
    (_set(3, "id", ""), "points[3].id: expected a non-empty string"),
    (_set(3, "id", 7), "points[3].id: expected a non-empty string"),
    (_set(3, "id", None), "points[3].id: expected a non-empty string"),
    (_set(3, "id", "a,b"), f"points[3].id: {_CSV}"),
    (_set(3, "id", 'a"b'), f"points[3].id: {_CSV}"),
    (_set(3, "id", "a\rb"), f"points[3].id: {_CSV}"),
    (_set(3, "id", "a\n"), f"points[3].id: {_CSV}"),
    (_set(3, "members", _DEL), "points[3].members: expected a non-empty list"),
    (_set(3, "members", []), "points[3].members: expected a non-empty list"),
    (_set(3, "members", {"mu": 0.0, "sigma2": 1.0}),
     "points[3].members: expected a non-empty list"),
    (_set(3, "members", 2, [0.0, 1.0]), f"{_M}: expected mu and sigma2"),
    (_set(3, "members", 2, 1.5), f"{_M}: expected mu and sigma2"),
    (_set(3, "members", 2, "sigma2", _DEL), f"{_M}: expected mu and sigma2"),
    (_set(3, "members", 2, "mu", _DEL), f"{_M}: expected mu and sigma2"),
    (_set(3, "members", 2, "mu", True), f"{_M}: mu and sigma2 must be numbers"),
    (_set(3, "members", 2, "sigma2", False), f"{_M}: mu and sigma2 must be numbers"),
    (_set(3, "members", 2, "mu", "0.5"), f"{_M}: mu and sigma2 must be numbers"),
    (_set(3, "members", 2, "sigma2", None), f"{_M}: mu and sigma2 must be numbers"),
    (_set(3, "members", 2, "mu", float("nan")), f"{_M}: need finite mu and sigma2 > 0"),
    (_set(3, "members", 2, "mu", float("-inf")), f"{_M}: need finite mu and sigma2 > 0"),
    (_set(3, "members", 2, "sigma2", float("inf")),
     f"{_M}: need finite mu and sigma2 > 0"),
    (_set(3, "members", 2, "sigma2", float("nan")),
     f"{_M}: need finite mu and sigma2 > 0"),
    (_set(3, "members", 2, "sigma2", 0), f"{_M}: need finite mu and sigma2 > 0"),
    (_set(3, "members", 2, "sigma2", -1.5), f"{_M}: need finite mu and sigma2 > 0"),
    (_set(3, "members", 2, "mu", _HUGE), f"{_M}: need finite mu and sigma2 > 0"),
    (_set(3, "members", 2, "mu", -_HUGE), f"{_M}: need finite mu and sigma2 > 0"),
    (_set(3, "members", 2, "sigma2", _HUGE), f"{_M}: need finite mu and sigma2 > 0"),
    (_set(3, "target", True), "points[3].target: expected a finite number"),
    (_set(3, "target", float("nan")), "points[3].target: expected a finite number"),
    (_set(3, "target", float("inf")), "points[3].target: expected a finite number"),
    (_set(3, "target", "0.5"), "points[3].target: expected a finite number"),
    (_set(3, "target", -_HUGE), "points[3].target: expected a finite number"),
    (_set(3, "group", 3), "points[3].group: expected a string"),
    (_set(3, "group", ["id"]), "points[3].group: expected a string"),
    (_set(3, "group", True), "points[3].group: expected a string"),
    (_set(3, "group", "x,y"), f"points[3].group: {_CSV}"),
    (_set(3, "group", '"ood"'), f"points[3].group: {_CSV}"),
    (_set(3, "group", "\r\n"), f"points[3].group: {_CSV}"),
]


class TestSchemaMessages:
    """Every SchemaError text, byte for byte, with the fault at a later
    point and member; where several points are bad, the first is named."""

    @pytest.mark.parametrize("fault,message", SCHEMA_FAULTS)
    def test_single_fault(self, fault, message):
        points = _schema_points()
        fault(points)
        with pytest.raises(SchemaError) as info:
            _load_points(points)
        assert str(info.value) == message

    @pytest.mark.parametrize("faults,message", [
        # an earlier point's late-checked field beats a later point's member
        ([_set(3, "members", 2, "mu", True), _set(1, "target", False)],
         "points[1].target: expected a finite number"),
        ([_set(3, 7), _set(1, "group", 5)], "points[1].group: expected a string"),
        ([_set(4, "members", []), _set(2, "id", _DEL)],
         "points[2].id: expected a non-empty string"),
        ([_set(5, "id", ""), _set(2, "members", 0, "sigma2", -1.0)],
         "points[2].members[0]: need finite mu and sigma2 > 0"),
        ([_set(4, "target", float("nan")), _set(3, "members", 3, "mu", float("inf"))],
         "points[3].members[3]: need finite mu and sigma2 > 0"),
        # within a point: the first bad member, then members before target
        ([_set(3, "members", 2, "mu", True), _set(3, "members", 1, "sigma2", 0.0)],
         "points[3].members[1]: need finite mu and sigma2 > 0"),
        ([_set(3, "members", 2, "sigma2", float("nan")), _set(3, "members", 1, "mu", None)],
         "points[3].members[1]: mu and sigma2 must be numbers"),
        ([_set(3, "target", "x"), _set(3, "members", 2, "mu", float("nan"))],
         f"{_M}: need finite mu and sigma2 > 0"),
        ([_set(3, "group", 1), _set(3, "target", True)],
         "points[3].target: expected a finite number"),
        # values are checked before ids are compared for uniqueness
        ([_set(4, "id", "p1"), _set(5, "members", 2, "sigma2", 0)],
         "points[5].members[2]: need finite mu and sigma2 > 0"),
        ([_set(4, "id", "p1")], "point ids must be unique"),
        # an id's characters come first in its point, a group's last
        ([_set(3, "members", 2, "mu", True), _set(3, "id", "a,b")], f"points[3].id: {_CSV}"),
        ([_set(3, "group", "a,b"), _set(3, "target", _HUGE)],
         "points[3].target: expected a finite number"),
        ([_set(4, "id", 5), _set(2, "group", "a\nb")], f"points[2].group: {_CSV}"),
        ([_set(4, "members", 0, "mu", _HUGE), _set(2, "members", 1, "sigma2", -_HUGE)],
         "points[2].members[1]: need finite mu and sigma2 > 0"),
    ])
    def test_first_bad_point_is_named(self, faults, message):
        points = _schema_points()
        for fault in faults:
            fault(points)
        with pytest.raises(SchemaError) as info:
            _load_points(points)
        assert str(info.value) == message

    @pytest.mark.parametrize("text,message", [
        ("[]", "missing or unknown \"schema\" (expected 'prediction_set/v1')"),
        ('{"schema": "prediction_set/v1"}', '"points" must be a non-empty list'),
        ('{"schema": "prediction_set/v1", "points": []}',
         '"points" must be a non-empty list'),
        ('{"schema": "prediction_set/v1", "points": {}}',
         '"points" must be a non-empty list'),
        ('{"schema": "prediction_set/v1",\n "points": [}',
         "not valid JSON at line 2, column 13: Expecting value"),
    ])
    def test_document_faults(self, text, message):
        with pytest.raises(SchemaError) as info:
            loads_prediction_set(text)
        assert str(info.value) == message

    def test_json_literals_in_text(self):
        base = ('{"schema": "prediction_set/v1", "points": [{"id": "a", "members": '
                '[{"mu": 0, "sigma2": 1}]}, {"id": "b", "members": [{"mu": 0, '
                '"sigma2": 1}, {"mu": %s, "sigma2": %s}], "target": %s}]}')
        for mu, s2, target, message in (
                ("NaN", "1", "0", "points[1].members[1]: need finite mu and sigma2 > 0"),
                ("0", "Infinity", "0", "points[1].members[1]: need finite mu and sigma2 > 0"),
                ("-Infinity", "1", "0",
                 "points[1].members[1]: need finite mu and sigma2 > 0"),
                ("0", "1", "NaN", "points[1].target: expected a finite number"),
                ("0", "1", "-Infinity", "points[1].target: expected a finite number"),
                ("true", "1", "0", "points[1].members[1]: mu and sigma2 must be numbers"),
                ("0", "1", "false", "points[1].target: expected a finite number")):
            with pytest.raises(SchemaError) as info:
                loads_prediction_set(base % (mu, s2, target))
            assert str(info.value) == message

    def test_ints_and_nulls_accepted(self):
        points = _schema_points()
        points[2]["members"][1] = {"mu": -3, "sigma2": 2}
        points[3]["target"] = 4
        points[4]["target"] = None
        points[5]["group"] = None
        del points[1]["target"], points[1]["group"]
        ps = _load_points(points)
        assert ps.means[2 * 4 + 1] == -3.0 and ps.variances[2 * 4 + 1] == 2.0
        assert ps.target_values[3] == 4.0
        assert np.isnan(ps.target_values[[1, 4]]).all()
        assert ps.group_labels[1] is None and ps.group_labels[5] is None

    def test_first_bad_point_matches_a_per_point_scan(self):
        """Random faults at random points and members: the error is the one
        the first point that fails when loaded on its own reports."""
        bad_values = [True, False, None, "", "x", 0, -1.5, float("nan"), float("inf"),
                      [], [1.0], {}, {"mu": 1.0}, "a,b", _HUGE]
        rng = random.Random(5)
        for _ in range(400):
            points = _schema_points(n=rng.randint(1, 7), m=rng.randint(1, 4))
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(points))
                j = rng.randrange(4)
                path = rng.choice([(i,), (i, "id"), (i, "members"), (i, "target"),
                                   (i, "group"), (i, "members", j),
                                   (i, "members", j, "mu"), (i, "members", j, "sigma2")])
                value = _DEL if len(path) > 1 and rng.random() < 0.15 \
                    else rng.choice(bad_values)
                try:
                    _set(*path, value)(points)
                except (TypeError, KeyError, IndexError):
                    pass  # an earlier fault replaced the container
            for i, point in enumerate(points):
                try:
                    _load_points([point])
                except SchemaError as exc:
                    expected = str(exc).replace("points[0]", f"points[{i}]", 1)
                    break
            else:
                ids = [point["id"] for point in points]
                expected = None if len(set(ids)) == len(ids) else "point ids must be unique"
            if expected is None:  # every fault happened to be a valid value
                assert len(_load_points(points)) == len(points)
                continue
            with pytest.raises(SchemaError) as info:
                _load_points(points)
            assert str(info.value) == expected


class TestAtomicWrite:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        path = tmp_path / "out.txt"
        old = os.umask(umask)
        try:
            atomic_write(str(path), "x\n")
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == mode

    def test_chunks_are_written_in_turn(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write(str(path), (f"{i}\n" for i in range(5)))
        assert path.read_text() == "0\n1\n2\n3\n4\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("existing", [None, "old contents\n"])
    def test_failing_stream_leaves_no_file_behind(self, tmp_path, existing):
        path = tmp_path / "out.txt"
        if existing is not None:
            path.write_text(existing)

        def chunks():
            yield "x" * 200_000  # past the file buffer, so the temp file has data
            yield "more\n"
            raise RuntimeError("stream broke")

        with pytest.raises(RuntimeError, match="stream broke"):
            atomic_write(str(path), chunks())
        assert os.listdir(tmp_path) == ([] if existing is None else ["out.txt"])
        if existing is not None:
            assert path.read_text() == existing


def _mixed_prediction_set(n, seed=11):
    """Ensemble sizes 1/2/5/10 interleaved (row order is not blocks() order),
    with some targets and groups missing."""
    rng = np.random.default_rng(seed)
    sizes = [(1, 10, 2, 5, 10, 10, 2, 1, 5)[i % 9] for i in range(n)]
    return PredictionSet(
        [f"m{i}" for i in range(n)],
        [rng.normal(0.0, 2.0, m) for m in sizes],
        [rng.uniform(0.05, 3.0, m) for m in sizes],
        [None if i % 4 == 1 else float(rng.normal()) for i in range(n)],
        [None if i % 3 == 2 else ("id", "ood")[i % 2] for i in range(n)])


def _generic_measures_csv(path, ps, matrix):
    """measures.csv rendered row by row through write_csv / csv_cell."""
    header = ["point_id", "target", "group"] + [c.name for c in matrix.columns]
    write_csv(str(path), header,
              [[pid, target, group, *values] for pid, target, group, values
               in zip(ps.ids, ps.target_values.tolist(), ps.group_labels,
                      matrix.values.tolist())])


class TestMeasuresCsvBytes:
    """measures.csv is byte for byte the generic write_csv rendering."""

    @pytest.mark.parametrize("args", [
        [],
        ["--rules", "log"],
        ["--rules", "log", "--oracle-fallback"],
        ["--rules", "crps,log,se", "--estimators", "tot_2_1,bayes_3a,exc_3b_2,bayes_2"],
        ["--rules", "quadratic", "--estimators", "exc_1_1"],
    ])
    def test_command_output_matches_generic_writer(self, tmp_path, monkeypatch, args):
        monkeypatch.setattr(dataio, "CSV_BLOCK_ROWS", 7)
        ps = _mixed_prediction_set(40)
        inp = tmp_path / "preds.json"
        save_prediction_set(ps, str(inp))
        assert main(["measures", "--input", str(inp), *args,
                     "--output-dir", str(tmp_path / "out")]) == 0
        opts = dict(zip(args[::2], args[1::2]))
        matrix = measure_matrix(_parse_rules(opts.get("--rules", "all")), ps,
                                use_oracle_fallback="--oracle-fallback" in args,
                                estimators=_parse_estimators(opts.get("--estimators", "all")))
        _generic_measures_csv(tmp_path / "ref.csv", ps, matrix)
        assert (tmp_path / "out" / "measures.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()

    def test_more_rows_than_one_block(self, tmp_path):
        n = 2 * dataio.CSV_BLOCK_ROWS + 5
        ps = _mixed_prediction_set(n, seed=12)
        matrix = measure_matrix([ScoringRule.CRPS, ScoringRule.LOG], ps)
        write_measures_csv(str(tmp_path / "fast.csv"), ps, matrix)
        _generic_measures_csv(tmp_path / "ref.csv", ps, matrix)
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "ref.csv").read_bytes()
        assert fast.count(b"\n") == n + 1

    def test_extreme_values_format_like_fmt(self, tmp_path):
        """%.17g in the row format and fmt() agree on every kind of double."""
        rng = np.random.default_rng(13)
        edge = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-5, 9.9999999999999e-5,
                1e-4, 0.1, 1.0 / 3.0, 1e16, 9.999999999999998e16, 1e17, 1e300,
                -1.7976931348623157e308]
        bits = rng.integers(0, 2 ** 63 - 1, size=2000, dtype=np.int64).view(float)
        bits = bits[np.isfinite(bits)]
        cells = np.concatenate([edge, bits])[:, None] * [1.0, -1.0]
        rule, est = ScoringRule.SE, EstimatorId.parse("bayes_1")
        matrix = MeasureMatrix(
            (MeasureColumn(rule, est),) * 3,
            np.column_stack([cells[:, 0], np.full(len(cells), np.nan), cells[:, 1]]),
            np.array([True, False, True]))
        ps = PredictionSet([f"x{i}" for i in range(len(cells))], np.ones((len(cells), 1)),
                           np.ones((len(cells), 1)), cells[:, 0].tolist())
        write_measures_csv(str(tmp_path / "fast.csv"), ps, matrix)
        _generic_measures_csv(tmp_path / "ref.csv", ps, matrix)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestMeasuresCommand:
    def test_na_rendering_and_manifest(self, tmp_path):
        inp = tmp_path / "preds.json"
        save_prediction_set(make_prediction_set(), str(inp))
        out = tmp_path / "out"
        assert main(["measures", "--input", str(inp), "--rules", "log",
                     "--output-dir", str(out)]) == 0
        rows = read_csv(out / "measures.csv")
        assert len(rows) == 10
        assert all(r["log_bayes_2"] == "NA" for r in rows)
        assert all(r["log_bayes_1"] != "NA" for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "measures"
        assert "artifact_version" in manifest and "seed" in manifest

    def test_oracle_fallback_fills(self, tmp_path):
        inp = tmp_path / "preds.json"
        save_prediction_set(make_prediction_set(n=3), str(inp))
        out = tmp_path / "out"
        assert main(["measures", "--input", str(inp), "--rules", "log",
                     "--oracle-fallback", "--output-dir", str(out)]) == 0
        rows = read_csv(out / "measures.csv")
        assert all(r["log_bayes_2"] != "NA" for r in rows)

    def test_se_zero_columns(self, tmp_path):
        inp = tmp_path / "preds.json"
        save_prediction_set(make_prediction_set(n=4), str(inp))
        out = tmp_path / "out"
        assert main(["measures", "--input", str(inp), "--rules", "se",
                     "--output-dir", str(out)]) == 0
        rows = read_csv(out / "measures.csv")
        assert all(float(r["se_exc_3a_2"]) == 0.0 for r in rows)
        assert all(float(r["se_exc_3b_2"]) == 0.0 for r in rows)

    def test_estimator_subset(self, tmp_path):
        inp = tmp_path / "preds.json"
        save_prediction_set(make_prediction_set(n=3), str(inp))
        out = tmp_path / "out"
        assert main(["measures", "--input", str(inp), "--rules", "crps,se",
                     "--estimators", "tot_1_1,bayes_3a",
                     "--output-dir", str(out)]) == 0
        rows = read_csv(out / "measures.csv")
        assert set(rows[0]) == {"point_id", "target", "group", "crps_tot_1_1",
                                "crps_bayes_3a", "se_tot_1_1", "se_bayes_3a"}

    def test_malformed_input_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["measures", "--input", str(bad)]) == 1

    @pytest.mark.parametrize("rules,message", [
        ("se", "measure column se_tot_1_1 is infinite at point 'p3'"),
        ("crps", "measure column crps_tot_3a_1 is not finite at point 'p3'"),
    ])
    def test_overflow_exits_one_naming_column_and_point(self, tmp_path, capsys,
                                                        rules, message):
        """Members at +-1e200 overflow closed forms of one point to inf, and
        inf - inf to NaN; neither may be written, the NaN least of all, as it
        would read as an unavailable cell (NA)."""
        ps = make_prediction_set(n=6, seed=6)
        means = ps.means.reshape(6, 4).copy()
        means[3] = [1e200, -1e200, 1e200, -1e200]
        ps = PredictionSet(ps.ids, means, ps.variances.reshape(6, 4),
                           ps.target_values.tolist())
        inp = tmp_path / "preds.json"
        save_prediction_set(ps, str(inp))
        out = tmp_path / "out"
        code = main(["measures", "--input", str(inp), "--rules", rules,
                     "--output-dir", str(out)])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / "measures.csv").exists()

    @pytest.mark.parametrize("field,value,message", [
        ("mu", _HUGE, "points[1].members[1]: need finite mu and sigma2 > 0"),
        ("id", "b,c", f"points[1].id: {_CSV}"),
        ("group", 'o"d', f"points[1].group: {_CSV}"),
    ], ids=["huge-mu", "comma-id", "quote-group"])
    def test_bad_point_exits_one_naming_it(self, tmp_path, capsys, field, value, message):
        points = _schema_points(n=3, m=2)
        if field == "mu":
            points[1]["members"][1]["mu"] = value
        else:
            points[1][field] = value
        inp = tmp_path / "preds.json"
        inp.write_text(json.dumps({"schema": "prediction_set/v1", "points": points}))
        out = tmp_path / "out"
        assert main(["measures", "--input", str(inp), "--output-dir", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_rule_exits_one(self, tmp_path):
        inp = tmp_path / "preds.json"
        save_prediction_set(make_prediction_set(n=2), str(inp))
        assert main(["measures", "--input", str(inp), "--rules", "huber"]) == 1


def _run_cli(argv, **env):
    """``ensrisk`` in a fresh interpreter with ``env`` added to its
    environment: the CompletedProcess, stdout and stderr as bytes."""
    src = os.path.dirname(os.path.dirname(ensrisk.__file__))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "ensrisk.cli", *argv], env=env,
                          capture_output=True)


class TestProcessOutput:
    def test_files_are_utf8_under_an_ascii_locale(self, tmp_path):
        points = _schema_points(n=2, m=2)
        points[0]["id"] = "caf\u00e9"
        inp = tmp_path / "preds.json"
        inp.write_bytes(json.dumps({"schema": "prediction_set/v1", "points": points},
                                   ensure_ascii=False).encode("utf-8"))
        out = tmp_path / "out"
        proc = _run_cli(["measures", "--input", str(inp), "--output-dir", str(out)],
                        LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        assert proc.returncode == 0, proc.stderr
        assert (out / "measures.csv").read_bytes().splitlines()[1].startswith(b"caf\xc3\xa9,")

    @pytest.mark.parametrize("command,field", [
        ("measures", "mu"), ("selective", "mu"), ("ood", "mu"), ("correlate", "mu"),
        ("selective", "target"),
    ])
    def test_overflow_is_one_stderr_line(self, tmp_path, command, field):
        """Members at +-1e200 overflow closed forms of one point, a target at
        1e200 its squared error; the command stops with its own error and no
        NumPy warning before it."""
        ps = make_prediction_set(n=4, seed=6, groups=["id", "ood"] * 2)
        means, targets = ps.means.reshape(4, 4).copy(), ps.target_values.copy()
        if field == "mu":
            means[1] = [1e200, -1e200, 1e200, -1e200]
            what = b"measure column crps_tot_3a_1"
        else:
            targets[1] = 1e200
            what = b"squared error"
        ps = PredictionSet(ps.ids, means, ps.variances.reshape(4, 4),
                           targets.tolist(), list(ps.group_labels))
        inp = tmp_path / "preds.json"
        save_prediction_set(ps, str(inp))
        proc = _run_cli([command, "--input", str(inp), "--rules", "crps",
                         "--output-dir", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert proc.stderr == b"error: " + what + b" is not finite at point 'p1'\n"

    def test_too_wide_training_range_is_one_stderr_line(self, tmp_path):
        """Inputs on +-1e200 overflow their std; train stops with its own
        error and no NumPy warning before it."""
        proc = _run_cli(["train", "--x-low=-1e200", "--x-high=1e200", "--n-train", "40",
                         "--n-test", "10", "--epochs", "1", "--members", "1",
                         "--output-dir", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert proc.stderr == (b"error: the training inputs are too widely spread "
                               b"to standardize\n")


class TestFailureExitCodes:
    def test_wrong_closed_form_exits_two_with_report(self, tmp_path, monkeypatch):
        evaluate = EnsembleBatch.evaluate
        monkeypatch.setattr(EnsembleBatch, "evaluate",
                            lambda self, rule, est: evaluate(self, rule, est) + 1.0)
        out = tmp_path / "oc"
        assert main(["oracle-check", "--trials", "2", "--seed", "3",
                     "--output-dir", str(out)]) == 2
        rows = read_csv(out / "oracle_check.csv")
        assert len(rows) == 64
        assert max(float(r["max_rel_dev"]) for r in rows) > 1e-6

    def test_unconverged_fallback_exits_three_naming_the_point(self, tmp_path, monkeypatch,
                                                               capsys):
        monkeypatch.setattr(oracle, "_ABS_TOL", 1e-300)
        monkeypatch.setattr(oracle, "_REL_TOL", 1e-300)
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 1)
        rng = np.random.default_rng(5)
        sizes = [4, 4, 2, 4]  # the size-2 block runs first: its row 0 is point p2
        ps = PredictionSet([f"p{i}" for i in range(4)],
                           [rng.normal(size=m) for m in sizes],
                           [rng.uniform(0.2, 2.0, m) for m in sizes])
        inp = tmp_path / "preds.json"
        save_prediction_set(ps, str(inp))
        assert main(["measures", "--input", str(inp), "--rules", "log", "--oracle-fallback",
                     "--output-dir", str(tmp_path / "out")]) == 3
        assert "point p2: " in capsys.readouterr().err

    def test_unconverged_shift_fallback_exits_three_naming_the_replicate(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "_ABS_TOL", 1e-300)
        monkeypatch.setattr(oracle, "_REL_TOL", 1e-300)
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 1)
        assert main(["shift", "--kind", "mean-location", "--rules", "log", "--replicates", "50",
                     "--oracle-fallback", "--output-dir", str(tmp_path / "out")]) == 3
        assert "base replicate 0: LOG mixture entropy: " in capsys.readouterr().err

    @staticmethod
    def _fail_one_integral(monkeypatch, call, row):
        """Make integral ``row`` of engine call ``call`` (from 0) miss its
        tolerance, and only that one."""
        real, done = oracle._integrate, []

        def integrate(families):
            res = real(families)
            if len(done) == call:
                res.error[row] = 2.0 * res.tol[row]
            done.append(res)
            return res

        monkeypatch.setattr(oracle, "_integrate", integrate)

    def test_fallback_failure_in_a_later_block_names_its_point(self, tmp_path, monkeypatch,
                                                               capsys):
        monkeypatch.setattr(estimators, "BATCH_ELEMS", 4 * (3 + 64))  # 4 rows of M=3
        self._fail_one_integral(monkeypatch, call=1, row=1)  # second block, p5
        rng = np.random.default_rng(6)
        ps = PredictionSet([f"p{i}" for i in range(7)], rng.normal(size=(7, 3)),
                           rng.uniform(0.2, 2.0, (7, 3)))
        assert [rows.tolist() for rows, _, _ in ps.blocks()] == [[0, 1, 2, 3], [4, 5, 6]]
        inp = tmp_path / "preds.json"
        save_prediction_set(ps, str(inp))
        assert main(["measures", "--input", str(inp), "--rules", "log", "--oracle-fallback",
                     "--output-dir", str(tmp_path / "out")]) == 3
        assert ("point p5: LOG mixture entropy: quadrature error"
                in capsys.readouterr().err)

    def test_shift_fallback_failure_in_a_later_block_names_its_replicate(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(estimators, "BATCH_ELEMS", 4 * (45 + 64))  # 4 rows of M=10
        assert estimators.batch_rows(10, 10) == 4
        # base runs three blocks (calls 0-2); call 4 is the shifted spec's
        # second block, whose row 1 is replicate 5
        self._fail_one_integral(monkeypatch, call=4, row=1)
        assert main(["shift", "--kind", "mean-location", "--rules", "log", "--replicates", "10",
                     "--oracle-fallback", "--output-dir", str(tmp_path / "out")]) == 3
        assert ("shifted replicate 5: LOG mixture entropy: quadrature error"
                in capsys.readouterr().err)


class TestOracleCheckCommand:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "oc"
        assert main(["oracle-check", "--trials", "5", "--seed", "3",
                     "--output-dir", str(out)]) == 0
        rows = read_csv(out / "oracle_check.csv")
        assert len(rows) == 64
        assert all(float(r["max_rel_dev"]) < 1e-6 for r in rows)
        assert list(rows[0])[-1] == "nonfinite_closed"
        assert all(r["nonfinite_closed"] == "0" for r in rows)

    def test_zero_trials_is_usage_error(self, tmp_path):
        assert main(["oracle-check", "--trials", "0",
                     "--output-dir", str(tmp_path)]) == 1

    def test_deterministic_report(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["oracle-check", "--trials", "4", "--seed", "9",
                     "--output-dir", str(a)]) == 0
        assert main(["oracle-check", "--trials", "4", "--seed", "9",
                     "--output-dir", str(b)]) == 0
        assert (a / "oracle_check.csv").read_text() == (b / "oracle_check.csv").read_text()


class TestShiftCommand:
    def test_mean_location_all_flat(self, tmp_path):
        out = tmp_path / "shift"
        assert main(["shift", "--kind", "mean-location", "--replicates", "2000",
                     "--members", "5", "--output-dir", str(out)]) == 0
        rows = read_csv(out / "shift.csv")
        assert rows and all(r["direction"] in ("flat", "unavailable") for r in rows)

    def test_variance_location_bayes_up(self, tmp_path):
        out = tmp_path / "shift"
        assert main(["shift", "--kind", "variance-location", "--replicates", "2000",
                     "--members", "5", "--output-dir", str(out)]) == 0
        rows = read_csv(out / "shift.csv")
        bayes = [r for r in rows if r["estimator"].startswith("bayes")
                 and r["direction"] != "unavailable"]
        assert bayes and all(r["direction"] == "up" for r in bayes)

    def test_all_kinds_equal_the_single_kind_runs(self, tmp_path):
        args = ["--replicates", "500", "--members", "4", "--seed", "2", "--oracle-fallback"]
        assert main(["shift", "--kind", "all", *args,
                     "--output-dir", str(tmp_path / "all")]) == 0
        lines = (tmp_path / "all" / "shift.csv").read_text().splitlines()
        single = []
        for kind in ("mean-location", "variance-location", "mean-scale", "variance-scale"):
            out = tmp_path / kind
            assert main(["shift", "--kind", kind, *args, "--output-dir", str(out)]) == 0
            single.extend((out / "shift.csv").read_text().splitlines()[1:])
        assert len(lines) == 1 + 4 * 64
        assert lines[1:] == single

    @pytest.mark.parametrize("threshold", ["-1", "nan", "inf"])
    def test_bad_flat_threshold_exits_one(self, tmp_path, capsys, threshold):
        assert main(["shift", "--kind", "mean-location", "--rules", "se",
                     "--replicates", "20", f"--flat-threshold={threshold}",
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert "flat threshold" in capsys.readouterr().err
        assert not (tmp_path / "out" / "shift.csv").exists()

    def test_zero_flat_threshold_keeps_unchanged_means_flat(self, tmp_path):
        out = tmp_path / "shift"
        assert main(["shift", "--kind", "mean-location", "--rules", "se",
                     "--replicates", "500", "--flat-threshold", "0",
                     "--output-dir", str(out)]) == 0
        rows = read_csv(out / "shift.csv")
        unchanged = [r for r in rows if r["base_mean"] == r["shifted_mean"]]
        assert unchanged and all(r["direction"] == "flat" for r in unchanged)


class TestDownstreamCommands:
    def test_selective_prr_columns(self, tmp_path):
        inp = tmp_path / "preds.json"
        save_prediction_set(make_prediction_set(n=40, seed=2), str(inp))
        out = tmp_path / "sel"
        assert main(["selective", "--input", str(inp), "--rules", "se,crps",
                     "--output-dir", str(out)]) == 0
        rows = read_csv(out / "selective.csv")
        assert len(rows) == 32
        assert all(r["prr"] != "NA" for r in rows)

    def test_selective_requires_targets(self, tmp_path):
        inp = tmp_path / "preds.json"
        save_prediction_set(make_prediction_set(n=5, targets=False), str(inp))
        assert main(["selective", "--input", str(inp),
                     "--output-dir", str(tmp_path / "x")]) == 1

    def test_ood_flags_separated_groups(self, tmp_path):
        rng = np.random.default_rng(5)
        means, variances = [], []
        for i in range(30):
            ood = i >= 15
            spread = 6.0 if ood else 0.3
            means.append(rng.normal(scale=spread, size=4) + (0 if not ood else 5))
            variances.append(rng.uniform(0.2, 0.6, 4))
        groups = ["ood" if i >= 15 else "id" for i in range(30)]
        inp = tmp_path / "preds.json"
        save_prediction_set(PredictionSet([f"p{i}" for i in range(30)], means,
                                          variances, groups=groups), str(inp))
        out = tmp_path / "ood"
        assert main(["ood", "--input", str(inp), "--rules", "se",
                     "--output-dir", str(out)]) == 0
        rows = read_csv(out / "ood.csv")
        exc = [r for r in rows if r["estimator"] == "exc_1_1"][0]
        assert float(exc["auroc"]) == 1.0

    def test_ood_requires_groups(self, tmp_path):
        inp = tmp_path / "preds.json"
        save_prediction_set(make_prediction_set(n=4), str(inp))
        assert main(["ood", "--input", str(inp),
                     "--output-dir", str(tmp_path / "x")]) == 1

    def test_correlate_exact_identity(self, tmp_path):
        inp = tmp_path / "preds.json"
        save_prediction_set(make_prediction_set(n=60, seed=3), str(inp))
        out = tmp_path / "corr"
        assert main(["correlate", "--input", str(inp), "--rules", "crps",
                     "--output-dir", str(out)]) == 0
        rows = read_csv(out / "correlate_estimators.csv")
        cell = [r for r in rows if r["estimator_a"] == "exc_1_1"
                and r["estimator_b"] == "exc_2_1"][0]
        assert float(cell["tau_b"]) == 1.0

    @pytest.mark.parametrize("command", ["selective", "correlate", "ood"])
    def test_infinite_column_is_named(self, tmp_path, capsys, command):
        """Members at +-1e200 overflow the SE cells of one point to inf: the
        error names the first such column and the point."""
        ps = make_prediction_set(n=12, seed=6, groups=["id", "ood"] * 6)
        means = ps.means.copy()
        means[3 * 4:4 * 4] = [1e200, -1e200, 1e200, -1e200]
        ps = PredictionSet(ps.ids, means.reshape(12, 4), ps.variances.reshape(12, 4),
                           ps.target_values.tolist(), list(ps.group_labels))
        inp = tmp_path / "preds.json"
        save_prediction_set(ps, str(inp))
        code = main([command, "--input", str(inp), "--rules", "se",
                     "--output-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "se_tot_1_1" in err and "'p3'" in err

    def test_infinite_squared_error_is_named(self, tmp_path, capsys):
        ps = make_prediction_set(n=6, seed=7)
        targets = ps.target_values.copy()
        targets[4] = 1e200
        ps = PredictionSet(ps.ids, ps.means.reshape(6, 4), ps.variances.reshape(6, 4),
                           targets.tolist())
        inp = tmp_path / "preds.json"
        save_prediction_set(ps, str(inp))
        assert main(["selective", "--input", str(inp),
                     "--output-dir", str(tmp_path / "x")]) == 1
        assert "squared error is not finite at point 'p4'" in capsys.readouterr().err

    def test_correlate_skips_constant_columns(self, tmp_path):
        inp = tmp_path / "preds.json"
        save_prediction_set(make_prediction_set(n=25, seed=4), str(inp))
        out = tmp_path / "corr"
        assert main(["correlate", "--input", str(inp), "--rules", "se",
                     "--output-dir", str(out)]) == 0
        rows = read_csv(out / "correlate_estimators.csv")
        zero = [r for r in rows if r["estimator_a"] == "exc_3a_2"]
        assert zero and all(r["tau_b"] == "NA" for r in zero)


class TestTrainingCommands:
    def test_synth_demo_outputs(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["synth-demo", "--n-train", "200", "--members", "2",
                     "--epochs", "5", "--output-dir", str(out)]) == 0
        demo = read_csv(out / "synth_demo.csv")
        assert {"x", "pred_mean", "log_tot_1_1", "log_bayes_1", "log_exc_1_1"} \
            <= set(demo[0])
        data = read_csv(out / "synth_data.csv")
        assert len(data) == 200
        assert set(r["component"] for r in data) <= {"1", "2"}

    def test_train_round_trips_checkpoint(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--n-train", "150", "--n-test", "40",
                     "--members", "2", "--epochs", "5",
                     "--output-dir", str(out)]) == 0
        from ensrisk.dataio import load_prediction_set
        from ensrisk.trainer import load_checkpoint

        ps = load_prediction_set(str(out / "predictions.json"))
        assert len(ps) == 40
        assert not np.isnan(ps.targets()).any()
        pred = load_checkpoint(str(out / "checkpoint.json"))
        assert pred.size == 2

    def test_active_writes_paired_trajectories(self, tmp_path):
        out = tmp_path / "al"
        assert main(["active", "--pool-size", "120", "--initial", "20",
                     "--iterations", "2", "--batch", "10", "--members", "1",
                     "--heldout", "60", "--epochs", "3",
                     "--output-dir", str(out)]) == 0
        rows = read_csv(out / "active.csv")
        assert len(rows) == 3
        assert "nll_log_exc_1_1" in rows[0] and "nll_random" in rows[0]


def _input_of(command, tmp_path):
    """An ``--input`` argument naming a valid prediction set, if ``command``
    reads one."""
    if "--input" not in ensrisk.cli.COMMANDS[command][1]:
        return []
    inp = tmp_path / "preds.json"
    save_prediction_set(make_prediction_set(n=4, groups=["id", "ood"] * 2), str(inp))
    return ["--input", str(inp)]


class TestUsage:
    """The command-line contract: usage errors exit 1 naming the option,
    before any work is done; help and version exit 0."""

    @pytest.mark.parametrize("argv,option", [
        (["measures", "--input", "{inp}", "--bogus"], "--bogus"),
        (["measures", "--input", "{inp}", "--inp", "{inp}"], "--inp"),
        (["measures"], "--input"),
        (["measures", "--input", "{missing}"], "--input"),
        (["shift", "--kind", "bogus"], "--kind"),
        (["oracle-check", "--trials", "x"], "--trials"),
    ], ids=["unknown", "abbreviated", "missing-input", "input-not-found", "bad-choice",
            "bad-int"])
    def test_usage_error_exits_one_naming_the_option(self, tmp_path, capsys, argv, option):
        inp = tmp_path / "preds.json"
        save_prediction_set(make_prediction_set(n=2), str(inp))
        out = tmp_path / "out"
        argv = [a.format(inp=inp, missing=tmp_path / "missing.json") for a in argv]
        assert main([*argv, "--output-dir", str(out)]) == 1
        assert re.search(re.escape(option) + r"(?![\w-])", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in ensrisk.cli.COMMANDS
        for flag, default in ensrisk.cli._options(command).items() if type(default) is int])
    def test_int_below_its_bound_exits_one_naming_it(self, tmp_path, capsys, command, flag):
        """--seed must be >= 0 and every other int option >= 1; a value below
        is a usage error before any work, not a message from NumPy or a layer."""
        low = 0 if flag == "--seed" else 1
        out = tmp_path / "out"
        argv = [command, flag, str(low - 1), *_input_of(command, tmp_path)]
        assert main([*argv, "--output-dir", str(out)]) == 1
        assert f"argument {flag}: must be >= {low}, got {low - 1}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in ensrisk.cli.COMMANDS
        for flag, default in ensrisk.cli._options(command).items() if type(default) is float])
    def test_non_finite_float_exits_one_with_one_error_line(self, tmp_path, capsys, command,
                                                            flag, value):
        """A NaN or infinite float option is one error line, not a traceback
        or a NumPy warning.  The --flag=value form keeps argparse from taking
        -inf for an option."""
        argv = [command, f"{flag}={value}", *_input_of(command, tmp_path)]
        assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    def test_no_command_exits_one(self):
        assert main([]) == 1

    def test_help_lists_options_with_defaults(self, capsys):
        assert main(["measures", "--help"]) == 0
        text = capsys.readouterr().out
        for option in ("--input", "--rules", "--estimators", "--oracle-fallback",
                       "--seed", "--output-dir"):
            assert option in text
        assert "default: all" in text

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert f"version {ensrisk.__version__}" in capsys.readouterr().out

    def test_interrupt_prints_aborted_and_exits_one(self, tmp_path, capsys, monkeypatch):
        def interrupt(trials, seed):
            raise KeyboardInterrupt

        monkeypatch.setattr(ensrisk.cli, "run_oracle_check", interrupt)
        assert main(["oracle-check", "--trials", "2", "--output-dir", str(tmp_path)]) == 1
        assert "aborted" in capsys.readouterr().err

    @pytest.mark.parametrize("input_name,output_name,bad", [
        ("preds.json", "preds.json", "preds.json"),
        ("folder", "out", "folder"),
    ], ids=["output-dir-is-a-file", "input-is-a-directory"])
    def test_bad_path_exits_one_naming_it(self, tmp_path, capsys, input_name, output_name,
                                          bad):
        save_prediction_set(make_prediction_set(n=2), str(tmp_path / "preds.json"))
        (tmp_path / "folder").mkdir()
        assert main(["measures", "--input", str(tmp_path / input_name),
                     "--output-dir", str(tmp_path / output_name)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and repr(str(tmp_path / bad)) in err

    @pytest.mark.parametrize("argv,entry", [
        (["measures", "--rules", "log,log", "--estimators", "exc_1_1,exc_1_1"], "'log'"),
        (["measures", "--estimators", "exc_1_1,bayes_2,EXC_1_1"], "'exc_1_1'"),
        (["selective", "--rules", "se,se"], "'se'"),
        (["correlate", "--rules", "log,crps,log"], "'log'"),
    ], ids=["measures-rules", "measures-estimators", "selective", "correlate"])
    def test_repeated_entry_exits_one_naming_it(self, tmp_path, capsys, argv, entry):
        """A repeated rule or estimator would write its columns or rows twice."""
        inp = tmp_path / "preds.json"
        save_prediction_set(make_prediction_set(n=4), str(inp))
        out = tmp_path / "out"
        assert main([*argv, "--input", str(inp), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.search(rf"--(rules|estimators) names {entry} twice", err)
        assert not out.exists()

    @pytest.mark.parametrize("argv,message,leaked", [
        (["--initial", "60", "--pool-size", "50"],
         "--initial must be between 1 and --pool-size (50), got 60",
         "Cannot take a larger sample"),
        (["--measure", "log"],
         "bad --measure 'log': expected RULE:ESTIMATOR, e.g. log:exc_1_1",
         "values to unpack"),
    ], ids=["initial-beyond-pool", "measure-without-estimator"])
    def test_active_names_the_bad_option(self, tmp_path, capsys, argv, message, leaked):
        out = tmp_path / "out"
        assert main(["active", *argv, "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and leaked not in err
        assert not out.exists()

    def test_shift_kind_choices_are_the_shift_kinds(self):
        """The --kind choices are spelled out in the command table, so that
        building the parser loads no layer; they must stay ShiftKind's."""
        from ensrisk.synthetic import ShiftKind

        kinds = ensrisk.cli.COMMANDS["shift"][1]["--kind"]
        assert list(kinds) == ["all", *(k.value for k in ShiftKind)]


class TestManifests:
    """Each command's manifest holds its options, except --seed, in
    declaration order, with absolute paths and output_dir last."""

    @pytest.mark.parametrize("argv,config", [
        (["measures", "--input", "preds.json", "--rules", "se", "--estimators", "bayes_1"],
         {"input": "preds.json", "rules": "se", "estimators": "bayes_1",
          "oracle_fallback": False}),
        (["oracle-check", "--trials", "2"], {"trials": 2}),
        (["shift", "--kind", "mean-location", "--rules", "se", "--replicates", "50",
          "--members", "3", "--flat-threshold", "0.05"],
         {"kind": "mean-location", "rules": "se", "replicates": 50, "members": 3,
          "flat_threshold": 0.05, "oracle_fallback": False}),
        (["synth-demo", "--n-train", "40", "--members", "1", "--epochs", "1",
          "--rules", "se"],
         {"n_train": 40, "members": 1, "epochs": 1, "rules": "se"}),
        (["train", "--n-train", "40", "--n-test", "10", "--members", "1", "--epochs", "1",
          "--x-low", "-2", "--x-high", "2"],
         {"n_train": 40, "n_test": 10, "members": 1, "epochs": 1, "x_low": -2.0,
          "x_high": 2.0}),
        (["selective", "--input", "preds.json", "--rules", "se", "--oracle-fallback"],
         {"input": "preds.json", "rules": "se", "oracle_fallback": True}),
        (["ood", "--input", "preds.json", "--rules", "se"],
         {"input": "preds.json", "rules": "se", "oracle_fallback": False}),
        (["correlate", "--input", "preds.json", "--rules", "se"],
         {"input": "preds.json", "rules": "se", "oracle_fallback": False}),
        (["active", "--iterations", "1", "--batch", "5", "--members", "1",
          "--pool-size", "40", "--initial", "10", "--heldout", "20", "--epochs", "1"],
         {"iterations": 1, "batch": 5, "members": 1, "pool_size": 40, "initial": 10,
          "heldout": 20, "epochs": 1, "measure": "log:exc_1_1",
          "truncated": {"measure": False, "random": False}}),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_config_follows_the_options(self, tmp_path, monkeypatch, argv, config):
        monkeypatch.chdir(tmp_path)
        save_prediction_set(make_prediction_set(groups=["id"] * 5 + ["ood"] * 5),
                            "preds.json")
        assert main([*argv, "--seed", "4", "--output-dir", "out"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["seed"] == 4
        expected = dict(config, output_dir="out")
        for key in ("input", "output_dir"):
            if key in expected:
                expected[key] = os.path.abspath(expected[key])
                assert os.path.isabs(manifest["config"][key])
        assert list(manifest["config"].items()) == list(expected.items())


class TestImport:
    def test_cli_import_leaves_scipy_special_unloaded(self):
        src = os.path.dirname(os.path.dirname(ensrisk.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        code = "import sys, ensrisk.cli; print('scipy.special' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_commands_never_import_scipy(self, tmp_path):
        src = os.path.dirname(os.path.dirname(ensrisk.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        inp = tmp_path / "ps.json"
        save_prediction_set(make_prediction_set(n=12), str(inp))
        shift = ["shift", "--kind", "all", "--rules", "all", "--replicates", "20"]
        runs = [
            ["measures", "--input", str(inp)],
            ["selective", "--input", str(inp)],
            shift,
            [*shift, "--oracle-fallback"],
            ["oracle-check", "--trials", "2", "--seed", "3"],
        ]
        runs = [[*argv, "--output-dir", str(tmp_path / f"run{i}")]
                for i, argv in enumerate(runs)]
        code = ("import json, sys\n"
                "from ensrisk.cli import main\n"
                f"assert all(main(argv) == 0 for argv in {runs!r})\n"
                "print(json.dumps(sorted(m for m in sys.modules\n"
                "                        if m.split('.')[0] in ('scipy', 'click'))))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert json.loads(out.stdout.strip().splitlines()[-1]) == []

    def test_commands_never_import_numpy_ma(self, tmp_path):
        """A plain ``np.unique`` imports ``numpy.ma`` (its masked-array
        check), about 10 ms per process; no command needs it."""
        src = os.path.dirname(os.path.dirname(ensrisk.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        inp = tmp_path / "ps.json"
        save_prediction_set(_mixed_prediction_set(18), str(inp))
        runs = [
            ["measures", "--input", str(inp)],
            ["measures", "--input", str(inp), "--oracle-fallback"],
            ["oracle-check", "--trials", "3", "--seed", "3"],
        ]
        runs = [[*argv, "--output-dir", str(tmp_path / f"run{i}")]
                for i, argv in enumerate(runs)]
        code = ("import sys\n"
                "from ensrisk.cli import main\n"
                f"assert all(main(argv) == 0 for argv in {runs!r})\n"
                "print('numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "False"

    def test_every_trace_shim_resolves(self):
        """Each (layer, attribute) that ``perfbench/tracing.py`` wraps by name
        exists once ``ensrisk.cli`` is imported: a renamed function would
        otherwise break ``--trace 1``.  The file is only read, not imported."""
        tree = _tracing_tree()
        shims = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "SHIMS" for t in node.targets))
        names = sorted(shims)
        assert names
        src = os.path.dirname(os.path.dirname(ensrisk.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        code = ("import functools, json, sys, ensrisk.cli\n"
                f"names = {names!r}\n"
                "missing = []\n"
                "for layer, attr in names:\n"
                "    try:\n"
                "        obj = functools.reduce(getattr, attr.split('.'),\n"
                "                               sys.modules['ensrisk.' + layer])\n"
                "    except (KeyError, AttributeError):\n"
                "        obj = None\n"
                "    if not callable(obj):\n"
                "        missing.append(f'{layer}.{attr}')\n"
                "print(json.dumps(missing))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == []

    def test_every_name_trace_install_reads_resolves(self, monkeypatch):
        """``install`` in ``perfbench/tracing.py`` also imports names from the
        layers and patches an attribute of one: the class whose
        ``__post_init__`` counts ``gaussians.ensembles_built``, and the
        oracle's exception.  Each must exist, and the patched ``__post_init__``
        must run on construction, or ``--trace 1`` breaks.  The file is only
        read, not imported."""
        install = next(node for node in _tracing_tree().body
                       if isinstance(node, ast.FunctionDef) and node.name == "install")
        imported = {alias.asname or alias.name: (node.module, alias.name)
                    for node in ast.walk(install)
                    if isinstance(node, ast.ImportFrom) and node.module.startswith("ensrisk.")
                    for alias in node.names}
        attrs = {(node.value.id, node.attr) for node in ast.walk(install)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in imported}
        assert {"GaussianEnsemble", "ConvergenceError"} <= set(imported)
        assert ("GaussianEnsemble", "__post_init__") in attrs
        objs = {name: getattr(importlib.import_module(module), attr)
                for name, (module, attr) in imported.items()}
        for name, attr in attrs:
            assert callable(getattr(objs[name], attr)), f"{name}.{attr}"
        assert issubclass(objs["ConvergenceError"], Exception)
        cls = objs["GaussianEnsemble"]
        calls = []
        original = cls.__post_init__

        def counted(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
        ens = cls([0.0, 1.0], [1.0, 2.0])
        assert calls == [ens]

    def test_each_command_runs_only_its_layers(self, tmp_path):
        """Importing the package registers every layer without running it
        (a lazily registered module becomes a plain ``types.ModuleType`` when
        its body runs), so each command runs only the layers it uses, and
        help, version and usage errors load neither NumPy nor any layer."""
        src = os.path.dirname(os.path.dirname(ensrisk.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        inp = tmp_path / "ps.json"
        save_prediction_set(make_prediction_set(n=12, groups=["id", "ood"] * 6), str(inp))
        code = ("import json, sys, types\n"
                "from ensrisk.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "layers = sorted(name.split('.')[1] for name, mod in sys.modules.items()\n"
                "                if name.startswith('ensrisk.') and name != 'ensrisk.cli'\n"
                "                and type(mod) is types.ModuleType)\n"
                "print(json.dumps([code, 'numpy' in sys.modules, layers]))\n")

        def run(*argv):
            out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                 capture_output=True, text=True, check=True)
            return json.loads(out.stdout.strip().splitlines()[-1])

        for argv in (["--version"], ["--help"], ["measures", "--help"],
                     ["measures", "--bogus"]):
            assert run(*argv)[1:] == [False, []], argv
        out = ["--output-dir", str(tmp_path / "out")]
        measures = ["dataio", "estimators", "gaussians", "scores"]
        assert run("measures", "--input", str(inp), *out) == [0, True, measures]
        for command in ("selective", "ood", "correlate"):
            assert run(command, "--input", str(inp), *out) == \
                [0, True, sorted(measures + ["metrics"])]
        train = run("train", "--n-train", "40", "--n-test", "10", "--members", "1",
                    "--epochs", "1", *out)
        active = run("active", "--iterations", "1", "--batch", "5", "--members", "1",
                     "--pool-size", "40", "--initial", "10", "--heldout", "20",
                     "--epochs", "1", *out)
        for result in (train, active):
            assert result[0] == 0 and "metrics" not in result[2]
        # the oracle runs only where a command calls it
        synth = run("synth-demo", "--n-train", "40", "--members", "1", "--epochs", "1",
                    "--rules", "all", *out)
        shift = ["shift", "--kind", "all", "--rules", "all", "--replicates", "20", *out]
        for result in (train, active, synth, run(*shift)):
            assert result[0] == 0 and "oracle" not in result[2], result
        for argv in ([*shift, "--oracle-fallback"],
                     ["measures", "--input", str(inp), "--oracle-fallback", *out],
                     ["oracle-check", "--trials", "2", "--seed", "3", *out]):
            result = run(*argv)
            assert result[0] == 0 and "oracle" in result[2], argv

    def test_package_serves_its_public_names(self):
        names = {}
        exec("from ensrisk import *", names)
        public = set(ensrisk.__all__)
        assert public <= set(names) and public <= set(dir(ensrisk))
        assert ensrisk.GaussianEnsemble is ensrisk.gaussians.GaussianEnsemble
        assert ensrisk.oracle_entropy is oracle.oracle_entropy
