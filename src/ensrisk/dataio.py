"""File formats for the command-line tool.

Prediction sets travel as a single JSON document, parsed straight into the
array-backed ``PredictionSet``; CSV is output-only (the per-point member
lists do not fit a flat table).  Serialization is canonical: fixed field
order, floats in 17-significant-digit decimal, so serialize -> parse ->
serialize is byte-identical.  All writes go through a write-temp-then-rename
so partial files never appear under the target name.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Iterable, Sequence

from .estimators import PredictionSet

SCHEMA_TAG = "prediction_set/v1"


class SchemaError(ValueError):
    """Input file violates the prediction-set schema."""


def fmt(x: float) -> str:
    """Canonical decimal form: 17 significant digits round-trips a double."""
    return format(float(x), ".17g")


def dumps_prediction_set(ps: PredictionSet) -> str:
    members = [""] * len(ps)
    for rows, means, variances in ps.blocks():
        for i, mus, sig2s in zip(rows.tolist(), means.tolist(), variances.tolist()):
            members[i] = ", ".join(f'{{"mu": {fmt(mu)}, "sigma2": {fmt(s2)}}}'
                                   for mu, s2 in zip(mus, sig2s))
    lines = ["{", f'  "schema": {json.dumps(SCHEMA_TAG)},', '  "points": [']
    body = []
    for pid, point_members, target, group in zip(
            ps.ids, members, ps.target_values.tolist(), ps.group_labels):
        fields = [f'"id": {json.dumps(pid)}', f'"members": [{point_members}]']
        if not math.isnan(target):
            fields.append(f'"target": {fmt(target)}')
        if group is not None:
            fields.append(f'"group": {json.dumps(group)}')
        body.append("    {" + ", ".join(fields) + "}")
    lines.append(",\n".join(body))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _point_from_obj(obj, index: int):
    """(id, member means, member variances, target, group) of one point."""
    where = f"points[{index}]"
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    pid = obj.get("id")
    if not isinstance(pid, str) or not pid:
        raise SchemaError(f"{where}.id: expected a non-empty string")
    members = obj.get("members")
    if not isinstance(members, list) or not members:
        raise SchemaError(f"{where}.members: expected a non-empty list")
    mus, sig2s = [], []
    for j, m in enumerate(members):
        if not isinstance(m, dict) or "mu" not in m or "sigma2" not in m:
            raise SchemaError(f"{where}.members[{j}]: expected mu and sigma2")
        mu, s2 = m["mu"], m["sigma2"]
        # type(), not isinstance(): JSON true/false decode to bool, an int subclass
        if type(mu) not in (int, float) or type(s2) not in (int, float):
            raise SchemaError(f"{where}.members[{j}]: mu and sigma2 must be numbers")
        if not (math.isfinite(mu) and math.isfinite(s2)) or s2 <= 0:
            raise SchemaError(f"{where}.members[{j}]: need finite mu and sigma2 > 0")
        mus.append(float(mu))
        sig2s.append(float(s2))
    target = obj.get("target")
    if target is not None:
        if type(target) not in (int, float) or not math.isfinite(target):
            raise SchemaError(f"{where}.target: expected a finite number")
        target = float(target)
    group = obj.get("group")
    if group is not None and not isinstance(group, str):
        raise SchemaError(f"{where}.group: expected a string")
    return pid, mus, sig2s, target, group


def loads_prediction_set(text: str) -> PredictionSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_TAG:
        raise SchemaError(f'missing or unknown "schema" (expected {SCHEMA_TAG!r})')
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        raise SchemaError('"points" must be a non-empty list')
    fields = zip(*(_point_from_obj(o, i) for i, o in enumerate(points)))
    try:
        return PredictionSet(*fields)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_prediction_set(path: str) -> PredictionSet:
    with open(path) as fh:
        return loads_prediction_set(fh.read())


def save_prediction_set(ps: PredictionSet, path: str) -> None:
    atomic_write(path, dumps_prediction_set(ps))


def csv_cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        if math.isnan(value):
            return "NA"
        return fmt(value)
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(csv_cell(v) for v in row) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")


def write_manifest(output_dir: str, command: str, seed: int, config: dict) -> str:
    """Record command, full config, seed, and artifact version next to outputs."""
    from . import __version__

    manifest = {
        "artifact_version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
    }
    path = os.path.join(output_dir, "manifest.json")
    atomic_write(path, json.dumps(manifest, indent=2, sort_keys=False) + "\n")
    return path
