"""File formats for the command-line tool.

Prediction sets travel as a single JSON document, parsed straight into the
array-backed ``PredictionSet``: each field is checked on whole lists and
arrays, and each check words its own fault, so no point is checked twice.
CSV is output-only (the per-point member lists do not fit a flat table);
``measures.csv`` is streamed in blocks of rows.  Ids and group labels go
into CSV cells unquoted, so the loader refuses the characters that would
need quoting, by the rule the ``PredictionSet`` constructor reads.
Serialization is canonical: fixed field order, floats in 17-significant-digit
decimal (a negative zero as ``-0.0``, which JSON reads back as a float), so
serialize -> parse -> serialize is byte-identical.  All writes go
through a write-temp-then-rename (``atomic_write``) so partial files never
appear under the target name.  Every file is read and written as UTF-8
(RFC 8259 for JSON), whatever the locale.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .estimators import MeasureMatrix, PredictionSet, _first_bad_label

SCHEMA_TAG = "prediction_set/v1"


class SchemaError(ValueError):
    """Input file violates the prediction-set schema."""


def fmt(x: float) -> str:
    """Canonical decimal form: 17 significant digits round-trips a double."""
    return format(float(x), ".17g")


def _json_float(x: float) -> str:
    """``fmt`` of a float, but -0.0 as ``-0.0``: JSON reads ``-0`` as the
    integer 0, which would lose the sign on a round trip."""
    text = fmt(x)
    return "-0.0" if text == "-0" else text


def dumps_prediction_set(ps: PredictionSet) -> str:
    members = [""] * len(ps)
    for rows, means, variances in ps.blocks():
        for i, mus, sig2s in zip(rows.tolist(), means.tolist(), variances.tolist()):
            members[i] = ", ".join(f'{{"mu": {_json_float(mu)}, "sigma2": {fmt(s2)}}}'
                                   for mu, s2 in zip(mus, sig2s))
    lines = ["{", f'  "schema": {json.dumps(SCHEMA_TAG)},', '  "points": [']
    body = []
    for pid, point_members, target, group in zip(
            ps.ids, members, ps.target_values.tolist(), ps.group_labels):
        fields = [f'"id": {json.dumps(pid)}', f'"members": [{point_members}]']
        if not math.isnan(target):
            fields.append(f'"target": {_json_float(target)}')
        if group is not None:
            fields.append(f'"group": {json.dumps(group)}')
        body.append("    {" + ", ".join(fields) + "}")
    lines.append(",\n".join(body))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


# type(), not isinstance(): JSON true/false decode to bool, an int subclass
_NUMBERS = frozenset({int, float})


def _to_float(value) -> float:
    """float(value), None as NaN, and a JSON integer beyond the double range
    as an infinity of its sign (so it fails the finiteness checks)."""
    if value is None:
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _member_fault(m) -> str:
    """The fault of a member that fails the member checks."""
    if type(m) is not dict or "mu" not in m or "sigma2" not in m:
        return "expected mu and sigma2"
    if type(m["mu"]) not in _NUMBERS or type(m["sigma2"]) not in _NUMBERS:
        return "mu and sigma2 must be numbers"
    return "need finite mu and sigma2 > 0"


def _first_false(ok) -> int:
    """Index of the first False in ``ok``; len(ok) if there is none."""
    ok = np.asarray(ok, dtype=bool)
    return len(ok) if ok.all() else int(np.argmin(ok))


def _numbers(values: list, allow_none: bool = False) -> tuple[np.ndarray, int]:
    """Float array of the leading ``values`` that are JSON numbers (None ->
    NaN where allowed), and the index of the first that is not (len if all
    are).  JSON NaN and Infinity are numbers here, and so is an integer
    beyond the double range (as an infinity); callers check finiteness."""
    allowed = _NUMBERS | {type(None)} if allow_none else _NUMBERS
    end = len(values)
    if not set(map(type, values)) <= allowed:
        end = _first_false([type(v) in allowed for v in values])
    try:
        return np.array(values[:end], dtype=float), end
    except OverflowError:
        return np.array([_to_float(v) for v in values[:end]], dtype=float), end


def loads_prediction_set(text: str) -> PredictionSet:
    """Parse and check a prediction_set/v1 document.

    Each field is pulled out of every point with one list comprehension and
    checked as a whole list or array.  Each check records the first point it
    rejects with its field and fault, checking only points whose earlier
    fields let it run (objects for every field, member lists for the
    members).  The earliest point recorded is raised, on a tie the earlier
    field in the order id, members, target, group."""
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

    end = _first_false([type(o) is dict for o in points])
    objs = points[:end]
    faults = [(end, "", "expected an object")]
    ids = [o.get("id") for o in objs]
    i, fault = _first_bad_label(ids, optional=False)
    faults.append((i, ".id", fault))

    members = [o.get("members") for o in objs]
    n_ok = _first_false([type(m) is list and len(m) > 0 for m in members])
    faults.append((n_ok, ".members", "expected a non-empty list"))
    sizes = np.fromiter(map(len, members[:n_ok]), dtype=np.int64, count=n_ok)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    flat = list(chain.from_iterable(members[:n_ok]))
    means, mu_ok = _numbers([m.get("mu") if type(m) is dict else None for m in flat])
    variances, s2_ok = _numbers([m.get("sigma2") if type(m) is dict else None
                                 for m in flat])
    k = min(mu_ok, s2_ok)  # members before the first bad one
    k = min(k, _first_false(np.isfinite(means[:k]) & np.isfinite(variances[:k])
                            & (variances[:k] > 0.0)))
    if k < len(flat):
        i = int(np.searchsorted(offsets, k, side="right")) - 1
        faults.append((i, f".members[{k - offsets[i]}]", _member_fault(flat[k])))

    targets = [o.get("target") for o in objs]
    target_values, t_ok = _numbers(targets, allow_none=True)
    given = np.array([t is not None for t in targets[:t_ok]], dtype=bool)
    faults.append((min(t_ok, _first_false(np.isfinite(target_values) | ~given)),
                   ".target", "expected a finite number"))
    groups = [o.get("group") for o in objs]
    i, fault = _first_bad_label(groups, optional=True)
    faults.append((i, ".group", fault))

    # min keeps the first of equal points, so ties go to field order
    i, field, message = min(faults, key=lambda f: f[0])
    if i < len(points):
        raise SchemaError(f"points[{i}]{field}: {message}")
    try:
        return PredictionSet.from_flat(ids, means, variances, offsets,
                                       target_values, groups)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def atomic_write(path: str, content: str | Iterable[str]) -> None:
    """Write ``content``, one string or an iterable of string chunks
    written in turn, to a temporary file beside ``path`` and rename it over
    ``path``, with the mode a new file gets from ``open`` under the current
    umask.  If anything fails, the temporary file is removed and ``path`` is
    left as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates the file at 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            if isinstance(content, str):
                fh.write(content)
            else:
                fh.writelines(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_prediction_set(path: str) -> PredictionSet:
    with open(path, encoding="utf-8") as fh:
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


# Rows of measures.csv rendered per chunk: bounds the Python rows and text
# held at once, so the writer's memory does not grow with n.
CSV_BLOCK_ROWS = 1024


def write_measures_csv(path: str, points: PredictionSet, matrix: MeasureMatrix) -> None:
    """``measures.csv``: point id, target and group, then one cell per
    column of the ``MeasureMatrix``, one row per point in input order.

    It is byte for byte what ``write_csv`` writes for those rows.  A measure
    cell is NaN exactly when its column is unavailable, so each row is one
    ``%`` format built once from ``matrix.available``, with NA written into
    it for those columns and ``%.17g`` (``fmt``) for the rest.  Rows go to
    ``atomic_write`` ``CSV_BLOCK_ROWS`` at a time."""
    header = ["point_id", "target", "group"] + [c.name for c in matrix.columns]
    row = ("%s,%s,%s" + "".join(",%.17g" if ok else ",NA" for ok in matrix.available)
           + "\n")
    cols = np.flatnonzero(matrix.available)

    def chunks():
        yield ",".join(header) + "\n"
        for lo in range(0, len(points), CSV_BLOCK_ROWS):
            block = slice(lo, lo + CSV_BLOCK_ROWS)
            targets = map(csv_cell, points.target_values[block].tolist())
            groups = map(csv_cell, points.group_labels[block])
            values = matrix.values[block, cols].tolist()
            yield "".join(row % (pid, target, group, *cells) for pid, target, group, cells
                          in zip(points.ids[block], targets, groups, values))

    atomic_write(path, chunks())


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
