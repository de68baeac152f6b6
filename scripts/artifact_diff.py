"""Compare two ``wgscat`` output directories field by field.

    python scripts/artifact_diff.py OLD_DIR NEW_DIR [--ignore NAME ...]

Every file present in either directory is compared.  A ``.csv`` file is
compared column by column: a column whose cells all parse as numbers gets
the largest absolute and relative change over its rows, any other column
the number of cells that differ.  A ``.json`` file is compared leaf by leaf;
a list element that is an object with a ``name`` key is addressed by that
name (``structural.checks[projection_nesting].value``), any other by its
index.  Other files, and a ``.csv`` or ``.json`` file that does not parse,
are compared byte for byte.

One line is printed per field: the file, the field, then ``=`` when the
field is identical, ``abs <max abs> rel <max rel>`` for a numeric change,
or a short description of any other change.  The relative change of a pair
is ``|a - b| / max(|a|, |b|)``.  The exit code is 0 when every field is
identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np


def _number(cell):
    """``cell`` as a float, or ``None`` when it is not a number."""
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _numeric_change(old: list[float], new: list[float]) -> tuple[float, float]:
    """Largest absolute and relative change over paired values; equal
    non-finite values (``inf`` and ``inf``, ``nan`` and ``nan``) count as no
    change."""
    a, b = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        diff = np.where(same, 0.0, np.abs(a - b))
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.where(same, 0.0, diff / np.where(scale > 0, scale, 1.0))
    diff = np.where(np.isnan(diff), np.inf, diff)
    rel = np.where(np.isnan(rel), np.inf, rel)
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def _describe(old: list, new: list) -> str:
    """One field's change: ``=``, ``abs .. rel ..`` or a count of differing cells."""
    if len(old) != len(new):
        return f"length {len(old)} -> {len(new)}"
    if old == new:
        return "="
    a = [_number(x) for x in old]
    b = [_number(x) for x in new]
    if old and all(x is not None for x in a + b):
        d_abs, d_rel = _numeric_change(a, b)
        if d_abs == 0.0:
            return "="
        return f"abs {d_abs:.3g} rel {d_rel:.3g}"
    n_diff = sum(x != y for x, y in zip(old, new))
    if len(old) == 1:
        return f"{old[0]!r} -> {new[0]!r}"
    return f"{n_diff} of {len(old)} cells differ"


def csv_fields(path: Path) -> dict[str, list]:
    """Columns of a CSV file keyed by header name."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return {}
    header, body = rows[0], rows[1:]
    return {name: [row[i] if i < len(row) else None for row in body]
            for i, name in enumerate(header)}


def json_fields(node, prefix: str = "") -> dict[str, list]:
    """Leaves of a JSON document keyed by path, each as a one-element list."""
    if isinstance(node, dict):
        out = {}
        for key, child in node.items():
            out.update(json_fields(child, f"{prefix}.{key}" if prefix else str(key)))
        return out
    if isinstance(node, list):
        out = {}
        for i, child in enumerate(node):
            label = child["name"] if isinstance(child, dict) and "name" in child else i
            out.update(json_fields(child, f"{prefix}[{label}]"))
        return out
    return {prefix: [node]}


def file_fields(path: Path) -> dict[str, list]:
    """Fields of one file; a ``.csv`` or ``.json`` file that does not parse
    is one ``<bytes>`` field, like any other file."""
    try:
        if path.suffix == ".csv":
            return csv_fields(path)
        if path.suffix == ".json":
            return json_fields(json.loads(path.read_text()))
    except (ValueError, csv.Error):  # includes JSON and UTF-8 decoding errors
        pass
    return {"<bytes>": [path.read_bytes()]}


def compare(old_dir: Path, new_dir: Path, ignore: set[str]) -> list[tuple[str, str, str]]:
    """``(file, field, change)`` for every field of every file in either tree."""
    names = sorted(
        {p.relative_to(old_dir).as_posix() for p in old_dir.rglob("*") if p.is_file()}
        | {p.relative_to(new_dir).as_posix() for p in new_dir.rglob("*") if p.is_file()}
    )
    lines = []
    for name in names:
        if Path(name).name in ignore:
            continue
        old_path, new_path = old_dir / name, new_dir / name
        if not old_path.exists() or not new_path.exists():
            where = "old" if old_path.exists() else "new"
            lines.append((name, "<file>", f"only in {where}"))
            continue
        old, new = file_fields(old_path), file_fields(new_path)
        for field in list(old) + [f for f in new if f not in old]:
            if field not in old or field not in new:
                lines.append((name, field, "only in " + ("old" if field in old else "new")))
            else:
                lines.append((name, field, _describe(old[field], new[field])))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--ignore", action="append", default=[],
                        help="file name to skip (repeatable), e.g. manifest.json")
    args = parser.parse_args(argv)
    for d in (args.old, args.new):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    lines = compare(args.old, args.new, set(args.ignore))
    width = max((len(f) + len(g) for f, g, _ in lines), default=0) + 2
    for name, field, change in lines:
        print(f"{name}:{field}".ljust(width), change)
    return 0 if all(change == "=" for _, _, change in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
