"""Measure how two trees of run outputs differ, file by file.

    python3 tools/numeric_diff.py BASE_DIR THIS_DIR

For every file whose bytes differ between the two trees, prints one line:
the largest absolute change of any number in it and where that number sits,
and whether the file differs in anything other than numbers (and where).
A file that parses as JSON (a .json artifact, the summary a run prints) is
compared value by value at its key paths, so a key added or removed is
named; a CSV file field by field, located by line and header column; any
other text file line by line.  Numbers are compared in the order they
appear wherever the text around them is the same.  A file that only one
tree holds is reported as such.  Prints nothing and exits 0 when
the trees hold the same bytes; exits 1 when something differs.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

# a decimal, exponent, nan or inf token that is not part of a word or of a
# dotted version string such as 0.1.0
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:nan|inf|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?!\w|\.\d)")
SHOWN = 8  # other differences named per file


class Changes:
    """The largest numeric change of one file and its other differences."""

    def __init__(self):
        self.largest = None  # (change, location, base value, this value)
        self.other = []

    def number(self, a: float, b: float, where: str):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        change = abs(b - a)
        change = math.inf if math.isnan(change) else change
        if self.largest is None or change > self.largest[0]:
            self.largest = (change, where, a, b)

    def report(self) -> str:
        if self.largest is None:
            moved = "no number changed"
        else:
            change, where, a, b = self.largest
            moved = f"largest change {change:.3g} at {where} ({a!r} -> {b!r})"
        if not self.other:
            return f"{moved}; nothing else differs"
        more = len(self.other) - SHOWN
        named = "; ".join(self.other[:SHOWN]) + (f"; and {more} more" if more > 0 else "")
        return f"{moved}; also differs: {named}"


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _compare_json(a, b, path: str, changes: Changes):
    where = path or "(top level)"
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in b:
                changes.other.append(f"{sub} removed")
            elif key not in a:
                changes.other.append(f"{sub} added")
            else:
                _compare_json(a[key], b[key], sub, changes)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            changes.other.append(f"{where} length {len(a)} -> {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_json(x, y, f"{path}[{i}]", changes)
    elif _is_number(a) and _is_number(b):
        changes.number(float(a), float(b), where)
    elif a != b:
        changes.other.append(f"{where} {a!r} -> {b!r}")


def _compare_text(a: str, b: str, csv: bool, changes: Changes):
    lines_a, lines_b = a.splitlines(), b.splitlines()
    header = lines_a[0].split(",") if csv and lines_a else []
    if len(lines_a) != len(lines_b):
        changes.other.append(f"{len(lines_a)} -> {len(lines_b)} lines")
    for n, (line_a, line_b) in enumerate(zip(lines_a, lines_b), start=1):
        fields_a, fields_b = (line_a.split(","), line_b.split(",")) if csv else ([line_a], [line_b])
        if len(fields_a) != len(fields_b):
            changes.other.append(f"line {n} text")
            continue
        for col, (x, y) in enumerate(zip(fields_a, fields_b)):
            where = f"line {n}" + (f" column {header[col]}" if col < len(header) else "")
            if NUMBER.sub("#", x) != NUMBER.sub("#", y):
                changes.other.append(f"{where} text")
                continue
            for i, (u, v) in enumerate(zip(NUMBER.findall(x), NUMBER.findall(y))):
                changes.number(float(u), float(v), where if csv or i == 0 else f"{where} number {i + 1}")


def compare_file(base: Path, this: Path) -> Changes:
    changes = Changes()
    a, b = base.read_text(), this.read_text()
    try:
        a_json, b_json = json.loads(a), json.loads(b)
    except json.JSONDecodeError:
        _compare_text(a, b, base.suffix == ".csv", changes)
    else:
        _compare_json(a_json, b_json, "", changes)
    return changes


def compare_trees(base: Path, this: Path) -> list[str]:
    """One report line per file that differs between the two trees."""
    files = {p.relative_to(root) for root in (base, this) for p in root.rglob("*") if p.is_file()}
    lines = []
    for rel in sorted(files):
        a, b = base / rel, this / rel
        if not b.is_file():
            lines.append(f"{rel}: only in {base}")
        elif not a.is_file():
            lines.append(f"{rel}: only in {this}")
        elif a.read_bytes() != b.read_bytes():
            lines.append(f"{rel}: {compare_file(a, b).report()}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(p).is_dir() for p in argv):
        print(f"usage: {Path(__file__).name} BASE_DIR THIS_DIR", file=sys.stderr)
        return 2
    lines = compare_trees(Path(argv[0]), Path(argv[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
