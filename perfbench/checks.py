"""Correctness gate for one CLI invocation.

An invocation fails on a non-zero exit code, on invariant failures reported
in its metadata, on any non-finite or empty cell, and, when reference rows
exist for its argv, on a cell that differs from the reference by more than
``REFERENCE_TOL`` (text cells must match exactly).  Reference rows are the
CSV header and metric rows without the ``#`` metadata lines, which hold the
wall-clock duration.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_key(argv: list[str]) -> str:
    return " ".join(argv)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_references(workload: str) -> dict[str, str]:
    path = reference_path(workload)
    if not path.is_file():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["rows"]


def save_references(workload: str, rows: dict[str, str]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    payload = json.dumps({"workload": workload, "rows": dict(sorted(rows.items()))}, indent=0, sort_keys=True)
    # mtime=0 keeps the archive byte-identical for identical rows
    with open(reference_path(workload), "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(payload.encode("utf-8"))


def split_output(text: str) -> tuple[dict[str, str], str]:
    """CSV output -> (metadata key/values, header plus metric rows)."""
    meta, rows = {}, []
    for line in text.splitlines(keepends=True):
        if line.startswith("# "):
            key, _, value = line[2:].rstrip("\n").partition("=")
            meta[key] = value
        else:
            rows.append(line)
    return meta, "".join(rows)


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    compared: bool = False
    identical: bool = False
    max_abs_diff: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def check_invocation(code, stdout: str, reference: str | None) -> Verdict:
    """``code`` is the exit code, or a message if the call raised."""
    verdict = Verdict()
    if isinstance(code, str):
        verdict.problems.append(code)
    elif code != 0:
        verdict.problems.append(f"exit code {code}")
    meta, rows_text = split_output(stdout)
    if meta.get("invariant_failures") != "0":
        verdict.problems.append(f"invariant failures: {meta.get('invariant_failures')}")
    rows = list(csv.reader(rows_text.splitlines()))
    if len(rows) < 2:
        verdict.problems.append("no metric rows")
    bad = [cell for row in rows[1:] for cell in row if cell == "" or not math.isfinite(_number(cell) or 0.0)]
    if bad:
        verdict.problems.append(f"{len(bad)} empty or non-finite cells, e.g. {bad[0]!r}")
    if reference is None:
        return verdict
    verdict.compared = True
    verdict.identical = rows_text == reference
    if verdict.identical:
        return verdict
    expected = list(csv.reader(reference.splitlines()))
    if len(expected) != len(rows) or (rows and expected[0] != rows[0]):
        verdict.problems.append("rows differ from reference in shape or header")
        return verdict
    if any(len(got) != len(want) for got, want in zip(rows, expected)):
        verdict.problems.append("row length differs from reference")
        return verdict
    cells = [(got, want) for got_row, want_row in zip(rows[1:], expected[1:]) for got, want in zip(got_row, want_row)]
    text_mismatches = 0
    for got, want in cells:
        g, w = _number(got), _number(want)
        if g is None or w is None:
            text_mismatches += got != want
        else:
            verdict.max_abs_diff = max(verdict.max_abs_diff, abs(g - w))
    if text_mismatches:
        verdict.problems.append(f"{text_mismatches} text cells differ from reference")
    if not verdict.max_abs_diff <= REFERENCE_TOL:
        verdict.problems.append(f"cell off reference by {verdict.max_abs_diff:.3e}")
    return verdict
