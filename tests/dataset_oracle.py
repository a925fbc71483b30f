"""Row-by-row forms of the dataset text, kept as oracles for ``pipeline``.

``format_rows`` writes every value with its own ``f"{v:.9g}"`` and
``parse_rows`` converts the data lines one row at a time.  The package
formats the table in one ``%``-format and parses it in one bulk
conversion; both must give the same text and the same arrays as these.
"""

from __future__ import annotations

import numpy as np

from rotornv.errors import ValidationError


def format_rows(columns) -> str:
    """The data rows of a dataset, one f-string per value."""
    cols = [np.asarray(c).tolist() for c in columns]
    return "".join(" ".join(f"{v:.9g}" for v in row) + "\n" for row in zip(*cols))


def parse_rows(text: str) -> np.ndarray:
    """The data values of a dataset, converted and checked one row at a time."""
    names: list[str] = []
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("columns:"):
                names = body.split(":", 1)[1].split()
            continue
        parts = line.split()
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: malformed data row {line!r}") from exc
        if names and len(parts) != len(names):
            raise ValidationError(
                f"line {lineno}: expected {len(names)} columns, got {len(parts)}"
            )
    if not rows:
        raise ValidationError("dataset contains no data rows")
    return np.asarray(rows, dtype=float)
