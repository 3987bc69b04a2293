"""Output checks: each returns its failures, an empty list when the output is right.

The checks use only the program's outputs and plain NumPy, so a defect in the
program's ranking or metrics cannot hide itself from them.
"""

from __future__ import annotations

import math

import numpy as np

MAP_COLUMNS = ("1/3", "2/6", "3/9", "mean")
# the name eval gives each column in its pr_*.csv and report_*.json files
COLUMN_FILES = ("1of3", "2of6", "3of9", "mean")


def parse_map_matrix(text: str) -> dict[str, list]:
    """map_matrix.csv -> {method: [cell per column]}; a cell is a float or the raw string."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "method," + ",".join(MAP_COLUMNS):
        raise ValueError(f"unexpected map_matrix header {lines[:1]!r}")
    out: dict[str, list] = {}
    for line in lines[1:]:
        method, *cells = line.split(",")
        parsed = []
        for cell in cells:
            try:
                parsed.append(float(cell))
            except ValueError:
                parsed.append(cell)
        out[method] = parsed
    return out


def check_maps(
    maps: dict[str, list], reference: dict[str, list] | None = None, tol: float = 0.0
) -> list[tuple[tuple[str, int] | None, str]]:
    """Every cell is a finite MAP in [0, 1] and, given a reference, within tol of it.

    Returns (cell, message) pairs; cell is (method, column index), or None for
    a failure of the matrix as a whole.
    """
    failures: list[tuple[tuple[str, int] | None, str]] = []
    if reference is not None and sorted(maps) != sorted(reference):
        failures.append((None, f"methods {sorted(maps)} differ from the reference {sorted(reference)}"))
    for method, cells in maps.items():
        ref = reference.get(method) if reference is not None else None
        if ref is not None and len(ref) != len(cells):
            failures.append((None, f"{method}: {len(cells)} cells, reference has {len(ref)}"))
            ref = None
        for j, cell in enumerate(cells):
            where = f"{method}[{j}]"
            if not isinstance(cell, float):
                failures.append(((method, j), f"{where}: cell {cell!r} is not a MAP"))
            elif not (math.isfinite(cell) and 0.0 <= cell <= 1.0):
                failures.append(((method, j), f"{where}: MAP {cell!r} is not finite in [0, 1]"))
            elif ref is not None and abs(cell - ref[j]) > tol:
                failures.append(
                    ((method, j), f"{where}: MAP {cell!r} differs from the reference {ref[j]!r} by more than {tol}")
                )
    return failures


def brute_force_topk(
    ids: list[str], embeddings: np.ndarray, query: np.ndarray, n: int
) -> list[tuple[str, float]]:
    """Top-n of a cosine sort over every entry, ties broken by ascending id."""
    qnorm = math.sqrt(float(query @ query))
    scored = []
    for vid, row in zip(ids, embeddings):
        sim = float(row @ query) / (math.sqrt(float(row @ row)) * qnorm)
        scored.append((-min(max(sim, -1.0), 1.0), vid))
    scored.sort()
    return [(vid, -neg) for neg, vid in scored[:n]]


def check_topk(got: list[tuple[str, float]], expected: list[tuple[str, float]], tol: float = 1e-9) -> list[str]:
    """The returned ids equal the expected ones in order, with similarities within tol."""
    got_ids = [vid for vid, _ in got]
    want_ids = [vid for vid, _ in expected]
    if got_ids != want_ids:
        return [f"top-{len(expected)} {got_ids} != brute force {want_ids}"]
    bad = [(vid, s, e) for (vid, s), (_, e) in zip(got, expected) if abs(s - e) > tol]
    return [f"{vid}: similarity {s!r} != brute force {e!r}" for vid, s, e in bad]
