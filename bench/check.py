"""Output check: every table row against a table pinned in ``expected.json``.

``expected.json`` holds the tolerances (each with its reason) and one pinned
table per workload and seed phase, written by ``pin.py``.  A row is one of
(N, E, C1, C2, C3, rate) with ``None`` for a missing rate and NaN kept as
NaN.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def row_values(res) -> list | None:
    """(N, E, C1, C2, C3, rate) of a fkdv.cli.RowResult; None if it diverged."""
    if res.row is None:
        return None
    r = res.row
    return [r.n_elems, r.E, r.C1, r.C2, r.C3, r.rate]


def _nan_or(got: float, want: float, ok) -> bool:
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return ok(got, want)


def check_row(got: list | None, want: list, tol: dict) -> str | None:
    """None if the row matches the pinned one, else a one-line reason."""
    if got is None:
        return f"N={want[0]}: row diverged"
    n, e, c1, c2, c3, rate = got
    if n != want[0]:
        return f"row N={n}, pinned N={want[0]}"
    problems = []
    if not abs(e - want[1]) <= tol["E"]["rel"] * want[1]:
        problems.append(f"E={e!r} pinned {want[1]!r}")
    if not _nan_or(c1, want[2], lambda g, w: abs(g - w) <= tol["C1"]["abs"]):
        problems.append(f"C1={c1!r} pinned {want[2]!r}")
    for name, g, w in (("C2", c2, want[3]), ("C3", c3, want[4])):
        t = tol[name]
        if not _nan_or(g, w, lambda g, w: abs(g - w) <= t["abs"] + t["rel_dev"] * abs(w - 1.0)):
            problems.append(f"{name}={g!r} pinned {w!r}")
    if (rate is None) != (want[5] is None) or (
            rate is not None and not abs(rate - want[5]) <= tol["rate"]["abs"]):
        problems.append(f"rate={rate!r} pinned {want[5]!r}")
    return f"N={n}: " + "; ".join(problems) if problems else None


def check_table(results, pinned: list, tol: dict) -> list[str | None]:
    """One entry per pinned row: None if it passed, else why it failed."""
    got = [row_values(r) for r in results]
    if len(got) != len(pinned):
        return [f"table has {len(got)} rows, pinned {len(pinned)}"] * len(pinned)
    return [check_row(g, w, tol) for g, w in zip(got, pinned)]


class RowCount:
    """Rows attempted and failed over every repetition of a run.

    A row fails if it diverged, if the table raised, or if it fails the
    output check.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, outcomes: list[str | None]) -> None:
        self.attempted += len(outcomes)
        for reason in outcomes:
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(reason)

    def add_raised(self, n_rows: int, error: str) -> None:
        self.add([f"table raised: {error}"] * n_rows)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
