"""Checks on one `groupanon run`'s outputs, read back from the files it wrote.

The checks re-read the CSV files with the standard library, so they do not
trust the program's own reader or writer:

* the swap audit CSV lists as many swaps as the report, each record once;
* the output table is the input table with exactly the audited parameter
  values exchanged, so the population per area, every non-parameter column
  and the multiset of parameter values are unchanged;
* the recount of group members per area equals the report's ``signal_after``.

They also compute two utility figures: the mean swap cost from the audit
CSV and the number of declared constraint rows that the published
(``after``) signal's approximation component violates.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from pathlib import Path

import numpy as np

from groupanon.wavelet import approximation_component, decompose, get_filter

from workloads import GROUP, PARAMETER, SUPERSET, VITAL, Workload


class CheckFailed(Exception):
    pass


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and columns (as lists of strings) of a CSV file."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, [list(col) for col in zip(*rows)] if rows else [[] for _ in header]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _counts(areas, mask, order) -> np.ndarray:
    index = {value: i for i, value in enumerate(order)}
    out = np.zeros(len(order))
    for area, keep in zip(areas, mask):
        if keep:
            out[index[area]] += 1
    return out


def published_violations(wl: Workload, after: np.ndarray, denominators=None) -> int:
    """Declared rows that the published signal's approximation component violates.

    A concentration workload's rows bound the concentration signal, so the
    published member counts are divided by the superset counts first.
    """
    signal = after / denominators if wl.signal == "concentration" else after
    approx = approximation_component(decompose(signal, get_filter("db2"), 2))
    bad = 0
    for pos, relation, bound in wl.rows:
        value = approx[pos - 1]
        bad += value > bound + 1e-9 if relation == "<=" else value < bound - 1e-9
    return int(bad)


def check_run(wl: Workload, table_in, output: Path, report_dir: Path) -> dict:
    """Check one run's outputs against its input; return the utility figures."""
    header_in, cols_in = table_in
    report = json.loads((report_dir / "report.json").read_text())
    _require(len(report["groups"]) == 1, "report must describe exactly one group")
    group = report["groups"][0]
    _require(group["name"] == GROUP, f"unexpected group {group['name']!r}")

    with (report_dir / f"{GROUP}_swaps.csv").open(newline="") as fh:
        audit = list(csv.reader(fh))[1:]
    _require(len(audit) == group["swaps"],
             f"audit lists {len(audit)} swaps, report says {group['swaps']}")
    pairs = [(int(a), int(b)) for a, b, _ in audit]
    touched = [i for pair in pairs for i in pair]
    _require(len(set(touched)) == len(touched), "a record appears in two swaps")

    header_out, cols_out = read_table(output)
    _require(header_out == header_in, "output header differs from the input")
    p = header_in.index(PARAMETER)
    for name, col_in, col_out in zip(header_in, cols_in, cols_out):
        _require(len(col_out) == len(col_in), "output record count differs from the input")
        if name != PARAMETER:
            _require(col_out == col_in, f"non-parameter column {name!r} changed")
    expected = list(cols_in[p])
    for a, b in pairs:
        expected[a], expected[b] = expected[b], expected[a]
    _require(cols_out[p] == expected, "parameter column differs from the audited swaps")
    _require(Counter(cols_out[p]) == Counter(cols_in[p]), "parameter multiset changed")

    (vital, values), = VITAL.items()
    member = [v in values for v in cols_out[header_in.index(vital)]]
    after = _counts(cols_out[p], member, wl.parameter_order)
    _require(np.array_equal(after, np.asarray(group["signal_after"])),
             "recount differs from the report's signal_after")

    (sup, sup_values), = SUPERSET.items()
    superset = [v in sup_values for v in cols_out[header_in.index(sup)]]
    denominators = _counts(cols_out[p], superset, wl.parameter_order)
    costs = [float(c) for _, _, c in audit]
    return {
        "swaps": len(audit),
        "swap_cost_mean": float(np.mean(costs)) if costs else 0.0,
        "published_bound_violations": published_violations(wl, after, denominators),
        "timings": group["timings"],
    }
