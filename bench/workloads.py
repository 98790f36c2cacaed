"""Deterministic workload generators for the groupanon benchmark.

Each generator writes an input CSV and a pipeline config into a directory
and returns a ``Workload`` describing them.  The program under test sees
only those two files; the seed argument fixes every generated byte.

Each generator's docstring records why its workload exists and which layer
it loads or bypasses.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from groupanon import reference as ref
from groupanon.wavelet import approximation_component, decompose, get_filter

GROUP = "active-duty"

SCHEMA = [
    {"name": "area", "kind": "nominal", "role": "parameter"},
    {"name": "military_service", "kind": "nominal", "role": "vital", "weight": 1.0},
    {"name": "sex", "kind": "nominal", "role": "plain"},
    {"name": "age", "kind": "ordinal", "role": "influential", "weight": 1.0},
    {"name": "income", "kind": "ordinal", "role": "influential", "weight": 1.0},
]
COLUMNS = [a["name"] for a in SCHEMA]
PARAMETER = "area"
VITAL = {"military_service": ["1"]}
SUPERSET = {"sex": ["1"]}


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload, as the benchmark needs to check them."""

    config: Path
    input: Path
    records: int
    signal: str
    parameter_order: tuple[str, ...]
    rows: tuple[tuple[int, str, float], ...]


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return str(int(v)) if v == int(v) else repr(v)
    return str(value)


def write_table(path: Path, columns: dict[str, np.ndarray]) -> int:
    """Write the columns as CSV (integers without a decimal point); return rows."""
    cols = [columns[name] for name in COLUMNS]
    n = cols[0].size
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for i in range(n):
            writer.writerow([_cell(col[i]) for col in cols])
    return n


def _write_config(directory: Path, seed: int, order, group: dict) -> Path:
    config = {
        "input": "input.csv",
        "output": "out/modified.csv",
        "report_dir": "out/report",
        "seed": seed,
        "schema": SCHEMA,
        "groups": [{
            "name": GROUP,
            "vital": VITAL,
            "parameter": PARAMETER,
            "parameter_order": list(order),
            "superset": SUPERSET,
            "wavelet": {"family": "db2", "level": 2},
            **group,
        }],
    }
    path = directory / "config.json"
    path.write_text(json.dumps(config) + "\n")
    return path


def _rows_json(rows):
    return [{"position": p, "relation": rel, "bound": b} for p, rel, b in rows]


def census_swap(directory: Path, seed: int, copies: int = 5) -> Workload:
    """Bundled quantity fixture x ``copies`` with the reference case scaled to match.

    Why: swap planning at census scale.  Five copies give 64,470 records
    (m = 16, one quantity group) and 19,108 swaps; planning is ~94% of the
    run, so this is the workload for the swap planner (remap layer).  The
    redistribution layer is bypassed: the config declares the reference
    solution (bounds, solution and shift scaled by ``copies``), so no LP
    runs, and the 16-position wavelet operator is trivial.  The seed only
    drives candidate sampling, through the config seed.  Ten copies would
    take ~36 s a run, too long for the number of runs a check makes.
    """
    columns = {name: np.tile(col, copies)
               for name, col in ref.build_quantity_microfile().columns.items()}
    n = write_table(directory / "input.csv", columns)
    rows = tuple((p, rel, bound * copies) for p, rel, bound, _ in ref.QUANTITY_SYSTEM)
    config = _write_config(directory, seed, ref.AREA_CODES, {
        "signal": "quantity",
        "constraints": {"rows": _rows_json(rows), "objective": "feasibility"},
        "solution": [float(v) * copies for v in ref.QUANTITY_SOLUTION],
        "shift": ref.QUANTITY_SHIFT * copies,
        "repair": "mean_fix",
    })
    return Workload(config, directory / "input.csv", n, "quantity",
                    tuple(ref.AREA_CODES), rows)


def long_axis_table(seed: int, m: int) -> dict[str, np.ndarray]:
    """Synthetic table over an m-position axis: >= 1 member everywhere, a few spikes.

    Partners (male non-members) scale with the members at each position;
    a few female records sit outside the superset.  The per-position
    profile depends on m only; ``seed`` draws attributes and record order.
    """
    profile = np.random.default_rng(m)
    members = profile.integers(1, 6, m)
    spikes = profile.choice(m, max(2, m // 680), replace=False)
    members[spikes] += profile.integers(200, 1200, spikes.size)
    rng = np.random.default_rng([seed, m])
    partners = members + 8
    codes = np.array([f"L{i:05d}" for i in range(m)])
    per_pos = members + partners
    area = np.repeat(codes, per_pos)
    is_member = np.concatenate([
        np.r_[np.ones(a, bool), np.zeros(b, bool)] for a, b in zip(members, partners)
    ])
    n = area.size
    service = np.where(is_member, "1", rng.choice(("0", "2", "3", "4"), n))
    sex = np.full(n, "1")
    n_extra = m // 4
    area = np.r_[area, codes[rng.integers(0, m, n_extra)]]
    service = np.r_[service, rng.choice(("0", "2"), n_extra)]
    sex = np.r_[sex, np.full(n_extra, "2")]
    total = area.size
    perm = rng.permutation(total)
    return {
        "area": area[perm],
        "military_service": service[perm],
        "sex": sex[perm],
        "age": rng.integers(18, 71, total).astype(float)[perm],
        "income": rng.integers(12_000, 95_000, total).astype(float)[perm],
    }


#: Half-width of the band around each position's original approximation value.
BAND = 0.25


def long_axis_rows(counts: np.ndarray):
    """Band every position around its approximation component; free the two top spikes.

    Returns the constraint rows and the two spike positions (1-based),
    which get only a lower bound and are minimized.
    """
    approx = approximation_component(decompose(counts, get_filter("db2"), 2))
    spikes = sorted(int(p) + 1 for p in np.argsort(-counts, kind="stable")[:2])
    rows = []
    for pos, value in enumerate(approx, start=1):
        rows.append((pos, ">=", float(value) - BAND))
        if pos not in spikes:
            rows.append((pos, "<=", float(value) + BAND))
    return tuple(rows), spikes


def long_axis(directory: Path, seed: int, m: int = 4096) -> Workload:
    """Synthetic long parameter axis; the LP minimizes the two largest spikes.

    Why: wavelet and LP cost grows with the axis length while swap work
    stays light.  m = 4096 positions (~65k records), every one populated,
    a few large spikes.  Every position is bounded within +-0.25 of its
    original approximation component, except the two largest spikes, which
    only get a lower bound and are minimized, so the LP really runs instead
    of the feasibility warm start.  The auto shift stays 0 and only a few
    hundred swaps result.  The wavelet operator, the LP and constraint
    checking dominate: this is the workload for the wavelet and
    redistribution layers, and for position indexing in the remap layer,
    which grows with m x records rather than with swaps.

    The axis profile is the same for every seed (see ``long_axis_table``),
    so every run poses the same LP and the same published-bound audit,
    whose violation count otherwise swings by a third between seeds.
    """
    columns = long_axis_table(seed, m)
    n = write_table(directory / "input.csv", columns)
    order = tuple(f"L{i:05d}" for i in range(m))
    member = columns["military_service"] == "1"
    index = {code: i for i, code in enumerate(order)}
    counts = np.bincount([index[a] for a in columns["area"][member]], minlength=m).astype(float)
    rows, spikes = long_axis_rows(counts)
    config = _write_config(directory, seed, order, {
        "signal": "quantity",
        "constraints": {"rows": _rows_json(rows), "objective": {"minimize": spikes},
                        "nonnegative_coefficients": False},
        "shift": "auto",
        "repair": "mean_fix",
    })
    return Workload(config, directory / "input.csv", n, "quantity", order, rows)


def paper_concentration(directory: Path, seed: int) -> Workload:
    """The paper's concentration case on the full 151,810-record table.

    Why: it is the largest table, so microfile load and write take their
    largest share here (output writing is ~30% of the run).  It also uses
    the planner differently from ``census_swap``: every pair cost ties at
    1.0, so the lowest-index tie-break decides each of the 3,012 swaps.
    The concentration-to-quantity conversion runs and the declared
    solution's known violation is reported as a warning.  The LP is
    bypassed (declared solution).  The table is the in-memory
    ``build_concentration_microfile()``; the seed drives candidate
    sampling through the config seed.
    """
    n = write_table(directory / "input.csv", ref.build_concentration_microfile().columns)
    rows = tuple((p, rel, bound) for p, rel, bound, _ in ref.CONCENTRATION_SYSTEM)
    config = _write_config(directory, seed, ref.AREA_CODES, {
        "signal": "concentration",
        "constraints": {"rows": _rows_json(rows), "objective": "feasibility"},
        "solution": [float(v) for v in ref.CONCENTRATION_SOLUTION],
        "shift": ref.CONCENTRATION_SHIFT,
    })
    return Workload(config, directory / "input.csv", n, "concentration",
                    tuple(ref.AREA_CODES), rows)


GENERATORS = {
    "census-swap": census_swap,
    "long-axis": long_axis,
    "paper-concentration": paper_concentration,
}
