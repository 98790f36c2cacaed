"""Check every bundled reference value through the functions a run calls.

Both cases of the bundled worked example, quantity and concentration, go
through one function that runs a run's own stages on the frozen input
signal: ``decompose`` and the two components, ``build_constraints`` over
the printed constraint system (its coefficients compared against the
printed three-decimal ones), ``check_solution`` for the bundled solution
and ``reassemble`` for the new signal.  Each case then checks its own
tail: the quantity case shifts its signal and converts it over unit
denominators, the conversion a run applies to a quantity group; the
concentration case checks its shifted signal.  Every row compares one
checkpoint to its frozen vector at its stated tolerance.  One check is
special: the bundled concentration-case solution genuinely violates one row
of its own constraint system (see :mod:`groupanon.reference`), so the
verifier asserts the violation is exactly the known one and reports it with
status KNOWN rather than PASS or FAIL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reference as ref
from .microfile import members
from .redistribute import (ConstraintSpec, build_constraints, check_solution, make_nonnegative,
                           reassemble)
from .signals import GoalSignal, concentration_to_quantity, quantity_signal
from .wavelet import FILTERS, FilterPair, approximation_component, decompose, detail_component

__all__ = ["CheckRow", "verify_reference_values", "format_table", "has_failures"]


@dataclass(frozen=True)
class CheckRow:
    name: str
    status: str  # PASS, FAIL or KNOWN
    max_delta: float
    tolerance: float
    detail: str = ""


def _compare(name: str, got, expected, tol: float) -> CheckRow:
    delta = float(np.max(np.abs(np.asarray(got) - np.asarray(expected))))
    return CheckRow(name, "PASS" if delta <= tol else "FAIL", delta, tol)


def _case(kind: str, fp: FilterPair, solution_row, tol: float) -> tuple[list[CheckRow], np.ndarray]:
    """The shared rows of one bundled case and its reassembled signal.

    ``kind`` names the case and its frozen vectors in :mod:`groupanon.reference`
    (``QUANTITY_APPROX_2`` and so on).  ``solution_row(violation, position)``
    judges the bundled solution's worst row; ``tol`` bounds the new signal.
    """
    def frozen(suffix):
        return getattr(ref, f"{kind.upper()}_{suffix}")

    dec = decompose(getattr(ref, kind.upper()), fp, 2)
    detail = detail_component(dec)
    rows = [
        _compare(f"{kind} level-2 approx coefficients", dec.approx, frozen("APPROX_2"), 1e-3),
        _compare(f"{kind} level-2 detail coefficients", dec.details[2], frozen("DETAIL_2"), 1e-3),
        _compare(f"{kind} approximation component", approximation_component(dec),
                 frozen("APPROX_COMPONENT"), 1e-3),
        _compare(f"{kind} detail component", detail, frozen("DETAIL_COMPONENT"), 1e-3),
    ]

    system = frozen("SYSTEM")
    positions, relations, bounds, _ = zip(*system)
    lp = build_constraints(dec, ConstraintSpec(positions, relations, bounds))
    rows.append(_compare(f"{kind} constraint-system coefficients",
                         lp.a_ub.toarray() * lp.sign[:, None],
                         [printed for *_, printed in system], 1e-3))

    solution = frozen("SOLUTION")
    violation = check_solution(lp, solution).violation
    worst = int(np.argmax(violation))
    rows.append(solution_row(float(violation[worst]), system[worst][0]))

    reassembled = reassemble(dec, solution)
    rows.append(_compare(f"{kind} new approximation component", reassembled - detail,
                         frozen("NEW_APPROX_COMPONENT"), tol))
    rows.append(_compare(f"{kind} reassembled signal", reassembled, frozen("REASSEMBLED"), tol))
    return rows, reassembled


def _quantity_solution_row(violation: float, position: int) -> CheckRow:
    ok = violation <= 1e-9
    return CheckRow("quantity solution satisfies its system", "PASS" if ok else "FAIL",
                    violation, 1e-9, detail="" if ok else f"violated at position {position}")


def _concentration_solution_row(violation: float, position: int) -> CheckRow:
    name = "concentration solution vs its system"
    expected = ref.CONCENTRATION_KNOWN_VIOLATION
    if position == expected["position"] and abs(violation - expected["violation"]) < 2e-4:
        return CheckRow(
            name, "KNOWN", violation, 0.0,
            detail=(f"bundled solution violates the position-{position} row by "
                    f"{violation:.2e}; retained verbatim, documented inconsistency"),
        )
    return CheckRow(name, "FAIL", violation, 0.0,
                    detail=f"violation pattern changed: position {position}, gap {violation:.2e}")


def verify_reference_values(lowpass=None, fixture_csv=None) -> list[CheckRow]:
    """Recompute all reference checkpoints; optionally override the low-pass taps
    (sensitivity checks) or the fixture CSV path."""
    fp = FILTERS["db2"] if lowpass is None else FilterPair.from_lowpass("lowpass", lowpass)

    rows, reassembled = _case("quantity", fp, _quantity_solution_row, 1e-2)
    shifted, _ = make_nonnegative(reassembled, ref.QUANTITY_SHIFT)
    total = int(ref.QUANTITY.sum())
    final = concentration_to_quantity(
        GoalSignal("concentration", shifted, ref.AREA_CODES,
                   denominators=np.ones(len(ref.AREA_CODES))), total).values
    worst = int(np.max(np.abs(final - ref.QUANTITY_FINAL)))
    sum_ok = int(final.sum()) == total
    rows.append(CheckRow("quantity final rounded signal",
                         "PASS" if worst <= 1 and sum_ok else "FAIL", float(worst), 1.0,
                         detail=f"sum {int(final.sum())}"))

    concentration_rows, reassembled = _case("concentration", fp, _concentration_solution_row,
                                            1e-3)
    rows += concentration_rows
    shifted, _ = make_nonnegative(reassembled, ref.CONCENTRATION_SHIFT)
    rows.append(_compare("concentration shifted signal", shifted, ref.CONCENTRATION_SHIFTED, 1e-3))

    rows.append(_fixture_check(fixture_csv))
    return rows


def _fixture_check(fixture_csv) -> CheckRow:
    name = "fixture microfile group counts"
    try:
        m = ref.load_quantity_microfile(fixture_csv)
    except Exception as exc:
        missing = isinstance(exc, FileNotFoundError) or "cannot read" in str(exc)
        detail = "fixture missing" if missing else f"fixture unreadable: {exc}"
        return CheckRow(name, "FAIL", float("nan"), 0.0, detail=detail)
    group = ref.fixture_group()
    total = members(m, group).size
    counts = quantity_signal(m, group).values
    ok = total == int(ref.QUANTITY.sum()) and np.array_equal(counts, ref.QUANTITY)
    return CheckRow(name, "PASS" if ok else "FAIL",
                    float(np.max(np.abs(counts - ref.QUANTITY))), 0.0,
                    detail=f"{total} members")


def has_failures(rows: list[CheckRow]) -> bool:
    return any(row.status == "FAIL" for row in rows)


def format_table(rows: list[CheckRow]) -> str:
    width = max(len(row.name) for row in rows)
    lines = []
    for row in rows:
        delta = "nan" if np.isnan(row.max_delta) else f"{row.max_delta:.3e}"
        line = f"{row.name:<{width}}  {row.status:<5}  delta {delta} (tol {row.tolerance:g})"
        if row.detail:
            line += f"  [{row.detail}]"
        lines.append(line)
    failed = sum(r.status == "FAIL" for r in rows)
    known = sum(r.status == "KNOWN" for r in rows)
    summary = f"{len(rows)} checks: {len(rows) - failed - known} passed, {failed} failed"
    if known:
        summary += f", {known} known discrepancy"
    lines.append(summary)
    return "\n".join(lines)
