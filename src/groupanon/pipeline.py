"""End-to-end orchestration: load, per-group signal edit, remap, report.

Groups are processed in declared order and each one sees the table already
modified by its predecessors, so declaration order is part of the run's
semantics.  After the last group every earlier group is recounted on the
final table, and a later group's swaps that moved the counts an earlier
group publishes stop the run.  All outputs (modified CSV, report
directory) are written only after every group has succeeded; a stage
failure therefore leaves nothing half-written.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import redistribute as rd
from .atomic import atomic_write
from .charts import svg_line_chart
from .config import GroupConfig, PipelineConfig
from .errors import GroupAnonError, StageError
from .microfile import (Microfile, formatted_cells, group_census, integer_cells, load_microfile,
                        text_cells, write_columns, write_microfile)
from .remap import SwapPlan, apply_swaps, plan_swaps
from .signals import (
    GoalSignal,
    concentration_signal,
    concentration_to_quantity,
    difference_signal,
    quantity_signal,
)
from .wavelet import WaveletDecomposition, decompose

__all__ = ["GroupEdit", "GroupLog", "GroupRunResult", "PipelineResult", "load_input",
           "run_pipeline", "write_outputs", "build_goal_signal", "run_group", "edit_group",
           "realize_group"]

logger = logging.getLogger(__name__)

_DETAIL_PRESERVATION_TOL = 1e-6


@dataclass
class GroupEdit:
    """The edit half of one group's run: the goal signal, its edit and the quantity target.

    ``lp`` and ``checks`` are None for a group with a declared ``target``,
    which builds no system; its coefficients are then the original ones and
    its final signal is the target.  ``solves`` counts the LPs solved for
    the coefficients (see ``solve_constraints``); 0 when they were declared.
    """

    before: GoalSignal
    decomposition: WaveletDecomposition
    lp: rd.LinearProgram | None
    coefficients: np.ndarray
    checks: rd.RowChecks | None
    reassembled: np.ndarray
    shift: float
    final_signal: np.ndarray
    target: GoalSignal
    solves: int = 0


@dataclass
class GroupRunResult:
    """Everything one group's run produced, for the report.

    ``planner`` holds the swap planner's counts (see ``plan_swaps``).
    ``subordinate`` is the subordinate concentration the published audit of
    a difference group read; None when there was no such audit.
    """

    name: str
    edit: GroupEdit
    plan: SwapPlan
    planner: dict[str, int]
    after: GoalSignal
    published_checks: rd.RowChecks | None
    subordinate: np.ndarray | None
    timings: dict[str, float]
    warnings: list[str]


@dataclass
class PipelineResult:
    microfile: Microfile
    groups: list[GroupRunResult]
    load_s: float
    bytes_read: int
    reader: str


def build_goal_signal(m: Microfile, gcfg: GroupConfig) -> GoalSignal:
    """The group's goal signal per its configured kind (single source of truth)."""
    if gcfg.signal == "quantity":
        return quantity_signal(m, gcfg.group)
    if gcfg.signal == "concentration":
        return concentration_signal(m, gcfg.group)
    main = concentration_signal(m, gcfg.group)
    sub = concentration_signal(m, gcfg.subordinate)
    return difference_signal(main, sub)


class GroupLog:
    """One group's stage timings and warnings, shared by its edit and realize halves."""

    def __init__(self, name: str):
        self.name = name
        self.timings: dict[str, float] = {}
        self.warnings: list[str] = []

    def stage(self, name, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` timed as stage ``name``; a failure becomes a ``StageError``."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except StageError:
            raise
        except GroupAnonError as exc:
            raise StageError(name, self.name, str(exc)) from exc
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - t0

    def warn(self, message: str) -> None:
        """Keep ``message`` for the report and log it."""
        self.warnings.append(message)
        logger.warning("group %s: %s", self.name, message)


def run_group(m: Microfile, gcfg: GroupConfig) -> tuple[Microfile, GroupRunResult]:
    """Run the four-stage scheme for one group against the current table."""
    log = GroupLog(gcfg.name)
    return realize_group(m, gcfg, edit_group(m, gcfg, log), log)


def edit_group(m: Microfile, gcfg: GroupConfig, log: GroupLog) -> GroupEdit:
    """Signal, decomposition, constrained edit and repair: the group's quantity target."""
    stage = log.stage
    before = stage("signal", build_goal_signal, m, gcfg)
    dec = stage("decompose", decompose, before.values, gcfg.filter, gcfg.level)

    if gcfg.target is not None:
        # operator-declared target: skip the signal-editing stages entirely
        return GroupEdit(before, dec, None, dec.approx.copy(), None, before.values.copy(), 0.0,
                         gcfg.target.values.copy(), gcfg.target)

    lp = stage("constraints", rd.build_constraints, dec, gcfg.constraints)

    solver: dict[str, int] = {"solves": 0}
    if gcfg.solution is not None:
        coeffs = gcfg.solution
        checks = stage("check", rd.check_solution, lp, coeffs)
        for i in np.flatnonzero(~checks.satisfied).tolist():
            log.warn(f"declared solution violates {lp.describe_row(i)} "
                     f"by {checks.violation[i]:.6g}")
    else:
        coeffs = stage("solve", rd.solve_constraints, lp, warm_start=dec.approx, info=solver)
        checks = stage("check", rd.check_solution, lp, coeffs, tol=1e-6)
        bad = np.flatnonzero(~checks.satisfied)
        if bad.size:
            raise StageError("solve", gcfg.name,
                             f"solver output violates {lp.describe_row(int(bad[0]))}")

    reassembled = stage("reassemble", rd.reassemble, dec, coeffs)
    redec = decompose(reassembled, dec.filter, dec.level)
    for j, d in dec.details.items():
        if np.max(np.abs(redec.details[j] - d)) > _DETAIL_PRESERVATION_TOL:
            raise StageError("reassemble", gcfg.name,
                             f"detail coefficients at level {j} drifted")

    final, shift, target = stage("repair", _repair_and_target, m, gcfg, before, reassembled, log)
    return GroupEdit(before, dec, lp, np.asarray(coeffs, dtype=float), checks, reassembled,
                     shift, final, target, solver["solves"])


def realize_group(m: Microfile, gcfg: GroupConfig, edit: GroupEdit,
                  log: GroupLog) -> tuple[Microfile, GroupRunResult]:
    """Swap plan, application, recount and published-bound audit of an edited group."""
    stage = log.stage
    planner: dict[str, int] = {}
    plan = stage("plan", plan_swaps, m, gcfg.group, edit.target, gcfg.weights, info=planner)
    modified = stage("apply", apply_swaps, m, plan)

    after = stage("recount", quantity_signal, modified, gcfg.group)
    if not np.array_equal(after.values, edit.target.values):
        raise StageError("recount", gcfg.name, "swap plan failed to realize the target signal")

    published = subordinate = None
    if edit.lp is not None:
        published, subordinate = stage("audit", _audit_published, modified, gcfg, edit, after)
        bad = np.flatnonzero(~published.satisfied)
        if bad.size:
            worst = int(np.argmax(published.violation))
            log.warn(f"published signal violates {bad.size} of {published.satisfied.size} "
                     f"declared rows; worst is {edit.lp.describe_row(worst)}, "
                     f"off by {published.violation[worst]:.6g}")

    return modified, GroupRunResult(gcfg.name, edit, plan, planner, after, published,
                                    subordinate, log.timings, log.warnings)


def _audit_published(modified: Microfile, gcfg: GroupConfig, edit: GroupEdit,
                     after: GoalSignal) -> tuple[rd.RowChecks, np.ndarray | None]:
    """The declared rows evaluated at the published signal's approximation coefficients.

    The published signal is the recounted quantity over the group's
    denominators, and for a difference group that concentration less the
    subordinate's, which is returned beside the checks (None for other kinds).
    Swap partners come from the superset population, so the superset counts,
    the denominators, are the same after the swaps as before.
    """
    published = after.values / _denominators(edit.before)
    subordinate = None
    if gcfg.signal == "difference":
        subordinate = concentration_signal(modified, gcfg.subordinate).values
        published = published - subordinate
    dec = edit.decomposition
    redec = decompose(published, dec.filter, dec.level)
    return rd.check_solution(edit.lp, redec.approx, tol=1e-9), subordinate


def _recount_final(m: Microfile, gcfg: GroupConfig, result: GroupRunResult) -> None:
    """Raise unless the final table ``m`` holds the counts group ``gcfg`` published.

    Those are what its published signal is built from: its members, which
    must equal ``signal_after``; for a concentration or difference group its
    superset, which must equal the denominators it used; and for a
    difference group the subordinate concentration its audit read.  A later
    group's swaps can move any of them, since a swap keeps another
    membership's counts only when the two records agree on it.
    """
    counts = {"members": (quantity_signal(m, gcfg.group).values, result.after.values)}
    if result.edit.before.denominators is not None:
        counts["superset"] = (concentration_signal(m, gcfg.group).denominators,
                              result.edit.before.denominators)
    if result.subordinate is not None:
        counts["subordinate concentration"] = (
            concentration_signal(m, gcfg.subordinate).values, result.subordinate)
    for what, (final, reported) in counts.items():
        moved = np.flatnonzero(final != reported)
        if moved.size:
            p = int(moved[0])
            raise StageError(
                "recount", gcfg.name,
                f"a later group's swaps moved its {what} at position {p + 1} "
                f"({gcfg.group.parameter_order[p]!r}) from {reported[p]:g} to {final[p]:g} "
                f"in the final table ({moved.size} position(s) moved)")


def _denominators(before: GoalSignal) -> np.ndarray:
    """The superset counts, or ones for a quantity signal: its own concentration."""
    return np.ones(len(before)) if before.denominators is None else before.denominators


def _repair_and_target(m: Microfile, gcfg: GroupConfig, before: GoalSignal,
                       reassembled: np.ndarray, log: GroupLog):
    """One repair chain for every signal kind; returns (final signal, shift, quantity target).

    The edited signal is shifted and optionally renormalized.  A difference
    group is shifted only by a declared number, and its difference goes back
    onto the subordinate concentrations, so the main group absorbs the edit.
    The result is a concentration over the group's denominators, which the
    conversion clamps at zero (warning under the group's name), rescales to
    the member total and rounds: swaps move members between parameter values
    but never add or remove one.  A quantity signal's final form is its
    rounded target.
    """
    shift, base = gcfg.shift, 0.0
    if gcfg.signal == "difference":
        shift = shift or 0.0  # "auto" does not shift a difference
        base = concentration_signal(m, gcfg.subordinate).values
    final, shift = rd.make_nonnegative(reassembled, shift, gcfg.margin)
    if gcfg.repair == "mean_std":
        final = rd.normalize_mean_std(final, before.values)
    c_target = GoalSignal("concentration", final + base, before.parameter_order,
                          denominators=_denominators(before))
    total = int(np.count_nonzero(group_census(m, gcfg.group)[1]))
    target = concentration_to_quantity(c_target, total, warn=log.warn)
    if before.denominators is None:
        final = target.values
    return final, shift, target


def load_input(config: PipelineConfig, info: dict | None = None) -> Microfile:
    """The configured input table; a failure to load is a ``load`` stage error.

    ``info`` is passed on to ``load_microfile``.
    """
    try:
        return load_microfile(config.input_path, config.schema, config.identifiers, info=info)
    except GroupAnonError as exc:
        raise StageError("load", "-", str(exc)) from exc


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Load the input table and process every group in declared order."""
    t0 = time.perf_counter()
    info: dict[str, str] = {}
    m = load_input(config, info)
    load_s = time.perf_counter() - t0
    bytes_read = os.path.getsize(config.input_path)

    results = []
    for gcfg in config.groups:
        m, result = run_group(m, gcfg)
        results.append(result)
    # the last group's own recount was made on the final table
    for gcfg, result in zip(config.groups[:-1], results):
        log = GroupLog(gcfg.name)
        log.stage("recount", _recount_final, m, gcfg, result)
        result.timings["final_recount"] = log.timings["recount"]
    return PipelineResult(microfile=m, groups=results, load_s=load_s, bytes_read=bytes_read,
                          reader=info["reader"])


def write_signal_csv(path, order, values) -> None:
    """Write a signal as (parameter value, value) rows, each value to 12 significant digits."""
    write_columns(path, ["parameter_value", "value"],
                  [text_cells([str(p) for p in order], np.arange(len(order))),
                   formatted_cells(values, "{:.12g}".format)], len(order))


def write_coefficients_csv(path, dec: WaveletDecomposition) -> None:
    """Write a decomposition as (component, index, value) rows, each value to 12 significant digits.

    The approximation comes first, then each detail level, coarsest first;
    the index counts from 1 within a component.
    """
    parts = [(f"approx{dec.level}", dec.approx)] + [(f"detail{j}", dec.details[j])
                                                     for j in dec.detail_levels()]
    sizes = [len(values) for _, values in parts]
    write_columns(path, ["component", "index", "value"],
                  [text_cells([label for label, _ in parts],
                              np.repeat(np.arange(len(parts)), sizes)),
                   integer_cells(np.concatenate([np.arange(1, n + 1, dtype=np.int64)
                                                 for n in sizes])),
                   formatted_cells(np.concatenate([values for _, values in parts]),
                                   "{:.12g}".format)], sum(sizes))


def write_outputs(config: PipelineConfig, result: PipelineResult,
                  config_s: float | None = None) -> None:
    """Write the modified table, per-group artifacts and the JSON report.

    Every file is replaced atomically, and ``report.json`` comes last, so a
    run that fails while writing leaves the previous report in place.
    ``config_s``, the time the config read took, is reported as ``io.config_s``
    (null when not given).
    """
    output = config.output_path
    report_dir = config.report_path
    report_dir.mkdir(parents=True, exist_ok=True)
    output.parent.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    written = [output]

    def artifact(name):
        written.append(report_dir / name)
        return written[-1]

    write_microfile(result.microfile, output)
    groups = []
    for g in result.groups:
        order = g.edit.before.parameter_order
        write_signal_csv(artifact(f"{g.name}_signal_before.csv"), order, g.edit.before.values)
        write_signal_csv(artifact(f"{g.name}_signal_after.csv"), order, g.after.values)
        svg_line_chart(order, g.edit.before.values, artifact(f"{g.name}_before.svg"),
                       title=f"{g.name}: goal signal (before)")
        svg_line_chart(order, g.after.values, artifact(f"{g.name}_after.svg"),
                       title=f"{g.name}: goal signal (after)")
        _write_plan_csv(artifact(f"{g.name}_swaps.csv"), g.plan)
        groups.append(
            {
                "name": g.name,
                "signal_before": _floats(g.edit.before.values),
                "signal_after": _floats(g.after.values),
                "coefficients": _floats(g.edit.coefficients),
                "shift": g.edit.shift,
                "swaps": len(g.plan),
                "total_swap_cost": g.plan.total_cost,
                "plan": g.planner,
                "lp": _lp_summary(g.edit, g.published_checks),
                "timings": {k: round(v, 6) for k, v in g.timings.items()},
                "warnings": g.warnings,
            }
        )
    write_s = time.perf_counter() - t0

    report = {
        "output": str(output),
        "io": {
            "config_s": None if config_s is None else round(config_s, 6),
            "load_s": round(result.load_s, 6),
            "write_s": round(write_s, 6),
            "records": result.microfile.n_records,
            "bytes_read": result.bytes_read,
            "bytes_written": sum(os.path.getsize(p) for p in written),
            "reader": result.reader,
        },
        "groups": groups,
    }
    with atomic_write(report_dir / "report.json") as fh:
        fh.write(_json_text(report) + "\n")


def _floats(values: np.ndarray) -> list[float]:
    return np.asarray(values, dtype=float).tolist()


def _json_text(value, pad: str = "") -> str:
    """``value`` as JSON: objects, and arrays that hold an object or an array, one member a line.

    Members are indented two spaces deeper than their container.  Every
    other value, an array of numbers or texts included, is one
    ``json.dumps`` call without ``indent``, which runs the C encoder, so a
    long signal is written on one line at C speed.
    """
    inner = pad + "  "
    if isinstance(value, dict) and value:
        brackets = "{}"
        members = [f"{json.dumps(key)}: {_json_text(item, inner)}" for key, item in value.items()]
    elif isinstance(value, list) and any(map(isinstance, value, repeat((dict, list)))):
        brackets = "[]"
        members = [_json_text(item, inner) for item in value]
    else:
        return json.dumps(value)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(members) + f"\n{pad}{brackets[1]}"


def _lp_summary(edit: GroupEdit, published: rd.RowChecks | None) -> dict | None:
    """Size of the group's LP, how it was solved and how its coefficients and the published
    signal met it.

    None without an LP, that is for a group with a declared target.
    """
    lp, checks = edit.lp, edit.checks
    if lp is None:
        return None
    return {
        "rows": lp.sign.size,
        "vars": lp.n_vars,
        "nonzeros": int(lp.a_ub.nnz),
        "solves": edit.solves,
        "coefficients_moved": int(np.count_nonzero(edit.coefficients
                                                   != edit.decomposition.approx)),
        "violated_rows": int(np.count_nonzero(~checks.satisfied)),
        "max_violation": float(checks.violation.max(initial=0.0)),
        "published_violated_rows": int(np.count_nonzero(~published.satisfied)),
        "published_max_violation": float(published.violation.max(initial=0.0)),
    }


def _write_plan_csv(path, plan: SwapPlan) -> None:
    """Write the plan's swaps as (member, partner, cost) rows, each cost to 12 significant digits."""
    write_columns(path, ["member_index", "partner_index", "cost"],
                  [integer_cells(plan.swaps[:, 0]), integer_cells(plan.swaps[:, 1]),
                   formatted_cells(plan.costs, "{:.12g}".format)], len(plan))
