"""Signal redistribution: constrain, re-solve and repair approximation coefficients.

The anonymization edit happens here.  Bounds on selected positions of the
low-frequency signal component become linear constraints over candidate
approximation coefficients (rows of the reconstruction matrix), a solution
is found by linear programming, and the signal is reassembled with its
detail coefficients untouched, which is what preserves the high-frequency
behaviour.  When the original coefficients a0 meet every row (and are
non-negative where the system asks it), an objective moves them only where
it needs to: restricted LPs over a growing working set of rows, with every
other coefficient fixed at a0 (row sifting, see ``solve_constraints``).
Otherwise one HiGHS answer covers every row; a feasibility-only system
that a0 meets is not solved at all and keeps a0, negative entries included.
Every LP goes through ``_highs``, which asks HiGHS once more, with presolve
flipped, when an answer is neither optimal nor unbounded; zero-cost trials
(QuickXplain) name the rows of an infeasible system.
The repairs that restore realizability are here too: a non-negativity
shift, a mean/std renormalization, a sum-preserving rescale and
largest-remainder integer rounding.  A run shifts every group's signal
(a difference group's only by a declared number), renormalizes it when
``"repair": "mean_std"`` asks, and then ``signals.concentration_to_quantity``
clamps, rescales and rounds it for every signal kind.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array, hstack

from .errors import ConstraintError, InfeasibleError, UnboundedError
from .wavelet import (
    WaveletDecomposition,
    approximation_component,
    detail_component,
)

__all__ = [
    "Objective",
    "ConstraintSpec",
    "LinearProgram",
    "RowChecks",
    "build_constraints",
    "solve_constraints",
    "check_solution",
    "reassemble",
    "make_nonnegative",
    "normalize_mean_std",
    "round_to_integers",
]

RELATIONS = ("<=", ">=")


@dataclass(frozen=True)
class Objective:
    """What to optimize: plain feasibility, or extremize chosen output positions."""

    kind: str = "feasibility"
    positions: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("feasibility", "maximize", "minimize"):
            raise ConstraintError(f"unknown objective kind {self.kind!r}")
        if self.kind != "feasibility" and not self.positions:
            raise ConstraintError(f"objective {self.kind!r} needs at least one position")
        if self.kind == "feasibility" and self.positions:
            raise ConstraintError("objective 'feasibility' takes no positions")


@dataclass(frozen=True, init=False, eq=False)
class ConstraintSpec:
    """Position bounds kept as columns, the objective and the coefficients' sign constraint.

    Row i bounds signal position ``positions[i]`` (1-based, int64) by
    ``relations[i]``; its bound is ``bounds[i]``, or the current
    approximation value where ``original[i]`` is set (``bounds`` holds NaN
    there, whatever was passed); ``original=None`` sets it for no row.  The
    arrays are the spec's own copies and read-only.
    """

    positions: np.ndarray
    relations: tuple[str, ...]
    bounds: np.ndarray
    original: np.ndarray
    objective: Objective
    nonnegative: bool

    def __init__(self, positions: Sequence[int], relations: Sequence[str],
                 bounds: Sequence[float], original: Sequence[bool] | None = None,
                 objective: Objective = Objective(), nonnegative: bool = True):
        relations = tuple(relations)
        n = len(relations)
        if not n:
            raise ConstraintError("constraint spec must contain at least one row")
        if not set(relations) <= set(RELATIONS):
            raise ConstraintError(f"relation must be one of {RELATIONS}")
        positions = np.array(positions, dtype=np.int64)
        bounds = np.asarray(bounds, dtype=float)
        original = np.zeros(n, dtype=bool) if original is None else np.array(original, dtype=bool)
        if not positions.shape == bounds.shape == original.shape == (n,):
            raise ConstraintError("constraint columns must hold one entry per row")
        bounds = np.where(original, math.nan, bounds)
        for array in (positions, bounds, original):
            array.setflags(write=False)
        for name, value in (("positions", positions), ("relations", relations),
                            ("bounds", bounds), ("original", original),
                            ("objective", objective), ("nonnegative", nonnegative)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class LinearProgram:
    """Sparse inequality system A x <= b over approximation coefficients.

    ``sign`` is the read-only array of +1 for a "<=" row and -1 for a ">="
    row, the only record of a row's direction.  ``a_ub`` is a CSR matrix:
    row i holds the nonzeros of reconstruction-matrix row
    ``sign[i] * R[position_i - 1]``, with bound ``b_ub[i] = sign[i] * bound_i``.
    It is built, solved and checked in that form.  Negation is exact and R
    has no negative zeros, so the operator-facing form of every row (raw
    coefficients, relation, resolved bound) is recovered bit for bit from
    a row's stored entries and bound times its sign; ``describe_row`` reads
    the entries as they are stored, sorted by column as R's rows are.
    """

    a_ub: csr_array
    b_ub: np.ndarray
    cost: np.ndarray
    nonnegative: bool
    sign: np.ndarray = field(repr=False)

    @property
    def n_vars(self) -> int:
        return int(self.a_ub.shape[1])

    def describe_row(self, i: int) -> str:
        """Row i as ``rows[i]: <terms> <relation> <bound>``, i its index in ``constraints.rows``.

        The one name a row gets; coefficients below 5e-4 in magnitude are left out.
        """
        sign = self.sign[i]
        start, end = self.a_ub.indptr[i], self.a_ub.indptr[i + 1]
        coeffs = self.a_ub.data[start:end] * sign
        keep = np.abs(coeffs) >= 5e-4
        terms = [f"{c:+.3f}*a({j + 1})"
                 for j, c in zip(self.a_ub.indices[start:end][keep].tolist(), coeffs[keep].tolist())]
        return (f"rows[{i}]: {' '.join(terms)} {'<=' if sign > 0 else '>='} "
                f"{self.b_ub[i] * sign:.3f}")


def build_constraints(dec: WaveletDecomposition, spec: ConstraintSpec) -> LinearProgram:
    """Turn position bounds and the objective into a linear program over new coefficients.

    Row (i, rel, b) becomes sum_j R[i-1, j] * a_j rel b, with R the
    reconstruction matrix of the decomposition.  One sparse product W @ R
    gives every row: W's row i holds ``sign[i]`` at row i's position, and
    its last row, the cost, the objective's direction (+1 to minimize, -1
    to maximize) at each objective position in declared order, repeats
    kept.  Only R's nonzeros are read; no dense R is built.
    """
    m, n = dec.signal_length, spec.positions.size
    columns = np.concatenate([spec.positions,
                              np.array(spec.objective.positions, dtype=np.int64)]) - 1
    outside = np.flatnonzero((columns < 0) | (columns >= m))
    if outside.size:
        i = int(outside[0])
        raise ConstraintError(f"{'constraint' if i < n else 'objective'} position "
                              f"{columns[i] + 1} outside 1..{m}")

    sign = np.where(np.array(spec.relations) == "<=", 1.0, -1.0)
    sign.setflags(write=False)
    direction = -1.0 if spec.objective.kind == "maximize" else 1.0
    weights = csr_array((np.concatenate([sign, np.full(columns.size - n, direction)]), columns,
                         np.append(np.arange(n + 1), columns.size)), shape=(n + 1, m))
    rows = weights @ dec.reconstruction_csr
    rows.sort_indices()
    bounds = spec.bounds
    if spec.original.any():
        bounds = np.where(spec.original, approximation_component(dec)[columns[:n]], bounds)

    return LinearProgram(
        a_ub=rows[:n],
        b_ub=bounds * sign,
        cost=rows[[n]].toarray().reshape(-1),
        nonnegative=spec.nonnegative,
        sign=sign,
    )


def _highs(cost: np.ndarray, a_ub: csr_array, b_ub: np.ndarray, bounds, presolve: bool = True):
    """HiGHS's answer to ``min cost @ x`` subject to ``a_ub @ x <= b_ub`` and ``bounds``.

    ``bounds`` is one (lo, hi) pair for every variable or an (n, 2) array.
    An answer that is neither optimal (status 0) nor unbounded (status 3)
    is asked once more with presolve flipped: presolve can call an
    unbounded system infeasible, and without presolve HiGHS can end an
    unbounded LP with no model status.  The second answer is kept only if
    it is 0 or 3, and a zero-cost LP's status 2 is final: it cannot be
    unbounded.  Returns the answer and the number of solves, 1 or 2.
    Every LP of this module is solved here, through the module's ``linprog``.
    """
    def solve(presolve: bool):
        return linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs",
                       options=None if presolve else {"presolve": False})

    res = solve(presolve)
    if res.status in (0, 3) or (res.status == 2 and not cost.any()):
        return res, 1
    again = solve(not presolve)
    return (again if again.status in (0, 3) else res), 2


def _conflict_subset(lp: LinearProgram, bounds) -> list[str]:
    """A minimal infeasible set of rows, each named by ``describe_row``, in row order.

    Each trial asks only whether some rows are feasible (zero cost).  If the
    whole system is called infeasible, QuickXplain (Junker, AAAI 2004) over
    the rows listed last-first, preferring rows listed first, names in about
    k log(n / k) trials the k rows that the deletion filter (drop row 0, 1,
    ... while the rest stays infeasible) names in n; else every row is named.
    """
    def infeasible(rows: list[int]) -> bool:
        rows = sorted(rows)
        return _highs(np.zeros(lp.n_vars), lp.a_ub[rows], lp.b_ub[rows], bounds)[0].status == 2

    def explain(background: list[int], added: bool, rows: list[int]) -> list[int]:
        if added and infeasible(background):
            return []
        if len(rows) == 1:
            return rows
        first, second = rows[:len(rows) // 2], rows[len(rows) // 2:]
        tail = explain(background + first, True, second)
        return explain(background + tail, bool(tail), first) + tail

    every = list(range(lp.b_ub.size))
    rows = sorted(explain([], False, every[::-1])) if infeasible(every) else every
    return list(map(lp.describe_row, rows))


#: Times the first working set is widened (rows -> their columns -> every row on those
#: columns) before the first restricted LP.  A few-hundred-row LP costs ~4 ms, most of it
#: scipy's per-call overhead, so the start is deep enough that a banded objective needs one
#: LP: on the long-axis generator (db2, level 2, +-0.25 bands) 3, 4, 5 and 6 widenings took
#: 3, 3, 2 and 1 LPs at each of m = 4096, 16384 and 65536, and over the sifting
#: differential test's 60 random systems 86, 78, 73 and 71 LPs in all, every optimal case
#: taking one from 5 on.
_START_WIDENINGS = 6


def _sift(lp: LinearProgram, start: np.ndarray, info: dict) -> np.ndarray:
    """Optimum of the system from a satisfying ``start`` by row sifting over restricted LPs.

    The working set W starts as the rows that touch the objective's columns,
    widened ``_START_WIDENINGS`` times, so that a banded system's first LP
    is usually its last.  Each round solves the LP over F, W's columns and
    the objective's own, with every other column fixed at ``start``, in
    change variables ``x_F = start_F + up - down`` (up, down >= 0;
    down <= start_F for a non-negative system), so the slack basis at zero
    is feasible and the simplex pivots in only what the objective needs.  Rows outside W that
    the result violates join W, widened to every row on their columns; an
    unbounded round adds every row on F, and is final when that adds none.
    """
    pattern = csr_array((np.ones(lp.a_ub.nnz), lp.a_ub.indices, lp.a_ub.indptr),
                        shape=lp.a_ub.shape)

    def rows_on(columns: np.ndarray) -> np.ndarray:
        return pattern @ columns.astype(float) > 0

    def columns_of(rows: np.ndarray) -> np.ndarray:
        return pattern.T @ rows.astype(float) > 0

    def widened(rows: np.ndarray) -> np.ndarray:
        return rows | rows_on(columns_of(rows))

    objective = lp.cost != 0
    work = rows_on(objective)
    for _ in range(_START_WIDENINGS):
        work = widened(work)
    info["solves"] = 0
    while True:
        on_f = columns_of(work) | objective
        free = np.flatnonzero(on_f)
        rows = np.flatnonzero(work)
        a = lp.a_ub[rows]
        slack = lp.b_ub[rows] - a @ start
        a = a[:, free]
        bounds = np.zeros((2 * free.size, 2))
        bounds[:, 1] = np.inf
        if lp.nonnegative:
            bounds[free.size:, 1] = start[free]
        cost = lp.cost[free]
        res, solves = _highs(np.concatenate([cost, -cost]), hstack([a, -a], format="csr"),
                             slack, bounds, presolve=False)
        info["solves"] += solves
        if res.status == 3:
            grown = work | rows_on(on_f)
            if np.array_equal(grown, work):
                raise UnboundedError("objective is unbounded over the constraint system")
            work = grown
            continue
        if res.status != 0:
            raise ConstraintError(f"linear programming failed: {res.message}")
        coeffs = start.copy()
        coeffs[free] += res.x[:free.size] - res.x[free.size:]
        missed = (lp.a_ub @ coeffs - lp.b_ub > 1e-9) & ~work
        if not missed.any():
            return coeffs
        work = work | widened(missed)


def solve_constraints(lp: LinearProgram, warm_start: np.ndarray | None = None,
                      info: dict | None = None) -> np.ndarray:
    """Find coefficients satisfying the system, optionally optimizing.

    With a pure feasibility objective a satisfying ``warm_start`` (typically
    the original coefficients) is returned as-is, also where it is negative
    in a non-negative system, which keeps identity configurations exactly
    identity.  With an objective, a ``warm_start`` a0 that meets every row
    (and is >= 0 in a non-negative system) is moved only where the
    objective needs it: restricted LPs over a working set of rows, in which
    every column outside the set's support has zero cost and no entry, so
    their duals extended by zeros are dual feasible for the whole system,
    and a restricted optimum that meets every row is optimal for it (row
    sifting; Bixby et al., Operations Research 40(5), 1992).  On a banded
    system that is usually one restricted LP.  Every other case is one
    HiGHS answer for the whole system.  Any answer that is neither optimal
    nor unbounded is asked once more with presolve flipped (``_highs``).

    If ``info`` is given, ``info["solves"]`` receives the number of LPs
    solved: 0 for a returned warm start, 1 for the whole system (2 when its
    first answer was asked again), else those of the restricted LPs.  The
    trials that name an infeasible system's conflict are not counted.
    """
    info = {} if info is None else info
    start = np.asarray(() if warm_start is None else warm_start, dtype=float)
    if start.size == lp.n_vars and check_solution(lp, start).satisfied.all():
        if not lp.cost.any():
            info["solves"] = 0
            return start.copy()
        if not (lp.nonnegative and np.any(start < 0)):
            return _sift(lp, start, info)
    bounds = (0, None) if lp.nonnegative else (None, None)
    res, info["solves"] = _highs(lp.cost, lp.a_ub, lp.b_ub, bounds)
    if res.status == 2:
        conflict = _conflict_subset(lp, bounds)
        raise InfeasibleError("constraint system is infeasible; irreducible conflict (best "
                              "effort): " + "; ".join(conflict), conflict=conflict)
    if res.status == 3:
        raise UnboundedError("objective is unbounded over the constraint system")
    if res.status != 0:
        raise ConstraintError(f"linear programming failed: {res.message}")
    return np.asarray(res.x, dtype=float)


@dataclass(frozen=True, eq=False)
class RowChecks:
    """Every row of a system evaluated at one point, as read-only arrays.

    ``lhs``, ``bound``, ``satisfied`` and ``violation`` hold one entry per
    row, in the operator-facing form; row i reads as text through the
    system's :meth:`LinearProgram.describe_row`.
    """

    lhs: np.ndarray
    bound: np.ndarray
    satisfied: np.ndarray
    violation: np.ndarray

    def __post_init__(self):
        for array in (self.lhs, self.bound, self.satisfied, self.violation):
            array.setflags(write=False)


def check_solution(lp: LinearProgram, coeffs: np.ndarray, tol: float = 1e-9) -> RowChecks:
    """Evaluate every row at ``coeffs``; violations carry their magnitude.

    One sparse product ``a_ub @ coeffs`` gives every left-hand side, and
    times ``lp.sign`` (exact) its operator-facing form.  A ">=" row's gap in
    ``a_ub`` form, ``lhs - bound``, equals ``bound - lhs`` of that form.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    signed = lp.a_ub @ coeffs
    gap = signed - lp.b_ub
    return RowChecks(
        lhs=signed * lp.sign,
        bound=lp.b_ub * lp.sign,
        satisfied=gap <= tol,
        violation=np.where(gap < 0.0, 0.0, gap),
    )


def reassemble(dec: WaveletDecomposition, coeffs: np.ndarray) -> np.ndarray:
    """New signal from replacement approximation coefficients plus kept details.

    The approximation part is ``R @ coeffs`` over R's CSR rows, summed in a
    fixed order: row i starts at 0.0 and adds ``data[j] * coeffs[indices[j]]``
    for its stored entries in column order.  That is scipy's compiled CSR
    row loop, not a BLAS kernel, so published counts do not depend on the
    BLAS build or the CPU.  Each row has at most filter-length terms.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != dec.approx.shape:
        raise ConstraintError(
            f"expected {dec.approx.size} coefficients, got {coeffs.size}"
        )
    return dec.reconstruction_csr @ coeffs + detail_component(dec)


def make_nonnegative(values: np.ndarray, shift: float | None = None, margin: float = 0.0):
    """Add a constant making every component non-negative.

    When ``shift`` is omitted it defaults to ceil(-min) plus ``margin`` for
    signals with negative entries and to 0 otherwise.  Returns the shifted
    signal and the shift used.
    """
    values = np.asarray(values, dtype=float)
    if shift is None:
        lowest = float(values.min()) if values.size else 0.0
        shift = 0.0 if lowest >= 0 else math.ceil(-lowest) + margin
    return values + shift, float(shift)


def normalize_mean_std(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Affinely map the signal onto the reference mean and standard deviation.

    Sample statistics (denominator m - 1) on both sides; the input must
    have positive spread.
    """
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    std_in = values.std(ddof=1)
    std_ref = reference.std(ddof=1)
    if std_in == 0 or std_ref == 0:
        raise ConstraintError("mean/std normalization needs non-constant signals")
    return (values - values.mean()) * (std_ref / std_in) + reference.mean()


def round_to_integers(values: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder rounding to non-negative integers summing to ``total``.

    Ties in the remainder break toward the lower index.  ``total`` must lie
    between the floor-sum and ceil-sum of the input, so every component
    moves by less than 1.
    """
    values = np.asarray(values, dtype=float)
    if np.any(values < 0):
        raise ConstraintError("rounding requires non-negative values")
    if total < 0:
        raise ConstraintError("total must be non-negative")
    floors = np.floor(values)
    remainders = values - floors
    out = floors.astype(np.int64)
    short = int(total - out.sum())
    if short < 0 or short > int(np.ceil(values).sum() - out.sum()):
        raise ConstraintError(
            f"total {total} is unreachable by rounding a signal with sum {values.sum():.6g}"
        )
    if short:
        order = np.argsort(-remainders, kind="stable")
        out[order[:short]] += 1
    return out


#: Repairs a group may name.  ``mean_std`` (quantity groups only) renormalizes the shifted
#: signal; ``mean_fix`` adds no step to the rescale every signal gets.
REPAIRS = ("mean_fix", "mean_std")
