"""Realize a target quantity signal by swapping parameter values between records.

A swap exchanges only the parameter-attribute values of a group member and
a non-member partner, moving the member to a new position of the goal
signal while every other attribute of both records stays put.  Partners are
drawn from the superset population when the group declares one, so
concentration denominators are invariant under the plan.

Pair selection is greedy and exact.  Each greedy step moves a member from
the position of largest surplus to the position of largest deficit; that
order depends on the counts alone, so the planner computes the whole
donor→recipient flow up front as blocks.  Within a block it repeatedly
takes the cheapest remaining (member, partner) pair under the influential
metric, breaking ties toward the lower member and then the lower partner
record index.  Plans are therefore a deterministic function of the inputs.

A block with few enough (member, partner) pairs is matched by the obvious
sweep: score every pair, sort by (cost, member, partner) and take pairs
whose records are both still free.  In larger blocks the cheapest pairs
are found without scoring every pair.  Records with identical influential
attributes are collapsed into classes; the classes are partitioned so that
the nominal terms and the terms of zero ordinal values are constant; and
each partition is searched with a k-d tree in log-ordinal coordinates,
where every ordinal term grows with the distance along its axis.  A
candidate list is trusted only up to the cost below which it provably
holds every class.

A position's members (as a donor) and partners (as a recipient) are
grouped into a queue on the first searched block that needs them.  Only
then are the queue's own records collapsed into classes, each described by
its lowest record: no factorisation of the whole table is made.  Classes,
partitions and candidate groups are all numbered the same way, as the runs
of equal rows in one stable lexsort of their keys (``_runs``), so each run
lists its members ascending and runs are ranked by their keys.  The queue
keeps its classes, partitions, candidate groups and k-d trees for that
position's later blocks; it is dropped after the position's last block,
which the up-front flow names.  A view of a queue's candidate groups is
built from the runs of records that its ascending classes already form,
and sorts records only where a group merges several classes.  One array
of used-record flags, set by the sweep and the search alike, is the only
record of which records are gone: at each block start a kept view drops
its used-up groups and rebuilds its tree only if one went.  Record
indices are int32 wherever the table allows.

Costs often tie: coarse attributes give many candidate groups the same
cost against a class of the other side, and on a table whose influential
attributes are constant every pair costs the same.  Once no other pair is
as cheap as a class's pairs with its tied candidate groups, greedy order
pairs the class's records, ascending, with the groups' merged records,
ascending, one to one.  Such a run is taken in one step, by array passes
when it may be long, rather than one heap step per swap.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import RemapError
from .microfile import Attribute, GroupSpec, Microfile, group_census
from .signals import GoalSignal

__all__ = [
    "InfluentialWeights",
    "SwapPlan",
    "influential_metric",
    "plan_swaps",
    "apply_swaps",
]


@dataclass(frozen=True)
class InfluentialWeights:
    """Attribute weights for record closeness.

    Ordinal attributes contribute a weighted squared relative difference,
    nominal attributes a weighted squared category factor: ``chi_same``
    when the two values agree, ``chi_diff`` when they do not.
    """

    ordinal: dict[str, float]
    nominal: dict[str, float]
    chi_same: float = 0.0
    chi_diff: float = 1.0

    def __post_init__(self):
        weights = list(self.ordinal.values()) + list(self.nominal.values())
        if not all(map(math.isfinite, (*weights, self.chi_same, self.chi_diff))):
            raise RemapError("weights and category factors must be finite")
        if not 0 <= self.chi_same <= self.chi_diff:
            raise RemapError("category factors must satisfy 0 <= chi_same <= chi_diff: "
                             "matching categories must not cost more than mismatching")
        if any(w < 0 for w in weights):
            raise RemapError("weights must be non-negative")
        if not any(w > 0 for w in weights):
            raise RemapError("at least one influential weight must be positive")

    @classmethod
    def from_attributes(
        cls, attributes: Sequence[Attribute], chi_same: float = 0.0, chi_diff: float = 1.0
    ) -> "InfluentialWeights":
        """Collect every vital and influential attribute with its declared weight."""
        ordinal, nominal = {}, {}
        for attr in attributes:
            if attr.role in ("vital", "influential"):
                (ordinal if attr.kind == "ordinal" else nominal)[attr.name] = attr.weight
        return cls(ordinal=ordinal, nominal=nominal, chi_same=chi_same, chi_diff=chi_diff)


def influential_metric(rec_a, rec_b, w: InfluentialWeights) -> float:
    """Weighted squared distance between two records over influential attributes.

    The ordinal term for a pair of zeros is 0 (equal values, no distance);
    negative and non-finite ordinal values are rejected because the
    relative difference is no longer a distance there.  Nominal values
    compare as texts.  The records are scored as a two-record table by the
    planner's own metric.
    """
    attributes, columns = [], {}
    for kind, weights, value in (("ordinal", w.ordinal, float), ("nominal", w.nominal, str)):
        for name in weights:
            try:
                columns[name] = np.array([value(rec_a[name]), value(rec_b[name])])
            except KeyError:
                raise RemapError(f"record lacks influential attribute {name!r}") from None
            attributes.append(Attribute(name, kind, "plain"))
    pair_cost = _PairCost(Microfile(attributes, columns), w)
    return float(pair_cost(np.array([0]), np.array([1]))[0])


@dataclass(frozen=True, eq=False)
class SwapPlan:
    """Ordered parameter-value swaps: (member record, partner record) pairs and their costs.

    ``swaps`` is a read-only int64 (k, 2) array of record indices and
    ``costs`` a read-only float64 array of the k costs; the constructor
    takes any sequences of pairs and of costs.  Plans compare equal by
    value, as their fields' tuples would; a plan is not hashable.
    """

    parameter: str
    swaps: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.swaps, dtype=np.int64).reshape(-1, 2),
                  np.array(self.costs, dtype=np.float64).reshape(-1))

    @classmethod
    def _of(cls, parameter: str, swaps: np.ndarray, costs: np.ndarray) -> "SwapPlan":
        """The plan of a (k, 2) int64 and a k float64 array made for it, taken without a copy."""
        plan = cls.__new__(cls)
        object.__setattr__(plan, "parameter", parameter)
        plan._own(swaps, costs)
        return plan

    def _own(self, swaps: np.ndarray, costs: np.ndarray) -> None:
        """Check the plan's own arrays, make them read-only and set them."""
        if costs.size != len(swaps):
            raise RemapError(f"{len(swaps)} swaps but {costs.size} costs")
        records = np.sort(swaps, axis=None)
        if np.any(records[1:] == records[:-1]):
            raise RemapError("a record may appear in at most one swap")
        swaps.setflags(write=False)
        costs.setflags(write=False)
        object.__setattr__(self, "swaps", swaps)
        object.__setattr__(self, "costs", costs)

    @property
    def total_cost(self) -> float:
        """The costs summed left to right, as Python floats."""
        return float(sum(self.costs.tolist()))

    def __len__(self) -> int:
        return len(self.swaps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SwapPlan):
            return NotImplemented
        return (self.parameter == other.parameter and np.array_equal(self.swaps, other.swaps)
                and np.array_equal(self.costs, other.costs))

    __hash__ = None


class _PairCost:
    """Vectorized influential metric over record-index arrays.

    Every ordinal column must be finite and non-negative, so no cost is
    NaN.  ``ordinal`` holds (weight, column) per ordinal attribute and
    ``nominal`` (codes, weight * chi_same², weight * chi_diff²) per nominal
    one.  Nominal terms compare stored cells: a nominal column's codes are
    equal exactly where its texts are.
    """

    def __init__(self, m: Microfile, w: InfluentialWeights):
        self.ordinal = []
        for name, weight in w.ordinal.items():
            col = m.column(name)
            if not np.isfinite(col).all():
                raise RemapError(
                    f"non-finite value in ordinal influential attribute {name!r}; metric undefined"
                )
            if np.any(col < 0):
                raise RemapError(
                    f"negative value in ordinal influential attribute {name!r}; metric undefined"
                )
            self.ordinal.append((weight, col))
        self.nominal = []
        for name, weight in w.nominal.items():
            if m.vocabulary(name) is None:
                raise RemapError(f"nominal influential weight on ordinal attribute {name!r}")
            self.nominal.append((m.cells(name), weight * w.chi_same**2,
                                 weight * w.chi_diff**2))

    def __call__(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The cost of each pair of record indices ``left`` and ``right``, broadcast together.

        An ordinal term is ``(weight * ratio) * ratio`` with ratio
        ``(a - b) / (a + b)``, 0 where a + b is not positive (two zeros).
        A nominal term is the weight times the squared category factor,
        multiplied once per attribute.
        """
        cost = np.zeros(np.broadcast_shapes(left.shape, right.shape))
        for weight, col in self.ordinal:
            a, b = col[left], col[right]
            diff = a - b
            denom = a + b
            ratio = np.divide(diff, denom, out=np.zeros(cost.shape), where=denom > 0)
            np.multiply(ratio, weight, out=diff)
            diff *= ratio
            cost += diff
        for codes, same, differ in self.nominal:
            cost += np.where(codes[left] == codes[right], same, differ)
        return cost


#: Nearest candidate groups fetched per view on a row's first query; every
#: refill of a row's list multiplies the count by ``_GROWTH``.
_FIRST_K = 8
_GROWTH = 4
#: Pairs up to which candidates are scored in full rather than searched: a
#: k-d tree build and query costs about as much as scoring this many pairs.
#: A whole block with at most this many pairs is matched by ``_sweep``.
_SCORE_ALL = 4096
#: The planner's counts, as ``plan_swaps`` reports them in ``info``.
_COUNTS = ("blocks", "swept_blocks", "queues_built", "trees_built", "pairs_scored", "refills",
           "runs")
#: Pair-offs that may pass this many pairs are found by array passes rather
#: than record by record.  The array passes cost about 12 us a call more
#: than a five-pair run record by record, and save about 0.3 us a pair on
#: runs of hundreds of pairs.
_RUN = 32


def plan_swaps(
    m: Microfile,
    g: GroupSpec,
    q_target: GoalSignal,
    w: InfluentialWeights,
    *,
    info: dict | None = None,
) -> SwapPlan:
    """Greedy plan transforming the group's quantity signal into ``q_target``.

    The target must hold the member total (swaps move members, never create
    them) and every position gaining members needs enough partners there:
    non-members, restricted to the superset population when one is declared.

    Each swap is the cheapest remaining (member, partner) pair of its
    donor→recipient block, ties going to the lower member and then the lower
    partner record index, so identical inputs always produce identical plans.
    A target equal to the group's counts gets the empty plan as soon as the
    weights are checked.

    If ``info`` is given, it receives the planner's counts: ``blocks`` in
    the flow, ``swept_blocks`` matched by scoring every pair,
    ``queues_built`` (at most one per position and side), ``trees_built``,
    ``pairs_scored`` (record pairs in sweeps, class pairs in searches),
    ``refills`` (deeper candidate queries) and ``runs`` (pair-offs of two
    or more swaps taken in one step, see ``_Block``).
    """
    if q_target.kind != "quantity":
        raise RemapError("target must be a quantity signal")
    if q_target.parameter_order != g.parameter_order:
        raise RemapError("target signal is built over a different parameter order")

    target = q_target.values.astype(np.int64)
    n_pos = len(g.parameter_order)
    positions, member, superset = group_census(m, g)
    if np.array_equal(np.bincount(positions[member], minlength=n_pos), target):
        _PairCost(m, w)  # the weights are checked, though no pair is scored
        if info is not None:
            info.update(dict.fromkeys(_COUNTS, 0))
        return SwapPlan._of(g.parameter, np.empty((0, 2), np.int64), np.empty(0))
    pool = ~member & (positions >= 0)
    if superset is not None:
        pool &= superset
    # side 0 holds each position's members, side 1 its partners
    sides = (_by_position(member, positions, n_pos), _by_position(pool, positions, n_pos))
    # past here the sides are the only arrays over the table's records that the plan holds
    del pool, positions, member, superset
    left = np.stack([np.diff(start) for _, start in sides])  # unused records per side and position
    current, partners = left

    def records(side: int, p: int) -> np.ndarray:
        recs, start = sides[side]
        return recs[start[p]:start[p + 1]]

    if int(current.sum()) != int(target.sum()):
        raise RemapError(
            f"target total {int(target.sum())} differs from member total {int(current.sum())}"
        )
    deficit = target - current
    for pos in np.flatnonzero(deficit > 0):
        if partners[pos] < deficit[pos]:
            raise RemapError(
                f"not enough partners at parameter value {g.parameter_order[pos]!r}: "
                f"need {int(deficit[pos])}, have {int(partners[pos])}"
            )

    blocks = _flow_blocks(-deficit)
    last = {}
    for i, (donor, recipient, _) in enumerate(blocks):
        last[0, donor] = last[1, recipient] = i
    pair_cost = _PairCost(m, w)
    tally = Counter(blocks=len(blocks))
    used = _used_flags(m.n_records)
    space: _ClassSpace | None = None
    queues: dict[tuple[int, int], _Queue] = {}
    swaps: list[np.ndarray] = [np.empty((0, 2), np.int64)]
    costs: list[np.ndarray] = [np.empty(0)]
    for i, (donor, recipient, k) in enumerate(blocks):
        keys = ((0, donor), (1, recipient))
        if int(left[0, donor]) * int(left[1, recipient]) <= _SCORE_ALL:
            flags = np.frombuffer(used, dtype=bool)
            mem, par = records(0, donor), records(1, recipient)
            mem, par = mem[~flags[mem]], par[~flags[par]]
            tally["swept_blocks"] += 1
            tally["pairs_scored"] += mem.size * par.size
            matched = _sweep(pair_cost, mem, par, k, used)
        else:
            if space is None:
                space = _ClassSpace(pair_cost)
            for key in keys:
                if key not in queues:
                    queues[key] = _Queue(space, records(*key), used)
                    tally["queues_built"] += 1
            matched = _Block(space, queues[keys[0]], queues[keys[1]], tally).match(k)
        if matched:
            rec_m, rec_p, cost = zip(*matched)
            swaps.append(np.array([rec_m, rec_p], dtype=np.int64).T)
            costs.append(np.array(cost))
        left[0, donor] -= len(matched)
        left[1, recipient] -= len(matched)
        for key in keys:
            if last[key] == i:
                queues.pop(key, None)

    if info is not None:
        info.update({name: tally[name] for name in _COUNTS})
    return SwapPlan._of(g.parameter, np.concatenate(swaps), np.concatenate(costs))


def _by_position(keep: np.ndarray, positions: np.ndarray,
                 n_pos: int) -> tuple[np.ndarray, np.ndarray]:
    """The records flagged in ``keep``, ordered by position, and each position's offset.

    Position p's records, ascending, are ``sorted[start[p]:start[p + 1]]``.
    One sort of the keys position·n + record orders them; the keys, and so
    the records, are int32 wherever they fit, and no index array over the
    whole table is built beyond them.
    """
    n = keep.size
    key = positions[keep].astype(np.int32 if n_pos * n < 2**31 else np.int64)
    start = np.zeros(n_pos + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=n_pos), out=start[1:])
    key *= n
    key += np.flatnonzero(keep)
    key.sort()
    if n:
        key %= n
    return key, start


def _flow_blocks(surplus: np.ndarray) -> list[tuple[int, int, int]]:
    """The greedy donor→recipient flow as (donor, recipient, swaps) blocks.

    Each greedy step moves one member from the first position of largest
    surplus to the first position of smallest surplus.  A step never changes
    the other side's values, so the i-th donor is the i-th surplus unit
    (position p, level l ≤ surplus[p]) by descending level and then
    ascending position, and the i-th recipient likewise among the deficit
    units.  Blocks are listed in the order of their first step.
    """
    donors, recipients = _level_order(surplus), _level_order(-surplus)
    n = surplus.size
    pairs, first, count = np.unique(donors * n + recipients, return_index=True,
                                    return_counts=True)
    order = np.argsort(first)
    return list(zip((pairs[order] // n).tolist(), (pairs[order] % n).tolist(),
                    count[order].tolist()))


def _level_order(units: np.ndarray) -> np.ndarray:
    """Positions of the positive ``units``, one per unit, top level first."""
    units = np.maximum(units, 0)
    pos = np.repeat(np.arange(units.size), units)
    start = np.cumsum(units) - units
    level = units[pos] - (np.arange(pos.size) - start[pos])
    return pos[np.lexsort((pos, -level))]


def _used_flags(n: int) -> memoryview:
    """``n`` cleared record flags, one byte each, to read and set one at a time.

    ``np.frombuffer(flags, dtype=bool)`` views them all at once.  The bytes
    are those of ``np.zeros``, so pages never set are never touched.
    """
    return memoryview(np.zeros(n, dtype=bool)).cast("B")


def _sweep(pair_cost: _PairCost, mem: np.ndarray, par: np.ndarray, k: int,
           used: memoryview) -> list[tuple[int, int, float]]:
    """The block's ``k`` swaps in greedy order, as (member, partner, cost), by scoring every pair.

    Sorts all pairs of the unused records ``mem`` and ``par`` by (cost,
    member, partner) and takes each pair whose two records are still
    unused, flagging them in ``used``: the order ``_Block`` reproduces
    without scoring every pair.  ``mem`` and ``par`` ascend, so pairs are
    scored in (member, partner) order and, for a single swap, the first
    lowest cost is the pair the sort puts first.
    """
    cost = pair_cost(mem[:, None], par).reshape(-1)
    if k == 1 and cost.size:
        first = int(cost.argmin())
        a, b = int(mem[first // par.size]), int(par[first % par.size])
        used[a] = used[b] = 1
        return [(a, b, float(cost[first]))]
    left, right = np.repeat(mem, par.size), np.tile(par, mem.size)
    order = np.lexsort((right, left, cost))
    out = []
    for a, b, c in zip(left[order].tolist(), right[order].tolist(), cost[order].tolist()):
        if len(out) == k:
            break
        if used[a] or used[b]:
            continue
        used[a] = used[b] = 1
        out.append((a, b, c))
    return out


def _runs(columns: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``n`` rows of ``columns`` in one stable lexsort, first column most significant.

    Returns ``(order, start, rank)``: run i of equal rows is
    ``order[start[i]:start[i + 1]]`` (to the end for the last run), its
    rows ascending, and ``rank`` is each row's run.  Values are equal as
    ``==`` has them, so -0.0 and 0.0 share a run.  With no columns, all
    ``n`` rows form one run.
    """
    order = np.lexsort(columns[::-1]) if columns else np.arange(n)
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for col in columns:
        col = col[order]
        new[1:] |= col[1:] != col[:-1]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    return order, np.flatnonzero(new), rank


@dataclass(frozen=True, eq=False)
class _Classes:
    """One queue's classes of identical influential attributes, each described by its lowest record.

    Row i of ``values`` (ordinal values), ``nominal`` (nominal codes),
    ``zero`` (which ordinal values are 0) and ``coords`` (k-d tree
    coordinates) describes class i, whose lowest record is ``rep[i]``.
    """

    rep: np.ndarray
    values: np.ndarray
    nominal: np.ndarray
    zero: np.ndarray
    coords: np.ndarray


class _ClassSpace:
    """The metric's columns, in which each queue collapses its records into classes.

    A pair's cost depends on the two records' attributes alone, so scoring
    one representative record per class gives the cost of every pair of
    their records.  Nonzero ordinal values also get k-d tree coordinates
    √w·log(x)/2: with u = (log a − log b)/2, an ordinal term
    w·((a−b)/(a+b))² equals w·tanh²(u), and the coordinates differ by √w·u.
    """

    def __init__(self, pair_cost: _PairCost):
        self.pair_cost = pair_cost
        self.weight = np.array([weight for weight, _ in pair_cost.ordinal], dtype=float)

    def describe(self, rep: np.ndarray) -> _Classes:
        """The classes whose lowest records are ``rep``."""
        pc, n = self.pair_cost, rep.size
        values = (np.stack([col[rep] for _, col in pc.ordinal], axis=1)
                  if pc.ordinal else np.empty((n, 0)))
        nominal = (np.stack([codes[rep] for codes, _, _ in pc.nominal], axis=1)
                   if pc.nominal else np.empty((n, 0), dtype=np.int64))
        zero = values == 0
        with np.errstate(divide="ignore"):
            coords = np.where(zero, 0.0, np.sqrt(self.weight) * np.log(values) / 2)
        return _Classes(rep, values, nominal, zero, coords)

    def floor(self, rows: _Classes, a: np.ndarray, cands: _Classes, b: int) -> np.ndarray:
        """Cost of classes ``a`` of ``rows`` against class ``b`` of ``cands``, less two-nonzero terms.

        Those are the ordinal terms of two nonzero values.  Summed in the
        metric's own order, so by monotone rounding it never exceeds the
        computed cost of ``a`` against any class that shares ``b``'s
        nominal codes and ordinal zeros.
        """
        pc = self.pair_cost
        total = np.zeros(a.size)
        for i, (weight, _) in enumerate(pc.ordinal):
            total += np.where(rows.zero[a, i] != cands.zero[b, i], weight, 0.0)
        for j, (_, same, differ) in enumerate(pc.nominal):
            total += np.where(rows.nominal[a, j] == cands.nominal[b, j], same, differ)
        return total

    def radius(self, dims: np.ndarray, slack: np.ndarray) -> np.ndarray:
        """Coordinate distance bound for classes whose ordinal terms in ``dims`` sum to ``slack``.

        The squared distance Σ w·u² is a convex function of the terms
        t = w·tanh²(u) (artanh(√x)² has a power series in x with positive
        coefficients), so on the simplex Σ t ≤ slack it peaks with the whole
        slack in one column: √max w·artanh²(√(slack/w)) over ``dims``,
        unbounded once slack reaches a column's weight.
        """
        r2 = np.zeros(slack.shape)
        with np.errstate(divide="ignore"):
            for weight in self.weight[dims].tolist():
                t = np.clip(slack / weight, 0.0, 1.0)
                r2 = np.maximum(r2, weight * np.arctanh(np.sqrt(t)) ** 2)
        return np.sqrt(r2)


def _unused(recs: memoryview, p: int, stop: int, used: memoryview, n: int) -> list[int]:
    """The first ``n`` records of ``recs[p:stop]`` that are not flagged in ``used``, or fewer."""
    out = []
    while p < stop and len(out) < n:
        if not used[recs[p]]:
            out.append(recs[p])
        p += 1
    return out


def _unused_at(recs: np.ndarray, p: int, stop: int, flags: np.ndarray, n: int) -> np.ndarray:
    """Positions in ``recs`` of the first ``n`` records of ``recs[p:stop]`` not flagged, or fewer.

    ``_unused`` as array passes: windows of ``n`` records and then twice
    as many each time, so a run of mostly unused records costs one pass.
    """
    parts, found, width = [], 0, n
    while p < stop and found < n:
        end = min(p + width, stop)
        free = np.flatnonzero(~flags[recs[p:end]])
        free += p
        parts.append(free)
        found += free.size
        p, width = end, 2 * width
    return np.concatenate(parts)[:n] if parts else np.empty(0, np.intp)


class _Queue:
    """One position's members or partners, by class, kept for every block of that position.

    The queue's ascending ``records`` are collapsed into classes (see
    ``_ClassSpace``) here, and only they: the runs of their ordinal values
    and then nominal codes (``_runs``), so class ``i``'s records, ascending,
    are ``recs[start[i]:start[i] + count[i]]``.  A record is used once its
    flag in the plan's ``used`` array is set, by ``_sweep`` or by
    ``_Block``; flags are never cleared.  Within a class the lowest unused
    record always goes first, and ``next[i]`` is where the search for class
    ``i``'s lowest unused record resumes.  The partitions and the views of
    the queue as a candidate side are built on the first block that
    searches it and kept for the later ones.
    """

    def __init__(self, space: _ClassSpace, records: np.ndarray, used: memoryview):
        self.space, self.used = space, used
        pc = space.pair_cost
        order, self.start, _ = _runs([col[records] for _, col in pc.ordinal]
                                     + [codes[records] for codes, _, _ in pc.nominal],
                                     records.size)
        self.recs = records[order]
        self.count = np.diff(self.start, append=records.size)
        # the same records read one at a time, with no Python int kept per record
        self.rec_at = memoryview(self.recs)
        self.classes = space.describe(self.recs[self.start])
        self.next = self.start.tolist()
        self.end = (self.start + self.count).tolist()
        self.parts: list[np.ndarray] = []
        self.part_of: np.ndarray | None = None
        self.views: dict[object, _View] = {}
        # candidate tokens number the groups of every view; token t is group
        # t - view.base of view view_of[t]
        self.view_of: list[_View] = []

    def head(self, i: int) -> int:
        """Lowest unused record of class ``i``, -1 once the class is used up."""
        used, recs, j, end = self.used, self.rec_at, self.next[i], self.end[i]
        while j < end and used[recs[j]]:
            j += 1
        self.next[i] = j
        return recs[j] if j < end else -1

    def live(self) -> np.ndarray:
        """The classes that still hold an unused record."""
        flags = np.frombuffer(self.used, dtype=bool)[self.recs]
        return np.flatnonzero(~np.logical_and.reduceat(flags, self.start))

    def partition(self) -> None:
        """Split the classes by partition, once.

        Within one partition the nominal and zero-valued ordinal terms are
        fixed; partitions are numbered in the order of those attributes.
        """
        if self.part_of is None:
            c = self.classes
            order, start, self.part_of = _runs(list(c.nominal.T) + list(c.zero.T), c.rep.size)
            self.parts = np.split(order, start[1:])


class _View:
    """Live candidates of one partition for rows with one set of active ordinal columns.

    Classes that agree on those columns cost the same against every such
    row, so they merge into one group, whose head is the lowest unused
    record of any of its classes: the groups are the runs of one stable
    lexsort of the classes by their values on ``dims`` (``_runs``), and
    with no active column the whole partition is one group.  Without
    ``dims`` every class is its own group, for candidate sides small
    enough to be scored in full.  Groups are searched
    with a k-d tree.  A view is kept with its queue: ``refresh`` drops the
    groups used up by earlier blocks, and within a block the tree is rebuilt
    without used-up groups once half of the groups it holds are found used
    up.
    """

    def __init__(self, cands: _Queue, classes: np.ndarray, dims: np.ndarray | None, base: int):
        self.space, self.used, self.dims, self.base = cands.space, cands.used, dims, base
        self.classes = cands.classes
        # the unused records of the ascending ``classes``, class by class and
        # each class's ascending, so every class is one run of ``of``
        start, sizes = cands.start[classes], cands.count[classes]
        pos = np.repeat(start - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())
        recs, of = cands.recs[pos], np.repeat(classes, sizes)
        free = ~np.frombuffer(self.used, dtype=bool)[recs]
        recs, of = recs[free], of[free]
        runs = np.flatnonzero(np.diff(of, prepend=-1))
        classes, sizes = of[runs], np.diff(runs, append=of.size)
        keys = [classes] if dims is None else list(self.classes.values[classes][:, dims].T)
        order, first, group = _runs(keys, classes.size)
        self.rep = classes[order[first]]  # each group's first class
        self.tree: cKDTree | None = None
        self.live = np.arange(first.size)
        self.dead = 0
        # each group's records, ascending: a group of one class is that class's
        # run, so only groups that merge classes need their records sorted
        count = np.bincount(group, weights=sizes, minlength=first.size).astype(np.int64)
        if first.size < classes.size:
            recs = recs[np.lexsort((recs, np.repeat(group, sizes)))]
        elif np.any(group[1:] < group[:-1]):
            recs = recs[np.argsort(np.repeat(group, sizes), kind="stable")]
        self.group_recs = recs
        self.rec_at = memoryview(self.group_recs)
        self.group_start = np.cumsum(count) - count
        self.ptr = self.group_start.tolist()
        self.stop = np.cumsum(count).tolist()

    def refresh(self) -> None:
        """Drop the used-up groups from the live ones; the tree goes only if a group went."""
        if self.live.size:
            flags = np.frombuffer(self.used, dtype=bool)[self.group_recs]
            alive = ~np.logical_and.reduceat(flags, self.group_start)
            live = self.live[alive[self.live]]
            if live.size < self.live.size:
                self.live, self.tree = live, None
        self.dead = 0

    def head(self, g: int) -> int:
        """Lowest unused record of group ``g``, -1 once the group is used up."""
        used, recs = self.used, self.rec_at
        p, stop = self.ptr[g], self.stop[g]
        while p < stop and used[recs[p]]:
            p += 1
        if p == stop:
            self.dead += self.ptr[g] < stop
            self.ptr[g] = p
            return -1
        self.ptr[g] = p
        return recs[p]

    def search(self, rows: _Classes, a: np.ndarray, k: int, full: int, score, tally: Counter):
        """Candidate groups of classes ``a`` of ``rows``: group indices, costs, proven limits.

        Every live group is listed when there are at most ``full``;
        otherwise the ``k`` nearest.  A list is cut at the largest cost up
        to which it provably holds every live group: a group costing at
        most c lies inside the ball of ``radius`` c, so it is among the k
        nearest whenever that radius is shorter than the k-th distance.
        """
        sp = self.space
        n = a.size
        if 2 * self.dead > self.live.size:
            self.live = np.array([g for g in self.live.tolist() if self.head(g) >= 0], dtype=int)
            self.dead = 0
            self.tree = None
        if self.live.size <= full:
            idx = np.broadcast_to(self.live, (n, self.live.size))
            return idx, score(a, self.rep[idx]), np.full(n, np.inf)
        if self.tree is None:
            self.tree = cKDTree(self.classes.coords[self.rep[self.live]][:, self.dims])
            tally["trees_built"] += 1
        dist, near = self.tree.query(rows.coords[a][:, self.dims], k=k)
        idx, kth = self.live[near], dist[:, -1]
        cost = score(a, self.rep[idx])
        floor = sp.floor(rows, a, self.classes, self.rep[0])
        # margins cover the rounding of costs, logarithms and tree distances
        slack = (cost - floor[:, None]) * (1 + 1e-9) + 1e-12 * (1 + cost)
        sure = sp.radius(self.dims, slack) * (1 + 1e-9) + 1e-9 < kth[:, None]
        proven = np.maximum(np.where(sure, cost, -np.inf).max(axis=1),
                            np.nextafter(floor, -np.inf))
        return idx, cost, proven


class _Block:
    """Exact greedy matching of one donor→recipient block too large to sweep.

    Repeatedly takes the cheapest remaining (member, partner) record pair,
    ties to the lower member and then the lower partner index: the order of
    sorting all pairs by (cost, member, partner) and sweeping with the used
    flags, which ``_sweep`` does literally for blocks of at most
    ``_SCORE_ALL`` pairs.  The two sides are the donor's member queue and
    the recipient's partner queue, as ``plan_swaps`` keeps them across
    blocks.  A heap holds one entry per live class of the side with fewer
    live classes (the rows): its cheapest candidate group on the other
    side, with the row's and the group's lowest unused records; until a
    row reaches the top for the first time, its cheapest listed cost stands
    in for its entry.  Keys only grow as records are used, so an entry whose
    candidate record was taken is re-scored when it reaches the top, and a
    fresh entry that sorts before the top is taken at once.  When the top's
    cost exceeds the entry's, no other row is as cheap, and the row's
    listed candidates at the entry's cost are every group at that cost: the
    row class and those tied groups pair off in one step (``_pair_off``).
    """

    def __init__(self, space: _ClassSpace, mem: _Queue, par: _Queue, tally: Counter):
        self.space, self.tally = space, tally
        mem_live, par_live = mem.live(), par.live()
        self.member_rows = mem_live.size <= par_live.size
        sides = [(mem, mem_live), (par, par_live)]
        (self.rows, self.live_rows), (self.cands, live) = (sides if self.member_rows
                                                           else sides[::-1])
        self.n_cands = live.size
        self.cands.partition()
        self.live_parts = np.unique(self.cands.part_of[live]).tolist()
        for view in self.cands.views.values():
            view.refresh()

    def _score(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Costs of row classes ``a`` (per row) against candidate classes ``b``."""
        pair_cost = self.space.pair_cost
        rows = self.rows.classes.rep[np.broadcast_to(a[:, None], b.shape)].reshape(-1)
        cands = self.cands.classes.rep[b].reshape(-1)
        self.tally["pairs_scored"] += cands.size
        cost = pair_cost(rows, cands) if self.member_rows else pair_cost(cands, rows)
        return cost.reshape(b.shape)

    def _head(self, t: int) -> int:
        view = self.cands.view_of[t]
        return view.head(t - view.base)

    def _view(self, key, classes: np.ndarray, dims: np.ndarray | None) -> _View:
        cands = self.cands
        view = cands.views.get(key)
        if view is None:
            view = cands.views[key] = _View(cands, classes, dims, len(cands.view_of))
            cands.view_of.extend([view] * view.rep.size)
        return view

    def candidates(self, a: np.ndarray, k: int) -> list[list]:
        """Candidate tokens for row classes ``a``, cheapest first.

        A candidate side small enough to score in full is listed class by
        class; otherwise each partition contributes through the view of the
        row's active ordinal columns, one query per run of rows with equal
        active columns (``_runs``, last column first).  Returns per row
        ``[tokens, costs, limit, start, end]``: the row's list is
        ``tokens[start:end]`` and ``costs[start:end]``, flat lists that the
        rows of one call share, cut at the limit up to which the list
        provably holds every live candidate; the limit is infinite when it
        holds all of them.  When one query covers every row, each row of its
        cost matrix is ordered on its own; otherwise the queries' candidates
        are sorted by (row, cost) together.
        """
        cands, row_classes, cand_classes = self.cands, self.rows.classes, self.cands.classes
        n = a.size
        full = max(k, _SCORE_ALL // n)
        queries = []
        if self.n_cands <= full:
            queries.append((self._view("all", np.arange(cands.count.size), None), np.arange(n)))
        else:
            for pi in self.live_parts:
                part = cands.parts[pi]
                active = (~row_classes.zero[a] & ~cand_classes.zero[part[0]]
                          & (self.space.weight > 0))
                order, start, _ = _runs(list(active.T[::-1]), n)
                for sel in np.split(order, start[1:]):
                    dims = np.flatnonzero(active[sel[0]])
                    queries.append((self._view((pi, *dims.tolist()), part, dims), sel))
        if len(queries) == 1:
            view, _ = queries[0]  # its rows are every row, in order
            idx, costs, limit = view.search(row_classes, a, k, full, self._score, self.tally)
            order = np.argsort(costs, axis=1, kind="stable")
            costs = np.take_along_axis(costs, order, axis=1)
            keep = costs <= limit[:, None]  # a prefix of each ordered row
            tokens = np.take_along_axis(idx, order, axis=1)[keep] + view.base
            costs = costs[keep]
            kept = np.count_nonzero(keep, axis=1)
            end = np.cumsum(kept)
            start = end - kept
        else:
            limit = np.full(n, np.inf)
            row_of, tokens, costs = [], [], []
            for view, sel in queries:
                idx, cost, lim = view.search(row_classes, a[sel], k, full, self._score,
                                             self.tally)
                limit[sel] = np.minimum(limit[sel], lim)
                row_of.append(np.broadcast_to(sel[:, None], idx.shape).reshape(-1))
                tokens.append(idx.reshape(-1) + view.base)
                costs.append(cost.reshape(-1))
            row_of, tokens, costs = (np.concatenate(x) for x in (row_of, tokens, costs))
            order = np.lexsort((costs, row_of))
            keep = order[costs[order] <= limit[row_of[order]]]
            row_of, tokens, costs = row_of[keep], tokens[keep], costs[keep]
            bounds = np.searchsorted(row_of, np.arange(n + 1))
            start, end = bounds[:-1], bounds[1:]
        tokens, costs = tokens.tolist(), costs.tolist()
        return [[tokens, costs, lim, s, e]
                for s, e, lim in zip(start.tolist(), end.tolist(), limit.tolist())]

    def _entry(self, a: int, lists: dict):
        """Heap entry (cost, member, partner, row class, candidate token) of row ``a``.

        When every listed candidate is used up the entry is a placeholder,
        token -1, keyed by the list's proven limit: every unlisted
        candidate costs more, so the placeholder sorts before the true entry.
        """
        row_head = self.rows.head(a)
        if row_head < 0:
            return None
        tokens, costs, limit, p, end = lists[a]
        while p < end and self._head(tokens[p]) < 0:
            p += 1
        lists[a][3] = p
        if p == end:
            return None if limit == np.inf else (limit, -1, -1, a, -1)
        cost, t = costs[p], tokens[p]
        head = self._head(t)
        for j in range(p + 1, end):
            if costs[j] != cost:
                break
            h = self._head(tokens[j])
            if 0 <= h < head:
                t, head = tokens[j], h
        if self.member_rows:
            return cost, row_head, head, a, t
        return cost, head, row_head, a, t

    def _pair_off(self, a: int, tied: list[int], cost: float, n: int,
                  out: list[tuple[int, int, float]]) -> None:
        """Pair up to ``n`` unused records of row class ``a`` with those of the groups ``tied``.

        Every pair of them costs ``cost``, and every other pair more, so in
        greedy order the row's records, ascending, take the groups' merged
        records, ascending, one to one.  A run that may pass ``_RUN`` pairs
        is found and flagged by array passes, and the class's and groups'
        search positions move past it.
        """
        rows, used, view_of = self.rows, self.rows.used, self.cands.view_of
        groups = [(view_of[t], t - view_of[t].base) for t in tied]
        if (n <= _RUN or rows.end[a] - rows.next[a] <= _RUN
                or sum(view.stop[g] - view.ptr[g] for view, g in groups) <= _RUN):
            row_recs = _unused(rows.rec_at, rows.next[a], rows.end[a], used, n)
            cand_recs = [r for view, g in groups
                         for r in _unused(view.rec_at, view.ptr[g], view.stop[g], used,
                                          len(row_recs))]
            if len(groups) > 1:
                cand_recs.sort()
            n = min(len(row_recs), len(cand_recs))
            row_recs, cand_recs = row_recs[:n], cand_recs[:n]
            for r in row_recs + cand_recs:
                used[r] = 1
        else:
            flags = np.frombuffer(used, dtype=bool)
            row_at = _unused_at(rows.recs, rows.next[a], rows.end[a], flags, n)
            at = [_unused_at(view.group_recs, view.ptr[g], view.stop[g], flags, row_at.size)
                  for view, g in groups]
            cand_recs = np.concatenate([view.group_recs[pos] for (view, _), pos in zip(groups, at)])
            first = np.argsort(cand_recs)[:row_at.size]
            row_at = row_at[:first.size]
            row_recs, cand_recs = rows.recs[row_at], cand_recs[first]
            flags[row_recs] = flags[cand_recs] = True
            # each position moves onto the last record it gave, now used
            rows.next[a] = int(row_at[-1])
            of = np.repeat(np.arange(len(groups)), [pos.size for pos in at])
            taken = np.bincount(of[first], minlength=len(groups)).tolist()
            for (view, g), pos, count in zip(groups, at, taken):
                if count:
                    view.ptr[g] = int(pos[count - 1])
            row_recs, cand_recs = row_recs.tolist(), cand_recs.tolist()
        if self.member_rows:
            out.extend(zip(row_recs, cand_recs, repeat(cost)))
        else:
            out.extend(zip(cand_recs, row_recs, repeat(cost)))
        self.tally["runs"] += len(row_recs) > 1

    def match(self, k: int) -> list[tuple[int, int, float]]:
        """The block's ``k`` swaps in greedy order, as (member, partner, cost)."""
        used, member_rows = self.rows.used, self.member_rows
        live = self.live_rows.tolist()
        depth = dict.fromkeys(live, _FIRST_K)
        lists = dict(zip(live, self.candidates(self.live_rows, _FIRST_K)))
        # every listed candidate is live yet, so a row's first listed cost
        # (or its limit) keys it until its entry is worked out, token -2
        heap = [(costs[start] if start < end else limit, -2, -2, a, -2)
                for a, (_, costs, limit, start, end) in lists.items()]
        heapq.heapify(heap)
        out = []
        while len(out) < k:
            entry = heapq.heappop(heap)
            a, t = entry[3], entry[4]
            if t == -1:
                # placeholders on top: refill their lists in one deeper query
                refill = [a]
                while heap and heap[0][4] == -1:
                    refill.append(heapq.heappop(heap)[3])
                deeper = _GROWTH * max(depth[r] for r in refill)
                for r in refill:
                    depth[r] = deeper
                self.tally["refills"] += 1
                for a, fresh in zip(refill, self.candidates(np.array(refill), deeper)):
                    lists[a] = fresh
                    entry = self._entry(a, lists)
                    if entry is not None:
                        heapq.heappush(heap, entry)
                continue
            if t == -2 or self._head(t) != entry[2 if member_rows else 1]:
                entry = self._entry(a, lists)
            # take the row's entries for as long as each sorts before the heap top
            while entry is not None:
                if entry[4] < 0 or (heap and heap[0] < entry):
                    heapq.heappush(heap, entry)
                    break
                cost, member, partner, a, _ = entry
                if heap and heap[0][0] <= cost:
                    out.append((member, partner, cost))
                    used[member] = used[partner] = 1
                else:
                    # every other row costs more, and so does every candidate
                    # group not listed at this cost: the rest of this row class
                    # and of the tied groups pair off in one step
                    tokens, costs, _, p, end = lists[a]
                    tie = p + 1
                    while tie < end and costs[tie] == cost:
                        tie += 1
                    self._pair_off(a, tokens[p:tie], cost, k - len(out), out)
                if len(out) == k:
                    break
                entry = self._entry(a, lists)
        return out


def apply_swaps(m: Microfile, plan: SwapPlan) -> Microfile:
    """New microfile with each swap's parameter values exchanged.

    Only the plan's parameter column changes, by exchanging stored cells
    (codes of a nominal column); the record count and every other column
    are byte-identical.
    """
    name = plan.parameter
    cells = m.cells(name).copy()
    n = m.n_records
    pairs = plan.swaps
    bad = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        a, b = pairs[int(bad[0])].tolist()
        raise RemapError(f"swap ({a}, {b}) is out of range for {n} records")
    # a plan uses each record at most once, so one gather-then-scatter
    # exchanges every pair
    left, right = pairs[:, 0], pairs[:, 1]
    cells[left], cells[right] = cells[right], cells[left]
    return m.with_cells(name, cells)
