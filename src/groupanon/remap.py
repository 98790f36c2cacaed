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
which the up-front flow names.  A view of a queue's candidate groups lists
each group's classes.  One array of used-record flags, set by the sweep
and the search alike, records which records are gone.  Every greedy step
takes a class's lowest unused record first, so a class's used records are
its lowest: each block start reads every class's count of used records off
the flags, the block moves the counts as it takes records, and a kept view
drops its used-up groups and rebuilds its tree only if one went.  Record
indices are int32 wherever the table allows.

Costs often tie: coarse attributes give many candidate groups the same
cost against a class of the other side, and on a table whose influential
attributes are constant every pair costs the same.  Once no other pair is
as cheap as a class's pairs with its tied candidate groups, greedy order
pairs the class's records, ascending, with the groups' merged records,
ascending, one to one: a run.  A block sorts its classes' cheapest entries
and pairs off the runs of the longest prefix that greedy order takes in
turn in one array pass, a batch (see ``_Block``), rather than taking one
heap step per run.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
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
        # the largest pair cost, summed in the metric's order: every ordinal
        # term is at most its weight and every nominal one its weight * chi_diff²
        largest = 0.0
        for w in (*self.ordinal.values(), *(w * self.chi_diff**2 for w in self.nominal.values())):
            largest += w
        if not math.isfinite(largest):
            raise RemapError("weights too large: the largest pair cost, the ordinal weights "
                             "plus the nominal weights times chi_diff², overflows")

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
           "runs", "batches")


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
    ``refills`` (deeper candidate queries), ``runs`` (pair-offs of two or
    more swaps taken in one step, see ``_Block``) and ``batches`` (array
    passes that paired off one or more runs).
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
            mem, par, cost = _sweep(pair_cost, mem, par, k, used)
        else:
            if space is None:
                space = _ClassSpace(pair_cost)
            for key in keys:
                if key not in queues:
                    queues[key] = _Queue(space, records(*key), used)
                    tally["queues_built"] += 1
            mem, par, cost = _Block(space, queues[keys[0]], queues[keys[1]], tally).match(k)
        swaps.append(np.stack([mem, par], axis=1).astype(np.int64))
        costs.append(cost)
        left[0, donor] -= cost.size
        left[1, recipient] -= cost.size
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
           used: memoryview) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block's ``k`` greedy swaps as (member, partner, cost) arrays, by scoring every pair.

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
        a, b = mem[[first // par.size]], par[[first % par.size]]
        used[int(a[0])] = used[int(b[0])] = 1
        return a, b, cost[[first]]
    left, right = np.repeat(mem, par.size), np.tile(par, mem.size)
    order = np.lexsort((right, left, cost))
    taken = []
    for j, a, b in zip(order.tolist(), left[order].tolist(), right[order].tolist()):
        if len(taken) == k:
            break
        if used[a] or used[b]:
            continue
        used[a] = used[b] = 1
        taken.append(j)
    return left[taken], right[taken], cost[taken]


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


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges ``start[i]`` to ``start[i] + count[i]`` (exclusive), concatenated."""
    stop = np.cumsum(count)
    return np.repeat(start - (stop - count), count) + np.arange(stop[-1] if stop.size else 0)


#: The key of a class with no unused record: above every ``_Queue.keys`` value.
_USED_UP = np.iinfo(np.int64).max


class _Queue:
    """One position's members or partners, by class, kept for every block of that position.

    The queue's ascending ``records`` are collapsed into classes (see
    ``_ClassSpace``) here, and only they: the runs of their ordinal values
    and then nominal codes (``_runs``), so class ``i``'s records, ascending,
    are ``recs[start[i]:end[i]]``.  A record is used once its flag in the
    plan's ``used`` array is set, by ``_sweep`` or by ``_Block``; flags are
    never cleared.  Every pair of two records of one class costs the same
    against any third record, and greedy ties go to the lower index, so a
    class's records are used lowest first: its used records are
    ``recs[start[i]:next[i]]``.  ``live`` sets ``next`` from the flags at
    each block start, and ``_Block`` moves it with every record it takes.
    The partitions and the views of the queue as a candidate side are built
    on the first block that searches it and kept for the later ones.
    """

    def __init__(self, space: _ClassSpace, records: np.ndarray, used: memoryview):
        self.space, self.used = space, used
        pc = space.pair_cost
        order, self.start, _ = _runs([col[records] for _, col in pc.ordinal]
                                     + [codes[records] for codes, _, _ in pc.nominal],
                                     records.size)
        self.recs = records[order]
        self.count = np.diff(self.start, append=records.size)
        self.end = self.start + self.count
        self.next = self.start.copy()
        self.classes = space.describe(self.recs[self.start])
        self.parts: list[np.ndarray] = []
        self.part_of: np.ndarray | None = None
        self.views: dict[object, _View] = {}
        # candidate tokens number the groups of every view: token t's classes,
        # ascending, are group_classes[group_start[t]:][:group_size[t]]
        self.group_classes = np.empty(0, np.intp)
        self.group_start = np.empty(0, np.intp)
        self.group_size = np.empty(0, np.intp)

    def live(self) -> np.ndarray:
        """Move every class's ``next`` past its used records; the classes that still hold one."""
        flags = np.frombuffer(self.used, dtype=bool)[self.recs]
        self.next = self.start + np.add.reduceat(flags, self.start, dtype=np.intp)
        return np.flatnonzero(self.next < self.end)

    def keys(self, classes: np.ndarray) -> np.ndarray:
        """Each class's lowest unused record r as r·C + class (C classes), or ``_USED_UP``.

        The least key of several classes names their lowest unused record
        and the class that holds it.
        """
        nxt = self.next[classes]
        rec = self.recs[np.minimum(nxt, self.recs.size - 1)].astype(np.int64)
        return np.where(nxt < self.end[classes], rec * self.count.size + classes, _USED_UP)

    def add_groups(self, members: np.ndarray, first: np.ndarray) -> int:
        """Number the groups ``members[first[g]:first[g + 1]]`` as tokens; the first one's token."""
        base = self.group_start.size
        self.group_start = np.concatenate([self.group_start, first + self.group_classes.size])
        self.group_size = np.concatenate([self.group_size, np.diff(first, append=members.size)])
        self.group_classes = np.concatenate([self.group_classes, members])
        return base

    def group_classes_of(self, tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The classes of the groups ``tokens``, group after group, and each token's class count."""
        size = self.group_size[tokens]
        return self.group_classes[_ranges(self.group_start[tokens], size)], size

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
    row, so they merge into one group: the groups are the runs of one stable
    lexsort of the partition's live classes by their values on ``dims``
    (``_runs``), each group's classes ascending, and with no active column
    the whole partition is one group.  Without ``dims`` every class is its
    own group, for candidate sides small enough to be scored in full.  A
    group's lowest unused record is the least of its classes'.  Groups are
    searched with a k-d tree.  A view is kept with its queue: ``refresh``
    drops the groups used up by earlier blocks, and within a block the tree
    is rebuilt without used-up groups once half of the groups it holds are
    used up.
    """

    def __init__(self, cands: _Queue, classes: np.ndarray, dims: np.ndarray | None):
        self.cands, self.space, self.dims = cands, cands.space, dims
        self.classes = cands.classes
        classes = classes[cands.next[classes] < cands.end[classes]]
        keys = [classes] if dims is None else list(self.classes.values[classes][:, dims].T)
        order, self.first, _ = _runs(keys, classes.size)
        self.members = classes[order]
        self.rep = self.members[self.first]  # each group's first class
        self.base = cands.add_groups(self.members, self.first)
        self.tree: cKDTree | None = None
        self.live = np.arange(self.first.size)

    def alive(self) -> np.ndarray:
        """Whether each group still holds an unused record."""
        held = self.cands.next < self.cands.end
        if not self.first.size:
            return held[:0]
        return np.logical_or.reduceat(held[self.members], self.first)

    def refresh(self) -> None:
        """Drop the used-up groups from the live ones; the tree goes only if a group went."""
        live = self.live[self.alive()[self.live]]
        if live.size < self.live.size:
            self.live, self.tree = live, None

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
        alive = self.alive()[self.live]
        if 2 * np.count_nonzero(~alive) > self.live.size:
            self.live, self.tree = self.live[alive], None
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


def _tie_ends(costs: np.ndarray, end: np.ndarray) -> np.ndarray:
    """For each position of the lists ending at ``end``, where its run of equal costs ends."""
    stop = np.ones(costs.size, dtype=bool)
    stop[:-1] = costs[1:] != costs[:-1]
    stop[end[end > 0] - 1] = True
    stops = np.flatnonzero(stop) + 1
    return stops[np.searchsorted(stops, np.arange(costs.size), side="right")]


class _Block:
    """Exact greedy matching of one donor→recipient block too large to sweep.

    Repeatedly takes the cheapest remaining (member, partner) record pair,
    ties to the lower member and then the lower partner index: the order of
    sorting all pairs by (cost, member, partner) and sweeping with the used
    flags, which ``_sweep`` does literally for blocks of at most
    ``_SCORE_ALL`` pairs.  The two sides are the donor's member queue and
    the recipient's partner queue, as ``plan_swaps`` keeps them across
    blocks.  Each live class of the side with fewer live classes (a row)
    has a candidate list of groups on the other side, cheapest first.  Its
    entry is the cost of its first listed groups that still hold an unused
    record, with its own and those tied groups' lowest unused records; once
    its listed groups are used up, a placeholder keyed by the list's proven
    limit stands in for it until its list is refilled by a deeper query.

    ``match`` keeps every live row's entry cost in one array, works the
    entries out afresh only for the rows a step changed, and sorts the rows
    by entry cost.  Every pair of a row's records with its tied groups'
    records costs the entry's cost, so once no other row is as cheap, greedy
    order pairs the row's records, ascending, with the groups' merged
    records, ascending, one to one: a run.  A batch pairs off, in one array
    pass, the runs of the longest prefix of the sorted entries that greedy
    order takes in turn:

    - costs rise strictly, up to and including the entry after the prefix;
    - a candidate class in the tied groups of several entries serves them
      in turn, each taking its whole row, only while each holds it alone;
    - a row left with records after its run comes back no cheaper than its
      list's next cost (or its limit), so no later run may cost that much;
    - the runs stop at the block's remaining swaps, the last one cut.

    Two cheapest entries of one cost take the lower (member, partner) pair
    alone, and a placeholder first refills every placeholder's list up to
    the cheapest entry, in one deeper query.
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

    def _view(self, key, classes: np.ndarray, dims: np.ndarray | None) -> _View:
        view = self.cands.views.get(key)
        if view is None:
            view = self.cands.views[key] = _View(self.cands, classes, dims)
        return view

    def candidates(self, a: np.ndarray, k: int):
        """Candidate tokens for row classes ``a``, cheapest first.

        A candidate side small enough to score in full is listed class by
        class; otherwise each partition contributes through the view of the
        row's active ordinal columns, one query per run of rows with equal
        active columns (``_runs``, last column first).  Returns the arrays
        ``(tokens, costs, limit, start, end)``: row i's list is
        ``tokens[start[i]:end[i]]`` with ``costs[start[i]:end[i]]``, cut at
        ``limit[i]``, the cost up to which the list provably holds every
        live candidate; the limit is infinite when it holds all of them.
        When one query covers every row, each row of its cost matrix is
        ordered on its own; otherwise the queries' candidates are sorted by
        (row, cost) together.
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
            end = np.cumsum(np.count_nonzero(keep, axis=1))
            start = np.concatenate([[0], end[:-1]])
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
        return tokens, costs, limit, start, end

    def _list(self, slots: np.ndarray, k: int) -> None:
        """List the ``k`` nearest candidates of the rows ``slots`` after the lists already held."""
        tokens, costs, limit, start, end = self.candidates(self.live_rows[slots], k)
        shift = self.tokens.size
        self.tokens = np.concatenate([self.tokens, tokens])
        self.costs = np.concatenate([self.costs, costs])
        self.ties = np.concatenate([self.ties, _tie_ends(costs, end) + shift])
        self.limit[slots], self.pos[slots], self.end[slots] = limit, start + shift, end + shift
        self.depth[slots] = k

    def _settle(self, slots: np.ndarray) -> None:
        """Work out the entries of the rows ``slots`` afresh.

        Each row's list position moves onto its first cost whose tied groups
        still hold an unused record: the row's entry cost ``at``.  Those
        groups' classes that hold one replace the row's in ``tied``, with
        the row in ``owner``.  A row whose list is used up is keyed by its
        limit and not ``listed``; it is ``gone`` when the list held every
        candidate, as is a row whose class is used up.
        """
        rows, cands = self.rows, self.cands
        a = self.live_rows[slots]
        listed = np.zeros(slots.size, dtype=bool)
        mine = np.zeros(self.at.size, dtype=bool)
        mine[slots] = True
        kept = ~mine[self.owner]
        classes, owners = [self.tied[kept]], [self.owner[kept]]
        alive = rows.next[a] < rows.end[a]
        todo = np.flatnonzero(alive & (self.pos[slots] < self.end[slots]))
        while todo.size:
            p = self.pos[slots[todo]]
            width = self.ties[p] - p
            tied, size = cands.group_classes_of(self.tokens[_ranges(p, width)])
            count = np.add.reduceat(size, np.cumsum(width) - width)
            held = cands.next[tied] < cands.end[tied]
            hit = np.logical_or.reduceat(held, np.cumsum(count) - count)
            listed[todo[hit]] = True
            held &= np.repeat(hit, count)
            classes.append(tied[held])
            owners.append(np.repeat(slots[todo], count)[held])
            todo = todo[~hit]
            self.pos[slots[todo]] = self.ties[self.pos[slots[todo]]]
            todo = todo[self.pos[slots[todo]] < self.end[slots[todo]]]
        self.tied, self.owner = np.concatenate(classes), np.concatenate(owners)
        at = self.limit[slots]
        at[listed] = self.costs[self.pos[slots[listed]]]
        self.at[slots], self.listed[slots] = at, listed
        self.gone[slots] = ~alive | (~listed & (at == np.inf))

    def _prune(self, slots: np.ndarray) -> None:
        """Drop used-up classes and gone rows from ``tied``; settle ``slots`` and emptied rows."""
        cands = self.cands
        held = (cands.next[self.tied] < cands.end[self.tied]) & ~self.gone[self.owner]
        self.tied, self.owner = self.tied[held], self.owner[held]
        kept = np.zeros(self.at.size, dtype=bool)
        kept[self.owner] = True
        self._settle(np.union1d(slots, np.flatnonzero(self.listed & ~kept & ~self.gone)))

    def _heads(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (member, partner) records of the listed rows' entries, and each candidate's class."""
        cands, n_cls = self.cands, self.cands.count.size
        mine = np.zeros(self.at.size, dtype=bool)
        mine[slots] = True
        items = mine[self.owner]
        least = np.full(self.at.size, _USED_UP)
        np.minimum.at(least, self.owner[items], cands.keys(self.tied[items]))
        cand = least[slots]
        row = self.rows.recs[self.rows.next[self.live_rows[slots]]]
        pair = (row, cand // n_cls) if self.member_rows else (cand // n_cls, row)
        return *pair, cand % n_cls

    def match(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The block's ``k`` swaps in greedy order, as (member, partner, cost) arrays."""
        rows, cands, tally = self.rows, self.cands, self.tally
        n = self.live_rows.size
        self.tokens, self.costs, self.ties = np.empty(0, np.intp), np.empty(0), np.empty(0, np.intp)
        self.limit, self.at = np.empty(n), np.empty(n)
        self.pos, self.end, self.depth = (np.empty(n, np.intp) for _ in range(3))
        self.listed, self.gone = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        self.tied = self.owner = np.empty(0, np.intp)
        live = np.arange(n)
        self._list(live, _FIRST_K)
        self._settle(live)
        out = ([], [], [])
        taken = 0
        while taken < k:
            live = live[~self.gone[live]]
            order = live[np.argsort(self.at[live], kind="stable")]
            at, listed = self.at[order], self.listed[order]
            # placeholders sort before entries of their key: refill every one
            # up to the cheapest entry in one deeper query
            lowest = at[np.argmax(listed)] if listed.any() else np.inf
            wait = order[~listed & (at <= lowest)]
            if wait.size:
                tally["refills"] += 1
                self._list(wait, _GROWTH * int(self.depth[wait].max()))
                self._settle(wait)
                continue
            if at.size > 1 and at[1] == at[0]:
                # tied entries: the one of lowest (member, partner) takes its pair alone
                tie = order[:np.searchsorted(at, at[0], side="right")]
                mem, par, cand = self._heads(tie)
                i = np.lexsort((par, mem))[0]
                np.frombuffer(rows.used, dtype=bool)[[mem[i], par[i]]] = True
                rows.next[self.live_rows[tie[i]]] += 1
                cands.next[cand[i]] += 1
                for part, value in zip(out, (mem[i:i + 1], par[i:i + 1], at[:1])):
                    part.append(value)
                taken += 1
                changed = tie[i:i + 1]
            else:
                strict = listed.copy()
                strict[:-1] &= at[:-1] < at[1:]
                width = int(np.argmin(strict)) if not strict.all() else strict.size
                changed = self._batch(order[:width], at[:width], k - taken, out)
                taken += int(out[2][-1].size)
            if taken < k:
                self._prune(changed)
        return tuple(np.concatenate(part) if part else np.empty(0, dtype)
                     for part, dtype in zip(out, (np.int64, np.int64, float)))

    def _batch(self, window: np.ndarray, cost: np.ndarray, k: int, out: tuple) -> np.ndarray:
        """Pair off the runs of the longest prefix of ``window`` that greedy order takes in turn.

        ``window`` holds the first rows in entry order, each entry at
        ``cost`` cheaper than the next.  The prefix's (member, partner,
        cost) arrays, ascending per run, are appended to ``out`` and their
        records flagged used.  Its rows that are used up are ``gone``;
        returns the others.
        """
        rows, cands = self.rows, self.cands
        top = len(rows.used)  # above every record index
        w = window.size
        rank = np.full(self.at.size, w)
        rank[window] = np.arange(w)
        entry = rank[self.owner]
        inside = entry < w
        # the window's candidate classes by class and then entry, as one sort key
        item = np.sort(self.tied[inside] * w + entry[inside])
        tied, entry = item // w, item % w
        avail = cands.end[tied] - cands.next[tied]  # the class's unused records
        a = self.live_rows[window]
        left = rows.end[a] - rows.next[a]
        # a class in the levels of several entries serves them in turn, each
        # taking its whole row, as long as each of them holds that class alone
        again = np.flatnonzero(tied[1:] == tied[:-1]) + 1
        if again.size:
            alone = np.bincount(entry, minlength=w) == 1
            mixed = again[~(alone[entry[again]] & alone[entry[again - 1]])]
            w = min(w, int(entry[mixed].min())) if mixed.size else w
            before = np.cumsum(left[entry]) - left[entry]
            chain = np.ones(tied.size, dtype=bool)
            chain[again] = False
            chain_start = np.maximum.accumulate(np.where(chain, np.arange(tied.size), 0))
            avail -= before - before[chain_start]
        free = np.bincount(entry, weights=avail, minlength=window.size)[:w]
        n = np.maximum(np.minimum(left[:w], free), 0).astype(np.intp)
        total = np.cumsum(n)
        j = min(w, int(np.searchsorted(total, k)) + 1)
        # a row left with records comes back no cheaper than its list's next
        # cost, or its limit once the list is used up: no later run may cost
        # that much
        short = np.flatnonzero(left[:j - 1] > free[:j - 1])
        if short.size:
            rows_short = window[short]
            after = self.ties[self.pos[rows_short]]
            more = after < self.end[rows_short]
            bound = self.limit[rows_short]
            bound[more] = self.costs[after[more]]
            # a limit may equal the entry's own cost
            reach = np.maximum(np.searchsorted(cost, bound), short + 1)
            reach = np.minimum(np.minimum.accumulate(reach), j)
            lim = np.concatenate([[j], reach[:-1]])
            over = np.flatnonzero(short >= lim)
            j = int(lim[over[0]]) if over.size else int(reach[-1])
        n = n[:j]
        n[-1] -= max(0, int(total[j - 1]) - k)
        keep = (entry < j) & (avail > 0)
        tied, entry, avail = tied[keep], entry[keep], avail[keep]
        # a run's records are its n lowest of its classes' unused records: a
        # class whose lowest lies behind r other classes' gives at most n - r
        first = cands.end[tied] - avail
        order = np.argsort(entry * top + cands.recs[first])
        tied, entry, avail, first = tied[order], entry[order], avail[order], first[order]
        behind = np.arange(entry.size) - np.searchsorted(entry, entry)
        take = np.maximum(np.minimum(avail, n[entry] - behind), 0)
        cand_recs = cands.recs[_ranges(first, take)]
        if entry.size > np.count_nonzero(n):
            # a run of several classes takes the n lowest of their records
            # merged, so each class gives those up to the run's last
            of = np.repeat(entry, take)
            merged = np.sort(of * top + cand_recs)
            merged = merged[_ranges(np.searchsorted(of, np.arange(j)), n)] % top
            within = cand_recs <= np.repeat(merged[np.cumsum(n) - 1][entry], take)
            take = np.bincount(np.repeat(np.arange(take.size), take), weights=within,
                               minlength=take.size).astype(np.intp)
            cand_recs = merged
        np.add.at(cands.next, tied, take)
        row_recs = rows.recs[_ranges(rows.next[a[:j]], n)]
        rows.next[a[:j]] += n
        flags = np.frombuffer(rows.used, dtype=bool)
        flags[row_recs] = flags[cand_recs] = True
        pairs = (row_recs, cand_recs) if self.member_rows else (cand_recs, row_recs)
        for part, value in zip(out, (*pairs, np.repeat(cost[:j], n))):
            part.append(value)
        self.tally["runs"] += int(np.count_nonzero(n > 1))
        self.tally["batches"] += 1
        done = n == left[:j]
        self.gone[window[:j][done]] = True
        return window[:j][~done]


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
