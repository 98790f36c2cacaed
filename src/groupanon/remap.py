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
its lowest record: no factorisation of the whole table is made.  The queue
keeps its classes, partitions, candidate groups and k-d trees for that
position's later blocks; it is dropped after the position's last block,
which the up-front flow names.  One array of used-record flags, set by the
sweep and the search alike, is the only record of which records are gone:
at each block start a kept view drops its used-up groups and rebuilds its
tree only if one went.  Record indices are int32 wherever the table allows.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import RemapError
from .microfile import (Attribute, GroupSpec, Microfile, axis_positions, check_group_in_superset,
                        members, superset_members, values_outside_order)
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
        if self.chi_same > self.chi_diff:
            raise RemapError("matching categories must not cost more than mismatching")
        weights = list(self.ordinal.values()) + list(self.nominal.values())
        if any(w < 0 for w in weights):
            raise RemapError("weights must be non-negative")
        if not any(w > 0 for w in weights):
            raise RemapError("at least one influential weight must be positive")

    @classmethod
    def from_microfile(
        cls, m: Microfile, chi_same: float = 0.0, chi_diff: float = 1.0
    ) -> "InfluentialWeights":
        """Collect every vital and influential attribute with its declared weight."""
        ordinal, nominal = {}, {}
        for attr in m.attributes:
            if attr.role in ("vital", "influential"):
                (ordinal if attr.kind == "ordinal" else nominal)[attr.name] = attr.weight
        return cls(ordinal=ordinal, nominal=nominal, chi_same=chi_same, chi_diff=chi_diff)


def influential_metric(rec_a, rec_b, w: InfluentialWeights) -> float:
    """Weighted squared distance between two records over influential attributes.

    The ordinal term for a pair of zeros is 0 (equal values, no distance);
    negative ordinal values are rejected because the relative difference is
    no longer a distance there.  Nominal values compare as texts.  The
    records are scored as a two-record table by the planner's own metric.
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
        swaps = np.array(self.swaps, dtype=np.int64).reshape(-1, 2)
        costs = np.array(self.costs, dtype=np.float64).reshape(-1)
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

    Nominal terms compare stored cells: a nominal column's codes are equal
    exactly where its texts are.
    """

    def __init__(self, m: Microfile, w: InfluentialWeights):
        self.ordinal = []
        for name, weight in w.ordinal.items():
            col = m.column(name)
            if np.any(col < 0):
                raise RemapError(
                    f"negative value in ordinal influential attribute {name!r}; metric undefined"
                )
            self.ordinal.append((weight, col))
        self.nominal = []
        for name, weight in w.nominal.items():
            if m.vocabulary(name) is None:
                raise RemapError(f"nominal influential weight on ordinal attribute {name!r}")
            self.nominal.append((weight, m.cells(name)))
        self.same_sq = w.chi_same**2
        self.diff_sq = w.chi_diff**2

    def __call__(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        cost = np.zeros(left.shape, dtype=float)
        for weight, col in self.ordinal:
            a, b = col[left], col[right]
            denom = a + b
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(denom > 0, (a - b) / np.where(denom > 0, denom, 1.0), 0.0)
            cost += weight * ratio * ratio
        for weight, codes in self.nominal:
            cost += weight * np.where(codes[left] == codes[right], self.same_sq, self.diff_sq)
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
_COUNTS = ("blocks", "swept_blocks", "queues_built", "trees_built", "pairs_scored", "refills")


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

    If ``info`` is given, it receives the planner's counts: ``blocks`` in
    the flow, ``swept_blocks`` matched by scoring every pair,
    ``queues_built`` (at most one per position and side), ``trees_built``,
    ``pairs_scored`` (record pairs in sweeps, class pairs in searches) and
    ``refills`` (deeper candidate queries).
    """
    if q_target.kind != "quantity":
        raise RemapError("target must be a quantity signal")
    if q_target.parameter_order != g.parameter_order:
        raise RemapError("target signal is built over a different parameter order")

    member_idx = members(m, g)
    target = q_target.values.astype(np.int64)
    if g.superset_vital is not None:
        check_group_in_superset(m, g)
        pool = np.zeros(m.n_records, dtype=bool)
        pool[superset_members(m, g)] = True
    else:
        pool = np.ones(m.n_records, dtype=bool)
    pool[member_idx] = False

    n_pos = len(g.parameter_order)
    positions = axis_positions(m, g)
    outside = member_idx[positions[member_idx] < 0]
    if outside.size:
        bad = values_outside_order(m, g, outside)
        raise RemapError(f"members at parameter values outside the order: {bad}")
    pool &= positions >= 0
    member = np.zeros(m.n_records, dtype=bool)
    member[member_idx] = True
    # side 0 holds each position's members, side 1 its partners
    sides = (_by_position(member, positions, n_pos), _by_position(pool, positions, n_pos))
    # past here the sides are the only arrays over the table's records that the plan holds
    del member_idx, pool, positions, member
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
    return SwapPlan(parameter=g.parameter, swaps=np.concatenate(swaps),
                    costs=np.concatenate(costs))


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
    without scoring every pair.
    """
    left, right = np.repeat(mem, par.size), np.tile(par, mem.size)
    cost = pair_cost(left, right)
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


def _row_ids(codes: list[np.ndarray]) -> np.ndarray:
    """Dense ids numbering the distinct rows across equal-length non-negative integer ``codes``.

    The ids rank the rows lexicographically.  The columns are folded into a
    mixed-radix int64 key, with radix ``max + 1`` each, for as long as every
    key fits; only then are the keys replaced by their dense ranks, so
    columns whose radices multiply to at most 2**63 cost one ``np.unique``.
    """
    key = np.zeros(codes[0].size, dtype=np.int64)
    span = 1  # every key is below it
    for code in codes:
        radix = int(code.max()) + 1
        if span * radix > 2**63:
            distinct, key = np.unique(key, return_inverse=True)
            key, span = key.reshape(-1), distinct.size
        key = key * radix + code
        span *= radix
    return np.unique(key, return_inverse=True)[1].reshape(-1)


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

    def classes_of(self, records: np.ndarray) -> np.ndarray:
        """Dense class ids of ``records``, ranking the classes among them by their attributes.

        Only ``records`` are factorised; two record sets that share classes
        rank those classes in the same order.
        """
        pc = self.pair_cost
        return _row_ids([np.unique(col[records], return_inverse=True)[1].reshape(-1)
                         for _, col in pc.ordinal] + [codes[records] for _, codes in pc.nominal])

    def describe(self, rep: np.ndarray) -> _Classes:
        """The classes whose lowest records are ``rep``."""
        pc, n = self.pair_cost, rep.size
        values = (np.stack([col[rep] for _, col in pc.ordinal], axis=1)
                  if pc.ordinal else np.empty((n, 0)))
        nominal = (np.stack([codes[rep] for _, codes in pc.nominal], axis=1)
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
        for j, (weight, _) in enumerate(pc.nominal):
            total += weight * np.where(rows.nominal[a, j] == cands.nominal[b, j],
                                       pc.same_sq, pc.diff_sq)
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


class _Queue:
    """One position's members or partners, by class, kept for every block of that position.

    The queue's ascending ``records`` are collapsed into classes (see
    ``_ClassSpace``) here, and only they.  A record is used once its flag
    in the plan's ``used`` array is set, by ``_sweep`` or by ``_Block``;
    flags are never cleared.  Within a class the lowest unused record
    always goes first, and ``next[i]`` is where the search for class
    ``i``'s lowest unused record resumes.  The partitions and the views of
    the queue as a candidate side are built on the first block that
    searches it and kept for the later ones.
    """

    def __init__(self, space: _ClassSpace, records: np.ndarray, used: memoryview):
        self.space, self.used = space, used
        cls = space.classes_of(records)
        self.recs = records[np.argsort(cls, kind="stable")]
        self.count = np.bincount(cls)
        self.start = np.cumsum(self.count) - self.count
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
            part = _row_ids(list(c.nominal.T) + list(c.zero.T))
            order = np.argsort(part, kind="stable")
            self.parts = np.split(order, np.cumsum(np.bincount(part))[:-1])
            self.part_of = part


class _View:
    """Live candidates of one partition for rows with one set of active ordinal columns.

    Classes that agree on those columns cost the same against every such
    row, so they merge into one group, whose head is the lowest unused
    record of any of its classes; with no active column the whole partition
    is one group.  Without ``dims`` every class is its own group, for
    candidate sides small enough to be scored in full.  Groups are searched
    with a k-d tree.  A view is kept with its queue: ``refresh`` drops the
    groups used up by earlier blocks, and within a block the tree is rebuilt
    without used-up groups once half of the groups it holds are found used
    up.
    """

    def __init__(self, cands: _Queue, classes: np.ndarray, dims: np.ndarray | None, base: int):
        self.space, self.used, self.dims, self.base = cands.space, cands.used, dims, base
        self.classes = cands.classes
        # the unused records of ``classes``, each with its class
        start, sizes = cands.start[classes], cands.count[classes]
        pos = np.repeat(start - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())
        recs, of = cands.recs[pos], np.repeat(classes, sizes)
        free = ~np.frombuffer(self.used, dtype=bool)[recs]
        recs, of = recs[free], of[free]
        classes = np.unique(of)
        if dims is None:
            first = group = np.arange(classes.size)
        elif dims.size:
            values = self.classes.values[classes][:, dims]
            _, first, group = np.unique(values, axis=0, return_index=True, return_inverse=True)
            group = group.reshape(-1)
        else:
            first, group = np.zeros(min(classes.size, 1), dtype=int), np.zeros(classes.size, int)
        self.rep = classes[first]  # each group's first class
        self.tree: cKDTree | None = None
        self.live = np.arange(first.size)
        self.dead = 0
        # each group's records, ascending
        member_of = group[np.searchsorted(classes, of)]
        self.group_recs = recs[np.lexsort((recs, member_of))]
        self.rec_at = memoryview(self.group_recs)
        count = np.bincount(member_of, minlength=first.size)
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
    fresh entry that sorts before the top is taken at once.  When the row's
    next listed cost and the top's cost both exceed a taken pair's cost,
    the rest of that row class and candidate group pair off in one loop.
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
        row's active ordinal columns.  Returns per row
        ``[tokens, costs, limit, start]``, cut at the limit up to which the
        list provably holds every live candidate; the limit is infinite
        when it holds all of them.
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
                code = active @ (1 << np.arange(active.shape[1]))
                for c in np.unique(code).tolist():
                    sel = np.flatnonzero(code == c)
                    dims = np.flatnonzero(active[sel[0]])
                    queries.append((self._view((pi, c), part, dims), sel))
        limit = np.full(n, np.inf)
        row_of, tokens, costs = [], [], []
        for view, sel in queries:
            idx, cost, lim = view.search(row_classes, a[sel], k, full, self._score, self.tally)
            limit[sel] = np.minimum(limit[sel], lim)
            row_of.append(np.broadcast_to(sel[:, None], idx.shape).reshape(-1))
            tokens.append(idx.reshape(-1) + view.base)
            costs.append(cost.reshape(-1))
        row_of, tokens, costs = (np.concatenate(x) for x in (row_of, tokens, costs))
        order = np.lexsort((costs, row_of))
        row_of, tokens, costs = row_of[order], tokens[order], costs[order]
        keep = costs <= limit[row_of]
        bounds = np.searchsorted(row_of[keep], np.arange(n + 1)).tolist()
        tokens, costs = tokens[keep].tolist(), costs[keep].tolist()
        return [[tokens[s:e], costs[s:e], lim, 0]
                for s, e, lim in zip(bounds[:-1], bounds[1:], limit.tolist())]

    def _entry(self, a: int, lists: dict):
        """Heap entry (cost, member, partner, row class, candidate token) of row ``a``.

        When every listed candidate is used up the entry is a placeholder,
        token -1, keyed by the list's proven limit: every unlisted
        candidate costs more, so the placeholder sorts before the true entry.
        """
        row_head = self.rows.head(a)
        if row_head < 0:
            return None
        tokens, costs, limit, p = lists[a]
        while p < len(tokens) and self._head(tokens[p]) < 0:
            p += 1
        lists[a][3] = p
        if p == len(tokens):
            return None if limit == np.inf else (limit, -1, -1, a, -1)
        cost, t = costs[p], tokens[p]
        head = self._head(t)
        for j in range(p + 1, len(tokens)):
            if costs[j] != cost:
                break
            h = self._head(tokens[j])
            if 0 <= h < head:
                t, head = tokens[j], h
        if self.member_rows:
            return cost, row_head, head, a, t
        return cost, head, row_head, a, t

    def match(self, k: int) -> list[tuple[int, int, float]]:
        """The block's ``k`` swaps in greedy order, as (member, partner, cost)."""
        rows, used, member_rows = self.rows, self.rows.used, self.member_rows
        live = self.live_rows.tolist()
        depth = dict.fromkeys(live, _FIRST_K)
        lists = dict(zip(live, self.candidates(self.live_rows, _FIRST_K)))
        # every listed candidate is live yet, so a row's first listed cost
        # (or its limit) keys it until its entry is worked out, token -2
        heap = [(costs[0] if costs else limit, -2, -2, a, -2)
                for a, (_, costs, limit, _) in lists.items()]
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
                cost, member, partner, a, t = entry
                out.append((member, partner, cost))
                used[member] = used[partner] = 1
                tokens, costs, _, p = lists[a]
                if ((p + 1 == len(tokens) or costs[p + 1] > cost)
                        and (not heap or heap[0][0] > cost)):
                    # every other pair costs more: the rest of this row class
                    # and candidate group pair off in record order
                    view, n = self.cands.view_of[t], k - len(out)
                    row_recs = _unused(rows.rec_at, rows.next[a], rows.end[a], used, n)
                    g = t - view.base
                    cand_recs = _unused(view.rec_at, view.ptr[g], view.stop[g], used, n)
                    for pair in (zip(row_recs, cand_recs) if member_rows
                                 else zip(cand_recs, row_recs)):
                        out.append((*pair, cost))
                        used[pair[0]] = used[pair[1]] = 1
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
