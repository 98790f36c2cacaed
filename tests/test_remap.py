import collections
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupanon import reference as ref
from groupanon import remap
from groupanon.errors import RemapError
from groupanon.microfile import (Attribute, GroupSpec, Microfile, members, record_view,
                                 superset_members)
from groupanon.remap import (InfluentialWeights, SwapPlan, _Block, _ClassSpace, _PairCost, _Queue,
                             _sweep, apply_swaps, influential_metric, plan_swaps)
from groupanon.signals import GoalSignal, quantity_signal

ORDER = ("a1", "a2", "a3", "a4")


def toy_microfile(rows):
    """rows: (area, service, age, income) tuples; sex always male."""
    return Microfile(
        attributes=(
            Attribute("area", "nominal", "parameter"),
            Attribute("service", "nominal", "vital", weight=1.0),
            Attribute("sex", "nominal", "plain"),
            Attribute("age", "ordinal", "influential", weight=1.0),
            Attribute("income", "ordinal", "influential", weight=1.0),
        ),
        columns={
            "area": np.array([r[0] for r in rows]),
            "service": np.array([r[1] for r in rows]),
            "sex": np.full(len(rows), "1"),
            "age": np.array([float(r[2]) for r in rows]),
            "income": np.array([float(r[3]) for r in rows]),
        },
    )


def toy_group():
    return GroupSpec.create({"service": {"1"}}, "area", ORDER, superset_vital={"sex": {"1"}})


def target(values):
    return GoalSignal("quantity", np.asarray(values, dtype=float), ORDER)


WEIGHTS = InfluentialWeights(ordinal={"age": 1.0, "income": 1.0},
                             nominal={"service": 1.0}, chi_same=0.0, chi_diff=1.0)


def row_ids_by_column(codes):
    """One ``np.unique`` per column over every record: the reference for ``remap._row_ids``."""
    ids = np.zeros(codes[0].size, dtype=np.int64)
    for code in codes:
        ids = np.unique(ids * (int(code.max()) + 1) + code, return_inverse=True)[1].reshape(-1)
    return ids


class TestRowIds:
    # radices from 1 up to 2**56 + 1, so that two or more large ones overflow one int64
    # key, while the reference's dense ids (below 40) times any radix still fit
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40),
           tops=st.lists(st.sampled_from([0, 1, 2, 6, 1000, 2**20, 2**40, 2**56]),
                         min_size=1, max_size=6))
    def test_matches_the_per_column_fold(self, data, n, tops):
        codes = []
        for top in tops:
            # each column holds its top code, so its radix is top + 1
            values = data.draw(st.lists(st.integers(0, top), min_size=n - 1, max_size=n - 1))
            code = np.array(data.draw(st.permutations(values + [top])), dtype=np.int64)
            codes.append(code)
        got = remap._row_ids(codes)
        assert got.dtype == np.int64
        assert got.tolist() == row_ids_by_column(codes).tolist()
        rows = sorted(set(zip(*(c.tolist() for c in codes))))
        assert got.tolist() == [rows.index(r) for r in zip(*(c.tolist() for c in codes))]

    # radix products just past 2**63 (147 * 2**56), far past it, and within it
    @pytest.mark.parametrize("tops", [[2**56, 6, 6, 2], [2**31, 2**31, 2**31], [2**40, 1, 6]])
    def test_ranks_rows_whatever_the_radix_product(self, tops):
        rng = np.random.default_rng(len(tops))
        codes = [np.append(rng.integers(0, top + 1, 30), top) for top in tops]
        assert remap._row_ids(codes).tolist() == row_ids_by_column(codes).tolist()

    def test_radices_that_fit_cost_one_unique(self, monkeypatch):
        rng = np.random.default_rng(0)
        codes = [rng.integers(0, 100, 500), rng.integers(0, 2, 500).astype(bool),
                 rng.integers(0, 7, 500).astype(np.int32)]
        expected = row_ids_by_column(codes).tolist()
        calls, unique = [], np.unique

        def counting(*args, **kwargs):
            calls.append(args[0].size)
            return unique(*args, **kwargs)

        monkeypatch.setattr(remap.np, "unique", counting)
        assert remap._row_ids(codes).tolist() == expected
        assert calls == [500]


class TestInfluentialMetric:
    def test_identical_records_zero_with_zero_chi(self):
        rec = {"age": 30.0, "income": 100.0, "service": "1"}
        assert influential_metric(rec, rec, WEIGHTS) == 0.0

    def test_single_ordinal_term(self):
        w = InfluentialWeights(ordinal={"age": 1.0}, nominal={})
        assert influential_metric({"age": 1.0}, {"age": 3.0}, w) == pytest.approx(0.25)

    def test_single_nominal_term(self):
        w = InfluentialWeights(ordinal={}, nominal={"service": 2.0}, chi_diff=1.0)
        assert influential_metric({"service": "1"}, {"service": "0"}, w) == pytest.approx(2.0)

    def test_zero_over_zero_ordinal_contributes_nothing(self):
        w = InfluentialWeights(ordinal={"age": 5.0}, nominal={})
        assert influential_metric({"age": 0.0}, {"age": 0.0}, w) == 0.0

    def test_negative_ordinal_rejected(self):
        w = InfluentialWeights(ordinal={"age": 1.0}, nominal={})
        with pytest.raises(RemapError, match="negative"):
            influential_metric({"age": -1.0}, {"age": 1.0}, w)

    def test_missing_attribute_rejected(self):
        with pytest.raises(RemapError, match="age"):
            influential_metric({"income": 1.0, "service": "1"},
                               {"income": 1.0, "service": "1"}, WEIGHTS)

    def test_symmetry_and_self_distance(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            a = {"age": float(rng.integers(0, 90)), "income": float(rng.integers(0, 10_000)),
                 "service": str(rng.integers(0, 4))}
            b = {"age": float(rng.integers(0, 90)), "income": float(rng.integers(0, 10_000)),
                 "service": str(rng.integers(0, 4))}
            assert influential_metric(a, b, WEIGHTS) == pytest.approx(
                influential_metric(b, a, WEIGHTS))
            assert influential_metric(a, a, WEIGHTS) == 0.0

    def test_nominal_weight_on_ordinal_attribute_rejected(self):
        w = InfluentialWeights(ordinal={}, nominal={"age": 1.0})
        m = toy_microfile([("a1", "1", 30, 10)] * 4)
        with pytest.raises(RemapError, match="nominal influential weight on ordinal attribute 'age'"):
            plan_swaps(m, toy_group(), target([4, 0, 0, 0]), w)

    def test_chi_ordering_enforced(self):
        with pytest.raises(RemapError, match="match"):
            InfluentialWeights(ordinal={"age": 1.0}, nominal={}, chi_same=2.0, chi_diff=1.0)

    def test_needs_positive_weight(self):
        with pytest.raises(RemapError, match="positive"):
            InfluentialWeights(ordinal={"age": 0.0}, nominal={"service": 0.0})

    def test_from_microfile_collects_vital_and_influential(self, fixture_microfile):
        w = InfluentialWeights.from_microfile(fixture_microfile)
        assert w.ordinal == {"age": 1.0, "income": 1.0}
        assert w.nominal == {"military_service": 1.0}


class TestPlanSwaps:
    def test_matching_target_is_empty_plan(self):
        m = toy_microfile([("a1", "1", 30, 100), ("a2", "0", 30, 100)])
        plan = plan_swaps(m, toy_group(), target([1, 0, 0, 0]), WEIGHTS)
        assert len(plan) == 0
        assert plan.total_cost == 0.0

    def test_forced_single_swap_with_identical_partner(self):
        # one member in a1, an attribute-identical non-member in a2: the only
        # viable move, at pure category cost
        w = InfluentialWeights(ordinal={"age": 1.0, "income": 1.0}, nominal={},
                               chi_same=0.0, chi_diff=1.0)
        m = toy_microfile([("a1", "1", 30, 100), ("a2", "0", 30, 100)])
        plan = plan_swaps(m, toy_group(), target([0, 1, 0, 0]), w)
        assert plan.swaps.tolist() == [[0, 1]]
        assert plan.total_cost == 0.0

    def test_fixture_realizes_reference_target(self, fixture_microfile, fixture_group):
        tgt = GoalSignal("quantity", ref.QUANTITY_FINAL.astype(float), ref.AREA_CODES)
        w = InfluentialWeights.from_microfile(fixture_microfile)
        plan = plan_swaps(fixture_microfile, fixture_group, tgt, w)
        modified = apply_swaps(fixture_microfile, plan)
        # recount oracle: direct per-area tally over the new table
        counts = collections.Counter(
            area for area, svc in zip(modified.column("area"), modified.column("military_service"))
            if svc == "1"
        )
        recount = np.array([counts[a] for a in ref.AREA_CODES])
        assert np.array_equal(recount, ref.QUANTITY_FINAL)
        assert np.array_equal(quantity_signal(modified, fixture_group).values,
                              ref.QUANTITY_FINAL)

    def test_deterministic_for_fixed_inputs(self, fixture_microfile, fixture_group):
        tgt = GoalSignal("quantity", ref.QUANTITY_FINAL.astype(float), ref.AREA_CODES)
        w = InfluentialWeights.from_microfile(fixture_microfile)
        first = plan_swaps(fixture_microfile, fixture_group, tgt, w)
        second = plan_swaps(fixture_microfile, fixture_group, tgt, w)
        assert first == second

    def test_total_mismatch_rejected(self):
        m = toy_microfile([("a1", "1", 30, 100), ("a2", "0", 30, 100)])
        with pytest.raises(RemapError, match="total"):
            plan_swaps(m, toy_group(), target([1, 1, 0, 0]), WEIGHTS)

    def test_insufficient_partners_names_position(self):
        m = toy_microfile([("a1", "1", 30, 100), ("a1", "1", 40, 100), ("a2", "0", 30, 100)])
        with pytest.raises(RemapError, match="a2"):
            plan_swaps(m, toy_group(), target([0, 2, 0, 0]), WEIGHTS)

    def test_partner_pool_respects_superset(self):
        # the only same-area candidate is female (outside the superset), so the
        # plan must fail rather than use her
        m = Microfile(
            attributes=(
                Attribute("area", "nominal", "parameter"),
                Attribute("service", "nominal", "vital", weight=1.0),
                Attribute("sex", "nominal", "plain"),
            ),
            columns={
                "area": np.array(["a1", "a2"]),
                "service": np.array(["1", "0"]),
                "sex": np.array(["1", "2"]),
            },
        )
        with pytest.raises(RemapError, match="partners"):
            plan_swaps(m, toy_group(), target([0, 1, 0, 0]),
                       InfluentialWeights(ordinal={}, nominal={"service": 1.0}))

    def test_members_outside_the_order_are_listed(self):
        m = toy_microfile([("a1", "1", 30, 100), ("b7", "1", 40, 100), ("a2", "0", 30, 100)])
        with pytest.raises(RemapError, match="outside the order.*b7"):
            plan_swaps(m, toy_group(), target([1, 1, 0, 0]), WEIGHTS)

    def test_ordinal_parameter_plans_like_its_written_text(self):
        # integer years as the parameter: the plan must equal the one for the
        # same table with the years written out as nominal text
        rng = np.random.default_rng(4)
        years = rng.choice([1999.0, 2000.0, 2001.0, 2002.0, 2003.0], 120)
        service = np.where(rng.random(120) < 0.3, "1", "0")
        service[years == 1999.0] = "0"
        ages = rng.integers(20, 60, 120).astype(float)
        order = ("2000", "2001", "2002", "2003")

        def table(kind, column):
            return Microfile(
                attributes=(Attribute("year", kind, "parameter"),
                            Attribute("service", "nominal", "vital", weight=1.0),
                            Attribute("age", "ordinal", "influential", weight=1.0)),
                columns={"year": column, "service": service, "age": ages},
            )

        ordinal = table("ordinal", years)
        nominal = table("nominal", np.array([str(int(y)) for y in years]))
        g = GroupSpec.create({"service": {"1"}}, "year", order)
        before = quantity_signal(ordinal, g).values
        tgt = GoalSignal("quantity", before[::-1].copy(), order)
        w = InfluentialWeights.from_microfile(ordinal)
        plan = plan_swaps(ordinal, g, tgt, w)
        assert len(plan) > 0
        assert plan == plan_swaps(nominal, g, tgt, w)
        modified = apply_swaps(ordinal, plan)
        assert np.array_equal(quantity_signal(modified, g).values, tgt.values)
        assert sorted(modified.column("year")) == sorted(years)

    def test_ordinal_member_outside_the_order_is_listed_as_written(self):
        m = Microfile(
            attributes=(Attribute("year", "ordinal", "parameter"),
                        Attribute("service", "nominal", "vital", weight=1.0)),
            columns={"year": np.array([2000.0, 1999.0, 2001.0]),
                     "service": np.array(["1", "1", "0"])},
        )
        g = GroupSpec.create({"service": {"1"}}, "year", ("2000", "2001", "2002", "2003"))
        tgt = GoalSignal("quantity", np.array([1.0, 1.0, 0.0, 0.0]), g.parameter_order)
        with pytest.raises(RemapError, match=r"outside the order: \['1999'\]"):
            plan_swaps(m, g, tgt, InfluentialWeights(ordinal={}, nominal={"service": 1.0}))

    def test_vectorized_costs_match_scalar_metric(self, fixture_microfile, fixture_group):
        tgt = GoalSignal("quantity", ref.QUANTITY_FINAL.astype(float), ref.AREA_CODES)
        w = InfluentialWeights.from_microfile(fixture_microfile)
        plan = plan_swaps(fixture_microfile, fixture_group, tgt, w)
        for (a, b), cost in list(zip(plan.swaps, plan.costs))[:25]:
            scalar = influential_metric(record_view(fixture_microfile, a),
                                        record_view(fixture_microfile, b), w)
            assert cost == pytest.approx(scalar, rel=1e-12)


def as_tuples(plan):
    """The plan's swaps and costs as tuples of Python numbers, as ``exhaustive_plan`` gives them."""
    return tuple(map(tuple, plan.swaps.tolist())), tuple(plan.costs.tolist())


def exhaustive_plan(m, g, tgt, w):
    """The slow, obvious planner: every pair of every flow block, sorted and swept.

    The flow blocks come from stepping the greedy donor/recipient choice one
    swap at a time and totalling each (donor, recipient) pair in the order
    of its first step.
    """
    param = m.column(g.parameter)
    member = set(members(m, g).tolist())
    pool = set(superset_members(m, g).tolist()) if g.superset_vital else set(range(m.n_records))
    member_at = [[i for i in range(m.n_records) if i in member and param[i] == v]
                 for v in g.parameter_order]
    partner_at = [[i for i in sorted(pool - member) if param[i] == v] for v in g.parameter_order]
    surplus = np.array([len(recs) for recs in member_at]) - tgt.values.astype(int)
    flows = {}
    while surplus.max() > 0:
        donor, recipient = int(np.argmax(surplus)), int(np.argmin(surplus))
        flows[donor, recipient] = flows.get((donor, recipient), 0) + 1
        surplus[donor] -= 1
        surplus[recipient] += 1

    pair_cost = _PairCost(m, w)
    used, swaps, costs = set(), [], []
    for (donor, recipient), k in flows.items():
        mem = np.array([i for i in member_at[donor] if i not in used], dtype=int)
        par = np.array([i for i in partner_at[recipient] if i not in used], dtype=int)
        left, right = np.repeat(mem, par.size), np.tile(par, mem.size)
        cost = pair_cost(left, right)
        taken = 0
        for j in np.lexsort((right, left, cost)):
            if taken == k:
                break
            if left[j] in used or right[j] in used:
                continue
            used.update((int(left[j]), int(right[j])))
            swaps.append((int(left[j]), int(right[j])))
            costs.append(float(cost[j]))
            taken += 1
    return tuple(swaps), tuple(costs)


def random_case(seed, spread, nominal_only, chi_same, superset):
    """Small random table, weights and feasible target over ORDER.

    A narrow ``spread`` of ordinal values makes duplicate records and tied
    costs common; every ordinal column also holds zeros.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 400))
    service = rng.choice(["1", "0", "2"], n, p=[0.4, 0.3, 0.3])
    sex = np.where((service == "1") | ~superset, "1", rng.choice(["1", "2"], n))
    ordinal = {}
    for name in ("age", "income"):
        values = rng.integers(1, spread + 1, n).astype(float)
        values[rng.random(n) < 0.15] = 0.0
        ordinal[name] = values
    m = Microfile(
        attributes=(
            Attribute("area", "nominal", "parameter"),
            Attribute("service", "nominal", "vital", weight=1.0),
            Attribute("kind", "nominal", "influential", weight=0.7),
            Attribute("sex", "nominal", "plain"),
            Attribute("age", "ordinal", "influential", weight=2.0),
            Attribute("income", "ordinal", "influential", weight=1.0),
        ),
        columns={"area": rng.choice(ORDER, n), "service": service,
                 "kind": rng.choice(["a", "b"], n), "sex": sex, **ordinal},
    )
    g = GroupSpec.create({"service": {"1"}}, "area", ORDER,
                         superset_vital={"sex": {"1"}} if superset else None)
    w = InfluentialWeights(ordinal={} if nominal_only else {"age": 2.0, "income": 1.0},
                           nominal={"service": 1.0, "kind": 0.7},
                           chi_same=chi_same, chi_diff=1.0)

    pool = np.zeros(n, dtype=bool)
    pool[superset_members(m, g) if superset else np.arange(n)] = True
    pool[members(m, g)] = False
    area = m.column("area")
    current = np.array([np.sum((service == "1") & (area == v)) for v in ORDER])
    partners = np.array([np.sum(pool & (area == v)) for v in ORDER])
    # deal the members out afresh with skewed odds, never past a position's
    # members plus partners
    odds = rng.dirichlet(np.full(len(ORDER), 0.5)) + 1e-9
    goal = np.zeros(len(ORDER), dtype=int)
    for _ in range(current.sum()):
        room = np.flatnonzero(goal < current + partners)
        goal[rng.choice(room, p=odds[room] / odds[room].sum())] += 1
    return m, g, target(goal), w


class TestExhaustiveReference:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([3, 40, 100_000]),
           nominal_only=st.booleans(), chi_same=st.sampled_from([0.0, 0.5]),
           superset=st.booleans())
    def test_plan_matches_exhaustive_greedy(self, seed, spread, nominal_only, chi_same, superset):
        m, g, tgt, w = random_case(seed, spread, nominal_only, chi_same, superset)
        expected = exhaustive_plan(m, g, tgt, w)
        plan = plan_swaps(m, g, tgt, w)
        assert as_tuples(plan) == expected
        # tree searches with shallow candidate lists put the completeness
        # proof and the refills to work on tables this small
        with mock.patch.multiple(remap, _FIRST_K=2, _SCORE_ALL=0):
            plan = plan_swaps(m, g, tgt, w)
        assert as_tuples(plan) == expected


class TestSmallBlockSweep:
    def test_block_matches_sweep_across_the_score_all_threshold(self):
        # blocks on both sides of _SCORE_ALL pairs, with tied costs (narrow
        # spreads, nominal-only weights) and zero ordinals in every table
        sides = collections.Counter()
        for seed in range(48):
            rng = np.random.default_rng(seed)
            m, _, _, w = random_case(seed, spread=[3, 40, 100_000][seed % 3],
                                     nominal_only=seed % 4 == 1, chi_same=[0.0, 0.5][seed % 2],
                                     superset=False)
            pair_cost = _PairCost(m, w)
            space = _ClassSpace(pair_cost)
            records = rng.permutation(m.n_records)
            n_mem = int(rng.integers(1, m.n_records // 2 + 1))
            n_par = int(rng.integers(1, m.n_records - n_mem + 1))
            mem = np.sort(records[:n_mem])
            par = np.sort(records[n_mem:n_mem + n_par])
            k = int(rng.integers(0, min(n_mem, n_par) + 1))
            sides[mem.size * par.size <= remap._SCORE_ALL] += 1
            used = remap._used_flags(m.n_records)
            block = _Block(space, _Queue(space, mem, used), _Queue(space, par, used),
                           collections.Counter())
            assert block.match(k) == _sweep(pair_cost, mem, par, k, remap._used_flags(m.n_records))
        assert sides[True] >= 10 and sides[False] >= 10

    def test_sweep_takes_each_record_once_cheapest_first(self):
        w = InfluentialWeights(ordinal={"age": 1.0}, nominal={})
        m = toy_microfile([("a1", "1", 10, 0), ("a1", "1", 20, 0),
                           ("a2", "0", 20, 0), ("a2", "0", 11, 0), ("a2", "0", 0, 0)])
        used = remap._used_flags(m.n_records)
        matched = _sweep(_PairCost(m, w), np.array([0, 1]), np.array([2, 3, 4]), 2, used)
        # (1, 2) costs 0 and goes first; record 0 then gets its cheapest partner, 3
        assert [(a, b) for a, b, _ in matched] == [(1, 2), (0, 3)]
        assert matched[0][2] == 0.0
        assert [i for i, flag in enumerate(used) if flag] == [0, 1, 2, 3]

    def test_tiny_blocks_build_no_class_space_or_tree(self):
        # 64 positions of 2 members and 4 partners; every even position hands
        # one member to the next odd one, so every block is 2 x 4 pairs
        order = tuple(f"p{i:02d}" for i in range(64))
        rows = []
        for i, area in enumerate(order):
            rows += [(area, "1", 20 + i, 100 + 3 * i), (area, "1", 40 + i, 0)]
            rows += [(area, "0", 21 + i, 100 + 2 * i), (area, "0", 0, 50),
                     (area, "0", 39 + i, 7), (area, "0", 20 + i, 100 + 3 * i)]
        m = toy_microfile(rows)
        g = GroupSpec.create({"service": {"1"}}, "area", order, superset_vital={"sex": {"1"}})
        tgt = GoalSignal("quantity", np.array([1.0, 3.0] * 32), order)
        expected = exhaustive_plan(m, g, tgt, WEIGHTS)
        with mock.patch.object(remap, "_ClassSpace", wraps=remap._ClassSpace) as space, \
                mock.patch.object(remap, "cKDTree", wraps=remap.cKDTree) as tree:
            plan = plan_swaps(m, g, tgt, WEIGHTS)
            assert space.call_count == 0 and tree.call_count == 0
            # forced onto _Block, the class space is still built only once
            with mock.patch.object(remap, "_SCORE_ALL", 0):
                forced = plan_swaps(m, g, tgt, WEIGHTS)
            assert space.call_count == 1
        assert len(plan) == 32
        assert as_tuples(plan) == as_tuples(forced) == expected


def cross_block_case(seed):
    """A donor feeding four recipients whose partner pools differ widely in size.

    The flow's blocks are (p0→p1, 10 swaps), (p0→p2, 8), (p0→p3, 2),
    (p0→p4, 1) and (p5→p4, 1): p0's member queue serves four blocks and
    p4's partner queue two.  p0 holds 40 members and p1..p4 hold 30, 25, 2
    and 20 partners, so with ``_SCORE_ALL`` at 64 p0's blocks are searched,
    searched, swept (22 x 2 pairs) and searched again.  Narrow ordinal
    spreads and zeros tie costs.
    """
    rng = np.random.default_rng(seed)
    order = tuple(f"p{i}" for i in range(6))
    members = [40, 3, 1, 2, 0, 6]
    partners = [15, 30, 25, 2, 20, 9]
    area, service = [], []
    for pos, (n_mem, n_par) in enumerate(zip(members, partners)):
        area += [order[pos]] * (n_mem + n_par)
        service += ["1"] * n_mem + list(rng.choice(["0", "2"], n_par))
    n = len(area)
    shuffle = rng.permutation(n)
    ordinal = {}
    for name, spread in (("age", 4), ("income", 30)):
        values = rng.integers(1, spread + 1, n).astype(float)
        values[rng.random(n) < 0.2] = 0.0
        ordinal[name] = values
    m = Microfile(
        attributes=(
            Attribute("area", "nominal", "parameter"),
            Attribute("service", "nominal", "vital", weight=1.0),
            Attribute("kind", "nominal", "influential", weight=0.7),
            Attribute("age", "ordinal", "influential", weight=2.0),
            Attribute("income", "ordinal", "influential", weight=1.0),
        ),
        columns={"area": np.array(area)[shuffle], "service": np.array(service)[shuffle],
                 "kind": rng.choice(["a", "b"], n), **ordinal},
    )
    g = GroupSpec.create({"service": {"1"}}, "area", order)
    goal = np.array(members) + [-21, 10, 8, 2, 2, -1]
    w = InfluentialWeights(ordinal={"age": 2.0, "income": 1.0},
                           nominal={"service": 1.0, "kind": 0.7})
    return m, g, GoalSignal("quantity", goal.astype(float), order), w


class TestAcrossBlocks:
    @pytest.mark.parametrize("first_k", [2, 8])
    @pytest.mark.parametrize("score_all", [0, 64])
    @pytest.mark.parametrize("seed", range(6))
    def test_kept_queues_plan_like_the_exhaustive_greedy(self, seed, score_all, first_k):
        m, g, tgt, w = cross_block_case(seed)
        expected = exhaustive_plan(m, g, tgt, w)
        info = {}
        with mock.patch.multiple(remap, _SCORE_ALL=score_all, _FIRST_K=first_k), \
                mock.patch.object(remap, "_sweep", wraps=remap._sweep) as sweep, \
                mock.patch.object(remap, "_Block", wraps=remap._Block) as block:
            calls = mock.Mock()
            calls.attach_mock(sweep, "sweep")
            calls.attach_mock(block, "block")
            plan = plan_swaps(m, g, tgt, w, info=info)
        assert as_tuples(plan) == expected
        # how each block was matched, in plan order, by its donor position
        ways = collections.defaultdict(list)
        for name, args, _ in calls.mock_calls:
            donor = args[1].recs if name == "block" else args[1]
            ways[m.column("area")[donor[0]]].append(name)
        searched = ["block"] * 4 if score_all == 0 else ["block", "block", "sweep", "block"]
        assert ways == {"p0": searched, "p5": ["block"]}
        assert info["blocks"] == 5
        assert info["swept_blocks"] == sweep.call_count
        # one queue each for p0's members, p5's members and the partners of
        # p1..p4, but none for p3's when its only block is swept
        assert info["queues_built"] == (6 if score_all == 0 else 5)

    def test_each_queue_is_built_once_per_plan(self, fixture_microfile, fixture_group):
        tgt = GoalSignal("quantity", ref.QUANTITY_FINAL.astype(float), ref.AREA_CODES)
        w = InfluentialWeights.from_microfile(fixture_microfile)
        member = np.zeros(fixture_microfile.n_records, dtype=bool)
        member[members(fixture_microfile, fixture_group)] = True
        area = fixture_microfile.column("area")
        info = {}
        with mock.patch.object(remap, "_SCORE_ALL", 0), \
                mock.patch.object(remap, "_Queue", wraps=remap._Queue) as queue:
            plan = plan_swaps(fixture_microfile, fixture_group, tgt, w, info=info)
        built = collections.Counter(
            ("member" if member[c.args[1][0]] else "partner", area[c.args[1][0]])
            for c in queue.call_args_list)
        assert built and max(built.values()) == 1
        assert queue.call_count == info["queues_built"] <= 2 * len(ref.AREA_CODES)
        # every block of the plan reuses its two queues rather than building them again
        assert info["blocks"] > info["queues_built"] / 2
        assert as_tuples(plan) == exhaustive_plan(fixture_microfile, fixture_group, tgt, w)


def shared_class_case(seed):
    """Six positions drawing their records from one small pool of attribute combinations.

    Every combination of (service, kind, age, income) can turn up at every
    position, so one class sits in several queues; ages and incomes of 0
    split each queue's classes into several partitions.  p0 and p1 hand
    members to p4 and p5 in blocks of about 80 members by 70 partners, more
    pairs than ``_SCORE_ALL``.
    """
    rng = np.random.default_rng(seed)
    order = tuple(f"p{i}" for i in range(6))
    members = [90, 85, 10, 10, 5, 5]
    partners = [10, 10, 20, 20, 75, 70]
    area, service = [], []
    for pos, (n_mem, n_par) in enumerate(zip(members, partners)):
        area += [order[pos]] * (n_mem + n_par)
        service += ["1"] * n_mem + list(rng.choice(["0", "2"], n_par))
    n = len(area)
    shuffle = rng.permutation(n)
    m = Microfile(
        attributes=(
            Attribute("area", "nominal", "parameter"),
            Attribute("service", "nominal", "vital", weight=1.0),
            Attribute("kind", "nominal", "influential", weight=0.7),
            Attribute("age", "ordinal", "influential", weight=2.0),
            Attribute("income", "ordinal", "influential", weight=1.0),
        ),
        columns={"area": np.array(area)[shuffle], "service": np.array(service)[shuffle],
                 "kind": rng.choice(["a", "b"], n), "age": rng.choice([0.0, 3.0, 7.0], n),
                 "income": rng.choice([0.0, 10.0, 40.0], n)},
    )
    g = GroupSpec.create({"service": {"1"}}, "area", order)
    goal = np.array(members) + [-30, -25, 0, 0, 30, 25]
    w = InfluentialWeights(ordinal={"age": 2.0, "income": 1.0},
                           nominal={"service": 1.0, "kind": 0.7})
    return m, g, GoalSignal("quantity", goal.astype(float), order), w


class TestByPosition:
    @pytest.mark.parametrize("n_pos", [16, 2**16], ids=["int32-keys", "int64-keys"])
    def test_matches_a_stable_argsort(self, n_pos):
        rng = np.random.default_rng(n_pos)
        n = 40_000
        positions = rng.integers(0, n_pos, n)
        keep = rng.random(n) < 0.7
        got, start = remap._by_position(keep, positions, n_pos)
        records = np.flatnonzero(keep)
        want = records[np.argsort(positions[records], kind="stable")]
        # keys position·n + record overflow int32 at 2**16 positions
        assert got.dtype == (np.int32 if n_pos == 16 else np.int64)
        assert got.tolist() == want.tolist()
        counts = np.bincount(positions[records], minlength=n_pos)
        assert start.tolist() == [0] + np.cumsum(counts).tolist()

    def test_no_records(self):
        got, start = remap._by_position(np.zeros(0, dtype=bool), np.zeros(0, np.int64), 4)
        assert got.size == 0 and start.tolist() == [0] * 5


class TestClassesPerQueue:
    @pytest.mark.parametrize("score_all", [0, remap._SCORE_ALL])
    @pytest.mark.parametrize("seed", range(3))
    def test_shared_classes_plan_like_the_exhaustive_greedy(self, seed, score_all):
        m, g, tgt, w = shared_class_case(seed)
        expected = exhaustive_plan(m, g, tgt, w)
        queues, build = [], remap._Queue

        def kept(*args):
            queues.append(build(*args))
            return queues[-1]

        info = {}
        with mock.patch.object(remap, "_SCORE_ALL", score_all), \
                mock.patch.object(remap, "_Queue", side_effect=kept):
            plan = plan_swaps(m, g, tgt, w, info=info)
        assert as_tuples(plan) == expected
        assert info["swept_blocks"] < info["blocks"]
        # the attributes of each queue's classes, read off their representatives
        columns = [m.cells(name) for name in ("service", "kind", "age", "income")]
        held = collections.Counter(
            combination for queue in queues
            for combination in set(zip(*(col[queue.classes.rep].tolist() for col in columns))))
        assert max(held.values()) >= 2
        assert max(len(queue.parts) for queue in queues) >= 3
        # a queue numbers its classes in the order of their attributes
        for queue in queues:
            rows = list(zip(*(col[queue.classes.rep].tolist() for col in columns[2:] + columns[:2])))
            assert rows == sorted(rows) and len(set(rows)) == len(rows)

    def test_plan_transient_is_bounded_per_record(self):
        # a table far larger than any queue: an array over every record for
        # each class-space step (the whole-table factorisation) would show
        rng = np.random.default_rng(0)
        n = 200_000
        order = tuple(f"p{i:02d}" for i in range(16))
        schema = (Attribute("area", "nominal", "parameter"),
                  Attribute("service", "nominal", "vital", weight=1.0),
                  Attribute("sex", "nominal", "plain"),
                  Attribute("age", "ordinal", "influential", weight=1.0),
                  Attribute("income", "ordinal", "influential", weight=1.0))
        m = Microfile.from_cells(
            schema,
            {"area": rng.integers(0, 16, n).astype(np.int32),
             "service": (rng.random(n) < 0.1).astype(np.int32),
             "sex": rng.integers(0, 2, n).astype(np.int32),
             "age": rng.integers(0, 12, n).astype(float),
             "income": rng.choice([0.0, 1.0, 2.0, 5.0], n)},
            {"area": np.array(order), "service": np.array(["0", "1"]),
             "sex": np.array(["1", "2"])})
        g = GroupSpec.create({"service": {"1"}}, "area", order, superset_vital={"sex": {"1", "2"}})
        goal = quantity_signal(m, g).values.astype(int)
        moved = goal[:4] // 20
        goal[:4] -= moved
        goal[-4:] += moved
        tgt = GoalSignal("quantity", goal.astype(float), order)
        info = {}
        tracemalloc.start()
        try:
            plan = plan_swaps(m, g, tgt, InfluentialWeights.from_microfile(m), info=info)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(plan) == moved.sum() and info["queues_built"] == 8
        # the position of every record (8 bytes each), the member and partner
        # flags, and the sort keys of each side: about 23 bytes per record;
        # factorising the whole table took about 92
        assert peak < 32 * n


class TestApplySwaps:
    def test_empty_plan_is_identity(self, fixture_microfile):
        plan = SwapPlan(parameter="area", swaps=(), costs=())
        out = apply_swaps(fixture_microfile, plan)
        assert np.array_equal(out.column("area"), fixture_microfile.column("area"))

    def test_single_swap_changes_exactly_two_cells(self):
        m = toy_microfile([("a1", "1", 30, 100), ("a2", "0", 31, 200)])
        out = apply_swaps(m, SwapPlan(parameter="area", swaps=((0, 1),), costs=(0.0,)))
        assert list(out.column("area")) == ["a2", "a1"]
        for name in ("service", "age", "income", "sex"):
            assert np.array_equal(out.column(name), m.column(name))

    def test_preserves_parameter_multiset_and_other_columns(self, fixture_microfile, fixture_group):
        tgt = GoalSignal("quantity", ref.QUANTITY_FINAL.astype(float), ref.AREA_CODES)
        w = InfluentialWeights.from_microfile(fixture_microfile)
        plan = plan_swaps(fixture_microfile, fixture_group, tgt, w)
        out = apply_swaps(fixture_microfile, plan)
        assert out.n_records == fixture_microfile.n_records
        # multiset oracle over the parameter column
        assert collections.Counter(out.column("area")) == collections.Counter(
            fixture_microfile.column("area"))
        for name in ("military_service", "sex", "age", "income"):
            assert np.array_equal(out.column(name), fixture_microfile.column(name))

    def test_superset_counts_invariant(self, fixture_microfile, fixture_group):
        tgt = GoalSignal("quantity", ref.QUANTITY_FINAL.astype(float), ref.AREA_CODES)
        w = InfluentialWeights.from_microfile(fixture_microfile)
        out = apply_swaps(fixture_microfile,
                          plan_swaps(fixture_microfile, fixture_group, tgt, w))

        def rho(m):
            idx = superset_members(m, fixture_group)
            values, counts = np.unique(m.column("area")[idx], return_counts=True)
            return dict(zip(values, counts))

        assert rho(out) == rho(fixture_microfile)

    def test_record_reuse_rejected(self):
        with pytest.raises(RemapError, match="at most one"):
            SwapPlan(parameter="area", swaps=((0, 1), (1, 2)), costs=(0.0, 0.0))

    def test_plans_compare_by_value(self):
        plan = SwapPlan(parameter="area", swaps=((0, 1), (2, 3)), costs=(0.5, 1.0))
        assert plan == SwapPlan("area", np.array([[0, 1], [2, 3]]), np.array([0.5, 1.0]))
        assert plan != SwapPlan("area", ((0, 1), (3, 2)), (0.5, 1.0))
        assert plan != SwapPlan("area", ((0, 1), (2, 3)), (0.5, 2.0))
        assert plan != SwapPlan("year", ((0, 1), (2, 3)), (0.5, 1.0))
        assert plan != ("area", ((0, 1), (2, 3)), (0.5, 1.0))
        with pytest.raises(TypeError, match="unhashable"):
            hash(plan)

    def test_one_cost_per_swap_required(self):
        with pytest.raises(RemapError, match="^2 swaps but 1 costs$"):
            SwapPlan(parameter="area", swaps=((0, 1), (2, 3)), costs=(0.0,))

    def test_out_of_range_swap_rejected(self):
        m = toy_microfile([("a1", "1", 30, 100)])
        with pytest.raises(RemapError, match="range"):
            apply_swaps(m, SwapPlan(parameter="area", swaps=((0, 5),), costs=(0.0,)))

    def test_first_out_of_range_swap_is_named(self):
        m = toy_microfile([("a1", "1", 30, 100), ("a2", "0", 31, 200), ("a3", "0", 32, 300)])
        plan = SwapPlan(parameter="area", swaps=((0, 1), (-1, 2), (3, 4)), costs=(0.0,) * 3)
        with pytest.raises(RemapError, match=r"^swap \(-1, 2\) is out of range for 3 records$"):
            apply_swaps(m, plan)
        plan = SwapPlan(parameter="area", swaps=((2, 0), (1, 3)), costs=(0.0, 0.0))
        with pytest.raises(RemapError, match=r"^swap \(1, 3\) is out of range for 3 records$"):
            apply_swaps(m, plan)
        # nothing is exchanged in the input when a plan is rejected
        assert list(m.column("area")) == ["a1", "a2", "a3"]

    def test_swaps_exchange_pairs_like_a_loop(self):
        rng = np.random.default_rng(3)
        m = toy_microfile([(f"a{i % 4 + 1}", "1", i, i) for i in range(40)])
        records = rng.permutation(40)[:30].reshape(-1, 2)
        plan = SwapPlan(parameter="area", swaps=tuple(map(tuple, records.tolist())),
                        costs=(0.0,) * 15)
        expected = list(m.column("area"))
        for a, b in plan.swaps:
            expected[a], expected[b] = expected[b], expected[a]
        assert list(apply_swaps(m, plan).column("area")) == expected
