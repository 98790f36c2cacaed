import collections
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import superset_records
from groupanon import reference as ref
from groupanon import remap
from groupanon.errors import RemapError, SchemaError
from groupanon.microfile import Attribute, GroupSpec, Microfile, members
from groupanon.remap import (InfluentialWeights, SwapPlan, _Block, _ClassSpace, _PairCost, _Queue,
                             _sweep, apply_swaps, influential_metric, plan_swaps)
from groupanon.signals import GoalSignal, quantity_signal

ORDER = ("a1", "a2", "a3", "a4")


def record_view(m, index):
    """One record as an attribute-name to value mapping, texts for nominal attributes."""
    view = {}
    for a in m.attributes:
        cell, vocab = m.cells(a.name)[index], m.vocabulary(a.name)
        view[a.name] = cell if vocab is None else vocab[cell]
    return view


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
    """One ``np.unique`` per column over every record: the reference for ``remap._runs``' ranks."""
    ids = np.zeros(codes[0].size, dtype=np.int64)
    for code in codes:
        ids = np.unique(ids * (int(code.max()) + 1) + code, return_inverse=True)[1].reshape(-1)
    return ids


def checked_runs(columns, n):
    """``remap._runs(columns, n)``, checked to be runs of equal rows, each ascending, in rank order."""
    order, start, rank = remap._runs(columns, n)
    assert sorted(order.tolist()) == list(range(n))
    runs = np.split(order, start[1:]) if n else []
    assert len(runs) == start.size
    rows = list(zip(*(col.tolist() for col in columns))) if columns else [()] * n
    for i, run in enumerate(runs):
        assert np.all(np.diff(run) > 0)
        assert np.all(rank[run] == i)
        assert len({rows[r] for r in run.tolist()}) == 1
    return order, start, rank


class TestRowIds:
    """``remap._runs``: the runs of equal rows in one stable lexsort, and each row's rank."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40),
           tops=st.lists(st.sampled_from([0, 1, 2, 6, 1000, 2**20, 2**40, 2**56]),
                         min_size=1, max_size=6))
    def test_matches_the_per_column_fold(self, data, n, tops):
        codes = []
        for top in tops:
            values = data.draw(st.lists(st.integers(0, top), min_size=n - 1, max_size=n - 1))
            code = np.array(data.draw(st.permutations(values + [top])), dtype=np.int64)
            codes.append(code)
        _, _, rank = checked_runs(codes, n)
        assert rank.tolist() == row_ids_by_column(codes).tolist()
        rows = sorted(set(zip(*(c.tolist() for c in codes))))
        assert rank.tolist() == [rows.index(r) for r in zip(*(c.tolist() for c in codes))]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), kinds=st.lists(st.booleans(), min_size=1,
                                                                max_size=4))
    def test_float_and_bool_rows_match_unique_rows(self, data, n, kinds):
        # float columns draw -0.0 and 0.0 alike, which compare equal
        cols = [np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300, 1e300])
                                            if is_float else st.booleans(),
                                            min_size=n, max_size=n)),
                         dtype=float if is_float else bool)
                for is_float in kinds]
        order, start, rank = checked_runs(cols, n)
        _, first, inverse = np.unique(np.stack(cols, 1), axis=0, return_index=True,
                                      return_inverse=True)
        assert order[start].tolist() == first.tolist()
        assert rank.tolist() == inverse.reshape(-1).tolist()

    def test_signed_zeros_form_one_run(self):
        zeros = np.array([0.0, -0.0, -0.0, 0.0, 3.0, -0.0])
        flags = np.array([True, True, True, True, False, True])
        order, start, rank = checked_runs([zeros, flags], 6)
        assert order.tolist() == [0, 1, 2, 3, 5, 4] and start.tolist() == [0, 5]
        assert rank.tolist() == [0, 0, 0, 0, 1, 0]

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_no_columns_make_one_run(self, n):
        order, start, rank = checked_runs([], n)
        assert order.tolist() == list(range(n))
        assert start.tolist() == [0] * min(n, 1)
        assert rank.tolist() == [0] * n


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ordinal_rejected(self, bad):
        # NaN scored 0 against every age, cheaper than a one-year gap
        w = InfluentialWeights(ordinal={"age": 1.0}, nominal={})
        with pytest.raises(RemapError, match="non-finite value in ordinal influential attribute "
                                             "'age'"):
            influential_metric({"age": bad}, {"age": 30.0}, w)

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
        # the metric squares the factors, so a negative chi_same would make
        # matching categories cost more than mismatching ones
        for chi_same in (2.0, -3.0):
            with pytest.raises(RemapError, match="match"):
                InfluentialWeights(ordinal={"age": 1.0}, nominal={}, chi_same=chi_same,
                                   chi_diff=1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    @pytest.mark.parametrize("where", ["ordinal", "nominal", "chi_same", "chi_diff"])
    def test_non_finite_weight_or_factor_rejected(self, where, bad):
        fields = dict(ordinal={"age": 1.0}, nominal={"service": 1.0}, chi_same=0.0, chi_diff=1.0)
        if where in ("ordinal", "nominal"):
            fields[where] = {**fields[where], "extra": bad}
        else:
            fields[where] = bad
        with pytest.raises(RemapError, match="weights and category factors must be finite"):
            InfluentialWeights(**fields)

    @pytest.mark.parametrize("ordinal, nominal, chi_diff", [
        ({"age": 1e308, "income": 1.0}, {"service": 1e308}, 1.0),  # the sum overflows
        ({"age": 1.0}, {"service": 1e300}, 1e5),  # weight * chi_diff² overflows
        ({"age": 1e308, "income": 1e308}, {}, 1.0),
    ])
    def test_weights_whose_largest_pair_cost_overflows_rejected(self, ordinal, nominal, chi_diff):
        with pytest.raises(RemapError, match="the largest pair cost, the ordinal weights plus the "
                                             "nominal weights times chi_diff², overflows"):
            InfluentialWeights(ordinal=ordinal, nominal=nominal, chi_diff=chi_diff)

    def test_largest_finite_pair_cost_accepted(self):
        # 1e308 + 1 + 1e308 * 0.5² is still finite, and so is the costliest pair's cost
        w = InfluentialWeights(ordinal={"age": 1e308, "income": 1.0}, nominal={"service": 1e308},
                               chi_diff=0.5)
        m = toy_microfile([("a1", "1", 30, 0), ("a2", "0", 0, 100)])
        plan = plan_swaps(m, toy_group(), target([0, 1, 0, 0]), w)
        assert plan.costs.tolist() == [1e308 + 1.0 + 1e308 * 0.25]

    def test_needs_positive_weight(self):
        with pytest.raises(RemapError, match="positive"):
            InfluentialWeights(ordinal={"age": 0.0}, nominal={"service": 0.0})

    def test_from_attributes_collects_vital_and_influential(self, fixture_microfile):
        w = InfluentialWeights.from_attributes(fixture_microfile.attributes)
        assert w.ordinal == {"age": 1.0, "income": 1.0}
        assert w.nominal == {"military_service": 1.0}


class TestPlanSwaps:
    def test_matching_target_is_empty_plan(self):
        m = toy_microfile([("a1", "1", 30, 100), ("a2", "0", 30, 100)])
        plan = plan_swaps(m, toy_group(), target([1, 0, 0, 0]), WEIGHTS)
        assert len(plan) == 0
        assert plan.total_cost == 0.0

    def test_target_equal_to_the_counts_plans_nothing(self, fixture_microfile, fixture_group):
        tgt = quantity_signal(fixture_microfile, fixture_group)
        w = InfluentialWeights.from_attributes(fixture_microfile.attributes)
        info = {}
        with mock.patch.object(remap, "_by_position", wraps=remap._by_position) as sides:
            plan = plan_swaps(fixture_microfile, fixture_group, tgt, w, info=info)
        assert plan.swaps.shape == (0, 2) and plan.swaps.dtype == np.int64
        assert plan.costs.shape == (0,) and plan.total_cost == 0.0
        assert info == dict.fromkeys(remap._COUNTS, 0)
        # neither side is sorted by position
        assert sides.call_count == 0

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
        w = InfluentialWeights.from_attributes(fixture_microfile.attributes)
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
        w = InfluentialWeights.from_attributes(fixture_microfile.attributes)
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
        with pytest.raises(SchemaError, match="outside the order.*b7"):
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
        w = InfluentialWeights.from_attributes(ordinal.attributes)
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
        with pytest.raises(SchemaError, match=r"outside the order: \['1999'\]"):
            plan_swaps(m, g, tgt, InfluentialWeights(ordinal={}, nominal={"service": 1.0}))

    def test_vectorized_costs_match_scalar_metric(self, fixture_microfile, fixture_group):
        tgt = GoalSignal("quantity", ref.QUANTITY_FINAL.astype(float), ref.AREA_CODES)
        w = InfluentialWeights.from_attributes(fixture_microfile.attributes)
        plan = plan_swaps(fixture_microfile, fixture_group, tgt, w)
        for (a, b), cost in list(zip(plan.swaps, plan.costs))[:25]:
            scalar = influential_metric(record_view(fixture_microfile, a),
                                        record_view(fixture_microfile, b), w)
            assert cost == pytest.approx(scalar, rel=1e-12)


def as_tuples(plan):
    """The plan's swaps and costs as tuples of Python numbers, as ``exhaustive_plan`` gives them."""
    return tuple(map(tuple, plan.swaps.tolist())), tuple(plan.costs.tolist())


def swaps_of(matched):
    """A matcher's (member, partner, cost) arrays as a list of (member, partner, cost) tuples."""
    return list(zip(*(x.tolist() for x in matched)))


def exhaustive_plan(m, g, tgt, w):
    """The slow, obvious planner: every pair of every flow block, sorted and swept.

    The flow blocks come from stepping the greedy donor/recipient choice one
    swap at a time and totalling each (donor, recipient) pair in the order
    of its first step.
    """
    param = m.column(g.parameter)
    member = set(members(m, g).tolist())
    pool = set(superset_records(m, g) if g.superset_vital else range(m.n_records))
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
    pool[superset_records(m, g) if superset else np.arange(n)] = True
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


def formula_pair_cost(m, w, left, right):
    """The pair cost as first written: masked division under ``errstate``, then weight * r * r."""
    cost = np.zeros(left.shape, dtype=float)
    for name, weight in w.ordinal.items():
        col = m.column(name)
        a, b = col[left], col[right]
        denom = a + b
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(denom > 0, (a - b) / np.where(denom > 0, denom, 1.0), 0.0)
        cost += weight * ratio * ratio
    for name, weight in w.nominal.items():
        codes = m.cells(name)
        cost += weight * np.where(codes[left] == codes[right], w.chi_same**2, w.chi_diff**2)
    return cost


def cost_table(rng, n, spread, special=()):
    """A table of two ordinal and two nominal columns: zeros, equal values and ``special`` ones."""
    ordinal = {}
    for name in ("age", "income"):
        values = rng.integers(0, spread + 1, n).astype(float)
        values[rng.random(n) < 0.2] = 0.0
        values *= rng.choice([1.0, 0.1, 1e-300, 1e300], n, p=[0.85, 0.05, 0.05, 0.05])
        if special:
            values[rng.random(n) < 0.1] = rng.choice(special)
        ordinal[name] = values
    return Microfile(
        attributes=(Attribute("age", "ordinal", "influential", weight=1.0),
                    Attribute("income", "ordinal", "influential", weight=1.0),
                    Attribute("service", "nominal", "vital", weight=1.0),
                    Attribute("kind", "nominal", "influential", weight=1.0)),
        columns={"service": rng.choice(["0", "1", "2"], n), "kind": rng.choice(["a", "b"], n),
                 **ordinal})


class TestPairCostFormula:
    """``_PairCost`` against the formula it replaced, bit for bit.

    ``exhaustive_plan`` scores pairs through ``_PairCost`` itself, so only a
    separate formula can show that a cost changed.
    """

    @pytest.mark.parametrize("seed", range(16))
    def test_every_pair_costs_what_the_formula_gives(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        m = cost_table(rng, n, spread=[1, 3, 1000][seed % 3])
        w = InfluentialWeights(ordinal={"age": float(rng.random() * 3), "income": 1.0 / 3.0},
                               nominal={"service": float(rng.random()), "kind": 0.7},
                               chi_same=[0.0, 0.3][seed % 2], chi_diff=[1.0, 1.7][seed % 4 // 2])
        left, right = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        got, expected = _PairCost(m, w)(left, right), formula_pair_cost(m, w, left, right)
        assert got.tobytes() == expected.tobytes()
        # two zeros, and two equal values, score no ordinal term
        age = m.column("age")
        same = age[left] == age[right]
        w_age = InfluentialWeights(ordinal={"age": 2.5}, nominal={})
        assert not _PairCost(m, w_age)(left, right)[same].any()
        if seed % 2:
            # a missing value has no distance to anything: the metric refuses it
            income = m.cells("income").copy()
            income[rng.integers(n)] = np.nan
            with pytest.raises(RemapError, match="non-finite value in ordinal influential "
                                                 "attribute 'income'"):
                _PairCost(m.with_cells("income", income), w)

    def test_ordinal_extremes(self):
        values = np.array([0.0, 0.0, 5e-324, 1e-300, 1.0, 1.0, 1e300])
        m = Microfile((Attribute("age", "ordinal", "influential", weight=1.0),),
                      {"age": values})
        n = values.size
        left, right = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        for weight in (1e-320, 0.1, 7.0, 1e308):
            w = InfluentialWeights(ordinal={"age": weight}, nominal={})
            with np.errstate(over="ignore"):
                got = _PairCost(m, w)(left, right)
            expected = formula_pair_cost(m, w, left, right)
            assert got.tobytes() == expected.tobytes()
            # inf scored NaN against every value, and NaN scored 0
            for bad in (np.inf, np.nan, -np.inf):
                with pytest.raises(RemapError, match="non-finite value in ordinal influential "
                                                     "attribute 'age'; metric undefined"):
                    _PairCost(m.with_cells("age", np.where(values == 1e300, bad, values)), w)


def lexsort_sweep(pair_cost, mem, par, k, used):
    """The sweep as first written: lexsort every pair by (cost, member, partner), take free ones."""
    left, right = np.repeat(mem, par.size), np.tile(par, mem.size)
    cost = pair_cost(left, right)
    out = []
    for j in np.lexsort((right, left, cost)):
        if len(out) == k:
            break
        a, b = int(left[j]), int(right[j])
        if used[a] or used[b]:
            continue
        used[a] = used[b] = 1
        out.append((a, b, float(cost[j])))
    return out


class TestSingleSwapSweep:
    @pytest.mark.parametrize("seed", range(40))
    def test_argmin_takes_the_pair_the_lexsort_takes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        # a spread of 1 or 2 ties most pairs
        m = cost_table(rng, n, spread=[1, 2, 50][seed % 3])
        w = InfluentialWeights(ordinal={"age": 1.0, "income": 0.5},
                               nominal={"service": 1.0, "kind": 0.0 if seed % 2 else 0.7},
                               chi_same=0.0, chi_diff=1.0)
        special = [None, np.nan, np.inf][seed % 3]
        if special is not None:
            # a NaN or inf value would make NaN costs, which the argmin would take first
            age = m.cells("age").copy()
            age[rng.integers(n)] = special
            with pytest.raises(RemapError, match="non-finite value in ordinal influential "
                                                 "attribute 'age'"):
                _PairCost(m.with_cells("age", age), w)
        pair_cost = _PairCost(m, w)
        records = rng.permutation(n)
        n_mem = int(rng.integers(1, n))
        mem = np.sort(records[:n_mem])
        par = np.sort(records[n_mem:n_mem + int(rng.integers(1, n - n_mem + 1))])
        used, expected_used = remap._used_flags(n), remap._used_flags(n)
        got = swaps_of(_sweep(pair_cost, mem, par, 1, used))
        assert got == lexsort_sweep(pair_cost, mem, par, 1, expected_used)
        assert bytes(used) == bytes(expected_used)

    def test_nan_cost_is_not_taken_first(self):
        # (inf - 1) / (inf + 1) would be NaN, a cost that sorts last but is the
        # argmin; no such cost is made, because the infinite age is refused
        w = InfluentialWeights(ordinal={"age": 1.0}, nominal={})
        m = toy_microfile([("a1", "1", np.inf, 0), ("a1", "1", 2.0, 0), ("a2", "0", 1.0, 0)])
        message = "non-finite value in ordinal influential attribute 'age'"
        with pytest.raises(RemapError, match=message):
            _PairCost(m, w)
        with pytest.raises(RemapError, match=message):
            plan_swaps(m, toy_group(), target([1, 1, 0, 0]), w)
        finite = toy_microfile([("a1", "1", 1e300, 0), ("a1", "1", 2.0, 0), ("a2", "0", 1.0, 0)])
        mem, par = np.array([0, 1]), np.array([2])
        expected = lexsort_sweep(_PairCost(finite, w), mem, par, 1, remap._used_flags(3))
        got = swaps_of(_sweep(_PairCost(finite, w), mem, par, 1, remap._used_flags(3)))
        assert got == expected == [(1, 2, pytest.approx(1 / 9))]


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
            assert swaps_of(block.match(k)) == swaps_of(
                _sweep(pair_cost, mem, par, k, remap._used_flags(m.n_records)))
        assert sides[True] >= 10 and sides[False] >= 10

    def test_sweep_takes_each_record_once_cheapest_first(self):
        w = InfluentialWeights(ordinal={"age": 1.0}, nominal={})
        m = toy_microfile([("a1", "1", 10, 0), ("a1", "1", 20, 0),
                           ("a2", "0", 20, 0), ("a2", "0", 11, 0), ("a2", "0", 0, 0)])
        used = remap._used_flags(m.n_records)
        matched = swaps_of(_sweep(_PairCost(m, w), np.array([0, 1]), np.array([2, 3, 4]), 2, used))
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
        w = InfluentialWeights.from_attributes(fixture_microfile.attributes)
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

    # (_View builds, trees_built, refills, pairs_scored) with shallow lists on every block
    @pytest.mark.parametrize("seed, shape", [(0, (42, 23, 3, 968)), (1, (40, 29, 3, 1118)),
                                             (2, (41, 17, 7, 1017)), (3, (40, 21, 5, 1029)),
                                             (4, (37, 21, 4, 1007)), (5, (37, 20, 1, 780))])
    def test_kept_views_keep_the_search_shape(self, seed, shape):
        # a view key that stopped matching across blocks would build more
        # views and trees; the plan alone would not show it
        m, g, tgt, w = cross_block_case(seed)
        info = {}
        with mock.patch.multiple(remap, _SCORE_ALL=0, _FIRST_K=2), \
                mock.patch.object(remap, "_View", wraps=remap._View) as view:
            plan = plan_swaps(m, g, tgt, w, info=info)
        assert as_tuples(plan) == exhaustive_plan(m, g, tgt, w)
        assert (view.call_count, info["trees_built"], info["refills"],
                info["pairs_scored"]) == shape


def signed_zero_case(seed):
    """Members and partners whose three ordinal columns mix 0.0, -0.0 and positive values.

    The loader reads a ``-0`` cell as -0.0.  Zeros of either sign split the
    classes into partitions and leave rows with different active columns;
    p0 and p1 hand members to p2 and p3.
    """
    rng = np.random.default_rng(seed)
    n = 300
    service = rng.choice(["1", "0", "2"], n, p=[0.4, 0.3, 0.3])
    ordinal = {name: rng.choice([0.0, -0.0, 1.0, 2.0, 5.0], n, p=[0.2, 0.2, 0.2, 0.2, 0.2])
               for name in ("age", "income", "tenure")}
    m = Microfile(
        attributes=(
            Attribute("area", "nominal", "parameter"),
            Attribute("service", "nominal", "vital", weight=1.0),
            Attribute("age", "ordinal", "influential", weight=2.0),
            Attribute("income", "ordinal", "influential", weight=1.0),
            Attribute("tenure", "ordinal", "influential", weight=0.5),
        ),
        columns={"area": rng.choice(ORDER, n), "service": service, **ordinal},
    )
    g = GroupSpec.create({"service": {"1"}}, "area", ORDER)
    area = m.column("area")
    current = np.array([np.sum((service == "1") & (area == v)) for v in ORDER])
    partners = np.array([np.sum((service != "1") & (area == v)) for v in ORDER])
    moved = np.minimum(current[:2], partners[2:]) // 2
    goal = current + np.concatenate([-moved, moved])
    return m, g, target(goal), InfluentialWeights.from_attributes(m.attributes)


class TestSignedZeros:
    @pytest.mark.parametrize("seed", range(3))
    def test_signed_zeros_plan_like_the_exhaustive_greedy(self, seed):
        m, g, tgt, w = signed_zero_case(seed)
        queues, build = [], remap._Queue

        def kept(*args):
            queues.append(build(*args))
            return queues[-1]

        with mock.patch.multiple(remap, _SCORE_ALL=0, _FIRST_K=2), \
                mock.patch.object(remap, "_Queue", side_effect=kept):
            plan = plan_swaps(m, g, tgt, w)
        assert len(plan) > 0
        assert as_tuples(plan) == exhaustive_plan(m, g, tgt, w)
        # -0.0 and 0.0 are one value: a queue has one class per distinct row
        columns = [m.cells(name) for name in ("age", "income", "tenure", "service")]
        for queue in queues:
            assert queue.count.size == len(set(zip(*(col[queue.recs].tolist()
                                                     for col in columns))))
        # some queue holds both signs of zero in one column, and rows differ in
        # their active columns
        assert any(len(set(np.signbit(col[queue.recs][col[queue.recs] == 0]).tolist())) == 2
                   for queue in queues for col in columns[:3])
        assert len({key[1:] for queue in queues for key in queue.views if key != "all"}) > 1


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
            plan = plan_swaps(m, g, tgt, InfluentialWeights.from_attributes(m.attributes), info=info)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(plan) == moved.sum() and info["queues_built"] == 8
        # the position of every record (8 bytes each), the member and partner
        # flags, and the sort keys of each side: about 23 bytes per record;
        # factorising the whole table took about 92
        assert peak < 32 * n


def tied_case(seed, superset, chi_same, kinds):
    """Six positions whose pair costs tie: constant ordinals and partners split by vital code.

    Members hold service "1" and partners one of "0", "2", "3" and "4", so a
    position's partner classes sit in up to four nominal partitions that
    cost the same against every member.  ``kinds`` ("none", "partners" or
    "both") names the records that draw a ``kind`` of "a" or "b"; every
    other record's is "a".  With ``chi_same`` 1.0 every nominal term costs
    its weight, so every pair ties; with 0.0 a matching kind is cheaper.
    p0 and p1 hand more than 100 members to p4 and p5, blocks of far more
    than ``_SCORE_ALL`` pairs.
    """
    rng = np.random.default_rng(seed)
    order = tuple(f"p{i}" for i in range(6))
    counts = [(150, 20), (120, 10), (20, 40), (10, 60), (5, 240), (5, 230)]
    area, service = [], []
    for pos, (n_mem, n_par) in enumerate(counts):
        area += [order[pos]] * (n_mem + n_par)
        service += ["1"] * n_mem + list(rng.choice(["0", "2", "3", "4"], n_par))
    n = len(area)
    shuffle = rng.permutation(n)
    service = np.array(service)[shuffle]
    member = service == "1"
    sex = np.where(member, "1", rng.choice(["1", "2"], n)) if superset else np.full(n, "1")
    kind = rng.choice(["a", "b"], n)
    if kinds != "both":
        kind[member if kinds == "partners" else slice(None)] = "a"
    m = Microfile(
        attributes=(
            Attribute("area", "nominal", "parameter"),
            Attribute("service", "nominal", "vital", weight=1.0),
            Attribute("kind", "nominal", "influential", weight=0.7),
            Attribute("sex", "nominal", "plain"),
            Attribute("age", "ordinal", "influential", weight=2.0),
            Attribute("income", "ordinal", "influential", weight=1.0),
        ),
        columns={"area": np.array(area)[shuffle], "service": service, "kind": kind, "sex": sex,
                 "age": np.full(n, 40.0), "income": np.full(n, 50000.0)},
    )
    g = GroupSpec.create({"service": {"1"}}, "area", order,
                         superset_vital={"sex": {"1"}} if superset else None)
    goal = np.array([n_mem for n_mem, _ in counts]) + [-110, -100, 5, 5, 100, 100]
    w = InfluentialWeights.from_attributes(m.attributes, chi_same=chi_same, chi_diff=1.0)
    return m, g, GoalSignal("quantity", goal.astype(float), order), w


TIED_CASES = [(seed, superset, chi_same, kinds) for seed in range(2) for superset in (False, True)
              for chi_same, kinds in ((1.0, "none"), (1.0, "partners"), (0.0, "partners"),
                                      (1.0, "both"), (0.0, "both"))]


class TestTiedGroups:
    """Pair-offs of a row class with several tied candidate groups, against the obvious planners.

    ``_FIRST_K=2, _SCORE_ALL=0`` lists candidates partition by partition,
    sorted together.
    """

    SETTINGS = [{"_FIRST_K": remap._FIRST_K}, {"_FIRST_K": 2, "_SCORE_ALL": 0}]

    @pytest.mark.parametrize("case", TIED_CASES)
    def test_plan_matches_the_exhaustive_greedy(self, case):
        m, g, tgt, w = tied_case(*case)
        expected = exhaustive_plan(m, g, tgt, w)
        for patch in self.SETTINGS:
            info = {}
            with mock.patch.multiple(remap, **patch):
                plan = plan_swaps(m, g, tgt, w, info=info)
            assert as_tuples(plan) == expected, patch
            if case[3] != "both":
                assert info["runs"] > 0
            if case[3] == "none":
                # one member class against tied partner groups: one pair-off a searched block
                assert info["runs"] == info["blocks"] - info["swept_blocks"]

    @pytest.mark.parametrize("seed", range(12))
    def test_block_matches_the_sweep(self, seed):
        rng = np.random.default_rng(seed)
        m, _, _, w = tied_case(seed, superset=False, chi_same=[1.0, 0.0][seed % 2],
                               kinds=["none", "partners", "both"][seed % 3])
        pair_cost = _PairCost(m, w)
        service = m.column("service")
        members_, partners = np.flatnonzero(service == "1"), np.flatnonzero(service != "1")
        # some records of each side already used, as by an earlier block of the
        # same sides, so each class's lowest records are the used ones
        used = remap._used_flags(m.n_records)
        _sweep(pair_cost, members_, partners, int(rng.integers(1, 40)), used)
        flags = np.frombuffer(used, dtype=bool)
        mem, par = members_[~flags[members_]], partners[~flags[partners]]
        for k in (1, 2, 40, min(mem.size, par.size)):
            got_used, want_used = remap._used_flags(m.n_records), remap._used_flags(m.n_records)
            np.frombuffer(got_used, dtype=bool)[:] = flags
            np.frombuffer(want_used, dtype=bool)[:] = flags
            space = _ClassSpace(pair_cost)
            block = _Block(space, _Queue(space, members_, got_used),
                           _Queue(space, partners, got_used), collections.Counter())
            got = block.match(k)
            assert swaps_of(got) == swaps_of(_sweep(pair_cost, mem, par, k, want_used)), k
            assert bytes(got_used) == bytes(want_used)


def repeated_case(seed, member_rows, spread):
    """p0 hands members to p1 and p2 (p3 stays empty); every record repeats 2 to 6 times.

    Each side draws its records from its own attribute combinations, each
    repeated 2 to 6 times, so classes hold several records and a row class
    may hold more records than its cheapest candidate classes.  The side
    with fewer combinations is the one whose classes are rows: the members
    when ``member_rows``.  Few combinations against many rows make rows'
    cheapest candidates collide, and a narrow ``spread`` of ordinal values
    ties costs across rows.
    """
    rng = np.random.default_rng(seed)
    order = ("p0", "p1", "p2", "p3")
    combos = (6, 30) if member_rows else (30, 6)
    area, service, ordinal = [], [], {"age": [], "income": []}
    for side, (n_combo, positions) in enumerate(zip(combos, (["p0"], ["p1", "p2"]))):
        values = {name: rng.integers(0, spread + 1, n_combo).astype(float) for name in ordinal}
        codes = ["1"] * n_combo if side == 0 else rng.choice(["0", "2"], n_combo)
        for combo, copies in enumerate(rng.integers(2, 7, n_combo).tolist()):
            for _ in range(copies):
                area.append(rng.choice(positions))
                service.append(codes[combo])
                for name in ordinal:
                    ordinal[name].append(values[name][combo])
    n = len(area)
    shuffle = rng.permutation(n)
    m = Microfile(
        attributes=(
            Attribute("area", "nominal", "parameter"),
            Attribute("service", "nominal", "vital", weight=1.0),
            Attribute("age", "ordinal", "influential", weight=2.0),
            Attribute("income", "ordinal", "influential", weight=1.0),
        ),
        columns={"area": np.array(area)[shuffle], "service": np.array(service)[shuffle],
                 **{name: np.array(values)[shuffle] for name, values in ordinal.items()}},
    )
    g = GroupSpec.create({"service": {"1"}}, "area", order)
    current = quantity_signal(m, g).values.astype(int)
    area_of = m.column("area")
    partners = [int(np.sum((area_of == p) & (m.column("service") != "1"))) for p in order]
    # move most of p0's members, as far as p1's and p2's partners allow
    to_p1 = min(partners[1], int(rng.integers(current[0] // 3, current[0] // 2 + 1)))
    to_p2 = min(partners[2], current[0] - to_p1 - 1)
    goal = current + [-to_p1 - to_p2, to_p1, to_p2, 0]
    return m, g, GoalSignal("quantity", goal.astype(float), order), \
        InfluentialWeights.from_attributes(m.attributes)


class TestBatchedRuns:
    """Runs paired off in batches, against the exhaustive greedy.

    A batch pairs off a prefix of the rows' entries ordered by (cost,
    member, partner): costs that rise strictly up to the entry after it,
    classes shared by two entries only in turn, a row left with records
    bounding the prefix by its next cost, and the block's remaining swaps.
    """

    @pytest.mark.parametrize("spread", [3, 40])
    @pytest.mark.parametrize("member_rows", [True, False], ids=["member-rows", "partner-rows"])
    @pytest.mark.parametrize("seed", range(8))
    def test_plan_matches_the_exhaustive_greedy(self, seed, member_rows, spread):
        m, g, tgt, w = repeated_case(seed, member_rows, spread)
        expected = exhaustive_plan(m, g, tgt, w)
        rows_are_members = []
        block = remap._Block

        def kept(*args):
            made = block(*args)
            rows_are_members.append(made.member_rows)
            return made

        for patch in ({"_FIRST_K": remap._FIRST_K}, {"_FIRST_K": 2, "_SCORE_ALL": 0}):
            info = {}
            with mock.patch.multiple(remap, **patch), \
                    mock.patch.object(remap, "_Block", side_effect=kept):
                plan = plan_swaps(m, g, tgt, w, info=info)
            assert as_tuples(plan) == expected, patch
            assert info["batches"] <= len(plan)
        assert set(rows_are_members) == {member_rows}

    def test_cases_pair_off_several_runs_a_batch(self):
        several = 0
        for seed in range(8):
            for member_rows in (True, False):
                info = {}
                with mock.patch.multiple(remap, _FIRST_K=2, _SCORE_ALL=0):
                    plan_swaps(*repeated_case(seed, member_rows, 40), info=info)
                several += info["runs"] > info["batches"] > 0
        assert several >= 4

    @pytest.mark.parametrize("seed", range(16))
    def test_block_matches_the_sweep_for_every_k(self, seed):
        # k cut anywhere, mid-batch included, on both sides of the rows
        m, _, _, w = repeated_case(seed, seed % 2 == 0, [3, 40][seed // 2 % 2])
        pair_cost = _PairCost(m, w)
        service, area = m.column("service"), m.column("area")
        mem = np.flatnonzero((service == "1") & (area == "p0"))
        par = np.flatnonzero((service != "1") & (area != "p0"))
        for k in np.unique(np.linspace(1, min(mem.size, par.size), 7).astype(int)).tolist():
            used = remap._used_flags(m.n_records)
            space = _ClassSpace(pair_cost)
            tally = collections.Counter()
            block = _Block(space, _Queue(space, mem, used), _Queue(space, par, used), tally)
            want_used = remap._used_flags(m.n_records)
            assert swaps_of(block.match(k)) == swaps_of(_sweep(pair_cost, mem, par, k, want_used))
            assert bytes(used) == bytes(want_used)

    def test_a_tiled_table_takes_far_fewer_batches_than_runs(self, fixture_microfile,
                                                              fixture_group):
        # three copies of the fixture: every class holds three times the records
        copies = 3
        m = Microfile.from_cells(
            fixture_microfile.attributes,
            {a.name: np.tile(fixture_microfile.cells(a.name), copies)
             for a in fixture_microfile.attributes},
            {a.name: fixture_microfile.vocabulary(a.name) for a in fixture_microfile.attributes
             if a.kind == "nominal"})
        tgt = GoalSignal("quantity", copies * ref.QUANTITY_FINAL.astype(float), ref.AREA_CODES)
        info = {}
        plan = plan_swaps(m, fixture_group, tgt, InfluentialWeights.from_attributes(m.attributes),
                          info=info)
        assert len(plan) == copies * int(np.abs(ref.QUANTITY_FINAL
                                                - quantity_signal(fixture_microfile,
                                                                  fixture_group).values).sum()) // 2
        assert info["runs"] > 1000 and 10 * info["batches"] < info["runs"]

    @pytest.mark.parametrize("score_all", [0, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_a_class_uses_its_lowest_records_first(self, seed, score_all):
        # what each block start reads off the used flags: a class's used
        # records are its lowest, whether sweeps or searches used them
        m, g, tgt, w = cross_block_case(seed)
        live, checked = remap._Queue.live, []

        def checked_live(queue):
            classes = live(queue)
            flags = np.frombuffer(queue.used, dtype=bool)[queue.recs]
            for start, nxt, end in zip(queue.start.tolist(), queue.next.tolist(),
                                       queue.end.tolist()):
                assert flags[start:nxt].all() and not flags[nxt:end].any()
            checked.append(int(np.count_nonzero(flags)))
            return classes

        with mock.patch.object(remap._Queue, "live", checked_live), \
                mock.patch.object(remap, "_SCORE_ALL", score_all):
            plan = plan_swaps(m, g, tgt, w)
        assert as_tuples(plan) == exhaustive_plan(m, g, tgt, w)
        assert max(checked) > 0


class TestCandidateLists:
    """Each row's candidate list, against scoring every live candidate class.

    A list ascends, stops at its proven limit, and holds a group of every
    cost up to that limit that a live candidate class has against the row.
    Ordinal values spread over five orders of magnitude, so a tree's k
    nearest groups are not always the k cheapest.
    """

    @staticmethod
    def spread_case(seed, one_partition):
        """Members and partners with two wide-spread ordinals; one nominal partition or several."""
        rng = np.random.default_rng(seed)
        n = 400
        service = rng.choice(["1", "0"] if one_partition else ["1", "0", "2"], n)
        ordinal = {name: np.round(10 ** rng.uniform(0, 5, n)) for name in ("age", "income")}
        if not one_partition:
            for values in ordinal.values():
                values[rng.random(n) < 0.15] = 0.0
        m = Microfile(
            attributes=(Attribute("service", "nominal", "vital", weight=1.0),
                        Attribute("age", "ordinal", "influential", weight=2.0),
                        Attribute("income", "ordinal", "influential", weight=1.0)),
            columns={"service": service, **ordinal})
        return m, InfluentialWeights(ordinal={"age": 2.0, "income": 1.0},
                                     nominal={"service": 1.0})

    @pytest.mark.parametrize("one_partition", [True, False], ids=["one-query", "queries"])
    @pytest.mark.parametrize("k", [2, 3, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_lists_hold_every_cost_up_to_their_limit(self, seed, k, one_partition):
        m, w = self.spread_case(seed, one_partition)
        pair_cost = _PairCost(m, w)
        service = m.column("service")
        space = _ClassSpace(pair_cost)
        used = remap._used_flags(m.n_records)
        queues = [_Queue(space, np.flatnonzero(service == "1"), used),
                  _Queue(space, np.flatnonzero(service != "1"), used)]
        with mock.patch.object(remap, "_SCORE_ALL", 0):
            block = _Block(space, *queues, collections.Counter())
            lists = block.candidates(block.live_rows, k)
        rows, cands = block.rows, block.cands
        assert (len(cands.views) == 1) == one_partition

        def cost(a, cand_recs):
            left = np.full(cand_recs.size, rows.classes.rep[a])
            return pair_cost(left, cand_recs) if block.member_rows else pair_cost(cand_recs, left)

        every_class = cands.classes.rep[cands.live()]
        tokens, costs, limits, starts, ends = lists
        cut = 0
        for a, limit, start, end in zip(block.live_rows.tolist(), limits.tolist(), starts.tolist(),
                                        ends.tolist()):
            listed = costs[start:end].tolist()
            assert listed == sorted(listed) and all(c <= limit for c in listed)
            # a group costs what its first class costs
            reps = cands.classes.rep[cands.group_classes[cands.group_start[tokens[start:end]]]]
            assert cost(a, reps).tolist() == listed
            every = cost(a, every_class)
            assert set(listed) == set(every[every <= limit].tolist())
            cut += limit < np.inf
        assert cut  # some lists stop short of the candidates' far end


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
        w = InfluentialWeights.from_attributes(fixture_microfile.attributes)
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
        w = InfluentialWeights.from_attributes(fixture_microfile.attributes)
        out = apply_swaps(fixture_microfile,
                          plan_swaps(fixture_microfile, fixture_group, tgt, w))

        def rho(m):
            idx = superset_records(m, fixture_group)
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
