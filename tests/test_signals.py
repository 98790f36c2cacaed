import logging

import numpy as np
import pytest

from groupanon import reference as ref
from groupanon.errors import SchemaError, SignalError
from groupanon.microfile import Attribute, GroupSpec, Microfile
from groupanon.signals import (
    GoalSignal,
    concentration_signal,
    concentration_to_quantity,
    difference_signal,
    quantity_signal,
)

ORDER = ("a1", "a2", "a3", "a4")


def toy_microfile(areas, services, sexes=None):
    n = len(areas)
    return Microfile(
        attributes=(
            Attribute("area", "nominal", "parameter"),
            Attribute("service", "nominal", "vital", weight=1.0),
            Attribute("sex", "nominal", "plain"),
        ),
        columns={
            "area": np.array(areas),
            "service": np.array(services),
            "sex": np.array(sexes if sexes is not None else ["1"] * n),
        },
    )


def toy_group(superset=False):
    return GroupSpec.create(
        {"service": {"1"}}, "area", ORDER,
        superset_vital={"sex": {"1"}} if superset else None,
    )


class TestQuantity:
    def test_fixture_reproduces_reference(self, fixture_microfile, fixture_group):
        q = quantity_signal(fixture_microfile, fixture_group)
        assert np.array_equal(q.values, ref.QUANTITY)
        assert q.total == 6272

    def test_empty_group_is_zero_vector(self):
        m = toy_microfile(["a1", "a2"], ["0", "0"])
        q = quantity_signal(m, toy_group())
        assert np.array_equal(q.values, np.zeros(4))

    def test_single_member_is_unit_vector(self):
        m = toy_microfile(["a1", "a3", "a2"], ["0", "1", "0"])
        q = quantity_signal(m, toy_group())
        assert np.array_equal(q.values, [0, 0, 1, 0])

    def test_member_outside_order_is_reported(self):
        m = toy_microfile(["a1", "zz"], ["1", "1"])
        with pytest.raises(SchemaError, match="zz"):
            quantity_signal(m, toy_group())

    def test_total_always_matches_member_count(self, fixture_microfile, fixture_group):
        from groupanon.microfile import members

        q = quantity_signal(fixture_microfile, fixture_group)
        assert int(q.total) == members(fixture_microfile, fixture_group).size


class TestConcentration:
    def test_reference_values_to_three_decimals(self, concentration_microfile):
        c = concentration_signal(concentration_microfile, ref.fixture_group())
        assert np.array_equal(c.denominators, ref.CONCENTRATION_DENOMINATORS)
        assert np.array_equal(np.round(c.values, 3), ref.CONCENTRATION)

    def test_group_equal_to_superset_gives_ones(self):
        m = toy_microfile(["a1", "a2", "a3", "a4"], ["1"] * 4)
        g = GroupSpec.create({"service": {"1"}}, "area", ORDER, superset_vital={"sex": {"1"}})
        c = concentration_signal(m, g)
        assert np.allclose(c.values, 1.0)

    def test_doubled_superset_gives_half(self):
        # every member matched by one extra male non-member per area: rho = 2q
        areas, services = [], []
        for code, count in zip(ref.AREA_CODES, ref.QUANTITY.astype(int)):
            areas += [code] * (2 * count)
            services += ["1"] * count + ["0"] * count
        m = Microfile(
            attributes=(
                Attribute("area", "nominal", "parameter"),
                Attribute("military_service", "nominal", "vital", weight=1.0),
                Attribute("sex", "nominal", "plain"),
            ),
            columns={
                "area": np.array(areas),
                "military_service": np.array(services),
                "sex": np.full(len(areas), "1"),
            },
        )
        c = concentration_signal(m, ref.fixture_group())
        assert np.allclose(c.values, 0.5)

    def test_requires_superset(self, fixture_microfile):
        with pytest.raises(SignalError, match="superset"):
            concentration_signal(fixture_microfile, ref.fixture_group(with_superset=False))

    def test_zero_denominator_names_parameter_value(self):
        m = toy_microfile(["a1", "a2", "a3"], ["1", "0", "0"], sexes=["1", "1", "1"])
        with pytest.raises(SignalError, match="a4"):
            concentration_signal(m, toy_group(superset=True))

    def test_cross_checked_against_superset_quantities(self, fixture_microfile):
        g = ref.fixture_group()
        c = concentration_signal(fixture_microfile, g)
        q = quantity_signal(fixture_microfile, g)
        rho_group = GroupSpec.create({"sex": {"1"}}, "area", ref.AREA_CODES)
        rho = quantity_signal(fixture_microfile, rho_group)
        assert np.allclose(c.values, q.values / rho.values)


def conc(values, rho=None):
    values = np.asarray(values, dtype=float)
    rho = np.ones_like(values) if rho is None else np.asarray(rho, dtype=float)
    return GoalSignal("concentration", values, tuple(f"p{i}" for i in range(values.size)),
                      denominators=rho)


class TestDifference:
    def test_identical_signals_give_zero(self):
        a = conc([0.1, 0.2, 0.3, 0.4])
        d = difference_signal(a, a)
        assert d.kind == "difference"
        assert not d.values.any()

    def test_zero_subordinate_keeps_main(self):
        main = conc(ref.CONCENTRATION, ref.CONCENTRATION_DENOMINATORS)
        zero = GoalSignal("concentration", np.zeros(16), main.parameter_order,
                          denominators=main.denominators)
        assert np.array_equal(difference_signal(main, zero).values, main.values)

    def test_componentwise_arithmetic(self):
        a = conc([0.5, 0.2, 0.1, 0.4])
        b = conc([0.1, 0.2, 0.3, 0.0])
        assert np.allclose(difference_signal(a, b).values, [0.4, 0.0, -0.2, 0.4])

    def test_antisymmetry(self):
        rng = np.random.default_rng(9)
        a, b = conc(rng.random(8)), conc(rng.random(8))
        assert np.allclose(difference_signal(a, b).values, -difference_signal(b, a).values)

    def test_mismatched_order_rejected(self):
        a = conc([0.1, 0.2, 0.3, 0.4])
        b = GoalSignal("concentration", np.zeros(4), ("x1", "x2", "x3", "x4"),
                       denominators=np.ones(4))
        with pytest.raises(SignalError, match="order"):
            difference_signal(a, b)

    def test_requires_concentration_kind(self):
        q = GoalSignal("quantity", np.zeros(4), ("a", "b", "c", "d"))
        with pytest.raises(SignalError, match="concentration"):
            difference_signal(q, q)


class TestConversion:
    def test_uniform_split(self):
        c = conc([0.25] * 4, [100.0] * 4)
        out = concentration_to_quantity(c, 8)
        assert np.array_equal(out.values, [2, 2, 2, 2])
        assert out.kind == "quantity"

    def test_two_way_split(self):
        c = conc([0.5, 0.5], [10.0, 10.0])
        assert np.array_equal(concentration_to_quantity(c, 10).values, [5, 5])

    def test_reference_conversion(self):
        # brute-force oracle: scale masses, floor, hand out leftovers by remainder
        mass = ref.CONCENTRATION_SHIFTED * ref.CONCENTRATION_DENOMINATORS
        scaled = mass * 6272 / mass.sum()
        floors = np.floor(scaled).astype(int)
        leftover = 6272 - floors.sum()
        by_remainder = sorted(range(16), key=lambda i: (-(scaled[i] - floors[i]), i))
        oracle = floors.copy()
        for i in by_remainder[:leftover]:
            oracle[i] += 1
        assert oracle.sum() == 6272

        c = conc(ref.CONCENTRATION_SHIFTED, ref.CONCENTRATION_DENOMINATORS)
        out = concentration_to_quantity(c, 6272)
        assert np.array_equal(out.values, oracle)
        assert np.array_equal(out.values, ref.CONCENTRATION_CONVERTED)
        assert out.total == 6272

    def test_negative_values_clamped_with_warning(self, caplog):
        c = conc([-0.5, 0.5, 0.5, 0.5], [10.0] * 4)
        with caplog.at_level(logging.WARNING):
            out = concentration_to_quantity(c, 9)
        assert out.values[0] == 0
        assert out.total == 9
        assert any("clamping" in rec.message for rec in caplog.records)

    def test_no_mass_is_an_error(self):
        c = conc([0.0] * 4, [10.0] * 4)
        with pytest.raises(SignalError, match="mass"):
            concentration_to_quantity(c, 5)

    def test_exact_total_preservation_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(4, 20))
            c = conc(rng.random(n), rng.integers(1, 1000, n).astype(float))
            total = int(rng.integers(1, 5000))
            out = concentration_to_quantity(c, total)
            assert out.total == total
            assert np.all(out.values >= 0)


class TestGoalSignal:
    def test_quantity_requires_integer_counts(self):
        with pytest.raises(SignalError, match="integer"):
            GoalSignal("quantity", np.array([1.5, 2.0, 3.0, 4.0]), ORDER)

    def test_concentration_requires_positive_denominators(self):
        with pytest.raises(SignalError, match="denominators"):
            GoalSignal("concentration", np.zeros(4), ORDER, denominators=np.zeros(4))

    def test_length_mismatch_rejected(self):
        with pytest.raises(SignalError, match="length"):
            GoalSignal("quantity", np.zeros(3), ORDER)
