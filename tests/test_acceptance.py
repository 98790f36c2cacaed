"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS/FAIL line; tolerances are fixed here and
match the contract the reference vectors were frozen under.  Criterion 3
carries one documented reference inconsistency (see
groupanon/reference.py): the bundled concentration-case solution violates
the position-5 row of its own printed system by 3.7e-3, so the test
asserts the verifier detects exactly that violation instead of asserting
blanket satisfaction.
"""

import collections
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import mean_fix, operator_rows, spec_of, superset_records
from groupanon import reference as ref
from groupanon.redistribute import (
    build_constraints,
    check_solution,
    make_nonnegative,
    normalize_mean_std,
    reassemble,
    round_to_integers,
)
from groupanon.remap import InfluentialWeights, apply_swaps, influential_metric, plan_swaps
from groupanon.signals import GoalSignal, quantity_signal
from groupanon.verify import has_failures, verify_reference_values
from groupanon.wavelet import FILTERS, conv_down, decompose, detail_component, reconstruct

DB2 = FILTERS["db2"]
LENGTHS = (8, 16, 32, 64)


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def system_spec(system):
    return spec_of([(p, rel, b) for p, rel, b, _ in system])


def test_c1_decomposition_fixtures():
    with criterion("C1 decomposition fixtures"):
        dec = decompose(ref.QUANTITY, DB2, 2)
        assert np.max(np.abs(dec.approx - ref.QUANTITY_APPROX_2)) <= 1e-3
        assert np.max(np.abs(dec.details[2] - ref.QUANTITY_DETAIL_2)) <= 1e-3
        # runtime bound: best observed call under 1 ms
        best = min(
            _timed(lambda: decompose(ref.QUANTITY, DB2, 2)) for _ in range(200)
        )
        assert best < 1e-3, f"decomposition took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_c2_reconstruction_fixtures():
    with criterion("C2 reconstruction fixtures"):
        dec_q = decompose(ref.QUANTITY, DB2, 2)
        assert np.max(np.abs(
            reconstruct(dec_q) - detail_component(dec_q) - ref.QUANTITY_APPROX_COMPONENT
        )) <= 1e-3
        assert np.max(np.abs(detail_component(dec_q) - ref.QUANTITY_DETAIL_COMPONENT)) <= 1e-3

        dec_c = decompose(ref.CONCENTRATION, DB2, 2)
        assert np.max(np.abs(dec_c.approx - ref.CONCENTRATION_APPROX_2)) <= 1e-3
        assert np.max(np.abs(dec_c.details[2] - ref.CONCENTRATION_DETAIL_2)) <= 1e-3
        approx_comp = reconstruct(dec_c) - detail_component(dec_c)
        assert np.max(np.abs(approx_comp - ref.CONCENTRATION_APPROX_COMPONENT)) <= 1e-3
        assert np.max(np.abs(detail_component(dec_c) - ref.CONCENTRATION_DETAIL_COMPONENT)) <= 1e-3

        chat = reassemble(dec_c, ref.CONCENTRATION_SOLUTION)
        assert np.max(np.abs(chat - ref.CONCENTRATION_REASSEMBLED)) <= 1e-3
        shifted, _ = make_nonnegative(chat, ref.CONCENTRATION_SHIFT)
        assert np.max(np.abs(shifted - ref.CONCENTRATION_SHIFTED)) <= 1e-3


def test_c3_constraint_system_fixtures():
    with criterion("C3 constraint systems (1 documented reference inconsistency)"):
        dec_q = decompose(ref.QUANTITY, DB2, 2)
        lp_q = build_constraints(dec_q, system_spec(ref.QUANTITY_SYSTEM))
        for (coeffs, _, _), (_, _, _, printed) in zip(operator_rows(lp_q), ref.QUANTITY_SYSTEM):
            assert np.max(np.abs(coeffs - np.array(printed))) <= 1e-3

        dec_c = decompose(ref.CONCENTRATION, DB2, 2)
        lp_c = build_constraints(dec_c, system_spec(ref.CONCENTRATION_SYSTEM))
        for (coeffs, _, _), (_, _, _, printed) in zip(operator_rows(lp_c), ref.CONCENTRATION_SYSTEM):
            assert np.max(np.abs(coeffs - np.array(printed))) <= 1e-3

        # the consistent quantity-case solution satisfies its system
        assert check_solution(lp_q, ref.QUANTITY_SOLUTION).satisfied.all()

        # the concentration-case solution is known to violate exactly one row;
        # assert the verifier finds precisely the documented violation
        checks = check_solution(lp_c, ref.CONCENTRATION_SOLUTION)
        known = ref.CONCENTRATION_KNOWN_VIOLATION
        assert np.flatnonzero(~checks.satisfied).tolist() == [4]  # position-5 row
        assert abs(checks.violation[4] - known["violation"]) < 2e-4


def test_c4_end_to_end_quantity_fixture():
    with criterion("C4 end-to-end quantity pipeline"):
        dec = decompose(ref.QUANTITY, DB2, 2)
        qhat = reassemble(dec, ref.QUANTITY_SOLUTION)
        shifted, shift = make_nonnegative(qhat, 2150.0)
        assert shift == 2150.0
        fixed = mean_fix(shifted, ref.QUANTITY)
        final = round_to_integers(fixed, int(ref.QUANTITY.sum()))
        assert int(final.sum()) == 6272
        assert np.max(np.abs(final - ref.QUANTITY_FINAL)) <= 1


def test_c5_remap_realization(fixture_microfile, fixture_group):
    with criterion("C5 remap realization on the fixture"):
        weights = InfluentialWeights.from_attributes(fixture_microfile.attributes)
        target = GoalSignal("quantity", ref.QUANTITY_FINAL.astype(float), ref.AREA_CODES)

        start = time.perf_counter()
        plan = plan_swaps(fixture_microfile, fixture_group, target, weights)
        modified = apply_swaps(fixture_microfile, plan)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"remap took {elapsed:.1f}s"

        assert np.array_equal(quantity_signal(modified, fixture_group).values,
                              ref.QUANTITY_FINAL)
        for name in ("military_service", "sex", "age", "income"):
            assert np.array_equal(modified.column(name), fixture_microfile.column(name))
        assert collections.Counter(modified.column("area")) == collections.Counter(
            fixture_microfile.column("area"))

        def rho(m):
            idx = superset_records(m, fixture_group)
            values, counts = np.unique(m.column("area")[idx], return_counts=True)
            return dict(zip(values, counts))

        assert rho(modified) == rho(fixture_microfile)


class TestC6PropertySuites:
    def test_perfect_reconstruction(self):
        with criterion("C6a perfect reconstruction (100 trials)"):
            rng = np.random.default_rng(2026)
            for trial in range(100):
                n = LENGTHS[trial % len(LENGTHS)]
                x = rng.normal(scale=100, size=n)
                dec = decompose(x, DB2, 2)
                assert np.max(np.abs(reconstruct(dec) - x)) < 1e-9

    def test_energy_preservation(self):
        with criterion("C6b one-level energy preservation (100 trials)"):
            rng = np.random.default_rng(2027)
            for trial in range(100):
                n = LENGTHS[trial % len(LENGTHS)]
                x = rng.normal(scale=10, size=n)
                low = conv_down(x, DB2.lowpass)
                high = conv_down(x, DB2.highpass)
                assert abs((x**2).sum() - (low**2).sum() - (high**2).sum()) < 1e-9

    def test_mean_std_normalization(self):
        with criterion("C6c mean/std normalization (100 trials)"):
            rng = np.random.default_rng(2028)
            for trial in range(100):
                n = LENGTHS[trial % len(LENGTHS)]
                x = rng.normal(size=n)
                reference = rng.normal(loc=5, scale=3, size=n)
                out = normalize_mean_std(x, reference)
                assert abs(out.mean() - reference.mean()) < 1e-9
                assert abs(out.std(ddof=1) - reference.std(ddof=1)) < 1e-9

    def test_mean_fix_sum(self):
        with criterion("C6d sum-preserving rescale (100 trials)"):
            rng = np.random.default_rng(2029)
            for trial in range(100):
                n = LENGTHS[trial % len(LENGTHS)]
                x = rng.random(n) + 0.1
                reference = rng.random(n) * 50
                assert abs(mean_fix(x, reference).sum() - reference.sum()) < 1e-9

    def test_detail_preservation_under_reassembly(self):
        with criterion("C6e detail preservation (100 trials)"):
            rng = np.random.default_rng(2030)
            for trial in range(100):
                n = LENGTHS[trial % len(LENGTHS)]
                dec = decompose(rng.normal(scale=50, size=n), DB2, 2)
                coeffs = rng.normal(scale=500, size=n // 4)
                redone = decompose(reassemble(dec, coeffs), DB2, 2)
                for j in (1, 2):
                    assert np.max(np.abs(redone.details[j] - dec.details[j])) < 1e-6

    def test_metric_symmetry_and_identity(self):
        with criterion("C6f metric symmetry and identity zero (100 trials)"):
            rng = np.random.default_rng(2031)
            weights = InfluentialWeights(
                ordinal={"age": 1.5, "income": 0.5}, nominal={"service": 2.0},
                chi_same=0.0, chi_diff=1.0,
            )
            for _ in range(100):
                a = {"age": float(rng.integers(0, 100)),
                     "income": float(rng.integers(0, 100_000)),
                     "service": str(rng.integers(0, 5))}
                b = {"age": float(rng.integers(0, 100)),
                     "income": float(rng.integers(0, 100_000)),
                     "service": str(rng.integers(0, 5))}
                assert influential_metric(a, b, weights) == pytest.approx(
                    influential_metric(b, a, weights), rel=1e-12)
                assert influential_metric(a, a, weights) == 0.0

    def test_rounding_exact_total_and_deviation(self):
        with criterion("C6g rounding exact total, deviation < 1 (100 trials)"):
            rng = np.random.default_rng(2032)
            for trial in range(100):
                n = LENGTHS[trial % len(LENGTHS)]
                x = rng.random(n) * rng.integers(1, 100)
                total = int(round(x.sum()))
                out = round_to_integers(x, total)
                assert int(out.sum()) == total
                assert np.all(np.abs(out - x) < 1.0)


def test_c7_verify_command():
    with criterion("C7 verification command"):
        start = time.perf_counter()
        rows = verify_reference_values()
        elapsed = time.perf_counter() - start
        assert not has_failures(rows)
        assert elapsed < 5.0, f"verification took {elapsed:.1f}s"

        result = subprocess.run(
            [sys.executable, "-m", "groupanon.cli", "verify"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 failed" in result.stdout
