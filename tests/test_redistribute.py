import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import OptimizeResult, linprog

from conftest import mean_fix, operator_rows, rows_of, spec_of
from groupanon import redistribute
from groupanon import reference as ref
from groupanon.errors import ConstraintError, InfeasibleError, UnboundedError
from groupanon.redistribute import (
    ConstraintSpec,
    Objective,
    build_constraints,
    check_solution,
    make_nonnegative,
    normalize_mean_std,
    reassemble,
    round_to_integers,
    satisfies,
    solve_constraints,
)
from groupanon.wavelet import FILTERS, approximation_component, decompose, reconstruction_matrix

DB2 = FILTERS["db2"]


@pytest.fixture(scope="module")
def quantity_dec():
    return decompose(ref.QUANTITY, DB2, 2)


@pytest.fixture(scope="module")
def concentration_dec():
    return decompose(ref.CONCENTRATION, DB2, 2)


def spec_from(system, bounds="printed"):
    return spec_of([(p, rel, b if bounds == "printed" else "original") for p, rel, b, _ in system])


class TestBuildConstraints:
    def test_quantity_system_coefficients(self, quantity_dec):
        lp = build_constraints(quantity_dec, spec_from(ref.QUANTITY_SYSTEM))
        for (coeffs, rel, bound), (_, rel_ref, b_ref, printed) in zip(operator_rows(lp), ref.QUANTITY_SYSTEM):
            assert rel == rel_ref and bound == pytest.approx(b_ref)
            assert np.max(np.abs(coeffs - np.array(printed))) < 1e-3

    def test_concentration_system_coefficients(self, concentration_dec):
        lp = build_constraints(concentration_dec, spec_from(ref.CONCENTRATION_SYSTEM))
        for (coeffs, _, _), (_, _, _, printed) in zip(operator_rows(lp), ref.CONCENTRATION_SYSTEM):
            assert np.max(np.abs(coeffs - np.array(printed))) < 1e-3

    def test_original_bounds_make_coefficients_feasible(self, quantity_dec):
        lp = build_constraints(quantity_dec, spec_of([(i, "<=", "original") for i in range(1, 17)]))
        assert satisfies(lp, quantity_dec.approx, tol=1e-9)

    def test_position_out_of_range(self, quantity_dec):
        with pytest.raises(ConstraintError, match="17"):
            build_constraints(quantity_dec, spec_of([(17, "<=", "original")]))

    @pytest.mark.parametrize("rows, objective, message", [
        ([(3, "<=", 1.0), (0, ">=", 0.0)], Objective("maximize", (17,)),
         "constraint position 0 outside 1..16"),
        ([(3, "<=", 1.0), (16, ">=", 0.0)], Objective("minimize", (2, 17, 0)),
         "objective position 17 outside 1..16"),
    ])
    def test_out_of_range_names_the_first_bad_position(self, quantity_dec, rows, objective,
                                                       message):
        with pytest.raises(ConstraintError) as err:
            build_constraints(quantity_dec, spec_of(rows, objective))
        assert str(err.value) == message

    def test_relation_validated(self):
        with pytest.raises(ConstraintError, match="relation"):
            ConstraintSpec([1], ["=="], [0.0])

    def test_spec_needs_rows(self):
        with pytest.raises(ConstraintError, match="at least one"):
            ConstraintSpec([], [], [])

    @pytest.mark.parametrize("columns", [([1, 2], ["<=", "<="], [0.0]),
                                         ([1], ["<=", ">="], [0.0, 1.0]),
                                         ([1, 2], ["<=", "<="], [0.0, 1.0], [True])])
    def test_columns_must_have_one_entry_per_row(self, columns):
        with pytest.raises(ConstraintError, match="one entry per row"):
            ConstraintSpec(*columns)

    def test_columns_are_read_only_copies(self):
        positions, bounds = [3, 1], np.array([2.5, 7.0])
        spec = ConstraintSpec(positions, ("<=", ">="), bounds, [False, True])
        bounds[0] = 0.0
        assert spec.positions.dtype == np.int64 and spec.positions.tolist() == [3, 1]
        assert spec.bounds[0] == 2.5 and np.isnan(spec.bounds[1])
        assert not any(a.flags.writeable for a in (spec.positions, spec.bounds, spec.original))
        assert ConstraintSpec(positions, ("<=", ">="), bounds).original.tolist() == [False, False]

    def test_feasibility_objective_takes_no_positions(self):
        with pytest.raises(ConstraintError, match="takes no positions"):
            Objective("feasibility", (3,))


class TestSolve:
    def test_consistent_solution_satisfies_quantity_system(self, quantity_dec):
        lp = build_constraints(quantity_dec, spec_from(ref.QUANTITY_SYSTEM))
        assert satisfies(lp, ref.QUANTITY_SOLUTION)

    def test_raw_quantity_solution_is_inconsistent(self, quantity_dec):
        # the raw bundled vector (corrupted third coefficient) fails exactly one
        # row, the position-15 cap, by under 1e-3; the verifier must flag it
        lp = build_constraints(quantity_dec, spec_from(ref.QUANTITY_SYSTEM))
        checks = check_solution(lp, ref.QUANTITY_SOLUTION_RAW)
        bad = np.flatnonzero(~checks.satisfied)
        assert bad.size == 1
        assert "0.404" in lp.describe_row(bad[0])
        assert 0 < checks.violation[bad[0]] < 1e-3

    def test_concentration_solution_known_violation(self, concentration_dec):
        # the bundled concentration solution genuinely violates the position-5
        # row of its own system; assert the verifier reports exactly that
        lp = build_constraints(concentration_dec, spec_from(ref.CONCENTRATION_SYSTEM))
        checks = check_solution(lp, ref.CONCENTRATION_SOLUTION)
        expected = ref.CONCENTRATION_KNOWN_VIOLATION
        assert np.flatnonzero(~checks.satisfied).tolist() == [4]  # fifth row of the system
        assert checks.violation[4] == pytest.approx(expected["violation"], abs=2e-4)

    def test_feasibility_warm_start_returns_original(self, quantity_dec):
        lp = build_constraints(quantity_dec, spec_of([(i, "<=", "original") for i in range(1, 17)]))
        out = solve_constraints(lp, warm_start=quantity_dec.approx)
        assert np.array_equal(out, quantity_dec.approx)

    def test_solver_output_satisfies_all_bounds(self, quantity_dec):
        lp = build_constraints(quantity_dec, spec_from(ref.QUANTITY_SYSTEM))
        out = solve_constraints(lp)
        assert satisfies(lp, out, tol=1e-6)
        for (coeffs, relation, bound) in operator_rows(lp):
            lhs = float(coeffs @ out)
            assert lhs <= bound + 1e-6 if relation == "<=" else lhs >= bound - 1e-6

    def test_maximize_objective_moves_mass(self, quantity_dec):
        spec = spec_of([(i, "<=", "original") for i in (1, 2, 15, 16)],
                       Objective("maximize", (8, 9)))
        lp = build_constraints(quantity_dec, spec)
        out = solve_constraints(lp)
        rebuilt = reassemble(quantity_dec, out)
        baseline = reassemble(quantity_dec, quantity_dec.approx)
        assert rebuilt[7] + rebuilt[8] > baseline[7] + baseline[8]

    def test_contradictory_rows_infeasible_with_conflict(self, quantity_dec):
        spec = spec_of([(1, "<=", 0.0), (1, ">=", 1.0)])
        lp = build_constraints(quantity_dec, spec)
        with pytest.raises(InfeasibleError) as err:
            solve_constraints(lp)
        assert len(err.value.conflict) == 2

    def test_unbounded_objective_detected(self, quantity_dec):
        spec = spec_of([(1, ">=", 0.0)], Objective("maximize", (1,)))
        lp = build_constraints(quantity_dec, spec)
        with pytest.raises(UnboundedError):
            solve_constraints(lp)


def row_text(coeffs_row, relation, bound):
    terms = [f"{c:+.3f}*a({j + 1})" for j, c in enumerate(coeffs_row) if abs(c) >= 5e-4]
    return f"{' '.join(terms)} {relation} {bound:.3f}"


def reference_checks(dec, spec, coeffs, tol=1e-9):
    """Row-by-row check straight from the spec: (text, lhs, satisfied, violation)."""
    matrix = reconstruction_matrix(dec.filter, dec.level, dec.signal_length)
    out = []
    for position, relation, bound in rows_of(spec):
        coeffs_row, bound = matrix[position - 1], float(bound)
        lhs = float(coeffs_row @ coeffs)
        gap = lhs - bound if relation == "<=" else bound - lhs
        out.append((row_text(coeffs_row, relation, bound), lhs, gap <= tol, max(gap, 0.0)))
    return out


def random_long_axis_case():
    """A 1,024-variable system (m = 4096, db2 level 2) and a point violating some rows."""
    rng = np.random.default_rng(37)
    dec = decompose(rng.poisson(20.0, size=4096).astype(float), DB2, 2)
    approx = reconstruction_matrix(DB2, 2, 4096) @ dec.approx
    positions = rng.choice(4096, size=600, replace=False) + 1
    rows = [(int(p), rel, float(approx[p - 1]) + (0.5 if rel == "<=" else -0.5))
            for p, rel in zip(positions, rng.choice(["<=", ">="], size=positions.size))]
    coeffs = dec.approx + rng.normal(scale=0.5, size=dec.approx.size)
    return dec, spec_of(rows), coeffs


class TestCheckSolutionAgainstRowLoop:
    @pytest.mark.parametrize("case", ["quantity", "concentration", "random"])
    def test_matches_per_row_reference(self, case, quantity_dec, concentration_dec):
        if case == "quantity":
            dec, spec, coeffs = quantity_dec, spec_from(ref.QUANTITY_SYSTEM), ref.QUANTITY_SOLUTION_RAW
        elif case == "concentration":
            dec, spec = concentration_dec, spec_from(ref.CONCENTRATION_SYSTEM)
            coeffs = ref.CONCENTRATION_SOLUTION
        else:
            dec, spec, coeffs = random_long_axis_case()
        lp = build_constraints(dec, spec)
        checks = check_solution(lp, coeffs)
        expected = reference_checks(dec, spec, coeffs)
        assert not checks.satisfied.all()
        for array in (checks.lhs, checks.bound, checks.satisfied, checks.violation):
            assert array.shape == (len(expected),) and not array.flags.writeable
        for i, (text, lhs, ok, violation) in enumerate(expected):
            assert checks.satisfied[i] == ok
            assert checks.violation[i] == violation
            assert checks.lhs[i] == pytest.approx(lhs, rel=1e-12, abs=1e-12)
            assert lp.describe_row(i) == f"rows[{i}]: {text}"
        assert satisfies(lp, coeffs) == checks.satisfied.all()

    def test_rows_recover_operator_form_exactly(self):
        dec, spec, _ = random_long_axis_case()
        lp = build_constraints(dec, spec)
        matrix = reconstruction_matrix(DB2, 2, 4096)
        # left-hand sides at every unit vector: column j of the operator-form rows
        lhs = np.column_stack([check_solution(lp, unit).lhs for unit in np.eye(lp.n_vars)])
        bound = check_solution(lp, dec.approx).bound
        for i, ((coeffs, relation, resolved), row) in enumerate(
                zip(operator_rows(lp), rows_of(spec), strict=True)):
            assert coeffs.tobytes() == matrix[row[0] - 1].tobytes()
            assert (relation, resolved) == row[1:]
            assert lp.sign[i] == (1.0 if relation == "<=" else -1.0)
            assert np.array_equal(lhs[i], matrix[row[0] - 1])
            assert bound[i].tobytes() == np.float64(resolved).tobytes()
            assert lp.describe_row(i).startswith(f"rows[{i}]: ")
            assert lp.describe_row(i).endswith(f" {relation} {resolved:.3f}")


def dense_system(dec, spec):
    """The obvious dense form of the system: ``R[positions] * sign[:, None]`` and its bounds."""
    matrix = reconstruction_matrix(dec.filter, dec.level, dec.signal_length)
    original = approximation_component(dec)
    rows = rows_of(spec)
    positions = np.array([position - 1 for position, _, _ in rows])
    sign = np.array([1.0 if relation == "<=" else -1.0 for _, relation, _ in rows])
    bounds = np.array([original[position - 1] if bound == "original" else float(bound)
                       for position, _, bound in rows])
    return matrix[positions] * sign[:, None], bounds * sign


def dense_text(dense_row, relation, signed_bound):
    sign = 1.0 if relation == "<=" else -1.0
    return row_text(dense_row * sign, relation, signed_bound * sign)


def dense_linprog(lp, a, b):
    bounds = [(0, None) if lp.nonnegative else (None, None)] * a.shape[1]
    return linprog(lp.cost, A_ub=a, b_ub=b, bounds=bounds, method="highs")


def banded_case(seed, m, objective):
    """db2 level 2 over a Poisson signal, banded at every position (two rows each).

    The original coefficients meet every row, so the system is feasible;
    "minimize" targets positions whose ">=" rows bound the objective.
    """
    rng = np.random.default_rng(seed)
    dec = decompose(rng.poisson(20.0, size=m).astype(float), DB2, 2)
    approx = reconstruction_matrix(DB2, 2, m) @ dec.approx
    width = rng.uniform(0.5, 3.0, size=m)
    rows = []
    for p in range(1, m + 1):
        rows.append((p, "<=", float(approx[p - 1] + width[p - 1])))
        rows.append((p, ">=", float(max(approx[p - 1] - width[p - 1], 0.0))))
    picks = tuple(int(p) for p in rng.choice(m, size=2, replace=False) + 1)
    return dec, spec_of(rows, Objective(objective, picks))


def tight_band_case(seed, m):
    """Counts of 1-5 with two spikes of 200-1200, db2 level 2, banded +-0.25 at every position.

    The two spikes get only a lower bound and are minimized, and the
    coefficients are free, as on the long-axis benchmark workload.
    """
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 6, m).astype(float)
    spikes = rng.choice(m, 2, replace=False)
    counts[spikes] += rng.integers(200, 1200, 2)
    dec = decompose(counts, DB2, 2)
    approx = approximation_component(dec)
    top = sorted(int(p) + 1 for p in spikes)
    rows = []
    for p in range(1, m + 1):
        rows.append((p, ">=", float(approx[p - 1]) - 0.25))
        if p not in top:
            rows.append((p, "<=", float(approx[p - 1]) + 0.25))
    positions, relations, bounds = zip(*rows)
    return dec, ConstraintSpec(positions, relations, bounds, None,
                               Objective("minimize", tuple(top)), False)


def fixture_cases():
    yield "C3-quantity", decompose(ref.QUANTITY, DB2, 2), spec_from(ref.QUANTITY_SYSTEM)
    yield ("C3-concentration", decompose(ref.CONCENTRATION, DB2, 2),
           spec_from(ref.CONCENTRATION_SYSTEM))
    yield ("C3-quantity-original", decompose(ref.QUANTITY, DB2, 2),
           spec_from(ref.QUANTITY_SYSTEM, bounds="original"))


class TestSparseOperatorAgainstDense:
    """The CSR system against the dense one built straight from R."""

    def all_cases(self):
        yield from fixture_cases()
        for seed in (3, 11):
            yield f"banded-{seed}", *banded_case(seed, 1024, "minimize")
        yield "random", *random_long_axis_case()[:2]

    def test_matrix_equals_dense_rows_without_explicit_zeros(self):
        for name, dec, spec in self.all_cases():
            lp = build_constraints(dec, spec)
            a, b = dense_system(dec, spec)
            assert lp.a_ub.format == "csr", name
            assert np.array_equal(lp.a_ub.toarray(), a), name
            assert lp.b_ub.tobytes() == b.tobytes(), name
            assert np.all(lp.a_ub.data != 0), name
            matrix = reconstruction_matrix(dec.filter, dec.level, dec.signal_length)
            widest = int(np.count_nonzero(matrix, axis=1).max())
            assert lp.a_ub.nnz <= len(spec.relations) * widest, name

    @pytest.mark.parametrize("objective", ["feasibility", "maximize", "minimize"])
    def test_fixture_solutions_bitwise_equal_dense_linprog(self, objective):
        for name, dec, spec in fixture_cases():
            spec = spec_of(rows_of(spec), Objective(objective, () if objective == "feasibility"
                                                    else (2, 9)))
            lp = build_constraints(dec, spec)
            res = dense_linprog(lp, *dense_system(dec, spec))
            assert res.status == 0, name
            assert solve_constraints(lp).tobytes() == res.x.tobytes(), name

    @pytest.mark.parametrize("objective", ["maximize", "minimize"])
    def test_cost_equals_sum_of_dense_objective_rows(self, objective):
        # R's rows are added in declared order, repeats included, as this loop adds them
        direction = -1.0 if objective == "maximize" else 1.0
        for name, dec, spec in self.all_cases():
            matrix = reconstruction_matrix(dec.filter, dec.level, dec.signal_length)
            for positions in (((2, 9, 2), (9, 2, 3, 2)) if dec.signal_length == 16
                              else ((1, 514, 1023), (1023, 1, 514, 1))):
                expected = np.zeros(matrix.shape[1])
                for pos in positions:
                    expected += direction * matrix[pos - 1]
                lp = build_constraints(dec, spec_of(rows_of(spec), Objective(objective, positions)))
                assert lp.cost.tobytes() == expected.tobytes(), (name, positions)

    @pytest.mark.parametrize("seed", [5, 17, 29])
    def test_long_axis_solutions_bitwise_equal_dense_linprog(self, seed):
        dec, spec = banded_case(seed, 4096 if seed == 5 else 1024, "minimize")
        lp = build_constraints(dec, spec)
        res = dense_linprog(lp, *dense_system(dec, spec))
        assert res.status == 0
        assert solve_constraints(lp).tobytes() == res.x.tobytes()

    def test_checks_match_dense_mat_vec(self):
        rng = np.random.default_rng(59)
        for name, dec, spec in self.all_cases():
            lp = build_constraints(dec, spec)
            a, b = dense_system(dec, spec)
            coeffs = dec.approx + rng.normal(scale=0.5 * np.abs(dec.approx).mean(),
                                             size=dec.approx.size)
            signed = a @ coeffs
            checks = check_solution(lp, coeffs)
            for i, (_, relation, _) in enumerate(rows_of(spec)):
                sign = 1.0 if relation == "<=" else -1.0
                assert lp.sign[i] == sign
                assert checks.bound[i] == b[i] * sign
                assert checks.satisfied[i] == (signed[i] - b[i] <= 1e-9)
                assert checks.lhs[i] == pytest.approx(signed[i] * sign, rel=1e-12, abs=1e-12)
                assert lp.describe_row(i) == f"rows[{i}]: {dense_text(a[i], relation, b[i])}"
            assert satisfies(lp, coeffs) == bool(np.all(signed - b <= 1e-9))

    @pytest.mark.parametrize("seed", [None, *range(20)])
    def test_infeasible_conflict_text_matches_dense_deletion_filter(self, quantity_dec, seed):
        # the reference system plus two contradictory rows, or a random ``conflict_case``
        if seed is None:
            dec = quantity_dec
            spec = spec_of(rows_of(spec_from(ref.QUANTITY_SYSTEM))
                           + [(7, "<=", 10.0), (7, ">=", 500.0)])
        else:
            dec, spec = conflict_case(seed)
        rows = rows_of(spec)
        lp = build_constraints(dec, spec)
        a, b = dense_system(dec, spec)
        keep = list(range(len(b)))
        for idx in list(keep):
            trial = [i for i in keep if i != idx]
            if trial and dense_linprog(lp, a[trial], b[trial]).status == 2:
                keep = trial
        expected = [f"rows[{i}]: {dense_text(a[i], rows[i][1], b[i])}" for i in keep]
        with pytest.raises(InfeasibleError) as err:
            solve_constraints(lp, warm_start=dec.approx)
        assert err.value.conflict == expected


#: Objective values of the restricted and the full solve agree to this, relative to 1.
OBJECTIVE_TOL = 1e-6


def full_solve_outcome(lp, a, b):
    """One full ``linprog`` over the dense system: ("optimal", value), ("unbounded", None), ...

    HiGHS's presolve can call an unbounded system infeasible (``sifting_case(43)``
    has a satisfying point, and is unbounded without presolve), so an
    "infeasible" is solved once more without presolve.
    """
    bounds = (0, None) if lp.nonnegative else (None, None)
    res = linprog(lp.cost, A_ub=a, b_ub=b, bounds=bounds, method="highs")
    if res.status == 2:
        res = linprog(lp.cost, A_ub=a, b_ub=b, bounds=bounds, method="highs",
                      options={"presolve": False})
    assert res.status in (0, 2, 3), res.message
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status], res.fun


def solve_outcome(lp, warm_start):
    """``solve_constraints`` from ``warm_start``: the outcome, the point and the LP count."""
    info = {}
    try:
        x = solve_constraints(lp, warm_start=warm_start, info=info)
    except UnboundedError:
        return "unbounded", None, info["solves"]
    except InfeasibleError:
        return "infeasible", None, info["solves"]
    return "optimal", x, info["solves"]


def sifting_case(seed):
    """A random banded system the original coefficients meet, with an objective.

    haar, db2 or db4 at level 1-3 over m = 16..256; about a third to all
    positions get a band of random width around their original value, each
    side kept with probability 0.8; one to three positions are minimized
    or maximized; the coefficients are non-negative or free.
    """
    rng = np.random.default_rng(seed)
    family = ("haar", "db2", "db4")[seed % 3]
    level = int(rng.integers(1, 4))
    m = int(rng.integers(max(8, 16 >> level), (256 >> level) + 1)) << level
    dec = decompose(rng.poisson(20.0, size=m).astype(float), FILTERS[family], level)
    approx = approximation_component(dec)
    coverage = rng.uniform(0.3, 1.0)
    rows = []
    for p in np.flatnonzero(rng.random(m) < coverage) + 1:
        width = rng.uniform(0.1, 3.0)
        for rel, side in (("<=", width), (">=", -width)):
            if rng.random() < 0.8:
                rows.append((int(p), rel, float(approx[p - 1] + side)))
    if not rows:
        rows.append((1, ">=", float(approx[0] - 1.0)))
    picks = tuple(int(p) for p in rng.choice(m, size=int(rng.integers(1, 4)), replace=False) + 1)
    objective = Objective(("minimize", "maximize")[int(rng.integers(2))], picks)
    return dec, rows, objective, bool(rng.integers(2))


def spec_with(rows, objective, nonnegative):
    positions, relations, bounds = zip(*rows)
    return ConstraintSpec(positions, relations, bounds, None, objective, nonnegative)


class TestSiftingAgainstOneFullSolve:
    """Restricted LPs from the original coefficients against one ``linprog`` over every row.

    The optimum is not unique, so the points are not compared: the outcome
    (optimal, unbounded, infeasible), the objective value within
    ``OBJECTIVE_TOL`` and every row at 1e-6 are.
    """

    def assert_agrees(self, dec, spec, warm_start=None):
        warm_start = dec.approx if warm_start is None else warm_start
        lp = build_constraints(dec, spec)
        expected, value = full_solve_outcome(lp, *dense_system(dec, spec))
        outcome, x, solves = solve_outcome(lp, warm_start)
        assert outcome == expected
        if outcome == "optimal":
            assert lp.cost @ x == pytest.approx(value, rel=OBJECTIVE_TOL, abs=OBJECTIVE_TOL)
            assert satisfies(lp, x, tol=1e-6)
            assert not lp.nonnegative or x.min() >= 0.0
        return outcome, solves

    def test_random_banded_systems(self):
        outcomes, rounds = [], []
        for seed in range(60):
            dec, rows, objective, nonnegative = sifting_case(seed)
            outcome, solves = self.assert_agrees(dec, spec_with(rows, objective, nonnegative))
            outcomes.append(outcome)
            rounds.append(solves)
        # both outcomes the original coefficients allow, and cases that take more than one
        # restricted LP, are exercised
        assert {"optimal", "unbounded"} <= set(outcomes)
        assert max(rounds) >= 2 and min(rounds) >= 1

    @pytest.mark.parametrize("nonnegative", [False, True])
    @pytest.mark.parametrize("kind", ["minimize", "maximize"])
    def test_objective_column_no_row_touches(self, kind, nonnegative):
        # rows on the first half only; the objective sits at the far end of the axis.
        # Haar's reconstruction rows are non-negative, so the sign bound bounds a minimum
        dec = decompose(np.random.default_rng(3).poisson(20.0, size=64).astype(float),
                        FILTERS["haar"], 2)
        approx = approximation_component(dec)
        rows = [(p, rel, float(approx[p - 1] + (1.0 if rel == "<=" else -1.0)))
                for p in range(1, 25) for rel in ("<=", ">=")]
        spec = spec_with(rows, Objective(kind, (48,)), nonnegative)
        lp = build_constraints(dec, spec)
        assert not lp.a_ub[:, np.flatnonzero(lp.cost)].nnz
        outcome, _ = self.assert_agrees(dec, spec)
        # minimizing a free or maximizing any column is unbounded; minimizing a
        # non-negative one drives it to zero, a point only its own column reaches
        assert outcome == ("optimal" if nonnegative and kind == "minimize" else "unbounded")

    @pytest.mark.parametrize("seed, m", [(0, 256), (2, 256), (1, 1024)])
    def test_tight_bands_take_one_lp(self, seed, m):
        # three widenings took three restricted LPs on each of these
        dec, spec = tight_band_case(seed, m)
        assert self.assert_agrees(dec, spec) == ("optimal", 1)

    def test_unbounded_system(self, quantity_dec):
        spec = spec_with([(1, ">=", 0.0), (9, "<=", 5000.0)], Objective("maximize", (1,)), False)
        assert self.assert_agrees(quantity_dec, spec) == ("unbounded", 1)

    def test_original_coefficients_missing_a_row_take_the_full_solve(self, quantity_dec):
        level = approximation_component(quantity_dec)
        rows = [(16, "<=", 0.9 * level[15])] + [(p, ">=", level[p - 1] - 500.0)
                                                 for p in range(1, 16)]
        spec = spec_with(rows, Objective("minimize", (3,)), False)
        assert not satisfies(build_constraints(quantity_dec, spec), quantity_dec.approx)
        assert self.assert_agrees(quantity_dec, spec) == ("optimal", 1)
        infeasible = spec_with(rows + [(16, ">=", level[15])], Objective("minimize", (3,)), False)
        # presolve's "infeasible" is solved once more without presolve
        assert self.assert_agrees(quantity_dec, infeasible) == ("infeasible", 2)

    def test_unbounded_system_presolve_calls_infeasible(self):
        # the original coefficients meet every row, and the system is unbounded, yet
        # HiGHS's presolve reports it infeasible
        dec, rows, objective, nonnegative = sifting_case(43)
        lp = build_constraints(dec, spec_with(rows, objective, nonnegative))
        assert satisfies(lp, dec.approx)
        assert linprog(lp.cost, A_ub=lp.a_ub, b_ub=lp.b_ub, bounds=(None, None),
                       method="highs").status == 2
        info = {}
        with pytest.raises(UnboundedError):
            solve_constraints(lp, info=info)
        assert info["solves"] == 2

    @pytest.mark.parametrize("kind", ["minimize", "maximize"])
    def test_negative_original_coefficients_under_a_sign_bound_take_the_full_solve(self, kind):
        rng = np.random.default_rng(23)
        dec = decompose(rng.normal(0.0, 5.0, size=64), DB2, 2)
        assert dec.approx.min() < 0
        approx = approximation_component(dec)
        rows = [(p, rel, float(approx[p - 1] + (2.0 if rel == "<=" else -2.0)))
                for p in range(1, 65) for rel in ("<=", ">=")]
        spec = spec_with(rows, Objective(kind, (5, 40)), True)
        # the sign bound makes the system infeasible: the full solve, and its "infeasible"
        # solved again without presolve
        assert self.assert_agrees(dec, spec) == ("infeasible", 2)
        # the same system without the sign bound is sifted from the original coefficients
        assert self.assert_agrees(dec, spec_with(rows, Objective(kind, (5, 40)), False))[1] >= 1


class TestOneHighsCallSite:
    """Every LP goes through the module attribute ``redistribute.linprog`` with ``A_ub=``.

    ``calls`` lists every call's keywords, and its cost as ``"c"``.
    """

    def calls(self, fn):
        counted = []

        def counter(cost, **kwargs):
            counted.append(dict(kwargs, c=cost))
            return linprog(cost, **kwargs)

        with mock.patch.object(redistribute, "linprog", counter):
            fn()
        assert counted and all(k["A_ub"].shape[0] == k["b_ub"].size for k in counted)
        return counted

    def test_long_axis_solves(self):
        dec, spec = banded_case(5, 4096, "minimize")
        lp = build_constraints(dec, spec)
        info = {}
        restricted = self.calls(lambda: solve_constraints(lp, warm_start=dec.approx, info=info))
        assert len(restricted) == info["solves"]
        assert all(k["A_ub"].shape[0] < lp.a_ub.shape[0] for k in restricted)
        # one full solve, its bounds one (lo, hi) pair for every coefficient
        (full,) = self.calls(lambda: solve_constraints(lp))
        assert full["A_ub"].shape == lp.a_ub.shape and np.shape(full["bounds"]) == (2,)

    def test_conflict_filter_solves(self, quantity_dec):
        rows = [(1, "<=", 0.0), (1, ">=", 1.0), (9, "<=", 1e4)]
        lp = build_constraints(quantity_dec, spec_of(rows, Objective("maximize", (2,))))
        calls = self.calls(lambda: pytest.raises(InfeasibleError, solve_constraints, lp))
        # the full solve, asked again without presolve; then zero-cost trials: every row,
        # and QuickXplain's over rows 3, 2, 1: {3}, {2, 3}, {1, 3} and {1, 2}
        assert [k["options"] for k in calls] == [None, {"presolve": False}] + [None] * 5
        assert [k["A_ub"].shape[0] for k in calls] == [3, 3, 3, 1, 2, 2, 2]
        assert all(k["c"].any() for k in calls[:2]) and not any(k["c"].any() for k in calls[2:])
        assert all(np.shape(k["bounds"]) == (2,) for k in calls)

    @pytest.mark.parametrize("seed", range(3))
    def test_long_axis_conflict_takes_few_trials(self, seed):
        # every position banded, then one ">=" row 1 above position 50's "<=" row
        dec, spec = banded_case(seed, 1024, "minimize")
        rows = rows_of(spec)
        position, relation, upper = rows[98]
        assert (position, relation) == (50, "<=")
        lp = build_constraints(dec, spec_of(rows + [(50, ">=", upper + 1.0)], spec.objective))
        with mock.patch.object(redistribute, "linprog", wraps=linprog) as counted:
            with pytest.raises(InfeasibleError) as err:
                solve_constraints(lp, warm_start=dec.approx)
        assert lp.sign.size == 2049 and counted.call_count <= 40
        assert [c.split(":")[0] for c in err.value.conflict] == ["rows[98]", "rows[2048]"]


class TestOneAnswerRule:
    """``_highs`` asks once more, presolve flipped, for any answer but optimal or unbounded.

    ``redistribute.linprog`` answers from a script of statuses, then, once
    the script is spent, as HiGHS does; ``options`` lists every call's.
    """

    @contextmanager
    def scripted(self, *statuses):
        script, options = list(statuses), []

        def answer(cost, **kwargs):
            options.append(kwargs["options"])
            if not script:
                return linprog(cost, **kwargs)
            status = script.pop(0)
            return OptimizeResult(status=status, x=np.zeros(len(cost)),
                                  message=f"scripted status {status}")

        with mock.patch.object(redistribute, "linprog", answer):
            yield options
        assert not script

    def test_full_solve_unbounded_on_the_second_answer(self, quantity_dec):
        lp = build_constraints(quantity_dec, spec_of([(1, ">=", 0.0)], Objective("maximize", (1,))))
        info = {}
        with self.scripted(2, 3) as options, pytest.raises(UnboundedError):
            solve_constraints(lp, info=info)
        assert options == [None, {"presolve": False}] and info["solves"] == 2

    def test_sifting_round_kept_on_the_second_answer(self):
        dec, spec = tight_band_case(0, 256)
        lp = build_constraints(dec, spec)
        info = {}
        with self.scripted(4, 0) as options:
            out = solve_constraints(lp, warm_start=dec.approx, info=info)
        assert options == [{"presolve": False}, None] and info["solves"] == 2
        # every change variable of the scripted optimum is zero
        assert np.array_equal(out, dec.approx)

    def test_two_infeasible_answers_reach_the_conflict_trials(self, quantity_dec):
        rows = [(1, "<=", 0.0), (1, ">=", 1.0), (9, "<=", 1e4)]
        lp = build_constraints(quantity_dec, spec_of(rows, Objective("maximize", (2,))))
        info = {}
        with self.scripted(2, 2) as options, pytest.raises(InfeasibleError) as err:
            solve_constraints(lp, info=info)
        # the full system's two answers, then HiGHS's for five zero-cost trials, each final
        assert options == [None, {"presolve": False}] + [None] * 5
        assert info["solves"] == 2 and len(err.value.conflict) == 2

    def test_zero_cost_infeasible_is_asked_once(self, quantity_dec):
        rows = [(1, "<=", 0.0), (1, ">=", 1.0), (9, "<=", 1e4)]
        lp = build_constraints(quantity_dec, spec_of(rows))
        info = {}
        with self.scripted(2) as options, pytest.raises(InfeasibleError) as err:
            solve_constraints(lp, info=info)
        assert options == [None] * 6 and info["solves"] == 1
        assert err.value.conflict == [lp.describe_row(i) for i in (0, 1)]

    def test_every_row_is_named_when_the_trial_of_every_row_is_feasible(self, quantity_dec):
        rows = [(1, "<=", 0.0), (1, ">=", 1.0), (9, "<=", 1e4)]
        lp = build_constraints(quantity_dec, spec_of(rows))
        with self.scripted(2, 0) as options, pytest.raises(InfeasibleError) as err:
            solve_constraints(lp)
        assert options == [None, None]
        assert err.value.conflict == [lp.describe_row(i) for i in range(3)]

    def test_a_failure_then_infeasible_is_the_failure(self, quantity_dec):
        lp = build_constraints(quantity_dec, spec_of([(1, "<=", 0.0)]))
        info = {}
        with self.scripted(1, 2) as options, pytest.raises(ConstraintError) as err:
            solve_constraints(lp, info=info)
        assert type(err.value) is ConstraintError and "scripted status 1" in str(err.value)
        assert options == [None, {"presolve": False}] and info["solves"] == 2


def conflict_case(seed):
    """A small infeasible system: bands around the original values, one ">=" row above a "<=".

    haar, db2 or db4 at level 1-3 over m = 16..64; 16 positions get a
    "<=" and a ">=" row of random width, and one more ">=" row, placed at a
    random index, bounds a banded position above its "<=" bound.
    """
    rng = np.random.default_rng(seed)
    family = ("haar", "db2", "db4")[seed % 3]
    level = int(rng.integers(1, 4))
    m = int(rng.integers(max(8, 16 >> level), (64 >> level) + 1)) << level
    dec = decompose(rng.poisson(20.0, size=m).astype(float), FILTERS[family], level)
    approx = approximation_component(dec)
    rows = []
    for p in rng.choice(m, size=min(m, 16), replace=False) + 1:
        width = rng.uniform(0.1, 3.0)
        rows += [(int(p), "<=", float(approx[p - 1] + width)),
                 (int(p), ">=", float(approx[p - 1] - width))]
    p, _, upper = rows[2 * int(rng.integers(len(rows) // 2))]
    rows.insert(int(rng.integers(len(rows) + 1)), (p, ">=", upper + rng.uniform(0.1, 2.0)))
    return dec, spec_with(rows, Objective(), bool(rng.integers(2)))


class TestConflictIsIrreducible:
    @pytest.mark.parametrize("seed", range(20))
    def test_conflict_rows_are_infeasible_and_each_is_needed(self, seed):
        dec, spec = conflict_case(seed)
        lp = build_constraints(dec, spec)
        with pytest.raises(InfeasibleError) as err:
            solve_constraints(lp, warm_start=dec.approx)
        conflict = [int(text[len("rows["):text.index("]")]) for text in err.value.conflict]
        a, b = dense_system(dec, spec)
        assert dense_linprog(lp, a[conflict], b[conflict]).status == 2
        for drop in conflict:
            rest = [i for i in conflict if i != drop]
            assert dense_linprog(lp, a[rest], b[rest]).status == 0, drop


class TestDescribeRowAgainstDenseScatter:
    @pytest.mark.parametrize("family", ["haar", "db2", "db4"])
    @pytest.mark.parametrize("seed", range(4))
    def test_text_matches_the_dense_row(self, family, seed):
        # random positions, relations and bounds, about a third of them "original"
        rng = np.random.default_rng(seed)
        level = int(rng.integers(1, 4))
        m = int(rng.integers(8, 33)) << level
        dec = decompose(rng.poisson(20.0, size=m).astype(float), FILTERS[family], level)
        rows = [(int(p), str(rel), "original" if rng.random() < 0.3 else float(b))
                for p, rel, b in zip(rng.integers(1, m + 1, size=2 * m),
                                     rng.choice(["<=", ">="], size=2 * m),
                                     rng.normal(20.0, 5.0, size=2 * m))]
        spec = spec_of(rows)
        lp = build_constraints(dec, spec)
        a, b = dense_system(dec, spec)
        for i, (_, relation, _) in enumerate(rows):
            assert lp.describe_row(i) == f"rows[{i}]: {dense_text(a[i], relation, b[i])}"


class TestReassemble:
    def test_reference_reassembly(self, quantity_dec):
        qhat = reassemble(quantity_dec, ref.QUANTITY_SOLUTION)
        assert np.max(np.abs(qhat - ref.QUANTITY_REASSEMBLED)) < 1e-2

    def test_identity_coefficients_reproduce_signal(self, quantity_dec):
        assert np.max(np.abs(reassemble(quantity_dec, quantity_dec.approx) - ref.QUANTITY)) < 1e-9

    def test_reference_concentration_reassembly(self, concentration_dec):
        chat = reassemble(concentration_dec, ref.CONCENTRATION_SOLUTION)
        assert np.max(np.abs(chat - ref.CONCENTRATION_REASSEMBLED)) < 1e-2

    def test_details_survive_reassembly(self, quantity_dec):
        rng = np.random.default_rng(41)
        for _ in range(20):
            coeffs = rng.normal(scale=1000, size=4)
            redone = decompose(reassemble(quantity_dec, coeffs), DB2, 2)
            for j in (1, 2):
                assert np.max(np.abs(redone.details[j] - quantity_dec.details[j])) < 1e-6

    def test_wrong_length_rejected(self, quantity_dec):
        with pytest.raises(ConstraintError, match="coefficients"):
            reassemble(quantity_dec, np.zeros(5))

    def test_constraints_and_reassembly_build_no_dense_matrix(self):
        m = 8192
        rng = np.random.default_rng(61)
        signal = rng.poisson(20.0, size=m).astype(float)
        dec = decompose(signal, DB2, 2)
        spec = spec_of([(p, ">=", "original") for p in range(1, m + 1)],
                       Objective("minimize", (17, 4000)))
        tracemalloc.start()
        try:
            lp = build_constraints(dec, spec)
            out = reassemble(dec, dec.approx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lp.a_ub.shape == (m, m // 4) and lp.cost.any()
        assert np.max(np.abs(out - signal)) < 1e-9
        # a dense R here is m * m/4 float64s, 128 MiB; the CSR rows, the LP
        # and the synthesis buffers are O(m), about 1 MiB
        assert peak < 8 * 2**20


class TestRepairs:
    def test_reference_shift_keeps_signal_nonnegative(self, quantity_dec):
        qhat = reassemble(quantity_dec, ref.QUANTITY_SOLUTION)
        shifted, shift = make_nonnegative(qhat, ref.QUANTITY_SHIFT)
        assert shift == 2150.0
        assert shifted.min() == pytest.approx(49.076, abs=1e-2)

    def test_reference_concentration_shift(self, concentration_dec):
        chat = reassemble(concentration_dec, ref.CONCENTRATION_SOLUTION)
        shifted, _ = make_nonnegative(chat, ref.CONCENTRATION_SHIFT)
        assert np.max(np.abs(shifted - ref.CONCENTRATION_SHIFTED)) < 1e-3

    def test_nonnegative_input_untouched(self):
        x = np.array([0.0, 1.0, 2.0])
        out, shift = make_nonnegative(x)
        assert shift == 0.0
        assert np.array_equal(out, x)

    def test_auto_shift_is_ceiling_plus_margin(self):
        out, shift = make_nonnegative(np.array([-2.4, 1.0]), margin=3.0)
        assert shift == 6.0
        assert out.min() >= 0

    def test_mean_fix_reference_pipeline(self, quantity_dec):
        qhat = reassemble(quantity_dec, ref.QUANTITY_SOLUTION)
        shifted, _ = make_nonnegative(qhat, 2150.0)
        fixed = mean_fix(shifted, ref.QUANTITY)
        assert fixed.sum() == pytest.approx(6272, abs=1e-9)
        final = round_to_integers(fixed, 6272)
        assert np.array_equal(final, ref.QUANTITY_FINAL)

    def test_mean_fix_identity_when_sums_match(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.max(np.abs(mean_fix(x, np.array([2.0, 2.0, 2.0])) - x)) < 1e-12

    def test_mean_fix_halves_doubled_signal(self):
        reference = np.array([5.0, 7.0, 11.0])
        assert np.allclose(mean_fix(2 * reference, reference), reference)

    def test_mean_fix_zero_sum_rejected(self):
        with pytest.raises(ConstraintError, match="zero-sum"):
            mean_fix(np.array([1.0, -1.0]), np.ones(2))


class TestNormalize:
    def test_identity(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.max(np.abs(normalize_mean_std(x, x) - x)) < 1e-12

    def test_affine_invariance(self):
        reference = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        mapped = 2.5 * reference + 17.0
        assert np.max(np.abs(normalize_mean_std(mapped, reference) - reference)) < 1e-9

    def test_reference_moments_reproduced(self):
        # direct-summation oracle for the reference mean/std
        q = ref.QUANTITY
        mean = sum(q) / len(q)
        std = (sum((v - mean) ** 2 for v in q) / (len(q) - 1)) ** 0.5
        assert mean == ref.QUANTITY_MEAN
        assert std == pytest.approx(ref.QUANTITY_STD, abs=1e-9)

        rng = np.random.default_rng(13)
        out = normalize_mean_std(rng.random(16), q)
        assert out.mean() == pytest.approx(ref.QUANTITY_MEAN, abs=1e-9)
        assert out.std(ddof=1) == pytest.approx(ref.QUANTITY_STD, abs=1e-9)

    def test_constant_input_rejected(self):
        with pytest.raises(ConstraintError, match="non-constant"):
            normalize_mean_std(np.ones(4), np.arange(4.0))


class TestRounding:
    def test_reference_total(self):
        assert int(ref.QUANTITY_FINAL.sum()) == 6272

    def test_integer_input_with_matching_total_unchanged(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(round_to_integers(x, 6), [1, 2, 3])

    def test_half_half_tie_breaks_to_lower_index(self):
        assert np.array_equal(round_to_integers(np.array([0.5, 0.5]), 1), [1, 0])

    def test_negative_total_rejected(self):
        with pytest.raises(ConstraintError, match="non-negative"):
            round_to_integers(np.array([1.0]), -1)

    def test_negative_values_rejected(self):
        with pytest.raises(ConstraintError, match="non-negative"):
            round_to_integers(np.array([-0.5, 1.5]), 1)

    def test_unreachable_total_rejected(self):
        with pytest.raises(ConstraintError, match="unreachable"):
            round_to_integers(np.array([0.2, 0.3]), 5)

    @given(
        st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=1, max_size=40)
    )
    def test_sum_preserved_and_deviation_below_one(self, values):
        arr = np.array(values)
        total = int(round(arr.sum()))
        if not np.floor(arr).sum() <= total <= np.ceil(arr).sum():
            return
        out = round_to_integers(arr, total)
        assert out.sum() == total
        assert np.all(np.abs(out - arr) < 1.0)
