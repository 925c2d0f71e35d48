"""Two-phase simplex: hand-checked problems, degenerate and classic
cycling instances, and a seeded sweep against the vertex-enumeration oracle."""

import dataclasses

import numpy as np
import pytest

from netdea import (
    Dataset,
    LinearProgram,
    SolverConfig,
    bundled_dataset_path,
    load_dataset,
    run_full_analysis,
    solve_lp,
    solve_relational_overall,
)
from netdea import lp_core, models
from netdea.lp_core import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    FEASIBILITY_TOL,
    MAX_ITERATIONS,
    OPTIMALITY_TOL,
    PIVOT_TOL,
    LpSolution,
    SolveStatus,
    _as_readonly,
    _max_violation,
    _sense_masks,
)


def lp(c, A, senses, b, lb=None):
    A = np.atleast_2d(np.array(A, dtype=float))
    return LinearProgram(
        objective=np.array(c, dtype=float),
        constraint_matrix=A,
        constraint_senses=tuple(senses),
        rhs=np.array(b, dtype=float),
        variable_lower_bounds=np.zeros(A.shape[1]) if lb is None else np.array(lb, dtype=float),
    )


class TestValidation:
    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            lp([1, 2, 3], [[1, 1]], [LESS_EQUAL], [1])
        with pytest.raises(ValueError, match="rhs"):
            lp([1, 1], [[1, 1]], [LESS_EQUAL], [1, 2])
        with pytest.raises(ValueError, match="senses"):
            lp([1, 1], [[1, 1]], [LESS_EQUAL, EQUAL], [1])
        with pytest.raises(ValueError, match="lower_bounds"):
            lp([1, 1], [[1, 1]], [LESS_EQUAL], [1], lb=[0, 0, 0])

    def test_one_dimensional_matrix_rejected(self):
        with pytest.raises(ValueError, match="constraint_matrix must be two-dimensional"):
            LinearProgram(np.ones(2), np.ones(2), (LESS_EQUAL,), np.ones(1), np.zeros(2))

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError, match="sense"):
            lp([1], [[1]], ["<"], [1])
        # The message names the first unknown sense in row order.
        with pytest.raises(ValueError, match="unknown constraint sense '=>'"):
            lp([1], [[1], [1], [1]], [LESS_EQUAL, "=>", "=="], [1, 1, 1])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            lp([np.nan], [[1]], [LESS_EQUAL], [1])
        with pytest.raises(ValueError, match="non-finite"):
            lp([1], [[np.inf]], [LESS_EQUAL], [1])

    def test_arrays_are_read_only(self):
        problem = lp([1, 1], [[1, 2]], [LESS_EQUAL], [4])
        with pytest.raises(ValueError):
            problem.objective[0] = 5.0
        with pytest.raises(ValueError):
            problem.constraint_matrix[0, 0] = 5.0


class TestKnownOptima:
    def test_two_variable_corner(self):
        # max x + y over x + 2y <= 4, x <= 3; optimum (3, 0.5) -> 3.5
        sol = solve_lp(lp([1, 1], [[1, 2], [1, 0]], [LESS_EQUAL] * 2, [4, 3]))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(3.5, abs=1e-9)
        assert sol.variable_values == pytest.approx([3.0, 0.5], abs=1e-9)

    def test_equality_and_ge_mix(self):
        # max 2x + 3y with x + y = 10, x >= 4 -> (4, 6), value 26
        sol = solve_lp(lp([2, 3], [[1, 1], [1, 0]], [EQUAL, GREATER_EQUAL], [10, 4]))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(26.0, abs=1e-9)
        assert sol.variable_values == pytest.approx([4.0, 6.0], abs=1e-9)

    def test_lower_bounds_shift(self):
        # max -x - y with x >= 1.5, y >= -2, x + y <= 10
        sol = solve_lp(lp([-1, -1], [[1, 1]], [LESS_EQUAL], [10], lb=[1.5, -2.0]))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.5, abs=1e-9)
        assert sol.variable_values == pytest.approx([1.5, -2.0], abs=1e-9)

    def test_negative_rhs_normalized(self):
        # -x <= -2 is x >= 2; max -x -> -2
        sol = solve_lp(lp([-1], [[-1]], [LESS_EQUAL], [-2]))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-9)

    def test_redundant_equality_rows(self):
        # duplicated equality row must not break phase 1
        sol = solve_lp(lp([1, 1], [[1, 1], [1, 1], [1, 0]],
                          [EQUAL, EQUAL, LESS_EQUAL], [5, 5, 2]))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(5.0, abs=1e-9)

    def test_zero_rhs_equality(self):
        # max x with x - y = 0, x + y <= 8 -> (4, 4)
        sol = solve_lp(lp([1, 0], [[1, -1], [1, 1]], [EQUAL, LESS_EQUAL], [0, 8]))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(4.0, abs=1e-9)

    def test_solution_is_feasible(self):
        problem = lp([3, -1, 2], [[1, 1, 1], [2, -1, 0], [0, 1, 4]],
                     [LESS_EQUAL, GREATER_EQUAL, EQUAL], [6, -1, 4])
        sol = solve_lp(problem)
        assert sol.status is SolveStatus.OPTIMAL
        x = sol.variable_values
        assert np.all(x >= -1e-9)
        assert x[0] + x[1] + x[2] <= 6 + 1e-9
        assert 2 * x[0] - x[1] >= -1 - 1e-9
        assert x[1] + 4 * x[2] == pytest.approx(4.0, abs=1e-9)


class TestStatusClassification:
    def test_infeasible(self):
        sol = solve_lp(lp([1], [[1]], [LESS_EQUAL], [-1]))
        assert sol.status is SolveStatus.INFEASIBLE
        assert np.isnan(sol.objective_value)

    def test_infeasible_contradictory_equalities(self):
        sol = solve_lp(lp([1, 1], [[1, 1], [1, 1]], [EQUAL, EQUAL], [1, 2]))
        assert sol.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        sol = solve_lp(lp([1, 0], [[0, 1]], [LESS_EQUAL], [1]))
        assert sol.status is SolveStatus.UNBOUNDED

    def test_unbounded_along_mixed_ray(self):
        # objective grows along (1, 1) which satisfies x - y <= 0
        sol = solve_lp(lp([1, 1], [[1, -1]], [LESS_EQUAL], [0]))
        assert sol.status is SolveStatus.UNBOUNDED


class TestDegeneracy:
    def test_beale_cycling_instance_terminates(self, lp_oracle):
        # classic cycling example for the most-negative-cost rule; Bland's
        # rule must terminate on it
        problem = lp(
            [0.75, -150, 0.02, -6],
            [[0.25, -60, -0.04, 9],
             [0.5, -90, -0.02, 3],
             [0.0, 0.0, 1.0, 0.0]],
            [LESS_EQUAL] * 3,
            [0, 0, 1],
        )
        sol = solve_lp(problem)
        assert sol.status is SolveStatus.OPTIMAL
        status, value = lp_oracle(problem)
        assert status == "optimal"
        assert sol.objective_value == pytest.approx(value, abs=1e-9)

    def test_degenerate_vertex(self):
        # three constraints through the optimum (2, 2)
        problem = lp([1, 1],
                     [[1, 0], [0, 1], [1, 1]],
                     [LESS_EQUAL] * 3,
                     [2, 2, 4])
        sol = solve_lp(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(4.0, abs=1e-9)

    def test_iteration_budget_respected(self, monkeypatch):
        monkeypatch.setattr(lp_core, "MAX_ITERATIONS", 1)
        problem = lp([1, 1, 1],
                     [[1, 2, 3], [3, 2, 1], [1, 1, 1]],
                     [LESS_EQUAL] * 3, [10, 10, 4])
        sol = solve_lp(problem)
        assert sol.status in (SolveStatus.OPTIMAL, SolveStatus.NUMERICAL_FAILURE)
        assert sol.iterations <= 2  # phase bound: budget per phase


class TestOracleSweep:
    def test_matches_vertex_enumeration(self, lp_oracle, make_random_lp):
        rng = np.random.default_rng(20240817)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(150):
            problem = make_random_lp(rng)
            expected_status, expected_value = lp_oracle(problem)
            sol = solve_lp(problem)
            assert sol.status is not SolveStatus.NUMERICAL_FAILURE
            got = {SolveStatus.OPTIMAL: "optimal",
                   SolveStatus.INFEASIBLE: "infeasible",
                   SolveStatus.UNBOUNDED: "unbounded"}[sol.status]
            assert got == expected_status
            if expected_status == "optimal":
                assert sol.objective_value == pytest.approx(
                    expected_value, abs=1e-7, rel=1e-7
                )
            statuses[got] += 1
        # the sweep must actually exercise all three outcomes
        assert min(statuses.values()) > 0


class TestHighsDifferential:
    def test_matches_highs_on_random_bounded_lps(self):
        # Real-valued data, nonzero lower bounds and up to 48 rows: beyond
        # the vertex oracle's reach. The rhs makes a known point feasible and
        # a box row per variable bounds the LP, so each one is OPTIMAL, with
        # HiGHS's optimum.
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(20261019)
        senses_seen, nondegenerate = set(), 0
        for _ in range(200):
            n, k = int(rng.integers(2, 10)), int(rng.integers(2, 40))
            A = rng.normal(size=(k, n))
            senses = rng.choice([LESS_EQUAL, EQUAL, GREATER_EQUAL], size=k, p=[0.5, 0.2, 0.3])
            le, eq, ge = (senses == sense for sense in (LESS_EQUAL, EQUAL, GREATER_EQUAL))
            lb = rng.normal(size=n)
            b = A @ (lb + rng.uniform(0.0, 1.0, n)) + rng.uniform(0.0, 1.0, k) * (le - 1.0 * ge)
            senses_seen.update(senses)
            problem = lp(rng.normal(size=n), np.vstack([A, np.eye(n)]),
                         [*senses, *[LESS_EQUAL] * n], np.r_[b, lb + 2.0], lb)
            sol = solve_lp(problem)
            assert sol.status is SolveStatus.OPTIMAL
            want = optimize.linprog(
                -problem.objective,
                A_ub=np.vstack([A[le], -A[ge], np.eye(n)]), b_ub=np.r_[b[le], -b[ge], lb + 2.0],
                A_eq=A[eq], b_eq=b[eq], bounds=list(zip(lb, [None] * n)), method="highs",
            )
            assert want.status == 0
            assert abs(sol.objective_value + want.fun) <= 1e-9 * max(1.0, abs(want.fun))
            # The row prices y certify the optimum: y >= 0 on <= rows and
            # <= 0 on >= rows, reduced costs c - A'y <= 0 (0 off the lower
            # bounds) and no duality gap.
            y, x = sol.row_prices, sol.variable_values
            all_senses = np.array(problem.constraint_senses)
            assert np.all(y[all_senses == LESS_EQUAL] >= -1e-9)
            assert np.all(y[all_senses == GREATER_EQUAL] <= 1e-9)
            reduced = problem.objective - problem.constraint_matrix.T @ y
            assert np.all(reduced <= 1e-9)
            assert np.all(np.abs(reduced[x > lb + 1e-9]) <= 1e-9)
            gap = sol.objective_value - (problem.rhs @ y + reduced @ lb)
            assert abs(gap) <= 1e-9 * max(1.0, abs(want.fun))
            # At a nondegenerate optimum they are unique, so they must be
            # HiGHS's, which prices the minimized -c'x with each >= row negated.
            tight = np.abs(problem.constraint_matrix @ x - problem.rhs) <= 1e-9
            if tight.sum() + np.count_nonzero(x <= lb + 1e-9) == n:
                rows = np.r_[np.flatnonzero(le), np.flatnonzero(ge), k + np.arange(n),
                             np.flatnonzero(eq)]
                sign = np.r_[-np.ones(le.sum()), np.ones(ge.sum()), -np.ones(n),
                             -np.ones(eq.sum())]
                prices = np.empty(k + n)
                prices[rows] = sign * np.r_[want.ineqlin.marginals, want.eqlin.marginals]
                np.testing.assert_allclose(y, prices, rtol=1e-7, atol=1e-9)
                nondegenerate += 1
        assert senses_seen == {LESS_EQUAL, EQUAL, GREATER_EQUAL}
        assert nondegenerate > 50


def certificate_held(problem, x, y):
    """Which of solve_lp's three optimality conditions row prices y meet at
    the optimum x, computed here from their definitions."""
    senses = np.array(problem.constraint_senses)
    reduced = problem.objective - problem.constraint_matrix.T @ y
    value = problem.objective @ x
    gap = value - problem.rhs @ y - reduced @ problem.variable_lower_bounds
    return {"sign": bool(np.all(y[senses == LESS_EQUAL] >= -OPTIMALITY_TOL)
                         and np.all(y[senses == GREATER_EQUAL] <= OPTIMALITY_TOL)),
            "reduced cost": bool(np.all(reduced <= OPTIMALITY_TOL)),
            "gap": bool(abs(gap) <= FEASIBILITY_TOL * max(1.0, abs(value)))}


def broken_prices(problem, x, y, broken, final, delta=1e-6):
    """Row prices near y that break the named condition. They are solved in
    the final basis for an objective c + delta * dc, so each basic column's
    reduced cost becomes -delta * dc, and the gap moves by
    -delta * dc'(x - lb):
    * gap: dc raises the basic j of the largest x_j - lb_j, a dual-feasible
      but suboptimal y;
    * reduced cost: dc lowers j and raises the next basic k so that the gap
      stays;
    * sign: the zero price of an inequality row i takes the wrong sign,
      and dc = +-a_i undoes that in the basic reduced costs, plus j's share
      of row i's slack, which undoes it in the gap.
    The nonbasic reduced costs must have room for the small change dc makes
    in them; certificate_held confirms that the other conditions hold."""
    def prices(dc):
        return lp_core._row_prices(
            dataclasses.replace(problem, objective=problem.objective + delta * dc), *final)

    shift = x - problem.variable_lower_bounds
    j, k = np.argsort(shift)[::-1][:2]
    unit = np.eye(problem.num_variables)
    if broken == "gap":
        return prices(unit[j])
    if broken == "reduced cost":
        return prices(shift[j] / shift[k] * unit[k] - unit[j])
    senses = np.array(problem.constraint_senses)
    i = np.flatnonzero((senses != EQUAL) & (y == 0))[0]
    sign = 1.0 if senses[i] == LESS_EQUAL else -1.0
    slack = sign * (problem.rhs[i] - problem.constraint_matrix[i] @ x)
    out = prices(sign * problem.constraint_matrix[i] + slack / shift[j] * unit[j])
    out[i] -= sign * delta
    return out


class TestOptimalityCertificate:
    @pytest.mark.parametrize("broken", ["sign", "reduced cost", "gap"])
    def test_uncertified_prices_are_a_numerical_failure(self, monkeypatch, broken):
        # Row prices that fail any one condition, the other two holding, turn
        # an optimal solve into a NUMERICAL_FAILURE: on the relational overall
        # LP of the bundled set's first DMU, on the same LP with every row
        # negated (so its ratio rows are >= rows) and on its envelopment dual.
        system = load_dataset(bundled_dataset_path())._lp_system
        multiplier = system.lp(0, "uwv", "uv", 1e-6)
        negated = dataclasses.replace(
            multiplier, constraint_matrix=-multiplier.constraint_matrix, rhs=-multiplier.rhs,
            constraint_senses=[{LESS_EQUAL: GREATER_EQUAL}.get(sense, sense)
                               for sense in multiplier.constraint_senses])
        row_prices = lp_core._row_prices
        for problem in (multiplier, negated, system.envelopment_lp(0, "uwv", "uv", 1e-6)):
            final = []

            def recording(lp, *final_basis):
                final[:] = final_basis
                return row_prices(lp, *final_basis)

            monkeypatch.setattr(lp_core, "_row_prices", recording)
            sol = solve_lp(problem)
            assert sol.status is SolveStatus.OPTIMAL
            x = sol.variable_values
            y = broken_prices(problem, x, sol.row_prices, broken, final)
            held = certificate_held(problem, x, y)
            assert [name for name, ok in held.items() if not ok] == [broken]
            monkeypatch.setattr(lp_core, "_row_prices", lambda *args: y)
            failed = solve_lp(problem)
            assert failed.status is SolveStatus.NUMERICAL_FAILURE
            assert failed.row_prices.size == 0

    def test_singular_final_basis_is_a_numerical_failure(self, monkeypatch):
        # On an exactly singular final basis np.linalg.solve raises; the
        # prices then prove nothing, and solve_lp says so in its status.
        problem = load_dataset(bundled_dataset_path())._lp_system.lp(0, "uwv", "uv", 1e-6)
        solved = solve_lp(problem)
        assert solved.status is SolveStatus.OPTIMAL

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        failed = solve_lp(problem)
        assert failed.status is SolveStatus.NUMERICAL_FAILURE
        assert failed.iterations == solved.iterations
        assert failed.row_prices.size == 0


def reference_max_violation(problem, x):
    """Row-by-row loop that _max_violation replaces; the tests require
    bit-equal results, since the arithmetic is the same per row."""
    residual = problem.constraint_matrix @ x - problem.rhs
    worst = 0.0
    for i, sense in enumerate(problem.constraint_senses):
        if sense == LESS_EQUAL:
            v = residual[i]
        elif sense == GREATER_EQUAL:
            v = -residual[i]
        else:
            v = abs(residual[i])
        if v > worst:
            worst = float(v)
    bound_gap = float(np.max(problem.variable_lower_bounds - x, initial=0.0))
    return max(worst, bound_gap)


def _bundled_lps():
    """Every LP run_full_analysis solves on the bundled set, both priorities
    included, plus a SECOND_STAGE split pinned at 0.5 for each DMU."""
    data = load_dataset(bundled_dataset_path())
    system = data._lp_system
    for k in range(data.n):
        overall = solve_relational_overall(data, k)
        yield system.lp(k, "uv", "uv", 1e-6)
        yield system.lp(k, "uwv", "uv", 1e-6)
        yield system.lp(k, "uwv", "wv", 1e-6, pinned_overall=0.5)
        yield system.lp(k, "uwv", "uw", 1e-6, pinned_overall=overall)
        yield system.lp(k, "uwv", "wv", 1e-6, pinned_overall=overall)


def assert_same_solve(got, want):
    assert got.status is want.status
    assert got.iterations == want.iterations
    assert got.variable_values.tobytes() == want.variable_values.tobytes()
    assert (np.float64(got.objective_value).tobytes()
            == np.float64(want.objective_value).tobytes())


class TestMatrixLayout:
    def test_solution_does_not_depend_on_matrix_layout(self):
        # The layout of a copy must not change how the solver rounds A @ lb.
        for problem in _bundled_lps():
            A = problem.constraint_matrix
            want = solve_lp(problem)
            for matrix in (np.asfortranarray(A), np.repeat(A, 2, axis=1)[:, ::2]):
                copy = LinearProgram(problem.objective, matrix, problem.constraint_senses,
                                     problem.rhs, problem.variable_lower_bounds)
                assert copy.constraint_matrix.flags.c_contiguous
                assert_same_solve(solve_lp(copy), want)


class TestMaxViolationReference:
    def test_random_lps_all_senses(self, make_random_lp):
        rng = np.random.default_rng(99)
        senses_seen = set()
        for _ in range(300):
            problem = make_random_lp(rng, max_vars=5, max_constraints=6)
            senses_seen.update(problem.constraint_senses)
            for x in (rng.normal(0.0, 3.0, problem.num_variables),
                      problem.variable_lower_bounds.copy()):
                assert (_max_violation(problem, x, *_sense_masks(problem))
                        == reference_max_violation(problem, x))
            sol = solve_lp(problem)
            if sol.status is SolveStatus.OPTIMAL:
                x = sol.variable_values
                assert (_max_violation(problem, x, *_sense_masks(problem))
                        == reference_max_violation(problem, x))
        assert senses_seen == {LESS_EQUAL, EQUAL, GREATER_EQUAL}

    def test_bundled_data_lps(self):
        rng = np.random.default_rng(7)
        for problem in _bundled_lps():
            points = [rng.uniform(0.0, 2.0, problem.num_variables)]
            sol = solve_lp(problem)
            if sol.status is SolveStatus.OPTIMAL:
                points.append(sol.variable_values)
            for x in points:
                assert (_max_violation(problem, x, *_sense_masks(problem))
                        == reference_max_violation(problem, x))


_FLIPPED = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}


def reference_initial_tableau(problem):
    """Per-row loops that _initial_tableau replaces: flip each row with a
    negative shifted rhs, then place slack, surplus and artificial columns
    row by row. _initial_tableau stores no artificial column; the tests
    require its tableau to equal this one without them, byte for byte."""
    n, m = problem.num_variables, problem.num_constraints
    A = problem.constraint_matrix.copy()
    b = problem.rhs - problem.constraint_matrix @ problem.variable_lower_bounds
    senses = list(problem.constraint_senses)
    for i in range(m):
        if b[i] < 0:
            A[i, :] = -A[i, :]
            b[i] = -b[i]
            senses[i] = _FLIPPED[senses[i]]
    slack_rows = [i for i, s in enumerate(senses) if s == LESS_EQUAL]
    surplus_rows = [i for i, s in enumerate(senses) if s == GREATER_EQUAL]
    artificial_rows = [i for i, s in enumerate(senses) if s != LESS_EQUAL]
    art_start = n + len(slack_rows) + len(surplus_rows)
    T = np.zeros((m + 1, art_start + len(artificial_rows) + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    basis = np.full(m, -1, dtype=int)
    col = n
    for i in slack_rows:
        T[i, col] = 1.0
        basis[i] = col
        col += 1
    for i in surplus_rows:
        T[i, col] = -1.0
        col += 1
    for i in artificial_rows:
        T[i, col] = 1.0
        basis[i] = col
        col += 1
    return T, basis, art_start


class TestInitialTableauReference:
    @staticmethod
    def _check(problems):
        flipped = 0
        for problem in problems:
            T, basis, art_start, _ = lp_core._initial_tableau(problem, *_sense_masks(problem))
            want_T, want_basis, want_art_start = reference_initial_tableau(problem)
            want_T = want_T[:, np.r_[:want_art_start, -1]]  # without the artificials
            assert T.shape == want_T.shape
            # Bytes, not values: a -0.0 where the loops leave +0.0 must fail.
            assert T.tobytes() == want_T.tobytes()
            assert basis.tolist() == want_basis.tolist()
            assert art_start == want_art_start
            shifted = problem.rhs - problem.constraint_matrix @ problem.variable_lower_bounds
            flipped += np.count_nonzero(shifted < 0)
        return flipped

    def test_random_lps_all_senses(self, make_random_lp):
        rng = np.random.default_rng(20261018)
        problems = [make_random_lp(rng, max_vars=6, max_constraints=8) for _ in range(300)]
        assert {s for p in problems for s in p.constraint_senses} == {
            LESS_EQUAL, EQUAL, GREATER_EQUAL}
        assert self._check(problems) > 0

    def test_zero_rows_and_no_artificial(self):
        # Negative rhs turns the >= rows into <= rows with a slack each.
        problems = [lp([-1.0, -2.0], np.zeros((0, 2)), [], [], lb=[0.5, -1.0]),
                    lp([], np.zeros((0, 0)), [], []),
                    lp([1, 1], [[1, 2], [1, 0]], [LESS_EQUAL] * 2, [4, 3]),
                    lp([-1, 1], [[-1, -2], [1, 0]], [GREATER_EQUAL] * 2, [-4, -3])]
        self._check(problems)
        for problem in problems:
            T, basis, art_start, _ = lp_core._initial_tableau(problem, *_sense_masks(problem))
            assert art_start == T.shape[1] - 1  # the rhs follows the last surplus
            assert np.all(basis < art_start)  # no artificial label
            sol = solve_lp(problem)
            assert sol.status is SolveStatus.OPTIMAL

    def test_bundled_data_lps(self):
        assert self._check(_bundled_lps()) > 0


def reference_pivot(T, basis, row, col):
    """Whole-tableau update like _pivot's, except that it writes the
    entering column's unit vector where _pivot computes it. The tests
    require the same pivots and bit-equal results."""
    T[row, :] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row, :])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def unit_column_checked(kernel, inputs):
    """Wrap a pivot kernel to assert, after every pivot, that each stored
    basic column (every one but an artificial's) is an exact unit vector
    (zero in the objective row too). Before each pivot it appends to inputs
    the tableau's cell count and the share of the pivot row that is
    nonzero."""
    def pivot(T, basis, row, col):
        inputs.append((T.size, np.count_nonzero(T[row]) / T.shape[1]))
        kernel(T, basis, row, col)
        unit = np.zeros((T.shape[0], basis.size))
        unit[np.arange(basis.size), np.arange(basis.size)] = 1.0
        stored = basis < T.shape[1] - 1
        assert np.array_equal(T[:, basis[stored]], unit[:, stored])
    return pivot


def _threshold_lps():
    """The CCR and relational LPs of a few DMUs of random 39- and 40-DMU
    sets, and their envelopment duals. The 39-DMU relational LP keeps all
    2n ratio rows: a tableau of more than 4096 cells whose pivot rows are
    mostly zero, while the duals' pivot rows are mostly nonzero. The 40-DMU
    LPs keep only the rows no kept row implies."""
    for n in (39, 40):
        rng = np.random.default_rng(n)
        ids = tuple(f"U{i + 1}" for i in range(n))
        data = Dataset(ids, ids, *(rng.uniform(1.0, 2.0, (n, c)) for c in (3, 2, 2)))
        system = data._lp_system
        for k in range(0, n, 8):
            for chain in ("uv", "uwv"):
                yield system.lp(k, chain, "uv", 1e-6)
                yield system.envelopment_lp(k, chain, "uv", 1e-6)


def _kernel_cases(make_random_lp):
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        yield make_random_lp(rng, max_vars=6, max_constraints=8)
    # Zero right-hand sides: every pivot from the origin is degenerate.
    for _ in range(20):
        A = rng.integers(-4, 5, size=(6, 4)).astype(float)
        yield lp(rng.integers(-4, 5, size=4), A,
                 [LESS_EQUAL, GREATER_EQUAL, EQUAL] * 2, np.zeros(6))
    # Rows 2 and 3 are multiples of row 1: phase 1 drops both.
    yield lp([1, 1, 1], [[1, 2, 1], [1, 2, 1], [2, 4, 2], [1, 0, 0]],
             [EQUAL, EQUAL, EQUAL, LESS_EQUAL], [4, 4, 8, 3])
    yield lp([1, 1], [[1, -1]], [LESS_EQUAL], [0])  # unbounded
    yield from _bundled_lps()
    yield from _threshold_lps()


def _solve_with(monkeypatch, kernel, problem):
    monkeypatch.setattr(lp_core, "_pivot", kernel)
    return solve_lp(problem)


def reference_install_objective(T, basis, coeffs):
    """Row loop that _install_objective replaces with one reduction over
    the same rows in the same order; the tests require bit-equal tableaus.
    coeffs is indexed by basis label and may run past the stored columns
    (into the phase-1 artificials)."""
    T[-1, :-1] = coeffs[:T.shape[1] - 1]
    T[-1, -1] = 0.0
    for i, b in enumerate(basis):
        coef = coeffs[b]
        if coef != 0.0:
            T[-1, :] -= coef * T[i, :]


class TestPivotKernelReference:
    def test_same_pivots_and_bytes_as_whole_tableau_update(self, monkeypatch,
                                                            make_random_lp):
        inputs = []
        kernel = unit_column_checked(lp_core._pivot, inputs)
        statuses, senses_seen = set(), set()
        for problem in _kernel_cases(make_random_lp):
            senses_seen.update(problem.constraint_senses)
            got = _solve_with(monkeypatch, kernel, problem)
            want = _solve_with(monkeypatch, reference_pivot, problem)
            assert_same_solve(got, want)
            assert got.row_prices.tobytes() == want.row_prices.tobytes()
            statuses.add(got.status)

        assert senses_seen == {LESS_EQUAL, EQUAL, GREATER_EQUAL}
        assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE,
                            SolveStatus.UNBOUNDED}
        # Large tableaus with a mostly zero pivot row, where most of the
        # update subtracts factor * 0.0, are among the cases compared.
        assert any(cells > 4096 and share < 0.5 for cells, share in inputs)

    def test_same_bytes_as_row_loop_objective(self, monkeypatch, make_random_lp):
        # Each install must leave the tableau byte-equal to the row loop's,
        # so every later pivot, and the solve, is the same too.
        install = lp_core._install_objective
        rows_eliminated = []

        def checked(T, basis, coeffs):
            want = T.copy()
            reference_install_objective(want, basis, coeffs)
            install(T, basis, coeffs)
            assert T.tobytes() == want.tobytes()
            rows_eliminated.append(np.count_nonzero(coeffs[basis]))

        monkeypatch.setattr(lp_core, "_install_objective", checked)
        for problem in _kernel_cases(make_random_lp):
            solve_lp(problem)
        assert max(rows_eliminated) > 2

    @pytest.mark.parametrize("priority,pivots", [("first", 169), ("second", 159)])
    def test_bundled_full_analysis_pivot_count(self, monkeypatch, table1,
                                               priority, pivots):
        # Pins the pivot path: a kernel change that alters any pivot choice
        # changes this total.
        iterations = []

        def counting_solve(problem):
            solution = solve_lp(problem)
            iterations.append(solution.iterations)
            return solution

        monkeypatch.setattr(models, "solve_lp", counting_solve)
        run_full_analysis(table1, SolverConfig(stage_priority=priority))
        assert sum(iterations) == pivots


def reference_iterate(T, basis, budget, lockout_start=None):
    """_iterate as it was while the artificials were tableau columns: a
    barred mask keeps each column at or past lockout_start from re-entering
    once it leaves."""
    iterations = 0
    strikes = 0
    nrows = T.shape[0] - 1
    barred = np.zeros(T.shape[1] - 1, dtype=bool)
    while True:
        improving = np.nonzero((T[-1, :-1] > OPTIMALITY_TOL) & ~barred)[0]
        if improving.size == 0:
            return "optimal", iterations
        if iterations >= budget:
            return "iteration_cap", iterations
        col = int(improving[0])
        column = T[:nrows, col]
        threshold = PIVOT_TOL * float(np.abs(column).max(initial=1.0))
        candidates = np.nonzero(column > threshold)[0]
        if candidates.size == 0:
            return "unbounded", iterations
        ratios = np.maximum(T[candidates, -1], 0.0) / column[candidates]
        best = ratios.min()
        tied = candidates[ratios <= best + 1e-12 * max(1.0, abs(best))]
        row = int(tied[np.argmin(basis[tied])])
        if column[row] < 1e3 * threshold:
            strikes += 1
            if strikes >= lp_core._SMALL_PIVOT_STRIKE_LIMIT:
                return "small_pivots", iterations
        else:
            strikes = 0
        leaving = basis[row]
        if lockout_start is not None and leaving >= lockout_start:
            barred[leaving] = True
        lp_core._pivot(T, basis, row, col)
        iterations += 1


def reference_solve_lp(problem):
    """solve_lp with an artificial column per row without a slack: phase 1
    on reference_initial_tableau's tableau under a lockout, then one copy
    that moves the rhs into the first artificial column and slices the
    artificials off before phase 2."""
    T, basis, art_start = reference_initial_tableau(problem)
    phase1 = np.zeros(T.shape[1] - 1)
    phase1[art_start:] = -1.0
    reference_install_objective(T, basis, phase1)
    outcome, iterations = reference_iterate(T, basis, MAX_ITERATIONS, lockout_start=art_start)
    if outcome != "optimal":
        return LpSolution(SolveStatus.NUMERICAL_FAILURE, iterations=iterations)
    if T[-1, -1] > FEASIBILITY_TOL:
        return LpSolution(SolveStatus.INFEASIBLE, iterations=iterations)
    for i in np.flatnonzero(basis >= art_start):
        pivots = np.flatnonzero(np.abs(T[i, :art_start]) > PIVOT_TOL)
        if pivots.size:
            lp_core._pivot(T, basis, i, int(pivots[0]))
    kept = np.flatnonzero(basis < art_start)
    T[:, art_start] = T[:, -1]
    T = T[np.append(kept, -1), :art_start + 1]
    basis = basis[kept]
    phase2 = np.zeros(art_start)
    phase2[:problem.num_variables] = problem.objective
    reference_install_objective(T, basis, phase2)
    outcome, used = reference_iterate(T, basis, MAX_ITERATIONS - iterations)
    iterations += used
    if outcome == "unbounded":
        return LpSolution(SolveStatus.UNBOUNDED, iterations=iterations)
    if outcome != "optimal":
        return LpSolution(SolveStatus.NUMERICAL_FAILURE, iterations=iterations)
    shifted = np.zeros(art_start)
    shifted[basis] = T[:-1, -1]
    x = problem.variable_lower_bounds + shifted[:problem.num_variables]
    if reference_max_violation(problem, x) > FEASIBILITY_TOL:
        return LpSolution(SolveStatus.NUMERICAL_FAILURE, iterations=iterations)
    return LpSolution(SolveStatus.OPTIMAL, objective_value=float(problem.objective @ x),
                      variable_values=_as_readonly(x), iterations=iterations)


class TestArtificialColumnReference:
    def test_same_solves_as_with_artificial_columns(self, make_random_lp):
        # Storing the artificials as basis labels only must change no pivot
        # and no byte of any result. The reference runs phase 1 whatever the
        # start, so each LP is compared without its start.
        statuses, with_artificials = set(), 0
        for problem in _kernel_cases(make_random_lp):
            want = reference_solve_lp(problem)
            assert_same_solve(solve_lp(dataclasses.replace(problem, start=())), want)
            statuses.add(want.status)
            T, _, art_start = reference_initial_tableau(problem)
            with_artificials += T.shape[1] - 1 > art_start
        assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE,
                            SolveStatus.UNBOUNDED}
        assert with_artificials > 100


class TestStart:
    """A start pivots onto the slack basis. Phase 2 begins there when no
    artificial is left and the basis is feasible; otherwise phase 1 runs
    from the slack basis, as without a start."""

    def test_bad_start_rejected(self):
        problem = lp([1, 1], [[1, 2], [3, 1]], [LESS_EQUAL] * 2, [4, 6])
        for start in (((2, 0),), ((0, 2),), ((-1, 0),), ((0, -1),),
                      ((0, 0), (0, 1)), ((0, 0), (1, 0)),
                      ((0, 1.0),), ((0.5, 1),), (("0", 1),), ((0,),), (0,)):
            with pytest.raises(ValueError):
                dataclasses.replace(problem, start=start)
        assert dataclasses.replace(problem, start=[(np.int64(1), 0)]).start == ((1, 0),)

    def test_feasible_start_skips_phase_one(self, monkeypatch):
        # x enters on row 1 (x = 2), and row 2's artificial swaps for its
        # surplus (1): three pivots before phase 2, which needs one.
        problem = lp([1, 1], [[1, 2], [3, 1], [1, 1]],
                     [LESS_EQUAL, LESS_EQUAL, GREATER_EQUAL], [4, 6, 1])
        iterate, phases = lp_core._iterate, []
        monkeypatch.setattr(lp_core, "_iterate", lambda *args: phases.append(iterate(*args))
                            or phases[-1])
        got = solve_lp(dataclasses.replace(problem, start=((1, 0),)))
        assert phases == [("optimal", 1)]
        assert got.iterations == 3
        assert got.status is SolveStatus.OPTIMAL
        assert got.objective_value == pytest.approx(2.8, abs=1e-12)
        assert got.row_prices == pytest.approx([0.4, 0.2, 0.0], abs=1e-12)

    @staticmethod
    def _start_basis(problem, start):
        """What the start's basis is, with each other row's slack or surplus
        basic, worked out from the LP's data: "equality row" when an = row
        is left without a pivot, "singular", "infeasible" or "feasible"."""
        rows, cols = map(list, zip(*start))
        A, senses = problem.constraint_matrix, np.array(problem.constraint_senses)
        b = problem.rhs - A @ problem.variable_lower_bounds
        others = np.setdiff1d(np.arange(len(b)), rows)
        if (senses[others] == EQUAL).any():
            return "equality row"
        if abs(np.linalg.det(A[rows][:, cols])) < 0.5:  # integer data
            return "singular"
        x = np.zeros(A.shape[1])
        x[cols] = np.linalg.solve(A[rows][:, cols], b[rows])
        slack = np.where(senses == GREATER_EQUAL, -1.0, 1.0) * (b - A @ x)
        feasible = min(x.min(), slack[others].min(initial=0.0)) >= -FEASIBILITY_TOL
        return "feasible" if feasible else "infeasible"

    def test_start_not_taken_solves_as_without_it(self, monkeypatch, make_random_lp):
        # Random starts on random LPs. One that leaves an artificial on an =
        # row, or reaches a basic value below -FEASIBILITY_TOL, is not taken
        # and changes no pivot and no byte; one that is taken reaches the
        # same status and optimum.
        take, taken = lp_core._take_start, []
        monkeypatch.setattr(lp_core, "_take_start",
                            lambda *args: taken.append(take(*args)) or taken[-1])
        rng = np.random.default_rng(24)
        seen = {"equality row": 0, "singular": 0, "infeasible": 0, "feasible": 0}
        for _ in range(400):
            problem = make_random_lp(rng, max_vars=6, max_constraints=8)
            m, n = problem.constraint_matrix.shape
            size = int(rng.integers(1, min(m, n) + 1))
            start = tuple(zip(rng.permutation(m)[:size].tolist(),
                              rng.permutation(n)[:size].tolist()))
            got, want = solve_lp(dataclasses.replace(problem, start=start)), solve_lp(problem)
            basis = self._start_basis(problem, start)
            seen[basis] += 1
            if taken[-1] is None:
                assert_same_solve(got, want)
                assert got.row_prices.tobytes() == want.row_prices.tobytes()
            else:
                assert basis == "feasible"
                assert got.status is want.status
                assert got.objective_value == pytest.approx(want.objective_value, abs=1e-9,
                                                            nan_ok=True)
        assert min(seen["equality row"], seen["infeasible"], seen["feasible"]) >= 40
        assert len(taken) - taken.count(None) >= 40
