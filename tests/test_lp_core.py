"""Two-phase simplex: hand-checked problems, degenerate and classic
cycling instances, and a seeded sweep against the vertex-enumeration oracle."""

import numpy as np
import pytest

from netdea import (
    LinearProgram,
    SolverConfig,
    StagePriority,
    bundled_dataset_path,
    load_dataset,
    solve_lp,
)
from netdea.lp_core import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    SolveStatus,
    ToleranceSettings,
    _max_violation,
)
from netdea.models import _ccr_lp, _normalized_matrices, _relational_lp


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

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError, match="sense"):
            lp([1], [[1]], ["<"], [1])

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

    def test_tolerances_validated(self):
        with pytest.raises(ValueError):
            ToleranceSettings(feasibility_tol=0.0)
        with pytest.raises(ValueError):
            ToleranceSettings(max_iterations=0)


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

    def test_iteration_budget_respected(self):
        tight = ToleranceSettings(max_iterations=1)
        problem = lp([1, 1, 1],
                     [[1, 2, 3], [3, 2, 1], [1, 1, 1]],
                     [LESS_EQUAL] * 3, [10, 10, 4])
        sol = solve_lp(problem, tight)
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
    data = load_dataset(bundled_dataset_path())
    X, Z, Y = _normalized_matrices(data, SolverConfig())
    for k in range(data.n):
        yield _ccr_lp(X, Y, k, 1e-6)
        yield _relational_lp(X, Z, Y, k, 1e-6)
        yield _relational_lp(X, Z, Y, k, 1e-6, pinned_overall=0.5,
                             maximize_stage=StagePriority.SECOND_STAGE)


class TestMaxViolationReference:
    def test_random_lps_all_senses(self, make_random_lp):
        rng = np.random.default_rng(99)
        senses_seen = set()
        for _ in range(300):
            problem = make_random_lp(rng, max_vars=5, max_constraints=6)
            senses_seen.update(problem.constraint_senses)
            for x in (rng.normal(0.0, 3.0, problem.num_variables),
                      problem.variable_lower_bounds.copy()):
                assert _max_violation(problem, x) == reference_max_violation(problem, x)
            sol = solve_lp(problem)
            if sol.status is SolveStatus.OPTIMAL:
                x = sol.variable_values
                assert _max_violation(problem, x) == reference_max_violation(problem, x)
        assert senses_seen == {LESS_EQUAL, EQUAL, GREATER_EQUAL}

    def test_bundled_data_lps(self):
        rng = np.random.default_rng(7)
        for problem in _bundled_lps():
            points = [rng.uniform(0.0, 2.0, problem.num_variables)]
            sol = solve_lp(problem)
            if sol.status is SolveStatus.OPTIMAL:
                points.append(sol.variable_values)
            for x in points:
                assert _max_violation(problem, x) == reference_max_violation(problem, x)
