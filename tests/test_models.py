"""DEA model solves against closed-form ratio oracles and structural
properties (product identity, dominance, units invariance, error paths).

For single-column datasets (m = p = s = 1) every model has an exact
epsilon-free closed form: the CCR score of DMU k is (y_k/x_k) / max_j
(y_j/x_j), the relational overall divides by the product of the per-stage
maxima, and each prioritized stage score equals its independent CCR score.
Solver output is compared against these with a tiny epsilon.
"""

import dataclasses
import importlib.util
import itertools
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from netdea import (
    Dataset,
    EfficiencyRecord,
    LinearProgram,
    SolverConfig,
    StagePriority,
    build_report,
    bundled_dataset_path,
    load_dataset,
    render_report,
    run_full_analysis,
    solve_ccr,
    solve_lp,
    solve_relational_overall,
    solve_stage_independent,
    solve_stage_priority,
)
from netdea import lp_core, models
from netdea.errors import (
    ConfigurationError,
    DecompositionError,
    DmuSolveError,
    SolverFailureError,
    ValidationError,
)
from netdea.lp_core import EQUAL, FEASIBILITY_TOL, LESS_EQUAL, LpSolution, SolveStatus
from netdea.models import PRODUCT_IDENTITY_TOL, decompose_efficiency

#: epsilon small enough that scores match the epsilon-free closed forms
TINY_EPS = SolverConfig(epsilon=1e-8)


def single_column_dataset(rng, n):
    x = rng.uniform(1.0, 2.0, size=n)
    z = rng.uniform(1.0, 2.0, size=n)
    y = rng.uniform(1.0, 2.0, size=n)
    ids = tuple(f"U{i + 1}" for i in range(n))
    data = Dataset(dmu_ids=ids, dmu_names=ids,
                   X=x[:, None], Z=z[:, None], Y=y[:, None])
    return data, x, z, y


def half_on_frontier_dataset(rng, n):
    """3/1/1 data with every second DMU exactly on both stage frontiers,
    built as perfbench's generate.half_on_frontier builds it: with weights
    u, w, v fixed, z = x.u / w and y = z.w / v put a DMU at ratio 1 in both
    stages, and the other DMUs are shrunk below the frontier."""
    X = rng.lognormal(0.0, 0.5, (n, 3))
    u = rng.uniform(0.5, 1.5, 3)
    w, v = rng.uniform(0.5, 1.5, 2)
    on = np.arange(n) % 2 == 0
    shrink1 = np.where(on, 1.0, rng.uniform(0.3, 0.95, n))
    shrink2 = np.where(on, 1.0, rng.uniform(0.3, 0.95, n))
    Z = (X @ u / w * shrink1)[:, None]
    Y = (Z[:, 0] * w / v * shrink2)[:, None]
    ids = tuple(f"U{i + 1}" for i in range(n))
    return Dataset(dmu_ids=ids, dmu_names=ids, X=X, Z=Z, Y=Y)


class TestDatasetValidation:
    def test_duplicate_ids(self):
        with pytest.raises(ValidationError, match="unique"):
            Dataset(("A", "A"), ("a", "b"), [[1], [2]], [[1], [2]], [[1], [2]])

    def test_nonpositive_entry_named(self):
        with pytest.raises(ValidationError, match=r"Z\[B, column 1\]"):
            Dataset(("A", "B"), ("a", "b"), [[1], [2]], [[1], [0]], [[1], [2]])

    def test_too_few_dmus(self):
        with pytest.raises(ValidationError, match="at least 2"):
            Dataset(("A",), ("a",), [[1]], [[1]], [[1]])

    def test_row_count_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            Dataset(("A", "B"), ("a", "b"), [[1], [2], [3]], [[1], [2]], [[1], [2]])

    def test_matrix_must_be_two_dimensional(self):
        with pytest.raises(ValidationError, match=r"X must be a 2-D matrix, got shape \(2, 1, 1\)"):
            Dataset(("A", "B"), ("a", "b"), np.ones((2, 1, 1)), [[1], [2]], [[1], [2]])

    def test_matrices_read_only(self):
        data, *_ = single_column_dataset(np.random.default_rng(0), 3)
        with pytest.raises(ValueError):
            data.X[0, 0] = 9.0


class TestConfigValidation:
    def test_epsilon_range(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(epsilon=1.0)

    def test_stage_priority_value_converted(self):
        cfg = SolverConfig(stage_priority="first")
        assert cfg.stage_priority is StagePriority.FIRST_STAGE

    def test_unknown_stage_priority(self):
        with pytest.raises(ConfigurationError, match="stage_priority"):
            SolverConfig(stage_priority="third")


class TestCcrClosedForm:
    def test_matches_ratio_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            data, x, z, y = single_column_dataset(rng, int(rng.integers(2, 11)))
            ratios = y / x
            for k in range(data.n):
                expected = ratios[k] / ratios.max()
                record = solve_ccr(data, k, cfg=TINY_EPS)
                assert (record.stage1, record.stage2) == (None, None)
                assert record.overall == pytest.approx(expected, abs=1e-6)

    def test_best_ratio_dmu_scores_one(self):
        rng = np.random.default_rng(11)
        data, x, _, y = single_column_dataset(rng, 6)
        best = int(np.argmax(y / x))
        assert solve_ccr(data, best, cfg=TINY_EPS).overall == pytest.approx(1.0, abs=1e-9)


    def test_normalization_leaves_scores_unchanged(self):
        rng = np.random.default_rng(5)
        data, *_ = single_column_dataset(rng, 6)
        raw = Dataset(data.dmu_ids, data.dmu_names,
                      data.X * 1e6, data.Z, data.Y * 1e-3)
        for k in range(data.n):
            a = solve_ccr(data, k, cfg=TINY_EPS).overall
            b = solve_ccr(raw, k, cfg=TINY_EPS).overall
            assert a == pytest.approx(b, abs=1e-6)

    def test_scores_at_most_one(self):
        rng = np.random.default_rng(13)
        data, *_ = single_column_dataset(rng, 8)
        for k in range(data.n):
            assert solve_ccr(data, k).overall <= 1.0


class TestIndependentStages:
    def test_stage_slots(self):
        rng = np.random.default_rng(17)
        data, x, z, y = single_column_dataset(rng, 5)
        first = solve_stage_independent(data, 1, StagePriority.FIRST_STAGE, TINY_EPS)
        second = solve_stage_independent(data, 1, StagePriority.SECOND_STAGE, TINY_EPS)
        assert first.stage1 is not None and (first.overall, first.stage2) == (None, None)
        assert second.stage2 is not None and (second.overall, second.stage1) == (None, None)
        r1 = z / x
        r2 = y / z
        assert first.stage1 == pytest.approx(r1[1] / r1.max(), abs=1e-6)
        assert second.stage2 == pytest.approx(r2[1] / r2.max(), abs=1e-6)


class TestRelationalClosedForm:
    def test_overall_matches_product_of_stage_maxima(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            data, x, z, y = single_column_dataset(rng, int(rng.integers(2, 11)))
            r1 = z / x
            r2 = y / z
            for k in range(data.n):
                expected = (y[k] / x[k]) / (r1.max() * r2.max())
                got = solve_relational_overall(data, k, TINY_EPS)
                assert got == pytest.approx(expected, abs=1e-6)

    def test_priority_recovers_independent_stage_scores(self):
        rng = np.random.default_rng(29)
        data, x, z, y = single_column_dataset(rng, 7)
        r1 = z / x
        r2 = y / z
        for k in range(data.n):
            overall = solve_relational_overall(data, k, TINY_EPS)
            first = solve_stage_priority(data, k, SolverConfig(
                epsilon=1e-8, stage_priority=StagePriority.FIRST_STAGE))
            second = solve_stage_priority(data, k, TINY_EPS)
            assert first.stage1 == pytest.approx(r1[k] / r1.max(), abs=1e-6)
            assert second.stage2 == pytest.approx(r2[k] / r2.max(), abs=1e-6)
            for record in (first, second):
                assert record.overall == pytest.approx(overall, abs=1e-12)
                assert record.overall == pytest.approx(
                    record.stage1 * record.stage2, abs=1e-6
                )

    def test_multipliers_reproduce_scores(self, table1):
        cfg = SolverConfig()
        Xn = table1.X / table1.X.max(axis=0)
        Zn = table1.Z / table1.Z.max(axis=0)
        Yn = table1.Y / table1.Y.max(axis=0)
        k = 2
        record = solve_stage_priority(table1, k, cfg)
        mult = record.multipliers
        assert Zn[k] @ mult.w == pytest.approx(1.0, abs=1e-9)
        assert Yn[k] @ mult.v == pytest.approx(record.stage2, abs=1e-9)
        assert Xn[k] @ mult.u == pytest.approx(1.0 / record.stage1, abs=1e-6)
        for values in (mult.u, mult.w, mult.v):
            assert np.all(values >= cfg.epsilon - 1e-12)


class TestDominance:
    def test_relational_sandwich(self, make_random_dataset):
        rng = np.random.default_rng(31)
        for i in range(20):
            data = make_random_dataset(rng, plant_efficient=(i % 4 == 0))
            cfg = SolverConfig()
            for k in range(data.n):
                record = solve_stage_priority(data, k, cfg)
                ccr = solve_ccr(data, k, cfg=cfg)
                assert record.overall <= ccr.overall + 1e-9
                assert record.overall <= min(record.stage1, record.stage2) + 1e-9

    def test_dominant_dmu_is_efficient_in_both_stages(self, make_random_dataset):
        rng = np.random.default_rng(37)
        for _ in range(8):
            data = make_random_dataset(rng, plant_efficient=True)
            record = solve_stage_priority(data, 0)
            assert record.overall == pytest.approx(1.0, abs=1e-9)
            assert record.stage1 >= 1.0 - 1e-6
            assert record.stage2 >= 1.0 - 1e-6


class TestDecomposeEfficiency:
    def test_exact_quotient(self):
        assert decompose_efficiency(0.06, 0.3) == pytest.approx(0.2, abs=1e-15)

    def test_clamps_tiny_excess(self):
        assert decompose_efficiency(0.5 + 5e-10, 0.5) == 1.0

    def test_rejects_large_excess(self):
        with pytest.raises(DecompositionError, match="exceeds"):
            decompose_efficiency(0.5 + 1e-8, 0.5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DecompositionError):
            decompose_efficiency(0.5, 0.0)
        with pytest.raises(DecompositionError):
            decompose_efficiency(0.5, 1.5)
        with pytest.raises(DecompositionError):
            decompose_efficiency(0.0, 0.5)
        with pytest.raises(DecompositionError):
            decompose_efficiency(float("nan"), 0.5)


class TestErrorPaths:
    def test_oversized_epsilon_is_a_configuration_error(self, table1):
        with pytest.raises(ConfigurationError, match="epsilon"):
            solve_ccr(table1, 0, cfg=SolverConfig(epsilon=0.5))

    def test_oversized_epsilon_message_names_the_scaling(self, table1):
        with pytest.raises(ConfigurationError) as excinfo:
            solve_ccr(table1, 0, cfg=SolverConfig(epsilon=0.5))
        assert str(excinfo.value).endswith("for the normalized data")

    def test_run_full_analysis_names_failing_dmu(self, table1):
        with pytest.raises(DmuSolveError) as excinfo:
            run_full_analysis(table1, SolverConfig(epsilon=0.5))
        assert excinfo.value.dmu_id in table1.dmu_ids

    def test_record_rejects_score_above_one(self):
        with pytest.raises(SolverFailureError, match="outside"):
            EfficiencyRecord("A", overall=1.001)

    def test_record_rejects_broken_product(self):
        with pytest.raises(SolverFailureError, match="deviates"):
            EfficiencyRecord("A", overall=0.5, stage1=0.9, stage2=0.9)
        # With a score unset there is no product to check.
        EfficiencyRecord("A", overall=0.5, stage1=0.9)

    def test_bad_index(self, table1):
        with pytest.raises(IndexError):
            solve_relational_overall(table1, 13)
        for solve in (solve_ccr, solve_relational_overall, solve_stage_priority):
            with pytest.raises(TypeError):
                solve(table1, 1.7)
        with pytest.raises(TypeError):
            solve_stage_independent(table1, 1.7, StagePriority.FIRST_STAGE)
        assert solve_ccr(table1, np.int64(1)).dmu_id == table1.dmu_ids[1]
        assert solve_stage_priority(table1, np.int64(1)).dmu_id == table1.dmu_ids[1]

    @staticmethod
    def _fail_pinned_lp(monkeypatch):
        """Only the stage-priority LP (the one with two "=" rows) comes back
        infeasible."""
        def solve(problem):
            if problem.constraint_senses.count(EQUAL) == 2:
                return LpSolution(SolveStatus.INFEASIBLE)
            return solve_lp(problem)

        monkeypatch.setattr(models, "solve_lp", solve)

    def test_infeasible_pinned_lp_is_a_solver_failure(self, monkeypatch, table1):
        self._fail_pinned_lp(monkeypatch)
        dmu = table1.dmu_ids[3]
        with pytest.raises(SolverFailureError, match=f"stage-priority model for DMU {dmu}: "
                                                     f"solver returned infeasible"):
            solve_stage_priority(table1, 3)

    def test_infeasible_pinned_lp_aborts_full_analysis(self, monkeypatch, table1):
        self._fail_pinned_lp(monkeypatch)
        with pytest.raises(DmuSolveError) as excinfo:
            run_full_analysis(table1)
        assert excinfo.value.dmu_id == table1.dmu_ids[0]
        assert isinstance(excinfo.value.__cause__, SolverFailureError)

    def test_quotient_rejection_names_the_dmu_once(self, monkeypatch, table1):
        # Shrinking the pinned LP's objective makes its stage score fall below
        # the overall score, so decompose_efficiency rejects the quotient.
        def solve(problem):
            if problem.constraint_senses.count(EQUAL) == 2:
                problem = LinearProgram(problem.objective * 1e-3, problem.constraint_matrix,
                                        problem.constraint_senses, problem.rhs,
                                        problem.variable_lower_bounds)
            return solve_lp(problem)

        monkeypatch.setattr(models, "solve_lp", solve)
        with pytest.raises(DmuSolveError) as excinfo:
            run_full_analysis(table1)
        dmu = table1.dmu_ids[0]
        message = str(excinfo.value)
        assert excinfo.value.dmu_id == dmu
        assert isinstance(excinfo.value.__cause__, DecompositionError)
        assert message.startswith(f"stage-priority model for DMU {dmu}: overall ")
        assert message.count(f"DMU {dmu}") == 1

    def test_full_analysis_lets_a_bug_surface_as_itself(self, monkeypatch, table1):
        bug = RuntimeError("bug in solver")

        def broken_solve(problem):
            raise bug

        monkeypatch.setattr(models, "solve_lp", broken_solve)
        with pytest.raises(RuntimeError) as excinfo:
            run_full_analysis(table1)
        assert excinfo.value is bug


class TestRunFullAnalysis:
    @pytest.mark.parametrize("n", [100, 400])
    @pytest.mark.parametrize("shape", [(3, 2, 2), (3, 1, 1), "half-on-frontier"])
    def test_invariants_at_n100_and_n400(self, make_random_dataset, shape, n):
        # The paper's invariants at the benchmarked sizes: the product
        # identity, overall <= CCR, and units invariance. A power-of-two unit
        # per column leaves the normalized LPs bit-identical, so the scaled
        # run must also render the same json bytes, which covers a rerun.
        # The half-on-frontier set puts every second DMU on both stage
        # frontiers, so many stage rows bind at once, and with them the
        # whole-process rows they imply, which the relational LPs omit.
        if shape == "half-on-frontier":
            rng = np.random.default_rng(100)
            data = half_on_frontier_dataset(rng, n)
        else:
            rng = np.random.default_rng(100 + shape[1])
            data = make_random_dataset(rng, n, *shape)
        cfg = SolverConfig()
        relational, ccr = run_full_analysis(data, cfg)
        X, Z, Y = reference_normalized_matrices(data)
        for k, (rel, whole) in enumerate(zip(relational, ccr)):
            assert abs(rel.overall - rel.stage1 * rel.stage2) <= PRODUCT_IDENTITY_TOL
            assert rel.overall <= whole.overall + 1e-9
            # The CCR weights, read back from the envelopment solve, are a
            # feasible point of the multiplier LP that attains the score.
            u, v = whole.multipliers.u, whole.multipliers.v
            assert min(u.min(), v.min()) >= cfg.epsilon - FEASIBILITY_TOL
            assert np.all(Y @ v - X @ u <= FEASIBILITY_TOL)
            assert abs(X[k] @ u - 1.0) <= FEASIBILITY_TOL
            assert abs(Y[k] @ v - whole.overall) <= FEASIBILITY_TOL
            # The pinned LP keeps only the undominated stage rows, yet its
            # weights satisfy every DMU's stage rows.
            u, w, v = rel.multipliers.u, rel.multipliers.w, rel.multipliers.v
            assert min(u.min(), w.min(), v.min()) >= cfg.epsilon - FEASIBILITY_TOL
            assert np.all(Z @ w - X @ u <= FEASIBILITY_TOL)
            assert np.all(Y @ v - Z @ w <= FEASIBILITY_TOL)
        scaled = Dataset(data.dmu_ids, data.dmu_names,
                         *(M * 2.0 ** rng.integers(-20, 21, M.shape[1])
                           for M in (data.X, data.Z, data.Y)))
        assert not np.array_equal(scaled.X, data.X)
        want = render_report(build_report(relational, ccr, cfg), "json")
        got = render_report(build_report(*run_full_analysis(scaled, cfg), cfg), "json")
        assert got == want

    def test_record_shapes_and_order(self, table1):
        relational, ccr = run_full_analysis(table1)
        assert [r.dmu_id for r in relational] == list(table1.dmu_ids)
        assert [r.dmu_id for r in ccr] == list(table1.dmu_ids)
        for record in relational:
            assert None not in (record.overall, record.stage1, record.stage2)
        for record in ccr:
            assert record.overall is not None
            assert (record.stage1, record.stage2) == (None, None)

    def test_priority_changes_split_not_overall(self, make_random_dataset):
        rng = np.random.default_rng(43)
        data = make_random_dataset(rng, n=6, m=2, p=2, s=2)
        first, _ = run_full_analysis(
            data, SolverConfig(stage_priority=StagePriority.FIRST_STAGE))
        second, _ = run_full_analysis(
            data, SolverConfig(stage_priority=StagePriority.SECOND_STAGE))
        for a, b in zip(first, second):
            assert a.overall == pytest.approx(b.overall, abs=1e-9)
            assert a.stage1 >= b.stage1 - 1e-7  # first priority favors stage 1


def reference_normalized_matrices(data):
    """Per-LP normalization that the per-dataset LP system replaces."""
    return (data.X / data.X.max(axis=0),
            data.Z / data.Z.max(axis=0),
            data.Y / data.Y.max(axis=0))


def reference_ccr_lp(inputs, outputs, k, epsilon):
    """Row-by-row CCR construction that the LP builder replaces; the tests
    require the two to agree bit for bit, so pivots match."""
    n, m = inputs.shape
    s = outputs.shape[1]
    objective = np.concatenate([np.zeros(m), outputs[k]])
    rows = [np.concatenate([inputs[k], np.zeros(s)])]
    senses = [EQUAL]
    rhs = [1.0]
    for j in range(n):
        rows.append(np.concatenate([-inputs[j], outputs[j]]))
        senses.append(LESS_EQUAL)
        rhs.append(0.0)
    return (objective, np.array(rows), tuple(senses), np.array(rhs),
            np.full(m + s, epsilon))


def reference_relational_lp(X, Z, Y, k, epsilon, pinned_overall=None,
                            maximize_stage=None):
    """The relational builder, with its mode flags, that the LP builder
    replaces. Without extras: the overall LP. With pinned_overall, the
    split favoring maximize_stage."""
    n, m = X.shape
    p, s = Z.shape[1], Y.shape[1]
    u_pad, w_pad, v_pad = np.zeros(m), np.zeros(p), np.zeros(s)
    if maximize_stage is StagePriority.FIRST_STAGE:
        objective = np.concatenate([u_pad, Z[k], v_pad])
    else:
        objective = np.concatenate([u_pad, w_pad, Y[k]])
    if maximize_stage is StagePriority.SECOND_STAGE:
        normalization = np.concatenate([u_pad, Z[k], v_pad])
    else:
        normalization = np.concatenate([X[k], w_pad, v_pad])
    rows, rhs = [normalization], [1.0]
    if pinned_overall is not None:
        rows.append(np.concatenate([-pinned_overall * X[k], w_pad, Y[k]]))
        rhs.append(0.0)
    families = np.vstack([
        np.hstack([-X, np.zeros((n, p)), Y]),
        np.hstack([-X, Z, np.zeros((n, s))]),
        np.hstack([np.zeros((n, m)), -Z, Y]),
    ])
    return (objective, np.vstack([np.array(rows), families]),
            (EQUAL,) * len(rows) + (LESS_EQUAL,) * (3 * n),
            np.concatenate([rhs, np.zeros(3 * n)]), np.full(m + p + s, epsilon))


def without_whole_process_rows(reference, n):
    """reference_relational_lp's LP with its n whole-process rows deleted,
    the rows the chain "uwv" omits. Each deleted row must first equal the
    bitwise sum of the DMU's stage-1 and stage-2 rows, which imply it."""
    objective, matrix, senses, rhs, lower = reference
    eqs = senses.count(EQUAL)
    whole, first, second = (matrix[eqs + i * n:eqs + (i + 1) * n] for i in range(3))
    assert (first + second).tobytes() == whole.tobytes()
    kept = np.r_[:eqs, eqs + n:len(matrix)]
    return objective, matrix[kept], senses[:eqs] + senses[eqs + n:], rhs[kept], lower


def reference_kept_rows(inputs, outputs):
    """Pairwise loop that _undominated replaces: the ratio rows
    outputs_j . t - inputs_j . t <= 0 that no kept row implies, visited in
    ascending order of inputs_j.sum() / outputs_j.sum(). Row i implies
    row j when every output of j over that of i is at most, up to a
    relative 1e-12, every input of j over that of i."""
    def implies(i, j):
        most = max(outputs[j, r] / outputs[i, r] for r in range(outputs.shape[1]))
        least = min(inputs[j, q] / inputs[i, q] for q in range(inputs.shape[1]))
        return most <= least * (1.0 + 1e-12)

    kept = []
    for j in sorted(range(len(inputs)), key=lambda j: inputs[j].sum() / outputs[j].sum()):
        if not any(implies(i, j) for i in kept):
            kept.append(j)
    return sorted(kept)


def without_implied_rows(reference, n, families):
    """reference's LP over n DMUs with only the ratio rows families lists:
    the reference_kept_rows of each of its row families, in order."""
    objective, matrix, senses, rhs, lower = reference
    eqs = senses.count(EQUAL)
    kept = np.concatenate([np.arange(eqs)] + [eqs + i * n + np.array(rows)
                                              for i, rows in enumerate(families)])
    return objective, matrix[kept], senses[:len(kept)], rhs[kept], lower


def reference_envelopment_lp(reference):
    """The LP dual of a reference multiplier LP max c't s.t. E t = e,
    R t <= 0, t >= eps, transposed row by row: variables [y+ | y- | lambda]
    >= 0 and, for each weight i, the row -(E_i'y+ - E_i'y- + R_i'lambda)
    <= -c_i. Its objective is max -(b_E'y+ - b_E'y- + b_R'lambda), where b
    is the rhs shifted by the lower bounds as lp_core shifts it."""
    objective, matrix, senses, rhs, lower = reference
    eqs = senses.count(EQUAL)
    shifted = rhs - matrix @ lower
    rows = [np.concatenate([-matrix[:eqs, i], matrix[:eqs, i], -matrix[eqs:, i]])
            for i in range(len(objective))]
    return (np.concatenate([-shifted[:eqs], shifted[:eqs], -shifted[eqs:]]),
            np.array(rows), (LESS_EQUAL,) * len(rows), -objective,
            np.zeros(eqs + len(matrix)))


def _assert_same_lp(lp, reference):
    # Bytes, not values: -0.0 == 0.0, yet the two can round differently.
    objective, matrix, senses, rhs, lower = reference
    for got, want in ((lp.objective, objective), (lp.constraint_matrix, matrix),
                      (lp.rhs, rhs), (lp.variable_lower_bounds, lower)):
        assert got.flags.c_contiguous
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert lp.constraint_senses == senses


class TestCcrLpReference:
    def _check(self, data, X, Z, Y):
        by_slot = {"u": X, "w": Z, "v": Y}
        for chain in ("uv", "uw", "wv"):
            for k in range(data.n):
                lp = data._lp_system.lp(k, chain, chain, 1e-6)
                _assert_same_lp(lp, reference_ccr_lp(by_slot[chain[0]], by_slot[chain[1]],
                                                     k, 1e-6))

    def test_random_datasets(self, make_random_dataset):
        rng = np.random.default_rng(31)
        for _ in range(40):
            data = make_random_dataset(rng)
            self._check(data, *reference_normalized_matrices(data))

    @pytest.mark.parametrize("normalize", [True, False])
    def test_bundled_data(self, table1, normalize):
        if normalize:
            self._check(table1, *reference_normalized_matrices(table1))
        else:
            # Columns already at unit maximum: the builder divides by
            # exactly 1.0, so it must match the reference on the raw data.
            data = Dataset(table1.dmu_ids, table1.dmu_names,
                           *reference_normalized_matrices(table1))
            self._check(data, data.X, data.Z, data.Y)


class TestFullAnalysisLpReference:
    """Every LP run_full_analysis builds, under both priorities, against the
    builders the one LP builder replaces: the relational and pinned LPs are
    theirs without the whole-process rows. From ENVELOPMENT_MIN_DMUS DMUs
    up, every LP keeps only the ratio rows no kept row implies, and every
    LP, the pinned one included, is solved as its transposed dual."""

    def _check(self, monkeypatch, data):
        X, Z, Y = reference_normalized_matrices(data)
        uv, uw, wv = (reference_kept_rows(*pair) for pair in ((X, Y), (X, Z), (Z, Y)))
        built = []

        def recording_solve(problem):
            built.append(problem)
            return solve_lp(problem)

        monkeypatch.setattr(models, "solve_lp", recording_solve)
        for priority in StagePriority:
            built.clear()
            relational, _ = run_full_analysis(data, SolverConfig(stage_priority=priority))
            want = []
            for k, record in enumerate(relational):
                overall = without_whole_process_rows(
                    reference_relational_lp(X, Z, Y, k, 1e-6), data.n)
                pinned = without_whole_process_rows(
                    reference_relational_lp(X, Z, Y, k, 1e-6, record.overall, priority), data.n)
                ccr = reference_ccr_lp(X, Y, k, 1e-6)
                if data.n >= models.ENVELOPMENT_MIN_DMUS:
                    overall, pinned = (without_implied_rows(lp, data.n, [uw, wv])
                                       for lp in (overall, pinned))
                    ccr = without_implied_rows(ccr, data.n, [uv])
                    overall, pinned, ccr = map(reference_envelopment_lp, (overall, pinned, ccr))
                want += [overall, pinned, ccr]
            assert len(built) == len(want)
            for lp, reference in zip(built, want):
                _assert_same_lp(lp, reference)

    def test_random_datasets(self, monkeypatch, make_random_dataset):
        rng = np.random.default_rng(37)
        for _ in range(40):
            self._check(monkeypatch, make_random_dataset(rng))

    def test_bundled_data(self, monkeypatch, table1):
        self._check(monkeypatch, table1)

    # From 40 DMUs up the LPs keep only the undominated rows and are solved
    # in envelopment form, and no dual of these sets fails, so none is
    # solved again in multiplier form; 47 and 70 add other shapes and sizes.
    @pytest.mark.parametrize("n,shape", [(40, (3, 2, 2)), (47, (1, 3, 2)), (70, (2, 2, 3))])
    def test_envelopment_form(self, monkeypatch, make_random_dataset, n, shape):
        self._check(monkeypatch, make_random_dataset(np.random.default_rng(n), n, *shape))


def test_one_linear_program_per_solve(monkeypatch, make_random_dataset):
    # In envelopment form too, the LP solve_lp receives is the only one
    # built: the dual comes straight from the dataset's blocks.
    data = make_random_dataset(np.random.default_rng(41), 41, 3, 2, 2)
    built, solved = [], []
    post_init = LinearProgram.__post_init__

    def recording_post_init(problem):
        built.append(problem)
        post_init(problem)

    def recording_solve(problem):
        solved.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(LinearProgram, "__post_init__", recording_post_init)
    monkeypatch.setattr(models, "solve_lp", recording_solve)
    run_full_analysis(data)
    assert len(solved) == 3 * data.n
    assert [id(problem) for problem in built] == [id(problem) for problem in solved]


def stacked_lp_builder(system, k, chain, scored, epsilon, pinned_overall=None):
    """_LpSystem.lp as it was before the per-chain blocks: the equality rows
    and every link's ratio rows stacked over all of [u | w | v] for each
    LP, then restricted to the chain's columns. The tests require bit-equal
    LPs."""
    norm, cols = system.normalized, system.columns
    normalization, objective = scored
    top = np.zeros((2 if pinned_overall is None else 3, cols["v"].stop))
    top[0, cols[objective]] = norm[objective][k]
    top[1, cols[normalization]] = norm[normalization][k]
    if pinned_overall is not None:
        top[2, cols["u"]] = -pinned_overall * norm["u"][k]
        top[2, cols["v"]] = norm["v"][k]
    eqs = len(top) - 1
    links = [system.ratio_rows[a + b] for a, b in zip(chain, chain[1:])]
    used = np.r_[tuple(cols[slot] for slot in chain)]
    matrix = np.vstack([top[1:], *links])[:, used]
    return (top[0, used], matrix, (EQUAL,) * eqs + (LESS_EQUAL,) * (len(matrix) - eqs),
            np.r_[1.0, np.zeros(len(matrix) - 1)], np.full(len(used), epsilon))


def stacked_envelopment_builder(lp):
    """The LP dual of a multiplier LP with one or two equality rows,
    transposed from the built LP as models did before
    _LpSystem.envelopment_lp (with np.r_)."""
    A = lp.constraint_matrix
    eqs = lp.constraint_senses.count(EQUAL)
    b = lp.rhs - A @ lp.variable_lower_bounds
    return (np.r_[-b[:eqs], b[:eqs], -b[eqs:]], np.hstack((-A[:eqs].T, A[:eqs].T, -A[eqs:].T)),
            (LESS_EQUAL,) * lp.num_variables, -lp.objective, np.zeros(eqs + len(A)))


class TestStackedBuilderReference:
    """Every chain, every ordered pair of its slots as (normalization,
    objective), pinned where the chain holds u and v and unpinned, for
    every DMU and at two epsilons: _LpSystem.lp against the builder that
    stacked each LP's rows afresh, and for each of these LPs, pinned or
    not, _LpSystem.envelopment_lp against the dual that
    stacked_envelopment_builder transposes from it. The second epsilon
    catches a term that a builder keeps per chain but epsilon changes. A
    dual starts from a vertex (TestStartVertex) unless its objective slot
    comes before its normalization slot in the chain."""

    @staticmethod
    def _check(data):
        system = data._lp_system
        pins = np.random.default_rng(data.n).uniform(0.05, 1.0, data.n)
        built = 0
        for epsilon in (1e-6, 1e-4):
            for chain in ("uv", "uw", "wv", "uwv"):
                pinned = (None, "pinned") if {"u", "v"} <= set(chain) else (None,)
                for scored in itertools.permutations(chain, 2):
                    for pin in pinned:
                        for k in range(data.n):
                            overall = None if pin is None else float(pins[k])
                            lp = system.lp(k, chain, scored, epsilon, overall)
                            stacked = stacked_lp_builder(system, k, chain, scored, epsilon,
                                                         overall)
                            _assert_same_lp(lp, stacked)
                            dual = system.envelopment_lp(k, chain, scored, epsilon, overall)
                            _assert_same_lp(dual, stacked_envelopment_builder(lp))
                            walked = chain.index(scored[1]) - chain.index(scored[0])
                            assert len(dual.start) == (walked + 1 if walked > 0 else 0)
                            built += 1
        assert built == 2 * data.n * (2 * 2 + 2 + 2 + 6 * 2)

    def test_bundled_data(self, table1):
        self._check(table1)

    def test_n100(self, make_random_dataset):
        # Past ENVELOPMENT_MIN_DMUS, so each link keeps only some rows.
        data = make_random_dataset(np.random.default_rng(19), 100, 3, 2, 2)
        assert max(len(rows) for rows in data._lp_system.ratio_rows.values()) < 100
        self._check(data)


def highs_optimum(optimize, reference):
    """HiGHS's optimum of a reference multiplier LP, all of whose weights
    are bounded below by 1e-6."""
    objective, A, senses, rhs, _ = reference
    eq = np.array(senses) == EQUAL
    want = optimize.linprog(-objective, A_ub=A[~eq], b_ub=rhs[~eq], A_eq=A[eq],
                            b_eq=rhs[eq], bounds=(1e-6, None), method="highs")
    assert want.status == 0
    return -want.fun


def _perfbench_generate():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # its dataclass looks itself up in sys.modules
    return module


@pytest.fixture(scope="module")
def dispersed_10000():
    """perfbench's dispersed 3/1/1 set of 10,000 DMUs at default_rng(0)."""
    X, Z, Y = _perfbench_generate().dispersed(np.random.default_rng(0), 10_000, 3, 1, 1)
    ids = tuple(f"D{j + 1}" for j in range(len(X)))
    return Dataset(ids, ids, X, Z, Y)


def assert_split_matches_highs(data, k, priority):
    """DMU k's overall score and the stage score its priority fixes, within
    1e-9 of HiGHS on the LPs with all 2n stage rows."""
    optimize = pytest.importorskip("scipy.optimize")
    record = solve_stage_priority(data, k, SolverConfig(stage_priority=priority))
    fixed = record.stage1 if priority is StagePriority.FIRST_STAGE else record.stage2
    X, Z, Y = reference_normalized_matrices(data)
    for pinned, stage, score in ((None, None, record.overall),
                                 (record.overall, priority, fixed)):
        reference = without_whole_process_rows(
            reference_relational_lp(X, Z, Y, k, 1e-6, pinned, stage), data.n)
        assert abs(score - highs_optimum(optimize, reference)) <= 1e-9
    return record


class TestEnvelopmentForm:
    """From ENVELOPMENT_MIN_DMUS DMUs up, every LP keeps only the ratio rows
    no kept row implies and is solved in envelopment form, the pinned
    stage-priority LP included. A dual that ends without a proved optimum
    is solved again in multiplier form, whose status decides."""

    @staticmethod
    def _record(monkeypatch):
        solved = []

        def recording_solve(problem):
            solution = solve_lp(problem)
            solved.append((problem, solution))
            return solution

        monkeypatch.setattr(models, "solve_lp", recording_solve)
        return solved

    @pytest.mark.parametrize("n", [39, 40])
    def test_form_switches_at_the_threshold(self, monkeypatch, make_random_dataset, n):
        assert models.ENVELOPMENT_MIN_DMUS == 40
        data = make_random_dataset(np.random.default_rng(n), n, 3, 2, 2)
        solved = self._record(monkeypatch)
        solve_ccr(data, 0)
        solve_stage_independent(data, 0, StagePriority.SECOND_STAGE)
        solve_stage_priority(data, 0)
        (ccr, _), (stage, _), (overall, _), (pinned, _) = solved
        kept = {link: len(rows) for link, rows in data._lp_system.ratio_rows.items()}
        if n < 40:
            assert kept == {"uv": n, "uw": n, "wv": n}
        else:
            assert max(kept.values()) < n
        stage_rows = kept["uw"] + kept["wv"]
        for lp, weights, rows in ((ccr, 5, kept["uv"]), (stage, 4, kept["wv"]),
                                  (overall, 7, stage_rows)):
            if n < 40:  # a weight per column and, past the normalization, a ratio row each
                assert lp.num_variables == weights
                assert lp.constraint_senses.count(EQUAL) == 1
                assert lp.num_constraints == 1 + rows
            else:  # a row per weight, and y+, y- and one lambda per ratio row
                assert lp.num_constraints == weights
                assert lp.constraint_senses == (LESS_EQUAL,) * weights
                assert lp.num_variables == 2 + rows
        if n < 40:
            assert pinned.num_variables == 7
            assert pinned.constraint_senses.count(EQUAL) == 2
            assert pinned.num_constraints == 2 + stage_rows
        else:  # y+ and y- of both equality rows, and one lambda per stage row
            assert pinned.num_constraints == 7
            assert pinned.constraint_senses == (LESS_EQUAL,) * 7
            assert pinned.num_variables == 4 + stage_rows

    def test_oversized_epsilon_is_a_configuration_error(self, monkeypatch,
                                                        make_random_dataset):
        # The multiplier LP is infeasible, so its envelopment dual is
        # unbounded. That proves nothing, so the multiplier LP is solved
        # too, and its proved infeasibility is the error.
        data = make_random_dataset(np.random.default_rng(41), 41, 3, 2, 2)
        cfg = SolverConfig(epsilon=0.5)
        solved = self._record(monkeypatch)
        for solve in (solve_ccr, solve_relational_overall):
            solved.clear()
            with pytest.raises(ConfigurationError) as excinfo:
                solve(data, 0, cfg)
            assert str(excinfo.value).endswith("for the normalized data")
            (dual, dual_solution), (problem, solution) = solved
            assert dual.constraint_senses.count(EQUAL) == 0
            assert dual_solution.status is SolveStatus.UNBOUNDED
            assert problem.constraint_senses.count(EQUAL) == 1
            assert solution.status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("skewed", ["row prices"])
    def test_uncertified_result_is_a_solver_failure(self, monkeypatch,
                                                    make_random_dataset, skewed):
        # Weights off the multiplier LP fail the dual's certificate in
        # solve_lp, and the multiplier LP solved again fails its own: no
        # uncertified result is returned in either form.
        data = make_random_dataset(np.random.default_rng(42), 42, 3, 2, 2)
        row_prices = lp_core._row_prices
        monkeypatch.setattr(lp_core, "_row_prices", lambda *final: row_prices(*final) + 1e-6)
        with pytest.raises(SolverFailureError, match="numerical_failure"):
            solve_ccr(data, 0)

    def test_score_is_attained_by_the_weights(self):
        # The stage-priority LP pins the overall score, so the score must be
        # attained by a point of the multiplier LP, c't. On this set the
        # dual's bound sits a rounding error above DMU 41's optimum, and the
        # LP pinned there ends in numerical_failure.
        X, Z, Y = _perfbench_generate().dispersed(np.random.default_rng(0), 100, 3, 1, 1)
        ids = tuple(f"D{j + 1}" for j in range(len(X)))
        record = solve_stage_priority(Dataset(ids, ids, X, Z, Y), 40)
        assert record.overall == pytest.approx(0.000255006483234, rel=1e-9)

    def test_scores_match_highs(self):
        # CCR and relational overall scores of sets with 40-60 DMUs against
        # HiGHS on the multiplier LP with every ratio row, from three of the
        # benchmark's generators: dispersed, near one frontier, and half on
        # the frontier.
        optimize = pytest.importorskip("scipy.optimize")
        generate = _perfbench_generate()
        rng = np.random.default_rng(20261018)
        sets = [generate.dispersed(rng, 50, 3, 2, 2),
                generate.near_frontier(rng, 60, 2, 2, 2),
                generate.half_on_frontier(rng, 40)]
        for X, Z, Y in sets:
            ids = tuple(f"D{j + 1}" for j in range(len(X)))
            data = Dataset(ids, ids, X, Z, Y)
            X, Z, Y = reference_normalized_matrices(data)
            for k in range(data.n):
                relational = without_whole_process_rows(
                    reference_relational_lp(X, Z, Y, k, 1e-6), data.n)
                for score, reference in ((solve_ccr(data, k).overall,
                                          reference_ccr_lp(X, Y, k, 1e-6)),
                                         (solve_relational_overall(data, k), relational)):
                    assert abs(score - highs_optimum(optimize, reference)) <= 1e-9

    def test_feasible_phase_one_ray_goes_on_to_phase_two(self, monkeypatch,
                                                          dispersed_10000):
        # The relational overall duals of these three DMUs of a 10,000-DMU
        # set, solved from the slack basis, end phase 1 "unbounded" at a
        # phase-1 objective within FEASIBILITY_TOL: a ray of rounding residue
        # in a bounded phase 1, from a basis that is already feasible. They
        # were numerical failures; phase 2 now goes on from there and the
        # certificate decides. The model solves them from their start, so
        # its scores and stage splits are checked against HiGHS on the LPs
        # with all 2n stage rows, and the duals without a start against them.
        data, ids = dispersed_10000, dispersed_10000.dmu_ids
        iterate, outcomes = lp_core._iterate, []

        def recording_iterate(T, basis, budget):
            outcome, iterations = iterate(T, basis, budget)
            outcomes.append((outcome, T[-1, -1]))
            return outcome, iterations

        monkeypatch.setattr(lp_core, "_iterate", recording_iterate)
        for dmu in ("D6377", "D6424", "D6895"):
            k = ids.index(dmu)
            dual = data._lp_system.envelopment_lp(k, "uwv", "uv", 1e-6)
            outcomes.clear()
            solution = solve_lp(dataclasses.replace(dual, start=()))
            phase1, phase2 = outcomes
            assert phase1[0] == "unbounded" and phase1[1] <= FEASIBILITY_TOL
            assert phase2[0] == "optimal"
            assert solution.status is SolveStatus.OPTIMAL
            score = -dual.rhs @ (1e-6 + solution.row_prices)  # c't, as the model reads it
            record = assert_split_matches_highs(data, k, StagePriority.SECOND_STAGE)
            assert score == pytest.approx(record.overall, abs=1e-12)

    def test_pinned_duals_of_a_10000_dmu_set(self, dispersed_10000):
        # The SECOND_STAGE pinned LPs of these two DMUs ended in
        # numerical_failure in multiplier form: a point that violated a row
        # by 4.0e-9. Their duals solve.
        for dmu in ("D8931", "D8951"):
            assert_split_matches_highs(dispersed_10000, dispersed_10000.dmu_ids.index(dmu),
                                       StagePriority.SECOND_STAGE)

    @pytest.mark.parametrize("priority", list(StagePriority))
    def test_unbounded_dual_is_solved_again(self, monkeypatch, priority):
        # D50's relational dual on this wide set, solved from the slack
        # basis, ends "unbounded" after 196 pivots, without a proof, while
        # its multiplier LP is optimal. It was read as an infeasible
        # multiplier LP: "epsilon=1e-06 is too large". From its start it
        # solves, and so does its pinned dual. Forced onto the slack basis,
        # the relational dual fails as before and is solved again in
        # multiplier form. Both records against HiGHS.
        X, Z, Y = _perfbench_generate().dispersed(np.random.default_rng(0), 400, 5, 3, 3)
        ids = tuple(f"D{j + 1}" for j in range(len(X)))
        data = Dataset(ids, ids, X, Z, Y)
        solved = self._record(monkeypatch)
        record = assert_split_matches_highs(data, 49, priority)
        assert record.overall == pytest.approx(0.0747491441, abs=1e-10)
        assert [solution.status for _, solution in solved] == [SolveStatus.OPTIMAL] * 2
        assert all(dual.start for dual, _ in solved)

        solved.clear()
        recording_solve = models.solve_lp
        monkeypatch.setattr(models, "solve_lp", lambda problem: recording_solve(
            dataclasses.replace(problem, start=())))
        again = assert_split_matches_highs(data, 49, priority)
        assert again.overall == pytest.approx(record.overall, abs=1e-12)
        (dual, dual_solution), (problem, solution), _ = solved
        assert dual_solution.status is SolveStatus.UNBOUNDED
        assert problem.constraint_senses.count(EQUAL) == 1
        assert solution.status is SolveStatus.OPTIMAL

    def test_record_weights_are_read_only(self, monkeypatch, table1):
        # The three paths a record's weights come from: the multiplier LPs
        # of the 13-DMU set, optimal duals from 40 DMUs up, and D80 of this
        # wide set, whose SECOND_STAGE pinned dual ends in numerical_failure
        # and is solved again in multiplier form.
        X, Z, Y = _perfbench_generate().dispersed(np.random.default_rng(0), 100, 5, 3, 3)
        ids = tuple(f"D{j + 1}" for j in range(len(X)))
        wide = Dataset(ids, ids, X, Z, Y)
        solved = self._record(monkeypatch)
        records = [solve(data, k) for data, k in ((table1, 0), (wide, 79))
                   for solve in (solve_stage_priority, solve_ccr)]
        optimal, failure = SolveStatus.OPTIMAL, SolveStatus.NUMERICAL_FAILURE
        assert [(problem.constraint_senses.count(EQUAL), solution.status)
                for problem, solution in solved] == [
            (1, optimal), (2, optimal), (1, optimal),
            (0, optimal), (0, failure), (2, optimal), (0, optimal)]
        for record in records:
            weights = record.multipliers
            for slot in (weights.u, weights.w, weights.v):
                if slot is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        slot[0] = 1.0

    def test_failed_dual_gets_the_multiplier_score(self, monkeypatch, make_random_dataset):
        # Every dual fails here, so each of the three LPs is solved twice,
        # and the records hold the multiplier LPs' scores.
        data = make_random_dataset(np.random.default_rng(43), 43, 3, 2, 2)
        calls = []

        def failing_duals(problem):
            calls.append(problem)
            if problem.constraint_senses.count(EQUAL) == 0:
                return LpSolution(SolveStatus.NUMERICAL_FAILURE, iterations=3)
            return solve_lp(problem)

        monkeypatch.setattr(models, "solve_lp", failing_duals)
        record, ccr = solve_stage_priority(data, 5), solve_ccr(data, 5)
        assert [problem.constraint_senses.count(EQUAL) for problem in calls] == [0, 1, 0, 2, 0, 1]
        system = data._lp_system
        overall = solve_lp(system.lp(5, "uwv", "uv", 1e-6)).objective_value
        stage2 = solve_lp(system.lp(5, "uwv", "wv", 1e-6, overall)).objective_value
        assert (record.overall, record.stage2) == (overall, stage2)
        assert ccr.overall == solve_lp(system.lp(5, "uv", "uv", 1e-6)).objective_value


def brute_force_start(system, k, chain, scored):
    """The least y over every choice of one kept ratio row per link, walked
    from scored's objective slot back to its normalization slot one row at
    a time: each row j takes lambda = max(d / b_j) and passes lambda a_j on,
    and y = max(d / x_k) at the normalization slot."""
    normalization, objective = scored
    slots = chain[chain.index(normalization):chain.index(objective) + 1]
    links = [a + b for a, b in zip(slots, slots[1:])][::-1]
    best = np.inf
    for peers in itertools.product(*(system.ratio_rows[ab] for ab in links)):
        demand = system.normalized[objective][k]
        for ab, row in zip(links, peers):
            demand = max(demand / row[system.columns[ab[1]]]) * -row[system.columns[ab[0]]]
        best = min(best, max(demand / system.normalized[normalization][k]))
    return best


class TestStartVertex:
    """From ENVELOPMENT_MIN_DMUS DMUs up, each dual starts at DMU k's best
    single-peer vertex: one ratio row per link walked and y, pivoted in
    where each max is attained, so that solve_lp skips phase 1."""

    @pytest.mark.parametrize("shape", [(3, 2, 2), (1, 3, 2), (2, 2, 3), (5, 3, 3)])
    def test_start_is_the_best_feasible_single_peer_vertex(self, monkeypatch,
                                                            make_random_dataset, shape):
        data = make_random_dataset(np.random.default_rng(sum(shape)), 45, *shape)
        system = data._lp_system
        iterate, phases = lp_core._iterate, []

        def counting_iterate(T, basis, budget):
            phases.append(budget)
            return iterate(T, basis, budget)

        monkeypatch.setattr(lp_core, "_iterate", counting_iterate)
        for chain, scored in (("uv", "uv"), ("uw", "uw"), ("wv", "wv"),
                              ("uwv", "uv"), ("uwv", "uw"), ("uwv", "wv")):
            for k in range(data.n):
                want = brute_force_start(system, k, chain, scored)
                for pin in (None, 0.5) if scored != "uv" and chain == "uwv" else (None,):
                    dual = system.envelopment_lp(k, chain, scored, 1e-6, pin)
                    rows, cols = map(list, zip(*dual.start))
                    A, b = dual.constraint_matrix, dual.rhs
                    x = np.zeros(dual.num_variables)  # the start's basic solution
                    x[cols] = np.linalg.solve(A[rows][:, cols], b[rows])
                    assert x.min() >= -FEASIBILITY_TOL
                    assert (A @ x - b).max() <= FEASIBILITY_TOL
                    assert x[0] == pytest.approx(want, rel=1e-12)  # y+ of the normalization
                    if pin is None and k % 9 == 0:  # phase 2 only
                        phases.clear()
                        assert solve_lp(dual).status is SolveStatus.OPTIMAL
                        assert len(phases) == 1


class TestImpliedRows:
    """From ENVELOPMENT_MIN_DMUS DMUs up, _LpSystem keeps only the ratio rows
    of each link that no kept row implies."""

    @staticmethod
    def _implies(inputs, outputs, i, j):
        # Exact: row i implies row j for every t >= 0.
        most = max(Fraction(int(b_j), int(b_i)) for b_j, b_i in zip(outputs[j], outputs[i]))
        least = min(Fraction(int(a_j), int(a_i)) for a_j, a_i in zip(inputs[j], inputs[i]))
        return most <= least

    def test_every_dropped_row_is_implied_by_a_kept_row(self):
        # Small integers give many exact ties and dominated rows; a few
        # rows are integer multiples of others, ties on any data.
        rng = np.random.default_rng(14)
        inputs = rng.integers(1, 6, (80, 2)).astype(float)
        outputs = rng.integers(1, 6, (80, 3)).astype(float)
        inputs[70:], outputs[70:] = 3 * inputs[:10], 3 * outputs[:10]
        kept = list(models._undominated(inputs, outputs))
        assert kept == sorted(kept) and 1 < len(kept) < 40
        for j in set(range(80)) - set(kept):
            assert any(self._implies(inputs, outputs, i, j) for i in kept)
        for i in kept:  # and no kept row implies another
            assert not any(self._implies(inputs, outputs, i, j) for j in kept if j != i)

    def test_a_tie_group_keeps_one_row(self):
        # Rows 5, 17 and 29 are multiples, up to rounding, of one row that
        # implies every other row: exactly one of them is kept.
        rng = np.random.default_rng(15)
        inputs, outputs = rng.uniform(1.0, 2.0, (40, 3)), rng.uniform(1.0, 2.0, (40, 2))
        group, scale = [5, 17, 29], np.array([[1.0], [0.1], [0.7]])
        inputs[group] = scale * rng.uniform(0.2, 0.5, 3)
        outputs[group] = scale * rng.uniform(2.5, 3.0, 2)
        exact = [max(outputs[j] / outputs[i]) <= min(inputs[j] / inputs[i])
                 for i in group for j in group]
        assert not all(exact)  # rounding breaks some of the ties
        assert list(models._undominated(inputs, outputs)) in ([5], [17], [29])
        # Half the DMUs of this set share the stage-2 frontier, equal up to
        # rounding: one stage-2 row is kept.
        data = half_on_frontier_dataset(np.random.default_rng(16), 40)
        assert len(data._lp_system.ratio_rows["wv"]) == 1

    def test_matches_the_pairwise_loop(self):
        # Any shape, entries over 18 decades, and planted rows that are
        # duplicates or exact multiples of others, so that ties abound.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(derandomize=True, deadline=None, max_examples=200,
                             database=None)
        @hypothesis.given(st.integers(1, 150), st.integers(1, 4), st.integers(1, 4),
                          st.integers(0, 2**32 - 1), st.data())
        def check(n, d_in, d_out, seed, data):
            rng = np.random.default_rng(seed)
            raw = 10.0 ** rng.uniform(-6, 12, (n, d_in + d_out))
            for j in rng.choice(n, data.draw(st.integers(0, n // 2)), replace=False):
                raw[j] = raw[rng.integers(n)] * rng.choice([1.0, 0.1, 3.0])
            raw /= raw.max(axis=0)
            inputs, outputs = raw[:, :d_in], raw[:, d_in:]
            assert list(models._undominated(inputs, outputs)) == reference_kept_rows(inputs, outputs)

        check()

    @pytest.mark.parametrize("case", [
        ("near_frontier", (2, 40, 2), (40, 2, 2, 2), StagePriority.FIRST_STAGE, 38),
        ("dispersed", (3, 150, 0), (150, 3, 2, 2), StagePriority.SECOND_STAGE, 25),
        ("dispersed", 100, (100, 3, 2, 2), StagePriority.SECOND_STAGE, 89),
        *(("dispersed", 0, (n, 5, 3, 3), priority, k)
          for n, k in ((100, 79), (1000, 110)) for priority in StagePriority),
    ])
    def test_stage_priority_matches_highs(self, case):
        # The pinned LP of the first two DMUs ended in numerical_failure
        # with every ratio row. The third's pinned dual ended in
        # numerical_failure before the duals took a start. On the wide
        # sets, D80's SECOND_STAGE pinned dual still ends in
        # numerical_failure from its start and is solved again in
        # multiplier form; D111 is of the largest wide set. Both scores
        # against HiGHS on the LPs with all 2n stage rows.
        generator, seed, shape, priority, k = case
        X, Z, Y = getattr(_perfbench_generate(), generator)(np.random.default_rng(seed), *shape)
        ids = tuple(f"D{j + 1}" for j in range(len(X)))
        assert_split_matches_highs(Dataset(ids, ids, X, Z, Y), k, priority)


def test_lp_system_built_once_and_read_only():
    data = load_dataset(bundled_dataset_path())
    assert "_lp_system" not in vars(data)  # parsing builds nothing
    system = data._lp_system
    blocks = dict(system.blocks)  # one ratio block per chain
    assert set(blocks) == {"uv", "uw", "wv", "uwv"}
    run_full_analysis(data)
    solve_ccr(data, 0)
    solve_stage_independent(data, 1, StagePriority.FIRST_STAGE)
    solve_stage_priority(data, 2)
    assert data._lp_system is system
    assert all(system.blocks[chain] is block for chain, block in blocks.items())
    for arr in (*system.normalized.values(), *system.ratio_rows.values(),
                *system.blocks.values()):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
