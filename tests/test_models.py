"""DEA model solves against closed-form ratio oracles and structural
properties (product identity, dominance, units invariance, error paths).

For single-column datasets (m = p = s = 1) every model has an exact
epsilon-free closed form: the CCR score of DMU k is (y_k/x_k) / max_j
(y_j/x_j), the relational overall divides by the product of the per-stage
maxima, and each prioritized stage score equals its independent CCR score.
Solver output is compared against these with a tiny epsilon.
"""

import numpy as np
import pytest

from netdea import (
    Dataset,
    EfficiencyRecord,
    SolverConfig,
    StagePriority,
    run_full_analysis,
    solve_ccr,
    solve_relational_overall,
    solve_stage_independent,
    solve_stage_priority,
)
from netdea.errors import (
    ConfigurationError,
    DecompositionError,
    DmuSolveError,
    SolverFailureError,
    ValidationError,
)
from netdea.lp_core import EQUAL, LESS_EQUAL
from netdea.models import (
    ModelKind,
    _ccr_lp,
    _normalized_matrices,
    decompose_efficiency,
)

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


class TestCcrClosedForm:
    def test_matches_ratio_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            data, x, z, y = single_column_dataset(rng, int(rng.integers(2, 11)))
            ratios = y / x
            for k in range(data.n):
                expected = ratios[k] / ratios.max()
                record = solve_ccr(data, k, cfg=TINY_EPS)
                assert record.model_kind is ModelKind.CCR
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
        assert first.stage1 is not None and first.stage2 is None
        assert second.stage2 is not None and second.stage1 is None
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
            first = solve_stage_priority(data, k, overall,
                                         StagePriority.FIRST_STAGE, TINY_EPS)
            second = solve_stage_priority(data, k, overall,
                                          StagePriority.SECOND_STAGE, TINY_EPS)
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
        overall = solve_relational_overall(table1, k, cfg)
        record = solve_stage_priority(table1, k, overall,
                                      StagePriority.SECOND_STAGE, cfg)
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
                overall = solve_relational_overall(data, k, cfg)
                record = solve_stage_priority(data, k, overall,
                                              cfg.stage_priority, cfg)
                ccr = solve_ccr(data, k, cfg=cfg)
                assert overall <= ccr.overall + 1e-9
                assert overall <= min(record.stage1, record.stage2) + 1e-9

    def test_dominant_dmu_is_efficient_in_both_stages(self, make_random_dataset):
        rng = np.random.default_rng(37)
        for _ in range(8):
            data = make_random_dataset(rng, plant_efficient=True)
            overall = solve_relational_overall(data, 0)
            assert overall == pytest.approx(1.0, abs=1e-9)
            record = solve_stage_priority(data, 0, overall,
                                          StagePriority.SECOND_STAGE)
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


class TestErrorPaths:
    def test_stale_overall_rejected(self):
        rng = np.random.default_rng(41)
        data, x, z, y = single_column_dataset(rng, 5)
        k = int(np.argmin((y / x)))  # worst DMU: true overall well below 1
        overall = solve_relational_overall(data, k, TINY_EPS)
        with pytest.raises(DecompositionError, match="not attainable"):
            solve_stage_priority(data, k, min(1.0, overall + 0.2),
                                 StagePriority.SECOND_STAGE, TINY_EPS)

    def test_oversized_epsilon_is_a_configuration_error(self, table1):
        with pytest.raises(ConfigurationError, match="epsilon"):
            solve_ccr(table1, 0, cfg=SolverConfig(epsilon=0.5))

    @pytest.mark.parametrize("normalize,expected", [
        (True, "for the normalized data"), (False, "for the data"),
    ])
    def test_oversized_epsilon_message_names_the_scaling(self, table1,
                                                         normalize, expected):
        cfg = SolverConfig(epsilon=0.5, normalize_columns=normalize)
        with pytest.raises(ConfigurationError) as excinfo:
            solve_ccr(table1, 0, cfg=cfg)
        assert str(excinfo.value).endswith(expected)

    def test_run_full_analysis_names_failing_dmu(self, table1):
        with pytest.raises(DmuSolveError) as excinfo:
            run_full_analysis(table1, SolverConfig(epsilon=0.5))
        assert excinfo.value.dmu_id in table1.dmu_ids

    def test_record_rejects_score_above_one(self):
        with pytest.raises(SolverFailureError, match="outside"):
            EfficiencyRecord("A", ModelKind.CCR, overall=1.001)

    def test_record_rejects_broken_product(self):
        with pytest.raises(SolverFailureError, match="deviates"):
            EfficiencyRecord("A", ModelKind.RELATIONAL_TWO_STAGE,
                             overall=0.5, stage1=0.9, stage2=0.9)

    def test_bad_index(self, table1):
        with pytest.raises(IndexError):
            solve_relational_overall(table1, 13)


class TestRunFullAnalysis:
    def test_record_shapes_and_order(self, table1):
        relational, ccr = run_full_analysis(table1)
        assert [r.dmu_id for r in relational] == list(table1.dmu_ids)
        assert [r.dmu_id for r in ccr] == list(table1.dmu_ids)
        for record in relational:
            assert record.model_kind is ModelKind.RELATIONAL_TWO_STAGE
            assert None not in (record.overall, record.stage1, record.stage2)
        for record in ccr:
            assert record.model_kind is ModelKind.CCR
            assert record.overall is not None

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


def reference_ccr_lp(inputs, outputs, k, epsilon):
    """Row-by-row CCR construction that _ccr_lp replaces with one hstack;
    the tests require the two to agree bit for bit, so pivots match."""
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


def _assert_same_lp(lp, reference):
    objective, matrix, senses, rhs, lower = reference
    assert np.array_equal(lp.objective, objective)
    assert np.array_equal(lp.constraint_matrix, matrix)
    assert lp.constraint_senses == senses
    assert np.array_equal(lp.rhs, rhs)
    assert np.array_equal(lp.variable_lower_bounds, lower)


class TestCcrLpReference:
    PAIRS = [("x", "y"), ("x", "z"), ("z", "y")]

    def _check(self, data, cfg):
        Xn, Zn, Yn = _normalized_matrices(data, cfg)
        by_role = {"x": Xn, "z": Zn, "y": Yn}
        for inputs_from, outputs_from in self.PAIRS:
            inputs, outputs = by_role[inputs_from], by_role[outputs_from]
            for k in range(data.n):
                _assert_same_lp(_ccr_lp(inputs, outputs, k, cfg.epsilon),
                                reference_ccr_lp(inputs, outputs, k, cfg.epsilon))

    def test_random_datasets(self, make_random_dataset):
        rng = np.random.default_rng(31)
        for _ in range(40):
            self._check(make_random_dataset(rng), SolverConfig())

    @pytest.mark.parametrize("normalize", [True, False])
    def test_bundled_data(self, table1, normalize):
        self._check(table1, SolverConfig(normalize_columns=normalize))
