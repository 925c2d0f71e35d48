"""Acceptance gate for the whole package.

Ten checks, one test each, in four groups: golden regression values for the
bundled 13-DMU dataset (scores, ranks, rank correlation), structural
properties on random datasets (product identity, dominance, efficient-DMU
stages), robustness (units invariance, epsilon sensitivity), and solver
equivalence against the brute-force vertex-enumeration oracle. Each test
prints a single pass line naming its check.
"""

import time

import numpy as np
import pytest

from netdea import SolverConfig, build_report, run_full_analysis, solve_lp
from netdea.analysis import spearman_rank_correlation
from netdea.lp_core import SolveStatus

DMU_IDS = tuple(f"D{i}" for i in range(1, 14))

REFERENCE_OVERALL = np.array([0.4973, 0.0135, 0.1235, 0.0041, 0.0568, 0.0507,
                              0.0025, 0.0090, 0.0145, 0.0268, 0.0084, 0.0082,
                              0.0007])
REFERENCE_OVERALL_RANKS = [1, 7, 2, 11, 3, 4, 12, 8, 6, 5, 9, 10, 13]

REFERENCE_STAGE1 = np.array([0.4973, 0.2668, 0.7147, 0.5529, 0.6857, 0.3417,
                             1.0, 0.5934, 0.9809, 0.7703, 1.0, 0.5064, 1.0])
REFERENCE_STAGE1_RANKS = [9, 11, 4, 7, 5, 10, 1, 6, 2, 3, 1, 8, 1]

REFERENCE_STAGE2 = np.array([1.0, 0.0506, 0.1728, 0.0074, 0.0823, 0.1485,
                             0.0025, 0.0152, 0.0148, 0.0348, 0.0084, 0.0163,
                             0.0007])

# D13's reference CCR score is printed as "0052" (dropped "0."); it is
# compared against 0.0052 like every other entry.
REFERENCE_CCR = np.array([1.0, 0.0327, 0.4067, 0.0162, 0.2666, 0.2377,
                          0.0064, 0.0357, 0.0347, 0.1639, 0.0342, 0.0514,
                          0.0052])
REFERENCE_CCR_RANKS = [1, 10, 2, 11, 3, 4, 12, 7, 8, 5, 9, 6, 13]

SCORE_TOL = 0.005
RHO_REFERENCE = 0.91758


def run_pipeline(data, cfg):
    start = time.perf_counter()
    relational, ccr = run_full_analysis(data, cfg)
    report = build_report(relational, ccr, cfg)
    elapsed = time.perf_counter() - start
    return report, relational, ccr, elapsed


@pytest.fixture(scope="module")
def pipeline_default(table1):
    return run_pipeline(table1, SolverConfig())


@pytest.fixture(scope="module")
def pipeline_small_epsilon(table1):
    return run_pipeline(table1, SolverConfig(epsilon=1e-5))


@pytest.fixture(scope="module")
def random_sweep(make_random_dataset):
    """200 random datasets (n <= 10, columns <= 3), solved once and shared
    by the property checks; every fourth has a planted two-stage-efficient
    DMU so the efficient case is actually exercised."""
    rng = np.random.default_rng(20240901)
    results = []
    for i in range(200):
        data = make_random_dataset(rng, plant_efficient=(i % 4 == 0))
        relational, ccr = run_full_analysis(data, SolverConfig())
        results.append((relational, ccr))
    return results


def check_golden_tables(report):
    assert report.dmu_ids == DMU_IDS
    np.testing.assert_allclose(report.overall.scores, REFERENCE_OVERALL,
                               rtol=0, atol=SCORE_TOL)
    assert report.overall.ranks.tolist() == REFERENCE_OVERALL_RANKS

    np.testing.assert_allclose(report.stage1.scores, REFERENCE_STAGE1,
                               rtol=0, atol=SCORE_TOL)
    np.testing.assert_allclose(report.stage2.scores, REFERENCE_STAGE2,
                               rtol=0, atol=SCORE_TOL)
    assert report.stage1.ranks.tolist() == REFERENCE_STAGE1_RANKS
    for dmu in ("D7", "D11", "D13"):
        assert report.stage1.ranks[DMU_IDS.index(dmu)] == 1
    assert abs(report.stage2.scores[0] - 1.0) <= 1e-6

    assert abs(report.ccr.scores[0] - 1.0) <= 1e-6
    np.testing.assert_allclose(report.ccr.scores, REFERENCE_CCR,
                               rtol=0, atol=SCORE_TOL)
    assert report.ccr.ranks.tolist() == REFERENCE_CCR_RANKS

    d = np.array(REFERENCE_OVERALL_RANKS) - np.array(REFERENCE_CCR_RANKS)
    assert int(d @ d) == 30
    rho = spearman_rank_correlation(report.overall.ranks,
                                    report.ccr.ranks)
    assert rho == pytest.approx(RHO_REFERENCE, abs=1e-5)
    assert report.spearman_rho == pytest.approx(RHO_REFERENCE, abs=1e-5)


def test_01_golden_overall_scores_and_ranks(pipeline_default):
    report, _, _, elapsed = pipeline_default
    assert report.dmu_ids == DMU_IDS
    np.testing.assert_allclose(report.overall.scores, REFERENCE_OVERALL,
                               rtol=0, atol=SCORE_TOL)
    assert report.overall.ranks.tolist() == REFERENCE_OVERALL_RANKS
    assert elapsed < 1.0
    print(f"\nacceptance 01 overall scores/ranks (solved in {elapsed:.3f}s): PASS")


def test_02_golden_stage_scores_and_stage1_ties(pipeline_default):
    report, *_ = pipeline_default
    np.testing.assert_allclose(report.stage1.scores, REFERENCE_STAGE1,
                               rtol=0, atol=SCORE_TOL)
    np.testing.assert_allclose(report.stage2.scores, REFERENCE_STAGE2,
                               rtol=0, atol=SCORE_TOL)
    assert report.stage1.ranks.tolist() == REFERENCE_STAGE1_RANKS
    for dmu in ("D7", "D11", "D13"):
        assert report.stage1.ranks[DMU_IDS.index(dmu)] == 1
    assert abs(report.stage2.scores[0] - 1.0) <= 1e-6
    print("\nacceptance 02 stage scores and stage-1 ties: PASS")


def test_03_golden_ccr_scores_and_ranks(pipeline_default):
    report, *_ = pipeline_default
    assert abs(report.ccr.scores[0] - 1.0) <= 1e-6
    np.testing.assert_allclose(report.ccr.scores, REFERENCE_CCR,
                               rtol=0, atol=SCORE_TOL)
    assert report.ccr.ranks.tolist() == REFERENCE_CCR_RANKS
    print("\nacceptance 03 CCR scores/ranks: PASS")


def test_04_rank_correlation(pipeline_default):
    report, *_ = pipeline_default
    d = (np.asarray(report.overall.ranks)
         - np.asarray(report.ccr.ranks))
    assert int(d @ d) == 30
    assert report.spearman_rho == pytest.approx(
        1 - 6 * 30 / (13 * (13 * 13 - 1)), abs=1e-12)
    assert report.spearman_rho == pytest.approx(RHO_REFERENCE, abs=1e-5)
    print("\nacceptance 04 rank correlation 0.91758: PASS")


def test_05_product_identity(pipeline_default, random_sweep):
    _, relational, _, _ = pipeline_default
    checked = 0
    for records in [relational] + [rel for rel, _ in random_sweep]:
        for record in records:
            assert abs(record.overall - record.stage1 * record.stage2) <= 1e-6
            checked += 1
    print(f"\nacceptance 05 product identity on {checked} solves: PASS")


def test_06_dominance_and_sandwich(pipeline_default, random_sweep):
    _, relational, ccr, _ = pipeline_default
    checked = 0
    for rel_records, ccr_records in [(relational, ccr)] + random_sweep:
        for rel_record, ccr_record in zip(rel_records, ccr_records):
            assert rel_record.dmu_id == ccr_record.dmu_id
            assert rel_record.overall <= ccr_record.overall + 1e-9
            assert rel_record.overall <= min(rel_record.stage1,
                                             rel_record.stage2) + 1e-9
            checked += 1
    print(f"\nacceptance 06 dominance/sandwich on {checked} solves: PASS")


def test_07_efficient_dmus_have_efficient_stages(random_sweep):
    efficient = 0
    for relational, _ in random_sweep:
        for record in relational:
            if record.overall >= 1.0 - 1e-9:
                assert record.stage1 >= 1.0 - 1e-6
                assert record.stage2 >= 1.0 - 1e-6
                efficient += 1
    assert efficient >= 50  # the planted DMUs must actually trigger the case
    print(f"\nacceptance 07 stage efficiency of {efficient} efficient DMUs: PASS")


def test_08_units_invariance(table1, pipeline_default):
    from netdea import Dataset

    report, *_ = pipeline_default
    base = np.vstack([
        report.overall.scores,
        report.stage1.scores,
        report.stage2.scores,
        report.ccr.scores,
    ])
    matrices = {"X": table1.X, "Z": table1.Z, "Y": table1.Y}
    for role, matrix in matrices.items():
        for col in range(matrix.shape[1]):
            for factor in (1e3, 1e-3):
                scaled = {k: v.copy() for k, v in matrices.items()}
                scaled[role][:, col] *= factor
                data = Dataset(table1.dmu_ids, table1.dmu_names,
                               scaled["X"], scaled["Z"], scaled["Y"])
                rep, *_ = run_pipeline(data, SolverConfig())
                got = np.vstack([
                    rep.overall.scores,
                    rep.stage1.scores,
                    rep.stage2.scores,
                    rep.ccr.scores,
                ])
                np.testing.assert_allclose(got, base, rtol=0, atol=1e-6)
    print("\nacceptance 08 units invariance under column rescaling: PASS")


def test_09_simplex_matches_vertex_oracle(lp_oracle, make_random_lp):
    rng = np.random.default_rng(20240902)
    by_status = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(500):
        problem = make_random_lp(rng, max_vars=4, max_constraints=4)
        expected_status, expected_value = lp_oracle(problem)
        sol = solve_lp(problem)
        assert sol.status is not SolveStatus.NUMERICAL_FAILURE
        got = {SolveStatus.OPTIMAL: "optimal",
               SolveStatus.INFEASIBLE: "infeasible",
               SolveStatus.UNBOUNDED: "unbounded"}[sol.status]
        assert got == expected_status
        if expected_status == "optimal":
            assert sol.objective_value == pytest.approx(expected_value,
                                                        abs=1e-7, rel=1e-7)
        by_status[got] += 1
    assert min(by_status.values()) > 0
    print(f"\nacceptance 09 simplex vs oracle on 500 LPs {by_status}: PASS")


def test_10_epsilon_robustness(pipeline_small_epsilon):
    report, *_ = pipeline_small_epsilon
    check_golden_tables(report)
    print("\nacceptance 10 golden checks repeated at epsilon=1e-5: PASS")
