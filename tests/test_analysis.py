"""Dense ranking, Spearman correlation, and report assembly."""

import warnings

import numpy as np
import pytest

from netdea import AnalysisReport, EfficiencyRecord, SolverConfig, build_report
from netdea.analysis import (
    RANK_TIE_TOL,
    RankTable,
    dense_rank,
    spearman_rank_correlation,
)
from netdea.errors import (
    DmuSetMismatchError,
    LengthMismatchError,
    TiesPresentError,
    ValidationError,
)


def relational_record(dmu_id, overall, stage1, stage2):
    return EfficiencyRecord(dmu_id, overall=overall, stage1=stage1, stage2=stage2)


def ccr_record(dmu_id, score):
    return EfficiencyRecord(dmu_id, overall=score)


class TestDenseRank:
    def test_leading_ties_then_dense_continuation(self):
        got = dense_rank([1.0, 1.0, 1.0, 0.9809, 0.7703])
        assert got.tolist() == [1, 1, 1, 2, 3]

    def test_strictly_decreasing(self):
        assert dense_rank([0.3, 0.2, 0.1]).tolist() == [1, 2, 3]

    def test_full_tie(self):
        assert dense_rank([5.0, 5.0]).tolist() == [1, 1]

    def test_empty(self):
        assert dense_rank([]).tolist() == []

    def test_unsorted_input(self):
        assert dense_rank([0.2, 0.9, 0.5]).tolist() == [3, 1, 2]

    def test_tie_tolerance_boundary(self):
        tol = RANK_TIE_TOL
        assert tol == 5e-5  # half a unit in the last of 4 printed decimals
        assert dense_rank([1.0, 1.0 - 0.8 * tol, 0.5]).tolist() == [1, 1, 2]
        assert dense_rank([1.0, 1.0 - 1.2 * tol, 0.5]).tolist() == [1, 2, 3]

    def test_clusters_compare_against_leader(self):
        # chain 1.0, 0.99996, 0.99992: third is within tol of second but
        # not of the cluster leader, so it starts a new rank
        tol = RANK_TIE_TOL
        got = dense_rank([1.0, 1.0 - 0.8 * tol, 1.0 - 1.6 * tol])
        assert got.tolist() == [1, 1, 2]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(19)
        scores = rng.uniform(0, 1, size=12)
        scores[3] = scores[7]  # force one exact tie
        base = dense_rank(scores)
        for _ in range(10):
            perm = rng.permutation(scores.size)
            assert dense_rank(scores[perm]).tolist() == base[perm].tolist()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            dense_rank([1.0, np.nan])


class TestSpearman:
    def test_identity_is_exactly_one(self):
        ranks = [4, 2, 1, 3, 5]
        assert spearman_rank_correlation(ranks, ranks) == 1.0

    def test_reversal_is_minus_one(self):
        n = 9
        forward = list(range(1, n + 1))
        assert spearman_rank_correlation(forward, forward[::-1]) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        # d = (-1, 1, 0), sum d^2 = 2, rho = 1 - 12/24 = 0.5
        assert spearman_rank_correlation([1, 2, 3], [2, 1, 3]) == pytest.approx(0.5)

    def test_thirteen_dmu_rank_vectors(self):
        a = [1, 7, 2, 11, 3, 4, 12, 8, 6, 5, 9, 10, 13]
        b = [1, 10, 2, 11, 3, 4, 12, 7, 8, 5, 9, 6, 13]
        d = np.array(a) - np.array(b)
        assert int(d @ d) == 30
        rho = spearman_rank_correlation(a, b)
        assert rho == pytest.approx(1 - 6 * 30 / (13 * 168), abs=1e-12)
        assert rho == pytest.approx(0.91758, abs=1e-5)

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(23)
        a = rng.permutation(8) + 1
        b = rng.permutation(8) + 1
        assert spearman_rank_correlation(a, b) == spearman_rank_correlation(b, a)
        perm = rng.permutation(8)
        assert spearman_rank_correlation(a[perm], b[perm]) == pytest.approx(
            spearman_rank_correlation(a, b), abs=1e-15
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            spearman_rank_correlation([1, 2], [1, 2, 3])

    def test_ties_rejected(self):
        with pytest.raises(TiesPresentError):
            spearman_rank_correlation([1, 1, 2], [1, 2, 3])
        with pytest.raises(TiesPresentError):
            spearman_rank_correlation([1, 2, 3], [3, 3, 1])

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            spearman_rank_correlation([1, 2, 4], [1, 2, 3])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            spearman_rank_correlation([1.0, 2.5, 3.0], [1, 2, 3])

    def test_non_finite_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="integer"):
                spearman_rank_correlation([1, np.nan, 3], [1, 2, 3])

    def test_rank_beyond_int64_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="integer"):
                spearman_rank_correlation([1, 1e300, 3], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            spearman_rank_correlation([1], [1])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match=r"must be 1-d, got shape \(2, 2\)"):
            spearman_rank_correlation([[1, 2], [2, 1]], [1, 2, 3, 4])


class TestRankTable:
    @pytest.mark.parametrize("scores", [[0.5, 0.4, 0.9], [1.0, 0.7, 1.0, 0.7],
                                        [0.3, 0.3 - RANK_TIE_TOL / 2, 0.1], []])
    def test_ranks_are_dense_rank_of_scores(self, scores):
        assert RankTable(scores).ranks.tolist() == dense_rank(scores).tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RankTable([0.5, bad])

    def test_scores_must_match_rank_shape(self):
        # ranks are one per DMU, so scores must be 1-d
        with pytest.raises(ValueError, match="1-d"):
            RankTable([[0.5], [0.4]])
        with pytest.raises(ValueError, match="1-d"):
            RankTable([[0.5, 0.4]])

    def test_stores_read_only_copies(self):
        scores = np.array([0.5, 0.4])
        table = RankTable(scores)
        scores[0] = 0.1
        assert table.scores.tolist() == [0.5, 0.4]
        assert table.ranks.tolist() == [1, 2]
        with pytest.raises(ValueError):
            table.scores[0] = 0.3
        with pytest.raises(ValueError):
            table.ranks[0] = 3


class TestBuildReport:
    def test_hand_computed_three_dmus(self):
        relational = [
            relational_record("A", 0.30, 0.6, 0.5),
            relational_record("B", 0.08, 0.4, 0.2),
            relational_record("C", 0.14, 0.2, 0.7),
        ]
        ccr = [ccr_record("A", 0.9), ccr_record("B", 0.5), ccr_record("C", 0.3)]
        report = build_report(relational, ccr, SolverConfig())
        assert report.dmu_ids == ("A", "B", "C")
        assert report.overall.ranks.tolist() == [1, 3, 2]
        assert report.stage1.ranks.tolist() == [1, 2, 3]
        assert report.stage2.ranks.tolist() == [2, 3, 1]
        assert report.ccr.ranks.tolist() == [1, 2, 3]
        # rho by hand: d = (0, 1, -1), sum d^2 = 2, 1 - 12/24 = 0.5
        assert report.spearman_rho == pytest.approx(0.5)

    def test_ccr_records_aligned_by_id(self):
        relational = [
            relational_record("A", 0.30, 0.6, 0.5),
            relational_record("B", 0.08, 0.4, 0.2),
        ]
        ccr = [ccr_record("B", 0.5), ccr_record("A", 0.9)]  # reversed order
        report = build_report(relational, ccr)
        assert report.dmu_ids == ("A", "B")
        assert report.ccr.scores.tolist() == [0.9, 0.5]

    def test_identical_rankings_give_rho_one(self):
        relational = [
            relational_record("A", 0.30, 0.6, 0.5),
            relational_record("B", 0.08, 0.4, 0.2),
        ]
        ccr = [ccr_record("A", 0.9), ccr_record("B", 0.5)]
        assert build_report(relational, ccr).spearman_rho == 1.0

    def test_tied_overall_scores_give_rho_none(self):
        relational = [
            relational_record("A", 0.30, 0.6, 0.5),
            relational_record("B", 0.30, 0.4, 0.75),
            relational_record("C", 0.14, 0.2, 0.7),
        ]
        ccr = [ccr_record("A", 0.9), ccr_record("B", 0.5), ccr_record("C", 0.3)]
        report = build_report(relational, ccr)
        assert report.spearman_rho is None
        assert report.overall.ranks.tolist() == [1, 1, 2]

    def test_dmu_set_mismatch(self):
        relational = [
            relational_record("A", 0.30, 0.6, 0.5),
            relational_record("B", 0.08, 0.4, 0.2),
        ]
        ccr = [ccr_record("A", 0.9), ccr_record("X", 0.5)]
        with pytest.raises(DmuSetMismatchError, match="X"):
            build_report(relational, ccr)

    def test_duplicate_ids_rejected(self):
        relational = [
            relational_record("A", 0.30, 0.6, 0.5),
            relational_record("A", 0.08, 0.4, 0.2),
        ]
        ccr = [ccr_record("A", 0.9), ccr_record("B", 0.5)]
        with pytest.raises(DmuSetMismatchError, match="duplicate"):
            build_report(relational, ccr)

    def test_missing_scores_rejected(self):
        relational = [
            relational_record("A", 0.30, 0.6, 0.5),
            EfficiencyRecord("B", overall=0.08),
        ]
        ccr = [ccr_record("A", 0.9), ccr_record("B", 0.5)]
        with pytest.raises(ValidationError, match="stage1"):
            build_report(relational, ccr)

    @pytest.mark.parametrize("relational,ccr", [
        ([relational_record("A", 0.5, 0.5, 1.0)], [ccr_record("A", 0.6)]),
        ([], []),
    ])
    def test_fewer_than_two_dmus_rejected(self, relational, ccr):
        with pytest.raises(ValidationError,
                           match=f"^need at least 2 DMUs, got {len(relational)}$"):
            build_report(relational, ccr)

    def test_report_invariants(self):
        table = RankTable([0.9, 0.5])
        short = RankTable([0.9])
        columns = dict(overall=table, stage1=table, stage2=table, ccr=table)
        for name in columns:
            with pytest.raises(LengthMismatchError, match=f"^{name} column has 1 rows"):
                AnalysisReport(("A", "B"), **{**columns, name: short},
                               spearman_rho=None, config_echo=SolverConfig())
        with pytest.raises(ValidationError, match="spearman"):
            AnalysisReport(("A", "B"), **columns, spearman_rho=1.5,
                           config_echo=SolverConfig())
        report = AnalysisReport(["A", "B"], **columns, spearman_rho=1.0,
                                config_echo=SolverConfig())
        assert report.dmu_ids == ("A", "B")
