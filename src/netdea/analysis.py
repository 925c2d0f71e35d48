"""Ranked score tables and cross-model rank statistics.

Scores from the DEA models are turned into dense rankings (rank 1 is the
best score; values within a small tolerance share a rank; the next distinct
value takes the next integer, so a three-way tie at the top is followed by
rank 2, not rank 4). Two tie-free rankings are compared with Spearman's
rank correlation in its classic difference form,

    rho = 1 - 6 * sum(d_j^2) / (n * (n^2 - 1)),   d = ranks_a - ranks_b,

which is exact only without ties; tied inputs are rejected rather than
silently switching to the Pearson-on-ranks variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DmuSetMismatchError,
    LengthMismatchError,
    TiesPresentError,
    ValidationError,
)
from .models import EfficiencyRecord, SolverConfig

#: Scores closer than this share a rank: half a unit in the table's last
#: decimal (dataset_io.SCORE_DECIMALS), so ranks agree with the printed table.
DEFAULT_RANK_TIE_TOL = 5e-5


@dataclass(frozen=True, eq=False)
class RankTable:
    """One score column with its dense ranks, aligned with dmu_ids."""

    dmu_ids: tuple
    scores: np.ndarray
    ranks: np.ndarray

    def __post_init__(self):
        ids = tuple(self.dmu_ids)
        scores = np.array(self.scores, dtype=float)
        ranks = np.array(self.ranks, dtype=int)
        if not (len(ids) == scores.shape[0] == ranks.shape[0]):
            raise LengthMismatchError(
                f"ids/scores/ranks lengths differ: "
                f"{len(ids)}/{scores.shape[0]}/{ranks.shape[0]}"
            )
        if ranks.size and ranks.min() < 1:
            raise ValidationError("ranks must be positive integers")
        scores.setflags(write=False)
        ranks.setflags(write=False)
        object.__setattr__(self, "dmu_ids", ids)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "ranks", ranks)

    def __len__(self) -> int:
        return len(self.dmu_ids)


@dataclass(frozen=True, eq=False)
class RelationalTable:
    """Overall, stage-1, and stage-2 columns of the relational model,
    each ranked independently, over one shared DMU ordering."""

    overall: RankTable
    stage1: RankTable
    stage2: RankTable

    def __post_init__(self):
        if not (self.overall.dmu_ids == self.stage1.dmu_ids == self.stage2.dmu_ids):
            raise DmuSetMismatchError("relational columns cover different DMU orderings")

    @property
    def dmu_ids(self) -> tuple:
        return self.overall.dmu_ids


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Everything a rendered comparison needs: the relational table, the
    CCR table, rho between their overall rank columns (None when either
    ranking has ties), and the config the scores were produced under."""

    relational_table: RelationalTable
    ccr_table: RankTable
    spearman_rho: float | None
    config_echo: SolverConfig

    def __post_init__(self):
        if self.relational_table.dmu_ids != self.ccr_table.dmu_ids:
            raise DmuSetMismatchError(
                "relational and CCR tables cover different DMU orderings"
            )
        if self.spearman_rho is not None and not -1.0 <= self.spearman_rho <= 1.0:
            raise ValidationError(f"spearman_rho {self.spearman_rho} outside [-1, 1]")


def dense_rank(scores, tie_tol: float = DEFAULT_RANK_TIE_TOL) -> np.ndarray:
    """Dense descending ranks of `scores`; ties within tie_tol share a rank.

    Clusters form against their leader: walking scores in descending order,
    a value joins the current cluster iff the cluster's maximum exceeds it
    by at most tie_tol, so membership does not drift through chains and the
    result is independent of the input ordering.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-d, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if tie_tol < 0:
        raise ValueError(f"tie_tol must be nonnegative, got {tie_tol}")
    if scores.size == 0:
        return np.zeros(0, dtype=int)

    order = np.argsort(-scores, kind="stable")
    ranks = np.zeros(scores.size, dtype=int)
    rank = 1
    leader = scores[order[0]]
    for idx in order:
        if leader - scores[idx] > tie_tol:
            rank += 1
            leader = scores[idx]
        ranks[idx] = rank
    return ranks


def _as_rank_vector(label: str, values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{label} must be 1-d, got shape {arr.shape}")
    # Finiteness first: casting nan or inf to int warns.
    if (not np.all(np.isfinite(np.asarray(arr, dtype=float)))
            or np.any(np.rint(arr) != arr)):
        raise ValueError(f"{label} must contain integer ranks")
    return arr.astype(int)


def spearman_rank_correlation(ranks_a, ranks_b) -> float:
    """Spearman's rho between two tie-free rank vectors.

    Uses the difference form 1 - 6*sum(d^2)/(n(n^2-1)), valid only when
    both vectors are permutations of 1..n. Raises LengthMismatchError for
    unequal lengths, TiesPresentError when either vector repeats a rank,
    and ValueError when the tie-free ranks still are not 1..n.
    """
    a = _as_rank_vector("ranks_a", ranks_a)
    b = _as_rank_vector("ranks_b", ranks_b)
    if a.size != b.size:
        raise LengthMismatchError(
            f"rank vectors differ in length: {a.size} vs {b.size}"
        )
    n = a.size
    if n < 2:
        raise ValueError(f"need at least 2 ranks, got {n}")
    for label, vec in (("ranks_a", a), ("ranks_b", b)):
        if np.unique(vec).size != n:
            raise TiesPresentError(
                f"{label} contains tied ranks; the difference-form rho "
                f"is undefined with ties"
            )
        if not np.array_equal(np.sort(vec), np.arange(1, n + 1)):
            raise ValueError(f"{label} is not a permutation of 1..{n}")
    d = a - b
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def _score_of(record: EfficiencyRecord, field: str) -> float:
    value = getattr(record, field)
    if value is None:
        raise ValidationError(f"DMU {record.dmu_id} record has no {field} score")
    return float(value)


def _unique_ids(records, label: str) -> tuple:
    ids = tuple(r.dmu_id for r in records)
    if len(set(ids)) != len(ids):
        raise DmuSetMismatchError(f"duplicate DMU ids in {label} records")
    return ids


def build_report(relational, ccr, cfg: SolverConfig | None = None,
                 tie_tol: float = DEFAULT_RANK_TIE_TOL) -> AnalysisReport:
    """Assemble ranked tables and rho from per-DMU efficiency records.

    Both record lists must cover the same DMU ids (any order); the
    relational list fixes the row order and the CCR records are aligned to
    it. Each score column is ranked with dense_rank. rho compares the
    overall rank column against the CCR rank column and is stored as None
    when either column contains ties, since the difference form does not
    apply then.
    """
    cfg = cfg or SolverConfig()
    rel_ids = _unique_ids(relational, "relational")
    ccr_ids = _unique_ids(ccr, "CCR")
    if set(rel_ids) != set(ccr_ids):
        missing = set(rel_ids) ^ set(ccr_ids)
        raise DmuSetMismatchError(
            f"relational and CCR records cover different DMU sets "
            f"(mismatched: {sorted(missing)})"
        )
    ccr_by_id = {r.dmu_id: r for r in ccr}
    ccr_aligned = [ccr_by_id[i] for i in rel_ids]

    columns = {
        field: np.array([_score_of(r, field) for r in relational])
        for field in ("overall", "stage1", "stage2")
    }
    ccr_scores = np.array([_score_of(r, "overall") for r in ccr_aligned])

    tables = {
        field: RankTable(rel_ids, scores, dense_rank(scores, tie_tol))
        for field, scores in columns.items()
    }
    ccr_table = RankTable(rel_ids, ccr_scores, dense_rank(ccr_scores, tie_tol))

    try:
        rho = spearman_rank_correlation(tables["overall"].ranks, ccr_table.ranks)
    except TiesPresentError:
        rho = None

    return AnalysisReport(
        relational_table=RelationalTable(
            overall=tables["overall"], stage1=tables["stage1"], stage2=tables["stage2"]
        ),
        ccr_table=ccr_table,
        spearman_rho=rho,
        config_echo=cfg,
    )
