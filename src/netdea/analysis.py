"""Ranked score columns and cross-model rank statistics.

Scores from the DEA models are turned into dense rankings (rank 1 is the
best score; values within RANK_TIE_TOL share a rank; the next distinct
value takes the next integer, so a three-way tie at the top is followed by
rank 2, not rank 4). An AnalysisReport stores the DMU ids once and the
ranked columns SECTIONS names, in that order: the relational overall,
stage-1 and stage-2 scores and the CCR score. Two tie-free rankings are
compared with Spearman's rank correlation in its classic difference form,

    rho = 1 - 6 * sum(d_j^2) / (n * (n^2 - 1)),   d = ranks_a - ranks_b,

which is exact only without ties; tied inputs are rejected rather than
silently switching to the Pearson-on-ranks variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DmuSetMismatchError,
    LengthMismatchError,
    TiesPresentError,
    ValidationError,
)
from .models import EfficiencyRecord, SolverConfig

#: Decimals of the scores in the table format.
SCORE_DECIMALS = 4

#: Scores closer than this share a rank: half a unit in the table's last
#: decimal, so ranks agree with the printed table.
RANK_TIE_TOL = 0.5 * 10.0**-SCORE_DECIMALS

#: Report section -> its ranked columns, the AnalysisReport fields, in
#: display order.
SECTIONS = {"relational": ("overall", "stage1", "stage2"), "ccr": ("ccr",)}


@dataclass(frozen=True, eq=False)
class RankTable:
    """One score column and its dense_rank ranks, in the report's DMU order."""

    scores: np.ndarray
    ranks: np.ndarray = field(init=False)

    def __post_init__(self):
        scores = np.array(self.scores, dtype=float)
        ranks = dense_rank(scores)
        scores.setflags(write=False)
        ranks.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "ranks", ranks)


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Everything a rendered comparison needs: the DMU ids, the columns of
    SECTIONS, rho between the overall and CCR rank columns (None when
    either ranking has ties), and the config the scores were produced
    under."""

    dmu_ids: tuple
    overall: RankTable
    stage1: RankTable
    stage2: RankTable
    ccr: RankTable
    spearman_rho: float | None
    config_echo: SolverConfig

    def __post_init__(self):
        ids = tuple(self.dmu_ids)
        for name in sum(SECTIONS.values(), ()):
            size = getattr(self, name).scores.size
            if size != len(ids):
                raise LengthMismatchError(
                    f"{name} column has {size} rows for {len(ids)} DMUs"
                )
        if self.spearman_rho is not None and not -1.0 <= self.spearman_rho <= 1.0:
            raise ValidationError(f"spearman_rho {self.spearman_rho} outside [-1, 1]")
        object.__setattr__(self, "dmu_ids", ids)


def dense_rank(scores) -> np.ndarray:
    """Dense descending ranks of `scores`; ties within RANK_TIE_TOL share a
    rank.

    Clusters form against their leader: walking scores in descending order,
    a value joins the current cluster iff the cluster's maximum exceeds it
    by at most RANK_TIE_TOL, so membership does not drift through chains
    and the result is independent of the input ordering.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-d, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if scores.size == 0:
        return np.zeros(0, dtype=int)

    order = np.argsort(-scores, kind="stable")
    ranks = np.zeros(scores.size, dtype=int)
    rank = 1
    leader = scores[order[0]]
    for idx in order:
        if leader - scores[idx] > RANK_TIE_TOL:
            rank += 1
            leader = scores[idx]
        ranks[idx] = rank
    return ranks


def _as_rank_vector(label: str, values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{label} must be 1-d, got shape {arr.shape}")
    # Range first: casting nan, inf or a value beyond int64 to int warns.
    if (not np.all(np.abs(np.asarray(arr, dtype=float)) < 2.0**63)
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


def _score_of(record: EfficiencyRecord, name: str) -> float:
    value = getattr(record, name)
    if value is None:
        raise ValidationError(f"DMU {record.dmu_id} record has no {name} score")
    return float(value)


def _unique_ids(records, label: str) -> tuple:
    ids = tuple(r.dmu_id for r in records)
    if len(set(ids)) != len(ids):
        raise DmuSetMismatchError(f"duplicate DMU ids in {label} records")
    return ids


def build_report(relational, ccr, cfg: SolverConfig | None = None) -> AnalysisReport:
    """Assemble the ranked columns and rho from per-DMU efficiency records.

    Both record lists must cover the same DMU ids (any order), at least 2
    of them, as a Dataset does; the relational list fixes the row order and
    the CCR records are aligned to it. Each score column is a RankTable.
    rho compares the overall rank column against the CCR rank column and
    is stored as None when either column contains ties, since the
    difference form does not apply then.
    """
    cfg = cfg or SolverConfig()
    rel_ids = _unique_ids(relational, "relational")
    if len(rel_ids) < 2:
        raise ValidationError(f"need at least 2 DMUs, got {len(rel_ids)}")
    ccr_ids = _unique_ids(ccr, "CCR")
    if set(rel_ids) != set(ccr_ids):
        missing = set(rel_ids) ^ set(ccr_ids)
        raise DmuSetMismatchError(
            f"relational and CCR records cover different DMU sets "
            f"(mismatched: {sorted(missing)})"
        )
    columns = {name: RankTable([_score_of(r, name) for r in relational])
               for name in SECTIONS["relational"]}
    ccr_by_id = {r.dmu_id: r for r in ccr}
    columns["ccr"] = RankTable([_score_of(ccr_by_id[i], "overall") for i in rel_ids])

    try:
        rho = spearman_rank_correlation(columns["overall"].ranks, columns["ccr"].ranks)
    except TiesPresentError:
        rho = None
    return AnalysisReport(rel_ids, **columns, spearman_rho=rho, config_echo=cfg)
