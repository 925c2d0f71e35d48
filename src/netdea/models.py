"""Multiplier-form DEA models for a two-stage series production process.

A dataset holds n DMUs that consume m inputs (matrix X), turn them into p
intermediate products (matrix Z) in a first stage, and convert those into s
final outputs (matrix Y) in a second stage. Every model below is a small
linear program over nonnegative multiplier weights, one solve per evaluated
DMU:

* whole-process CCR ratio efficiency (inputs straight to outputs),
* independent per-stage CCR efficiencies (X -> Z and Z -> Y),
* the relational two-stage model, whose single LP carries both stages'
  ratio constraints with shared intermediate weights so that the overall
  score factors exactly into the product of the stage scores,
* stage-priority decomposition, which re-solves with the overall score
  pinned and one stage's efficiency maximized, the other obtained as the
  quotient.

Every weight is bounded below by a small epsilon so no factor can be
ignored. Because epsilon interacts with the scale of the data, each column
of X, Z, Y is divided by its maximum before the LPs are built (the ratio
models are units-invariant, so scores are unaffected); reported multipliers
refer to the normalized problem.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DecompositionError,
    DmuSolveError,
    SolverFailureError,
    ValidationError,
)
from .lp_core import (
    EQUAL,
    LESS_EQUAL,
    LinearProgram,
    LpSolution,
    SolveStatus,
    ToleranceSettings,
    solve_lp,
)

#: |overall - stage1 * stage2| must stay below this on every relational record.
PRODUCT_IDENTITY_TOL = 1e-6

#: Overall may exceed a fixed stage score by at most this much before the
#: quotient is rejected instead of clamped.
QUOTIENT_EXCESS_TOL = 1e-9

_SCORE_EXCESS_TOL = 1e-9


class StagePriority(enum.Enum):
    FIRST_STAGE = "first"
    SECOND_STAGE = "second"


class ModelKind(enum.Enum):
    CCR = "ccr"
    RELATIONAL_TWO_STAGE = "relational_two_stage"
    INDEPENDENT_STAGES = "independent_stages"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable n-DMU dataset: inputs X (n x m), intermediates Z (n x p),
    outputs Y (n x s), with unique DMU ids and display names.

    All entries must be strictly positive; ratio models divide by weighted
    sums, so zeros are rejected at construction.
    """

    dmu_ids: tuple
    dmu_names: tuple
    X: np.ndarray
    Z: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        ids = tuple(str(i) for i in self.dmu_ids)
        names = tuple(str(v) for v in self.dmu_names)
        X = np.atleast_2d(np.array(self.X, dtype=float))
        Z = np.atleast_2d(np.array(self.Z, dtype=float))
        Y = np.atleast_2d(np.array(self.Y, dtype=float))
        n = len(ids)
        if n < 2:
            raise ValidationError(f"need at least 2 DMUs, got {n}")
        if len(set(ids)) != n:
            raise ValidationError("dmu_ids must be unique")
        if len(names) != n:
            raise ValidationError(f"got {len(names)} names for {n} DMUs")
        for label, mat in (("X", X), ("Z", Z), ("Y", Y)):
            if mat.shape[0] != n:
                raise ValidationError(f"{label} has {mat.shape[0]} rows, expected {n}")
            if mat.shape[1] < 1:
                raise ValidationError(f"{label} needs at least one column")
            if not np.all(np.isfinite(mat)):
                raise ValidationError(f"{label} contains non-finite entries")
            if np.any(mat <= 0):
                r, c = np.argwhere(mat <= 0)[0]
                raise ValidationError(
                    f"{label}[{ids[r]}, column {c + 1}] = {mat[r, c]} must be strictly positive"
                )
            mat.setflags(write=False)
        object.__setattr__(self, "dmu_ids", ids)
        object.__setattr__(self, "dmu_names", names)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def p(self) -> int:
        return self.Z.shape[1]

    @property
    def s(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by every model solve.

    epsilon is the strictly positive lower bound applied to every multiplier
    in the (normalized) LPs. stage_priority picks which stage efficiency is
    maximized when decomposing the relational optimum; the default maximizes
    stage 2 first.
    """

    epsilon: float = 1e-6
    normalize_columns: bool = True
    stage_priority: StagePriority = StagePriority.SECOND_STAGE
    tolerances: ToleranceSettings = ToleranceSettings()

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigurationError(f"epsilon must be in (0, 1), got {self.epsilon}")


@dataclass(frozen=True, eq=False)
class Multipliers:
    """Optimal weights of a solve: u on inputs, w on intermediates, v on
    outputs. Slots a model does not use are None. Values refer to the
    column-normalized problem when normalization is on, and are generally
    not unique; scores are the contract, weights are for transparency only.
    """

    u: np.ndarray | None = None
    w: np.ndarray | None = None
    v: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class EfficiencyRecord:
    """Per-DMU scores of one model solve; unset fields are None."""

    dmu_id: str
    model_kind: ModelKind
    overall: float | None = None
    stage1: float | None = None
    stage2: float | None = None
    multipliers: Multipliers | None = None

    def __post_init__(self):
        for label, value in (("overall", self.overall), ("stage1", self.stage1),
                             ("stage2", self.stage2)):
            if value is not None and not (0.0 < value <= 1.0):
                raise SolverFailureError(
                    f"{label} efficiency {value} of DMU {self.dmu_id} is outside (0, 1]"
                )
        if (self.model_kind is ModelKind.RELATIONAL_TWO_STAGE
                and None not in (self.overall, self.stage1, self.stage2)):
            gap = abs(self.overall - self.stage1 * self.stage2)
            if gap > PRODUCT_IDENTITY_TOL:
                raise SolverFailureError(
                    f"DMU {self.dmu_id}: overall {self.overall} deviates from "
                    f"stage1*stage2 by {gap}"
                )


def _normalized_matrices(data: Dataset, cfg: SolverConfig):
    if not cfg.normalize_columns:
        return data.X, data.Z, data.Y
    return (data.X / data.X.max(axis=0),
            data.Z / data.Z.max(axis=0),
            data.Y / data.Y.max(axis=0))


def _check_index(data: Dataset, k: int) -> int:
    k = int(k)
    if not 0 <= k < data.n:
        raise IndexError(f"DMU index {k} out of range for {data.n} DMUs")
    return k


def _solve_or_raise(lp: LinearProgram, cfg: SolverConfig, context: str,
                    infeasible_exc=None) -> LpSolution:
    solution = solve_lp(lp, cfg.tolerances)
    if solution.status is SolveStatus.OPTIMAL:
        return solution
    if solution.status is SolveStatus.INFEASIBLE:
        if infeasible_exc is not None:
            raise infeasible_exc
        data_kind = "normalized data" if cfg.normalize_columns else "data"
        raise ConfigurationError(
            f"{context}: LP infeasible; epsilon={cfg.epsilon} is too large "
            f"for the {data_kind}"
        )
    raise SolverFailureError(f"{context}: solver returned {solution.status.value}")


def _clamp_score(value: float, context: str) -> float:
    if value > 1.0 + _SCORE_EXCESS_TOL or value <= 0.0:
        raise SolverFailureError(f"{context}: efficiency {value} is outside (0, 1]")
    return min(float(value), 1.0)


def _multiplier_lp(objective: np.ndarray, equalities, ratio_rows: np.ndarray,
                   epsilon: float) -> LinearProgram:
    """max objective . t  s.t.  row . t = rhs for each (row, rhs) in
    equalities, then ratio_rows @ t <= 0, and t >= epsilon."""
    eq_rows, eq_rhs = zip(*equalities)
    return LinearProgram(
        objective=objective,
        constraint_matrix=np.vstack([np.array(eq_rows), ratio_rows]),
        constraint_senses=(EQUAL,) * len(eq_rows) + (LESS_EQUAL,) * len(ratio_rows),
        rhs=np.concatenate([eq_rhs, np.zeros(len(ratio_rows))]),
        variable_lower_bounds=np.full(objective.shape[0], epsilon),
    )


def _ccr_lp(inputs: np.ndarray, outputs: np.ndarray, k: int, epsilon: float) -> LinearProgram:
    # Variables [a (input weights) | b (output weights)]:
    #   max  outputs[k] . b
    #   s.t. inputs[k] . a = 1
    #        outputs[j] . b - inputs[j] . a <= 0   for every j
    #        a, b >= epsilon
    m, s = inputs.shape[1], outputs.shape[1]
    return _multiplier_lp(
        np.concatenate([np.zeros(m), outputs[k]]),
        [(np.concatenate([inputs[k], np.zeros(s)]), 1.0)],
        np.hstack([-inputs, outputs]),
        epsilon,
    )


def _relational_lp(X, Z, Y, k: int, epsilon: float,
                   pinned_overall: float | None = None,
                   maximize_stage: StagePriority | None = None) -> LinearProgram:
    """Relational LP over [u | w | v].

    Without extras this is the overall model: max y_k.v subject to
    x_k.u = 1 and, for every DMU j, the three constraint families

        y_j . v - x_j . u <= 0   (whole process)
        z_j . w - x_j . u <= 0   (first stage)
        y_j . v - z_j . w <= 0   (second stage)

    With pinned_overall set, the overall score is held fixed through
    y_k.v = E * x_k.u and the requested stage efficiency becomes the
    objective; maximizing stage 2 swaps the normalization to z_k.w = 1.
    """
    n, m = X.shape
    p, s = Z.shape[1], Y.shape[1]
    u_pad = np.zeros(m)
    w_pad = np.zeros(p)
    v_pad = np.zeros(s)

    if maximize_stage is StagePriority.FIRST_STAGE:
        objective = np.concatenate([u_pad, Z[k], v_pad])
    else:
        objective = np.concatenate([u_pad, w_pad, Y[k]])
    if maximize_stage is StagePriority.SECOND_STAGE:
        normalization = np.concatenate([u_pad, Z[k], v_pad])
    else:
        normalization = np.concatenate([X[k], w_pad, v_pad])

    equalities = [(normalization, 1.0)]
    if pinned_overall is not None:
        equalities.append((np.concatenate([-pinned_overall * X[k], w_pad, Y[k]]), 0.0))

    families = np.vstack([
        np.hstack([-X, np.zeros((n, p)), Y]),
        np.hstack([-X, Z, np.zeros((n, s))]),
        np.hstack([np.zeros((n, m)), -Z, Y]),
    ])
    return _multiplier_lp(objective, equalities, families, epsilon)


def _split_multipliers(values: np.ndarray, m: int, p: int) -> Multipliers:
    return Multipliers(u=values[:m], w=values[m:m + p], v=values[m + p:])


def _ccr_record(data: Dataset, k: int, cfg: SolverConfig, inputs: str,
                outputs: str) -> EfficiencyRecord:
    """CCR record of DMU k; inputs and outputs name the two matrices by
    their Multipliers slot: "u" (X), "w" (Z) or "v" (Y)."""
    k = _check_index(data, k)
    by_slot = dict(zip("uwv", _normalized_matrices(data, cfg)))
    lp = _ccr_lp(by_slot[inputs], by_slot[outputs], k, cfg.epsilon)
    context = f"CCR model for DMU {data.dmu_ids[k]}"
    sol = _solve_or_raise(lp, cfg, context)
    split = by_slot[inputs].shape[1]
    weights = {inputs: sol.variable_values[:split],
               outputs: sol.variable_values[split:]}
    return EfficiencyRecord(
        dmu_id=data.dmu_ids[k],
        model_kind=ModelKind.CCR,
        overall=_clamp_score(sol.objective_value, context),
        multipliers=Multipliers(**weights),
    )


def solve_ccr(data: Dataset, k: int,
              cfg: SolverConfig | None = None) -> EfficiencyRecord:
    """Whole-process CCR ratio efficiency of DMU k (X -> Y), ignoring the
    intermediate products.

    The optimum of

        max  sum_r y_rk * v_r   s.t.  sum_i x_ik * u_i = 1,
        sum_r y_rj * v_r - sum_i x_ij * u_i <= 0 for all j,  u, v >= eps

    is the best weighted-output to weighted-input ratio normalized so no DMU
    exceeds 1. Raises ConfigurationError when epsilon makes the LP
    infeasible; numerical failures propagate as SolverFailureError.
    """
    return _ccr_record(data, k, cfg or SolverConfig(), "u", "v")


def solve_stage_independent(data: Dataset, k: int, stage: StagePriority,
                            cfg: SolverConfig | None = None) -> EfficiencyRecord:
    """Independent CCR efficiency of one stage, ignoring the other.

    FIRST_STAGE treats the intermediates as the outputs (X -> Z);
    SECOND_STAGE treats them as the inputs (Z -> Y). The score lands in the
    matching stage slot of the record; overall stays unset.
    """
    first = StagePriority(stage) is StagePriority.FIRST_STAGE
    inputs, outputs = ("u", "w") if first else ("w", "v")
    ccr = _ccr_record(data, k, cfg or SolverConfig(), inputs, outputs)
    return EfficiencyRecord(
        dmu_id=ccr.dmu_id,
        model_kind=ModelKind.INDEPENDENT_STAGES,
        stage1=ccr.overall if first else None,
        stage2=None if first else ccr.overall,
        multipliers=ccr.multipliers,
    )


def solve_relational_overall(data: Dataset, k: int,
                             cfg: SolverConfig | None = None) -> float:
    """Overall efficiency of DMU k under the relational two-stage model.

    On top of the CCR ratio constraints, the LP carries the first-stage
    (z.w vs x.u) and second-stage (y.v vs z.w) ratio constraints for every
    DMU, with one shared weight vector w on the intermediates. The optimum
    never exceeds the plain CCR score and factors into stage efficiencies.
    """
    cfg = cfg or SolverConfig()
    k = _check_index(data, k)
    Xn, Zn, Yn = _normalized_matrices(data, cfg)
    lp = _relational_lp(Xn, Zn, Yn, k, cfg.epsilon)
    context = f"relational model for DMU {data.dmu_ids[k]}"
    sol = _solve_or_raise(lp, cfg, context)
    return _clamp_score(sol.objective_value, context)


def decompose_efficiency(overall: float, fixed_stage: float) -> float:
    """Efficiency of the remaining stage once one stage's score is fixed.

    The overall score of the relational model is the exact product of the
    two stage scores, so the free stage equals overall / fixed_stage. A
    quotient above 1 would mean an invalid stage efficiency; it is clamped
    only when the excess is within QUOTIENT_EXCESS_TOL and rejected
    otherwise, since a larger excess signals a solver failure upstream.
    """
    if not 0.0 < fixed_stage <= 1.0:
        raise DecompositionError(f"fixed stage score {fixed_stage} is outside (0, 1]")
    if overall <= 0.0:
        raise DecompositionError(f"overall score {overall} must be positive")
    if overall - fixed_stage > QUOTIENT_EXCESS_TOL:
        raise DecompositionError(
            f"overall {overall} exceeds stage score {fixed_stage}; "
            f"the implied other-stage efficiency would be greater than 1"
        )
    return min(overall / fixed_stage, 1.0)


def solve_stage_priority(data: Dataset, k: int, overall: float,
                         priority: StagePriority,
                         cfg: SolverConfig | None = None) -> EfficiencyRecord:
    """Split a relational overall score into stage scores, favoring one stage.

    The relational optimum usually admits several multiplier sets and hence
    several stage splits. With priority FIRST_STAGE the LP maximizes the
    first-stage score z_k.w (under x_k.u = 1) while the constraint
    y_k.v = overall * x_k.u keeps the overall score at its optimum; the
    second stage is the quotient. SECOND_STAGE does the symmetric thing
    with z_k.w = 1 as the normalization. `overall` must be the relational
    optimum for the same DMU and config; if it is not attainable the solve
    fails with DecompositionError.
    """
    cfg = cfg or SolverConfig()
    k = _check_index(data, k)
    overall = _clamp_score(float(overall), f"pinned overall for DMU {data.dmu_ids[k]}")
    Xn, Zn, Yn = _normalized_matrices(data, cfg)

    priority = StagePriority(priority)
    lp = _relational_lp(Xn, Zn, Yn, k, cfg.epsilon,
                        pinned_overall=overall, maximize_stage=priority)
    dmu = data.dmu_ids[k]
    context = f"stage-priority model for DMU {dmu}"
    sol = _solve_or_raise(
        lp, cfg, context,
        infeasible_exc=DecompositionError(
            f"DMU {dmu}: overall score {overall} is not attainable under the "
            f"pinning constraint; it is stale or belongs to another configuration"
        ),
    )
    fixed = _clamp_score(sol.objective_value, context)
    free = decompose_efficiency(overall, fixed)
    if priority is StagePriority.FIRST_STAGE:
        stage1, stage2 = fixed, free
    else:
        stage1, stage2 = free, fixed
    return EfficiencyRecord(
        dmu_id=dmu,
        model_kind=ModelKind.RELATIONAL_TWO_STAGE,
        overall=overall,
        stage1=stage1,
        stage2=stage2,
        multipliers=_split_multipliers(sol.variable_values, data.m, data.p),
    )


def run_full_analysis(data: Dataset, cfg: SolverConfig | None = None):
    """Solve every DMU with both model families.

    Returns (relational_records, ccr_records), each one record per DMU in
    dataset order. Relational records carry the overall score plus the
    stage split chosen by cfg.stage_priority; CCR records carry the
    whole-process score. The first failing DMU aborts the run with a
    DmuSolveError naming it.
    """
    cfg = cfg or SolverConfig()
    relational = []
    ccr = []
    for k, dmu_id in enumerate(data.dmu_ids):
        try:
            overall = solve_relational_overall(data, k, cfg)
            relational.append(
                solve_stage_priority(data, k, overall, cfg.stage_priority, cfg)
            )
            ccr.append(solve_ccr(data, k, cfg))
        except DmuSolveError:
            raise
        except Exception as exc:
            raise DmuSolveError(dmu_id, str(exc)) from exc
    return relational, ccr
