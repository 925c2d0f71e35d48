"""DEA models for a two-stage series production process.

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
* stage-priority decomposition, which solves the relational overall score
  and then re-solves with it pinned and one stage's efficiency maximized,
  the other obtained as the quotient.

Every weight is bounded below by a small epsilon so no factor can be
ignored. Because epsilon interacts with the scale of the data, each column
of X, Z, Y is divided by its maximum (the ratio models are units-invariant,
so scores are unaffected); reported multipliers refer to the normalized
problem. This normalization and the ratio rows the LPs share are built
once per dataset, on its first solve, not once per LP. The relational LPs
hold up to 2n ratio rows: the stage rows imply the n whole-process rows.
From ENVELOPMENT_MIN_DMUS DMUs up, each family of ratio rows keeps only
the rows no kept row implies, which leaves every LP's feasible set as it
is: the relational LPs of the benchmark's dispersed 100-DMU 3/2/2 set
keep 28 of their 200 stage rows.

Each model is stated in multiplier form. From ENVELOPMENT_MIN_DMUS DMUs
up, every LP, the pinned stage-priority LP included, is solved as its LP
dual, the envelopment form, with a row per weight instead of one per
ratio constraint, each built straight from blocks kept once per dataset.
Each dual starts at DMU k's best single-peer vertex, one kept ratio row
per link, so solve_lp skips phase 1. The weights are read back from the
dual's row prices, which solve_lp certifies. A dual that ends without a
proved optimum is solved again in multiplier form, whose status decides.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DecompositionError,
    DmuSolveError,
    NetdeaError,
    SolverFailureError,
    ValidationError,
)
from .lp_core import (
    EQUAL,
    LESS_EQUAL,
    LinearProgram,
    SolveStatus,
    solve_lp,
)

#: |overall - stage1 * stage2| must stay below this on every relational record.
PRODUCT_IDENTITY_TOL = 1e-6

#: How far a computed score may overshoot its bound by rounding: an LP score
#: may exceed 1, and overall a fixed stage score, by at most this much; the
#: result is then clamped, and a larger excess is rejected.
SCORE_EXCESS_TOL = 1e-9

#: From this many DMUs up, the implied ratio rows are dropped and every LP
#: is solved in envelopment form first. Since the duals start at a vertex,
#: that form is no slower below 40 either: the default analysis, with this
#: at 2, takes 152 pivots against 159 on the bundled 13-DMU set in about
#: equal time, 274 against 800 (13 ms against 22) and 438 against 2,136
#: (20 ms against 53) on dispersed 3/1/1 sets of 20 and 30 DMUs. It stays
#: at 40 because dropping rows moves the pivots and the last bits of some
#: scores: the bundled set would drop 12 of its 13 CCR rows and change its
#: csv and json reports, which tests/golden/ and the benchmark's
#: cli-paper13 workload pin byte for byte. Under SECOND_STAGE, the pinned LPs
#: of the benchmark's sparse and dense 100-DMU sets take 14.7 and 7.6
#: pivots each as duals (3 and 2 of them the start's), 36.2 and 6.1 in
#: multiplier form.
ENVELOPMENT_MIN_DMUS = 40


class StagePriority(enum.Enum):
    FIRST_STAGE = "first"
    SECOND_STAGE = "second"


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
            if mat.ndim != 2:
                raise ValidationError(f"{label} must be a 2-D matrix, got shape {mat.shape}")
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

    @functools.cached_property
    def _lp_system(self) -> _LpSystem:
        return _LpSystem(self)


@dataclass(frozen=True)
class SolverConfig:
    """Settings shared by every model solve.

    epsilon is the strictly positive lower bound applied to every multiplier
    in the normalized LPs. stage_priority picks which stage efficiency is
    maximized when decomposing the relational optimum; the default maximizes
    stage 2 first. A StagePriority value ("first" or "second") is converted
    to the member.
    """

    epsilon: float = 1e-6
    stage_priority: StagePriority = StagePriority.SECOND_STAGE

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigurationError(f"epsilon must be in (0, 1), got {self.epsilon}")
        try:
            priority = StagePriority(self.stage_priority)
        except ValueError:
            raise ConfigurationError(
                f"stage_priority must be one of "
                f"{[p.value for p in StagePriority]}, got {self.stage_priority!r}"
            ) from None
        object.__setattr__(self, "stage_priority", priority)


@dataclass(frozen=True, eq=False)
class Multipliers:
    """Optimal weights of a solve: u on inputs, w on intermediates, v on
    outputs. Slots a model does not use are None. Values refer to the
    column-normalized problem and are generally not unique; scores are
    the contract, weights are for transparency only. A solve in
    envelopment form reads them back from the dual's row prices, which
    solve_lp certifies: they meet epsilon and every multiplier row within
    lp_core.OPTIMALITY_TOL, and reproduce the dual's bound within
    lp_core.FEASIBILITY_TOL.
    """

    u: np.ndarray | None = None
    w: np.ndarray | None = None
    v: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class EfficiencyRecord:
    """Per-DMU scores of one model solve; unset fields are None. Only a
    relational record sets all three scores, and then overall must equal
    stage1 * stage2."""

    dmu_id: str
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
        if None not in (self.overall, self.stage1, self.stage2):
            gap = abs(self.overall - self.stage1 * self.stage2)
            if gap > PRODUCT_IDENTITY_TOL:
                raise SolverFailureError(
                    f"DMU {self.dmu_id}: overall {self.overall} deviates from "
                    f"stage1*stage2 by {gap}"
                )


#: Each stage's chain of weight slots: u on X, w on Z and v on Y.
_STAGE_SLOTS = {StagePriority.FIRST_STAGE: "uw", StagePriority.SECOND_STAGE: "wv"}


def _undominated(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Indices, in DMU order, of the ratio rows b_j . t_b - a_j . t_a <= 0
    that no kept row implies. Row i implies row j for every t >= 0 when
    c = max_r b_jr / b_ir <= min_q a_jq / a_iq, since then b_j . t_b <=
    c b_i . t_b <= c a_i . t_a <= a_j . t_a. A relative 1e-12 on the test
    lets DMUs whose ratios tie up to rounding imply each other.

    Rows are visited by descending ratio at unit weights, which no row has
    below a row it implies, and kept unless an already-kept row implies
    them: every dropped row has a kept row that implies it directly, and a
    tie group keeps one row.
    """
    order = np.argsort(a.sum(axis=1) / b.sum(axis=1), kind="stable")
    a, b = a[order], b[order]
    kept = []
    for j in range(len(a)):
        most = (b[j] / b[kept]).max(axis=1)
        least = (a[j] / a[kept]).min(axis=1)
        if not (most <= least * (1.0 + 1e-12)).any():
            kept.append(j)
    return np.sort(order[kept])


class _LpSystem:
    """The LP data every model of one Dataset shares, built once: X, Z and Y
    divided by their column maxima, keyed by weight slot, and for each link
    ab of "uv", "uw" and "wv" the ratio rows b_j . t_b - a_j . t_a <= 0
    over the variables [u | w | v], all read-only. Below
    ENVELOPMENT_MIN_DMUS DMUs a link keeps all n rows, from there on only
    those _undominated returns, in DMU order. The rows it drops are
    implied, so every LP keeps its feasible set. The benchmark's dispersed
    100-DMU 3/2/2 set keeps 14 of its 100 "uv" rows, 21 "uw" and 7 "wv".

    A model LP links the consecutive slots of its chain: "uv" (CCR), "uw" or
    "wv" (one stage) or "uwv" (relational). So the relational LP has no
    whole-process row y_j.v - x_j.u <= 0: it is the sum of DMU j's two stage
    rows, which imply it (Kao & Hwang 2008, EJOR 185).

    Each chain's ratio block, its links' rows stacked in chain order over
    the chain's own columns, is built once per dataset too, read-only, and
    so is the column slice of each of its slots. _equalities writes DMU k's
    equality rows and costs for both LP forms, which differ only in layout:
    lp stacks the rows above the block, envelopment_lp above its negation,
    in rows whose transpose is the dual's matrix. The
    duals' starts are searched for all DMUs at once, per (chain, scored).
    """

    def __init__(self, data: Dataset):
        mats = (data.X, data.Z, data.Y)
        self.normalized = {slot: mat / mat.max(axis=0) for slot, mat in zip("uwv", mats)}
        edges = np.cumsum([0] + [mat.shape[1] for mat in mats])
        self.columns = {slot: slice(*edges[i:i + 2]) for i, slot in enumerate("uwv")}
        self.ratio_rows = {}
        for a, b in ("uv", "uw", "wv"):
            rows = np.zeros((data.n, edges[-1]))
            rows[:, self.columns[a]] = -self.normalized[a]
            rows[:, self.columns[b]] = self.normalized[b]
            if data.n >= ENVELOPMENT_MIN_DMUS:
                rows = rows[_undominated(self.normalized[a], self.normalized[b])]
            self.ratio_rows[a + b] = rows
        self.blocks, self.chain_columns = {}, {}
        for chain in ("uv", "uw", "wv", "uwv"):
            rows = np.vstack([self.ratio_rows[a + b] for a, b in zip(chain, chain[1:])])
            self.blocks[chain] = np.hstack([rows[:, self.columns[slot]] for slot in chain])
            widths = np.cumsum([0] + [self.normalized[slot].shape[1] for slot in chain])
            self.chain_columns[chain] = {slot: slice(*widths[i:i + 2])
                                         for i, slot in enumerate(chain)}
        for arr in (*self.normalized.values(), *self.ratio_rows.values(),
                    *self.blocks.values()):
            arr.setflags(write=False)
        self.starts = {}

    def _start_pivots(self, chain: str, normalization: str, objective: str) -> tuple:
        """Each DMU k's best single-peer vertex of the duals envelopment_lp
        builds, as (rows, peers), empty unless the objective slot follows the
        normalization slot in the chain. Demand d starts as DMU k's data in
        the objective slot. Each link back to the normalization slot takes
        one kept ratio row j, lambda_j = max(d / b_j), and sets d = lambda_j
        a_j; there y = max(d / x_k) closes the walk. The peers minimize y,
        the dual's objective up to epsilon terms. Each lambda_j and y enters
        on the weight row where its max is attained (rows[k]; peers[k] holds
        the lambdas' rows in the chain's block), so every dual row holds.
        DMUs go in blocks: no temporary holds much more than 2**19 floats."""
        walk = [chain[i - 1:i + 1]  # objective side first
                for i in range(chain.index(objective), chain.index(normalization), -1)]
        if not walk:
            return (np.zeros((len(self.normalized[objective]), 0), dtype=int),) * 2
        outputs = [self.ratio_rows[ab][:, self.columns[ab[1]]] for ab in walk]
        inputs = [-self.ratio_rows[ab][:, self.columns[ab[0]]] for ab in walk]
        # lambda_i / lambda_j of row i of a link and row j of the one before
        relays = [(r.max(axis=2), r.argmax(axis=2))
                  for r in (a[None] / b[:, None] for a, b in zip(inputs, outputs[1:]))]
        demand, norm = self.normalized[objective], self.normalized[normalization]
        step = max(1, 2**19 // max(outputs[0].size, inputs[-1].size, *(f.size for f, _ in relays)))
        peers = np.empty((len(demand), len(walk)), dtype=int)
        for lo in range(0, len(demand), step):
            block = slice(lo, lo + step)
            cost, backs = (demand[block, None] / outputs[0]).max(axis=2), []
            for factor, _ in relays:  # the cheapest path to each row of the next link
                backs.append((cost[:, None] * factor).argmin(axis=2))  # last axis: no copy
                cost = (cost[:, None] * factor).min(axis=2)
            cost *= (inputs[-1] / norm[block, None]).max(axis=2)
            peers[block, -1] = cost.argmin(axis=1)
            for t in reversed(range(len(relays))):
                peers[block, t] = np.take_along_axis(backs[t], peers[block, t + 1, None], 1)[:, 0]
        slots = self.chain_columns[chain]
        rows = [slots[objective].start + (demand / outputs[0][peers[:, 0]]).argmax(axis=1)]
        rows += [slots[ab[0]].start + at[peers[:, t + 1], peers[:, t]]
                 for t, (ab, (_, at)) in enumerate(zip(walk, relays))]
        rows.append(slots[normalization].start + (inputs[-1][peers[:, -1]] / norm).argmax(axis=1))
        offsets = [sum(len(self.ratio_rows[chain[i:i + 2]]) for i in range(chain.index(ab[0])))
                   for ab in walk]
        return np.column_stack(rows), peers + offsets

    def _equalities(self, k: int, chain: str, scored: str,
                    pinned_overall: float | None) -> tuple:
        """DMU k's equality rows E t = e and costs c over the chain's
        columns, as (E, e, c): with scored = (a, b), its weighted sum in
        slot a = 1 and, if pinned, y_k.v - pinned_overall * x_k.u = 0; c is
        its data in slot b."""
        normalization, objective = scored
        norm, cols = self.normalized, self.chain_columns[chain]
        eqs, width = 1 if pinned_overall is None else 2, self.blocks[chain].shape[1]
        rows, costs = np.zeros((eqs, width)), np.zeros(width)
        rows[0, cols[normalization]] = norm[normalization][k]
        if pinned_overall is not None:
            rows[1, cols["u"]] = -pinned_overall * norm["u"][k]
            rows[1, cols["v"]] = norm["v"][k]
        costs[cols[objective]] = norm[objective][k]
        return rows, np.array((1.0, 0.0)[:eqs]), costs

    def lp(self, k: int, chain: str, scored: str, epsilon: float,
           pinned_overall: float | None = None) -> LinearProgram:
        """DMU k's LP over the weights t of the chain's slots, in [u | w | v]
        order. With scored = (a, b): maximize DMU k's weighted sum in slot b
        subject to its weighted sum in slot a = 1, y_k.v = pinned_overall *
        x_k.u when pinned, the ratio rows of the chain's links in chain
        order <= 0, and t >= epsilon.
        """
        block = self.blocks[chain]
        equalities, rhs, costs = self._equalities(k, chain, scored, pinned_overall)
        return LinearProgram(
            objective=costs,
            constraint_matrix=np.vstack((equalities, block)),
            constraint_senses=(EQUAL,) * len(rhs) + (LESS_EQUAL,) * len(block),
            rhs=np.concatenate((rhs, np.zeros(len(block)))),
            variable_lower_bounds=np.full(block.shape[1], epsilon),
        )

    def envelopment_lp(self, k: int, chain: str, scored: str, epsilon: float,
                       pinned_overall: float | None = None) -> LinearProgram:
        """The LP dual of lp(k, chain, scored, epsilon, pinned_overall), max
        c't s.t. E t = e, R t <= 0, t >= eps, over s = t - eps >= 0:
        variables [y+ | y- | lambda] >= 0, one y per equality row, a row
        -(E'y + R'lambda) <= -c per weight, and the objective
        max -(b_E'y + b_R'lambda) with y = y+ - y- and b = rhs - [E; R] eps.
        Its matrix is the transpose of the rows [-E; E; -R]; the product of
        the last ones with eps rounds as [E; R]'s would, R's negated."""
        block = self.blocks[chain]
        equalities, rhs, costs = self._equalities(k, chain, scored, pinned_overall)
        eqs, width = len(rhs), block.shape[1]
        rows = np.vstack((-equalities, equalities, -block))
        products = rows[eqs:] @ np.full(width, epsilon)
        bound = rhs - products[:eqs]
        if (chain, scored) not in self.starts:
            self.starts[chain, scored] = self._start_pivots(chain, *scored)
        pivots, peers = self.starts[chain, scored]  # and y+ of the normalization, column 0
        start = tuple(zip(pivots[k].tolist(), (peers[k] + 2 * eqs).tolist() + [0]))
        return LinearProgram(np.concatenate((-bound, bound, -products[eqs:])), rows.T,
                             (LESS_EQUAL,) * width, -costs, np.zeros(len(rows)), start)


def _solve(data: Dataset, k: int, cfg: SolverConfig, model: str, chain: str,
           scored: str | None = None, pinned_overall: float | None = None) -> tuple:
    """Solve DMU k's LP that _LpSystem.lp builds from these arguments; scored
    defaults to the chain's ends.

    Returns (dmu_id, clamped optimum, weights by slot). From
    ENVELOPMENT_MIN_DMUS DMUs up, the dual _LpSystem.envelopment_lp builds
    is solved first, and the LP itself only if that dual is not proved
    OPTIMAL. Then the LP's status decides: an infeasible LP is a
    ConfigurationError (epsilon too large) unless the overall score is
    pinned: that LP holds an optimum just reached at the same epsilon, so
    it can only fail numerically, like any other non-optimal status.
    """
    k = operator.index(k)
    if not 0 <= k < data.n:
        raise IndexError(f"DMU index {k} out of range for {data.n} DMUs")
    dmu = data.dmu_ids[k]
    context = f"{model} model for DMU {dmu}"
    system, scored = data._lp_system, scored or chain[0] + chain[-1]
    t = None
    if data.n >= ENVELOPMENT_MIN_DMUS:
        dual = system.envelopment_lp(k, chain, scored, cfg.epsilon, pinned_overall)
        sol = solve_lp(dual)
        if sol.status is SolveStatus.OPTIMAL:
            # The weights are t = epsilon + the row prices, which solve_lp's
            # certificate of the dual checks against the LP row for row: the
            # price signs are t >= eps, the reduced costs E t = e and R t <= 0,
            # the gap c't against the bound. The score is c't with
            # c = -dual.rhs, not the dual's bound,
            # because a stage-priority LP pins it: a bound a rounding error
            # above the optimum can make that LP infeasible, as it did for
            # one DMU of a 100-DMU dispersed 3/1/1 set.
            t = cfg.epsilon + sol.row_prices
            t.setflags(write=False)
            score = float(-dual.rhs @ t)
    if t is None:
        sol = solve_lp(system.lp(k, chain, scored, cfg.epsilon, pinned_overall))
        if sol.status is SolveStatus.INFEASIBLE and pinned_overall is None:
            raise ConfigurationError(
                f"{context}: LP infeasible; epsilon={cfg.epsilon} is too large "
                f"for the normalized data"
            )
        if sol.status is not SolveStatus.OPTIMAL:
            raise SolverFailureError(f"{context}: solver returned {sol.status.value}")
        t, score = sol.variable_values, sol.objective_value
    if not 0.0 < score <= 1.0 + SCORE_EXCESS_TOL:
        raise SolverFailureError(f"{context}: efficiency {score} is outside (0, 1]")
    cols = system.chain_columns[chain]
    weights = {slot: t[cols[slot]] for slot in chain}
    return dmu, min(float(score), 1.0), Multipliers(**weights)


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
    dmu, score, weights = _solve(data, k, cfg or SolverConfig(), "CCR", "uv")
    return EfficiencyRecord(dmu_id=dmu, overall=score, multipliers=weights)


def solve_stage_independent(data: Dataset, k: int, stage: StagePriority,
                            cfg: SolverConfig | None = None) -> EfficiencyRecord:
    """Independent CCR efficiency of one stage, ignoring the other.

    FIRST_STAGE treats the intermediates as the outputs (X -> Z);
    SECOND_STAGE treats them as the inputs (Z -> Y). The score lands in the
    matching stage slot of the record; overall stays unset.
    """
    stage = StagePriority(stage)
    dmu, score, weights = _solve(data, k, cfg or SolverConfig(), "CCR", _STAGE_SLOTS[stage])
    first = stage is StagePriority.FIRST_STAGE
    return EfficiencyRecord(
        dmu_id=dmu,
        stage1=score if first else None,
        stage2=None if first else score,
        multipliers=weights,
    )


def solve_relational_overall(data: Dataset, k: int,
                             cfg: SolverConfig | None = None) -> float:
    """Overall efficiency of DMU k under the relational two-stage model.

    The LP carries the first-stage (z.w vs x.u) and second-stage (y.v vs
    z.w) ratio constraints for every DMU, with one shared weight vector w
    on the intermediates. They sum to the CCR ratio constraints (y.v vs
    x.u), which they thus imply (Kao & Hwang 2008, EJOR 185), so the
    optimum never exceeds the plain CCR score; it factors into stage
    efficiencies.
    """
    return _solve(data, k, cfg or SolverConfig(), "relational", "uwv")[1]


def decompose_efficiency(overall: float, fixed_stage: float) -> float:
    """Efficiency of the remaining stage once one stage's score is fixed.

    The overall score of the relational model is the exact product of the
    two stage scores, so the free stage equals overall / fixed_stage. A
    quotient above 1 would mean an invalid stage efficiency; it is clamped
    only when the excess is within SCORE_EXCESS_TOL and rejected
    otherwise, since a larger excess signals a solver failure upstream.
    """
    if not 0.0 < fixed_stage <= 1.0:
        raise DecompositionError(f"fixed stage score {fixed_stage} is outside (0, 1]")
    if not (np.isfinite(overall) and overall > 0.0):
        raise DecompositionError(f"overall score {overall} must be finite and positive")
    if overall - fixed_stage > SCORE_EXCESS_TOL:
        raise DecompositionError(
            f"overall {overall} exceeds stage score {fixed_stage}; "
            f"the implied other-stage efficiency would be greater than 1"
        )
    return min(overall / fixed_stage, 1.0)


def solve_stage_priority(data: Dataset, k: int,
                         cfg: SolverConfig | None = None) -> EfficiencyRecord:
    """Relational record of DMU k: its overall score, split into stage
    scores favoring the stage cfg.stage_priority names.

    The overall score comes from solve_relational_overall. Its optimum
    usually admits several multiplier sets and hence several stage splits,
    so a second LP pins it: with priority FIRST_STAGE that LP maximizes the
    first-stage score z_k.w (under x_k.u = 1) while the constraint
    y_k.v = overall * x_k.u keeps the overall score at its optimum; the
    second stage is the quotient. SECOND_STAGE does the symmetric thing
    with z_k.w = 1 as the normalization. The pinned LP is feasible by
    construction, so its failure is a SolverFailureError.
    """
    cfg = cfg or SolverConfig()
    overall = solve_relational_overall(data, k, cfg)
    dmu, fixed, weights = _solve(data, k, cfg, "stage-priority", "uwv",
                                 _STAGE_SLOTS[cfg.stage_priority], pinned_overall=overall)
    try:
        free = decompose_efficiency(overall, fixed)
    except DecompositionError as exc:
        raise DecompositionError(f"stage-priority model for DMU {dmu}: {exc}") from exc
    first = cfg.stage_priority is StagePriority.FIRST_STAGE
    stage1, stage2 = (fixed, free) if first else (free, fixed)
    return EfficiencyRecord(
        dmu_id=dmu,
        overall=overall,
        stage1=stage1,
        stage2=stage2,
        multipliers=weights,
    )


def run_full_analysis(data: Dataset, cfg: SolverConfig | None = None):
    """Solve every DMU with both model families.

    Returns (relational_records, ccr_records), each one record per DMU in
    dataset order. Relational records carry the overall score plus the
    stage split chosen by cfg.stage_priority; CCR records carry the
    whole-process score. A netdea error of the first failing DMU aborts the
    run as a DmuSolveError naming it; any other exception propagates as is.
    """
    cfg = cfg or SolverConfig()
    relational = []
    ccr = []
    for k, dmu_id in enumerate(data.dmu_ids):
        try:
            relational.append(solve_stage_priority(data, k, cfg))
            ccr.append(solve_ccr(data, k, cfg))
        except NetdeaError as exc:
            raise DmuSolveError(dmu_id, str(exc)) from exc
    return relational, ccr
