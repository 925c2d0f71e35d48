"""Dense two-phase primal simplex for small linear programs.

Solves maximization problems of the form

    max  c' x
    s.t. A x {<=, =, >=} b   (row-wise senses)
         x >= lb             (finite lower bounds)

The engine is self-contained: no external solver is involved. Bland's
pivoting rule is used throughout, which guarantees termination on the
degenerate programs that multiplier-form DEA produces. All storage is
dense, and every pivot updates the whole tableau. An OPTIMAL result is
proved by solve_lp and carries the row prices that certify it.

The tableau is built over t = x - lb >= 0, with the rows of negative
shifted rhs negated. Its columns are the variables, a slack per <= row, a
surplus per >= row (each group in row order) and the rhs. Every LP runs
phase 1 (with no artificial, it ends after 0 pivots). A row without a
slack starts with an artificial basic: the basis label art_start + i, never
a column. Every basic column is an exact unit vector, since a pivot leaves
its entering column exact (x / x is 1.0, x - x * 1.0 is +0.0), and a
pivot updates each column from itself, the pivot row and the pivot column
only. An artificial column would change no other byte, and no pivot would
read it: while basic its reduced cost is exactly 0, and once it leaves it
may not re-enter. So storing the artificials as labels alone is exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_SENSES = (LESS_EQUAL, EQUAL, GREATER_EQUAL)

_SMALL_PIVOT_STRIKE_LIMIT = 3

#: Largest constraint violation (and phase-1 objective) accepted as feasible.
FEASIBILITY_TOL = 1e-9
#: Smallest pivot element considered reliable.
PIVOT_TOL = 1e-10
#: Reduced-cost threshold above which a column may enter the basis.
OPTIMALITY_TOL = 1e-9
#: Cap on the total pivot count across both phases.
MAX_ITERATIONS = 50_000


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"


def _as_readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float, order="C")  # layout changes how A @ x rounds
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """A maximization LP in row-sense inequality form.

    objective : (n,) coefficients of the maximized linear objective
    constraint_matrix : (m, n) dense constraint rows
    constraint_senses : per-row sense, each one of "<=", "=", ">="
    rhs : (m,) right-hand sides
    variable_lower_bounds : (n,) finite lower bounds (x >= lb)
    """

    objective: np.ndarray
    constraint_matrix: np.ndarray
    constraint_senses: tuple
    rhs: np.ndarray
    variable_lower_bounds: np.ndarray

    def __post_init__(self):
        obj = _as_readonly(self.objective)
        mat = _as_readonly(self.constraint_matrix)
        rhs = _as_readonly(self.rhs)
        lb = _as_readonly(self.variable_lower_bounds)
        senses = tuple(self.constraint_senses)
        if mat.ndim != 2:
            raise ValueError("constraint_matrix must be two-dimensional")
        m, n = mat.shape
        if obj.shape != (n,):
            raise ValueError(f"objective has length {obj.shape}, expected ({n},)")
        if lb.shape != (n,):
            raise ValueError(f"variable_lower_bounds has shape {lb.shape}, expected ({n},)")
        if rhs.shape != (m,):
            raise ValueError(f"rhs has shape {rhs.shape}, expected ({m},)")
        if len(senses) != m:
            raise ValueError(f"got {len(senses)} senses for {m} rows")
        if sum(map(senses.count, _SENSES)) != m:  # tuple.count compares in C
            unknown = next(s for s in senses if s not in _SENSES)
            raise ValueError(f"unknown constraint sense {unknown!r}")
        for name, arr in (("objective", obj), ("constraint_matrix", mat),
                          ("rhs", rhs), ("variable_lower_bounds", lb)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraint_matrix", mat)
        object.__setattr__(self, "constraint_senses", senses)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "variable_lower_bounds", lb)

    @property
    def num_variables(self) -> int:
        return self.constraint_matrix.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.constraint_matrix.shape[0]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solved state of a LinearProgram.

    variable_values and row_prices are empty and objective_value is NaN
    unless the status is OPTIMAL. row_prices holds each row's price in the
    final basis, certified by solve_lp: the rate at which the optimum grows
    with the row's rhs, >= 0 on a <= row and <= 0 on a >= row, within
    OPTIMALITY_TOL. iterations counts simplex pivots across both phases.
    """

    status: SolveStatus
    objective_value: float = float("nan")
    variable_values: np.ndarray = field(default_factory=lambda: _as_readonly([]))
    iterations: int = 0
    row_prices: np.ndarray = field(default_factory=lambda: _as_readonly([]))


def _install_objective(T: np.ndarray, basis: np.ndarray, coeffs: np.ndarray) -> None:
    # Objective row stores reduced costs for maximization; the value cell
    # holds the negated objective of the current basic solution. coeffs is
    # indexed by basis label, past the stored columns for the artificials.
    T[-1, :-1] = coeffs[:T.shape[1] - 1]
    T[-1, -1] = 0.0
    rows = coeffs[basis].nonzero()[0]  # subtracted in row order, one at a time
    stack = T[np.concatenate(([-1], rows))]
    stack[1:] *= coeffs[basis[rows], None]
    T[-1] = np.subtract.reduce(stack)


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = T[row]
    pivot_row /= pivot_row[col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * pivot_row
    basis[row] = col


def _iterate(T: np.ndarray, basis: np.ndarray, budget: int):
    """Run simplex pivots until optimality, unboundedness, or exhaustion.

    Returns (outcome, iterations) with outcome one of "optimal", "unbounded",
    "iteration_cap", "small_pivots". Only stored columns can enter, so a
    basis label past them (a phase-1 artificial) can only leave.
    """
    # Views into T, which every pivot updates in place.
    costs, body, values = T[-1, :-1], T[:-1], T[:-1, -1]
    if costs.size == 0:  # no column can enter
        return "optimal", 0
    iterations = 0
    strikes = 0
    while True:
        improving = costs > OPTIMALITY_TOL
        col = int(improving.argmax())  # Bland: lowest improving index, if any
        if not improving[col]:
            return "optimal", iterations
        if iterations >= budget:
            return "iteration_cap", iterations
        column = body[:, col]
        # Entries below PIVOT_TOL relative to the column's own magnitude are
        # elimination residue, never real pivots; a column with none above
        # that certifies an unbounded ray.
        threshold = PIVOT_TOL * float(np.abs(column).max(initial=1.0))
        candidates = (column > threshold).nonzero()[0]
        if candidates.size == 0:
            return "unbounded", iterations
        row = int(candidates[0])
        if candidates.size > 1:  # the ratio test, needed only between rows
            ratios = np.maximum(values[candidates], 0.0) / column[candidates]
            best = ratios.min()
            tied = candidates[ratios <= best + 1e-12 * max(1.0, abs(best))]
            # Bland tie-break: lowest basic index
            row = int(tied[0] if tied.size == 1 else tied[basis[tied].argmin()])
        if column[row] < 1e3 * threshold:
            # The forced pivot sits barely above tolerance; one such step is
            # survivable, a run of them means the tableau has degraded.
            strikes += 1
            if strikes >= _SMALL_PIVOT_STRIKE_LIMIT:
                return "small_pivots", iterations
        else:
            strikes = 0
        _pivot(T, basis, row, col)
        iterations += 1


def _sense_masks(lp: LinearProgram) -> tuple:
    """Boolean masks of lp's <= rows and >= rows; the rest are = rows."""
    senses = np.array(lp.constraint_senses, dtype=str)
    return senses == LESS_EQUAL, senses == GREATER_EQUAL


def _max_violation(lp: LinearProgram, x: np.ndarray, le: np.ndarray,
                   ge: np.ndarray) -> float:
    residual = lp.constraint_matrix @ x - lp.rhs
    violation = np.where(ge, -residual, residual)
    violation = np.where(le | ge, violation, np.abs(residual))
    worst = float(violation.max(initial=0.0))
    bound_gap = float((lp.variable_lower_bounds - x).max(initial=0.0))
    return max(worst, bound_gap)


def _initial_tableau(lp: LinearProgram, le: np.ndarray, ge: np.ndarray):
    """Phase-1 tableau of lp in the module docstring's column layout, its
    starting basis (each row's slack, else the next artificial label),
    art_start and the row of each slack and surplus column. A negated
    row's sense flips, so every rhs is >= 0."""
    n, m = lp.num_variables, lp.num_constraints
    A = lp.constraint_matrix
    Ab = np.empty((m, n + 1))
    Ab[:, :n], Ab[:, -1] = A, lp.rhs - A @ lp.variable_lower_bounds
    flip = Ab[:, -1] < 0
    np.negative(Ab, out=Ab, where=flip[:, None])
    slack, surplus = np.where(flip, ge, le), np.where(flip, le, ge)  # <= and >= rows
    slack_rows, surplus_rows = slack.nonzero()[0], surplus.nonzero()[0]
    art_rows = (~slack).nonzero()[0]
    art_start = n + slack_rows.size + surplus_rows.size
    slack_cols = np.arange(n, n + slack_rows.size)
    T = np.zeros((m + 1, art_start + 1))
    T[:m, :n], T[:m, -1] = Ab[:, :n], Ab[:, -1]
    T[slack_rows, slack_cols] = 1.0
    T[surplus_rows, np.arange(n + slack_rows.size, art_start)] = -1.0
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = np.arange(art_start, art_start + art_rows.size)
    return T, basis, art_start, np.concatenate((slack_rows, surplus_rows))


def _row_prices(lp: LinearProgram, basis: np.ndarray, kept: np.ndarray,
                owners: np.ndarray) -> np.ndarray:
    """Row prices y of the final basis, solved from B'y = c_B on the
    original data rather than read off the objective row, whose pivots
    round. A row whose slack or surplus column is basic, or that phase 1
    dropped as redundant, has price 0. The other rows are as many as the
    basic structural variables, so their prices solve one square system."""
    n = lp.num_variables
    structural = basis[basis < n]
    priced = np.zeros(lp.num_constraints, dtype=bool)
    priced[kept] = True
    priced[owners[basis[basis >= n] - n]] = False
    prices = np.zeros(lp.num_constraints)
    prices[priced] = np.linalg.solve(lp.constraint_matrix[priced][:, structural].T,
                                     lp.objective[structural])
    return prices


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a LinearProgram with the two-phase primal simplex.

    The solution is a pure function of the program: identical programs
    produce bit-identical results. OPTIMAL comes with a proof: x meets
    every row and bound within FEASIBILITY_TOL, and the row prices y of
    the final basis certify it, with y >= -OPTIMALITY_TOL on <= rows and
    <= OPTIMALITY_TOL on >= rows, reduced costs c - A'y <= OPTIMALITY_TOL
    and a duality gap |c'x - b'y - (c - A'y)'lb| <= FEASIBILITY_TOL *
    max(1, |c'x|). NUMERICAL_FAILURE means no outcome was certified: the
    iteration cap, persistent sub-tolerance pivots, or a final point or
    basis that fails the proof. Callers must surface it, not substitute a
    value.
    """
    le, ge = _sense_masks(lp)
    T, basis, art_start, owners = _initial_tableau(lp, le, ge)
    phase1 = np.zeros(art_start + lp.num_constraints)
    phase1[art_start:] = -1.0  # cost of each artificial label
    _install_objective(T, basis, phase1)
    outcome, iterations = _iterate(T, basis, MAX_ITERATIONS)
    if outcome == "unbounded" and T[-1, -1] <= FEASIBILITY_TOL:
        # Phase 1 is bounded by construction, so such a ray is elimination
        # residue. From a basis already feasible phase 2 goes on, and the
        # certificate decides.
        outcome = "optimal"
    if outcome != "optimal":
        # Phase 1 is bounded by construction, so anything else is numeric.
        return LpSolution(SolveStatus.NUMERICAL_FAILURE, iterations=iterations)
    if T[-1, -1] > FEASIBILITY_TOL:
        return LpSolution(SolveStatus.INFEASIBLE, iterations=iterations)

    for i in (basis >= art_start).nonzero()[0]:
        pivots = (np.abs(T[i, :-1]) > PIVOT_TOL).nonzero()[0]
        if pivots.size:
            _pivot(T, basis, i, int(pivots[0]))
    kept = (basis < art_start).nonzero()[0]  # a still-basic artificial: redundant row
    if kept.size < basis.size:
        T, basis = T[np.append(kept, -1)], basis[kept]

    phase2 = np.zeros(art_start)
    phase2[:lp.num_variables] = lp.objective
    _install_objective(T, basis, phase2)
    outcome, used = _iterate(T, basis, MAX_ITERATIONS - iterations)
    iterations += used
    if outcome == "unbounded":
        return LpSolution(SolveStatus.UNBOUNDED, iterations=iterations)
    if outcome != "optimal":
        return LpSolution(SolveStatus.NUMERICAL_FAILURE, iterations=iterations)

    shifted = np.zeros(art_start)
    shifted[basis] = T[:-1, -1]
    x = lp.variable_lower_bounds + shifted[:lp.num_variables]
    if _max_violation(lp, x, le, ge) > FEASIBILITY_TOL:
        return LpSolution(SolveStatus.NUMERICAL_FAILURE, iterations=iterations)
    try:
        y = _row_prices(lp, basis, kept, owners)
    except np.linalg.LinAlgError:  # a singular final basis proves nothing
        return LpSolution(SolveStatus.NUMERICAL_FAILURE, iterations=iterations)
    reduced = lp.objective - lp.constraint_matrix.T @ y
    value = float(lp.objective @ x)
    gap = value - lp.rhs @ y - reduced @ lp.variable_lower_bounds
    # The worst wrong-signed price or reduced cost; NaN if a price is NaN,
    # which fails the test.
    worst = np.concatenate((-y[le], y[ge], reduced)).max(initial=0.0)
    if not (worst <= OPTIMALITY_TOL and abs(gap) <= FEASIBILITY_TOL * max(1.0, abs(value))):
        return LpSolution(SolveStatus.NUMERICAL_FAILURE, iterations=iterations)
    return LpSolution(
        SolveStatus.OPTIMAL,
        objective_value=value,
        variable_values=_as_readonly(x),
        iterations=iterations,
        row_prices=_as_readonly(y),
    )
