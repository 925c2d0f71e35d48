"""Shared fixtures: the bundled dataset, random problem generators, and a
brute-force vertex-enumeration LP oracle used to cross-check the simplex."""

import itertools

import numpy as np
import pytest

from netdea import Dataset, LinearProgram, bundled_dataset_path, load_dataset
from netdea.lp_core import EQUAL, GREATER_EQUAL, LESS_EQUAL

_FEAS_TOL = 1e-7


def _vertex_feasible(lp, x, box):
    if np.any(x < lp.variable_lower_bounds - _FEAS_TOL):
        return False
    if np.any(x > lp.variable_lower_bounds + box + _FEAS_TOL):
        return False
    residual = lp.constraint_matrix @ x - lp.rhs
    scale = 1.0 + np.abs(lp.rhs)
    for i, sense in enumerate(lp.constraint_senses):
        r = residual[i] / scale[i]
        if sense == LESS_EQUAL and r > _FEAS_TOL:
            return False
        if sense == GREATER_EQUAL and r < -_FEAS_TOL:
            return False
        if sense == EQUAL and abs(r) > _FEAS_TOL:
            return False
    return True


def oracle_solve(lp: LinearProgram, box: float = 1e6):
    """Classify and solve a small LP by brute force.

    Every vertex of the feasible region intersected with the box
    lb <= x <= lb + box is enumerated by solving all n-subsets of
    {constraint rows, bound rows} as linear systems. Returns
    ("infeasible", nan), ("unbounded", nan), or ("optimal", value); the
    problem counts as unbounded when the best objective is attained only
    on the artificial box faces. Exponential in problem size, so keep
    n <= ~6.
    """
    n = lp.num_variables
    eye = np.eye(n)
    rows = [(lp.constraint_matrix[i], lp.rhs[i]) for i in range(lp.num_constraints)]
    rows += [(eye[j], lp.variable_lower_bounds[j]) for j in range(n)]
    rows += [(eye[j], lp.variable_lower_bounds[j] + box) for j in range(n)]

    best_all = -np.inf
    best_interior = -np.inf
    found_feasible = False
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or np.max(np.abs(M @ x - rhs)) > 1e-6:
            continue
        if not _vertex_feasible(lp, x, box):
            continue
        found_feasible = True
        value = float(lp.objective @ x)
        best_all = max(best_all, value)
        on_box = np.any(x > lp.variable_lower_bounds + box - 1e-3)
        if not on_box:
            best_interior = max(best_interior, value)

    if not found_feasible:
        return "infeasible", float("nan")
    gap_tol = 1e-6 * max(1.0, abs(best_interior))
    if not np.isfinite(best_interior) or best_all > best_interior + gap_tol:
        return "unbounded", float("nan")
    return "optimal", best_interior


def random_lp(rng: np.random.Generator, max_vars: int = 4,
              max_constraints: int = 4) -> LinearProgram:
    """Small random LP with integer data (ties and degeneracy on purpose).

    Mixes all three senses; with high probability the rhs is chosen so a
    known point is feasible, the rest are left raw so infeasible and
    unbounded instances occur too.
    """
    n = int(rng.integers(1, max_vars + 1))
    k = int(rng.integers(1, max_constraints + 1))
    A = rng.integers(-4, 5, size=(k, n)).astype(float)
    c = rng.integers(-4, 5, size=n).astype(float)
    senses = tuple(rng.choice([LESS_EQUAL, EQUAL, GREATER_EQUAL],
                              p=[0.6, 0.2, 0.2]) for _ in range(k))
    lb = (rng.integers(-2, 2, size=n).astype(float)
          if rng.random() < 0.3 else np.zeros(n))
    if rng.random() < 0.7:
        anchor = lb + rng.integers(0, 3, size=n).astype(float)
        slack = rng.integers(0, 4, size=k).astype(float)
        b = A @ anchor
        for i, sense in enumerate(senses):
            if sense == LESS_EQUAL:
                b[i] += slack[i]
            elif sense == GREATER_EQUAL:
                b[i] -= slack[i]
    else:
        b = rng.integers(-5, 6, size=k).astype(float)
    return LinearProgram(objective=c, constraint_matrix=A,
                         constraint_senses=senses, rhs=b,
                         variable_lower_bounds=lb)


def random_dataset(rng: np.random.Generator, n: int | None = None,
                   m: int | None = None, p: int | None = None,
                   s: int | None = None, plant_efficient: bool = False) -> Dataset:
    """Random strictly positive dataset with n <= 10 DMUs and up to 3
    columns per role.

    With plant_efficient the first DMU is made to dominate every other in
    both stages (half the inputs, top intermediates within a factor 2 of
    everyone, double the outputs), which forces its overall relational
    efficiency to 1 — useful for exercising the efficient-DMU properties.
    """
    n = int(rng.integers(2, 11)) if n is None else n
    m = int(rng.integers(1, 4)) if m is None else m
    p = int(rng.integers(1, 4)) if p is None else p
    s = int(rng.integers(1, 4)) if s is None else s
    X = rng.uniform(1.0, 2.0, size=(n, m))
    Z = rng.uniform(1.0, 2.0, size=(n, p))
    Y = rng.uniform(1.0, 2.0, size=(n, s))
    if plant_efficient:
        X[0] = 0.5 * X[1:].min(axis=0)
        Z[0] = Z[1:].max(axis=0)
        Y[0] = 2.0 * Y[1:].max(axis=0)
    ids = tuple(f"U{i + 1}" for i in range(n))
    return Dataset(dmu_ids=ids, dmu_names=ids, X=X, Z=Z, Y=Y)


@pytest.fixture(scope="session")
def table1() -> Dataset:
    return load_dataset(bundled_dataset_path())


@pytest.fixture(scope="session")
def lp_oracle():
    return oracle_solve


@pytest.fixture(scope="session")
def make_random_lp():
    return random_lp


@pytest.fixture(scope="session")
def make_random_dataset():
    return random_dataset
