"""Reference scores from SciPy's HiGHS, built from the model definitions.

The LPs here are written from the models' definitions, not taken from
netdea: every column of X, Z and Y is divided by its maximum, every
weight is at least ``EPSILON``, and the stage split maximizes the chosen
stage with the overall score pinned. Used only to check the benchmark's
outputs, outside any timed region.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy.optimize import linprog

#: netdea's default multiplier lower bound, which every workload uses.
EPSILON = 1e-6


class OracleError(RuntimeError):
    """HiGHS did not return an optimum."""


def read_csv(text: str):
    """(ids, X, Z, Y) of a dataset in netdea's CSV format."""
    rows = list(csv.reader(io.StringIO(text)))
    header = [h.strip().lower() for h in rows[0]]
    body = rows[1:]
    ids = [r[header.index("id")] for r in body]

    def role(prefix):
        cols = [i for i, h in enumerate(header) if h[:1] == prefix and h[1:].isdigit()]
        return np.array([[float(r[i]) for i in cols] for r in body])

    return ids, role("x"), role("z"), role("y")


def _maximize(objective, A_ub, A_eq, b_eq) -> float:
    res = linprog(-objective, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]),
                  A_eq=A_eq, b_eq=b_eq, bounds=(EPSILON, None), method="highs")
    if res.status != 0:
        raise OracleError(res.message)
    return -res.fun


def dmu_scores(X, Z, Y, k: int, priority: str) -> dict:
    """overall, stage1, stage2 and ccr of DMU k."""
    X, Z, Y = (M / M.max(axis=0) for M in (X, Z, Y))
    (n, m), p, s = X.shape, Z.shape[1], Y.shape[1]
    zx, zz, zy = np.zeros((n, m)), np.zeros((n, p)), np.zeros((n, s))
    rows = np.vstack([np.hstack([-X, zz, Y]), np.hstack([-X, Z, zy]),
                      np.hstack([zx, -Z, Y])])
    obj_y = np.concatenate([zx[k], zz[k], Y[k]])
    norm_x = np.concatenate([X[k], zz[k], zy[k]])
    overall = _maximize(obj_y, rows, norm_x[None, :], [1.0])
    pin = np.concatenate([-overall * X[k], zz[k], Y[k]])
    if priority == "first":
        stage1 = _maximize(np.concatenate([zx[k], Z[k], zy[k]]), rows,
                           np.vstack([norm_x, pin]), [1.0, 0.0])
        stage2 = overall / stage1
    else:
        norm_z = np.concatenate([zx[k], Z[k], zy[k]])
        stage2 = _maximize(obj_y, rows, np.vstack([norm_z, pin]), [1.0, 0.0])
        stage1 = overall / stage2
    ccr = _maximize(np.concatenate([np.zeros(m), Y[k]]), np.hstack([-X, Y]),
                    np.concatenate([X[k], np.zeros(s)])[None, :], [1.0])
    return {"overall": overall, "stage1": min(stage1, 1.0),
            "stage2": min(stage2, 1.0), "ccr": ccr}
