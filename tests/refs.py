"""Independent reference implementations used to cross-check the library.

Nothing in this module imports the package under test. Each function is a
deliberately plain second implementation of a quantity the library computes
some faster or more structured way, so agreement is meaningful.
"""

from __future__ import annotations

import math

import numpy as np


def finite_diff_grad(fun, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def project_simplex(v):
    """Euclidean projection onto {a : a >= 0, sum a = 1}."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > (css - 1.0))[0][-1]
    tau = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def pg_min_quadratic_simplex(b, iters=20000):
    """Minimize sum_i b_i a_i^2 over the simplex by projected gradient."""
    b = np.asarray(b, dtype=np.float64)
    a = np.full(b.size, 1.0 / b.size)
    step = 1.0 / (2.0 * float(b.max()))
    for _ in range(iters):
        a = project_simplex(a - step * 2.0 * b * a)
    return a


def quadratic_simplex_obj(b, a):
    return float(np.sum(np.asarray(b) * np.asarray(a) ** 2))


def _betacf(a, b, x, max_iter=300, eps=3e-16):
    # Continued fraction for the incomplete beta function (Lentz's method).
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def betainc_reg(a, b, x):
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def welch_ref(xs, ys):
    """Two-sided Welch t-test from first principles.

    Returns (t, df, p) with the p-value computed via the incomplete beta
    rather than any statistics package.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    nx, ny = xs.size, ys.size
    mx, my = float(np.mean(xs)), float(np.mean(ys))
    vx = float(np.sum((xs - mx) ** 2) / (nx - 1))
    vy = float(np.sum((ys - my) ** 2) / (ny - 1))
    sx, sy = vx / nx, vy / ny
    t = (mx - my) / math.sqrt(sx + sy)
    df = (sx + sy) ** 2 / (sx**2 / (nx - 1) + sy**2 / (ny - 1))
    p = betainc_reg(df / 2.0, 0.5, df / (df + t * t))
    return t, df, p


def power_iteration_top_sv(mat, iters=2000, seed=0):
    """Largest singular value via power iteration on mat^T mat."""
    mat = np.asarray(mat, dtype=np.float64)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = mat.T @ (mat @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    return float(np.linalg.norm(mat @ v))


def tally_by_buyer(p, draws):
    """Option counts from inverse-CDF choice, one buyer at a time.

    ``p`` holds the ``n + 1`` option probabilities and ``draws`` the buyers'
    uniforms, one row per realization. A buyer with uniform ``u`` takes
    option ``#{j < n : cdf[j] <= u}``, where ``cdf`` is the running sum of
    ``p`` with its last entry set to 1.0, so a tie goes to the higher option.
    Returns int64 counts of shape ``draws.shape[:-1] + (n + 1,)``.
    """
    p = [float(v) for v in np.asarray(p, dtype=np.float64)]
    n = len(p) - 1
    cdf, total = [], 0.0
    for v in p:
        total += v
        cdf.append(total)
    cdf[-1] = 1.0
    draws = np.asarray(draws, dtype=np.float64)
    rows = draws.reshape(-1, draws.shape[-1])
    counts = np.zeros((rows.shape[0], n + 1), dtype=np.int64)
    for r, row in enumerate(rows):
        for u in row.tolist():
            counts[r, sum(1 for j in range(n) if cdf[j] <= u)] += 1
    return counts.reshape(draws.shape[:-1] + (n + 1,))
