"""Time-varying autoregression via discount-factor dynamic linear models.

Forward filtering with a state discount (coefficient drift) and a
variance discount (volatility drift); order and discounts chosen by grid
search on the cumulative one-step-ahead (Student-t) log marginal
likelihood.  Generation samples a coefficient trajectory backwards from
the filtered posteriors and simulates the observation equation forward;
real-valued output is binned to the nearest pitch of the training
alphabet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .hmm import _as_rng, check_positive_ints, check_table

DEFAULT_ORDERS = tuple(range(7, 15))
DEFAULT_STATE_DISCOUNTS = (0.90, 0.95, 0.99, 1.0)
DEFAULT_VAR_DISCOUNTS = (0.90, 0.95, 0.99)
PRIOR_SCALE = 1.0    # diagonal of the coefficient prior covariance
PRIOR_DF = 1.0       # degrees of freedom of the variance prior
PRIOR_OBS_VAR = 1.0  # prior point estimate of the innovation variance


@dataclass
class TvarSpec:
    orders: tuple = DEFAULT_ORDERS
    state_discounts: tuple = DEFAULT_STATE_DISCOUNTS
    var_discounts: tuple = DEFAULT_VAR_DISCOUNTS

    def __post_init__(self):
        if any(not (0.0 < d <= 1.0) for d in self.state_discounts + self.var_discounts):
            raise ValueError("discounts must lie in (0, 1]")
        if any(d < 1 for d in self.orders):
            raise ValueError("orders must be >= 1")


@dataclass
class TvarFit:
    order: int
    state_discount: float
    var_discount: float
    coeff_means: np.ndarray   # (steps, order): filtered posterior means
    coeff_covs: np.ndarray    # (steps, order, order): Student-t scale matrices (carry s_t)
    s: np.ndarray             # (steps,) filtered variance estimates
    dof: np.ndarray           # (steps,) filtered degrees of freedom
    log_marginal: float
    series: np.ndarray = field(repr=False, default=None)

    @property
    def n_steps(self):
        return len(self.s)

    def validate(self, atol=None, n_symbols=None):
        """Raise ValueError unless the fit is one the filter could give: a
        positive integer order, discounts in (0, 1], coeff_means (steps,
        order), coeff_covs (steps, order, order), s and dof (steps,) with
        steps >= 1, a series of steps + order values, every entry finite
        and s and dof positive.  atol and n_symbols belong to the shared
        validate signature and do not apply to a TVAR fit."""
        check_positive_ints([("order", self.order)])
        for name in ("state_discount", "var_discount"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        s = np.asarray(self.s, dtype=float)
        if s.ndim != 1 or len(s) < 1:
            raise ValueError("s must be a non-empty 1-d array")
        steps, d = len(s), self.order
        for name, value, shape in [("coeff_means", self.coeff_means, (steps, d)),
                                   ("coeff_covs", self.coeff_covs, (steps, d, d)),
                                   ("s", s, (steps,)), ("dof", self.dof, (steps,)),
                                   ("series", self.series, (steps + d,))]:
            check_table(name, value, shape)
        if np.any(s <= 0) or np.any(np.asarray(self.dof, dtype=float) <= 0):
            raise ValueError("s and dof must be positive")


def fit_tvar(series, order, state_discount, var_discount):
    """Discounted DLM forward filter over a real-valued series.

    The log marginal likelihood accumulates the one-step predictive
    Student-t log densities.
    """
    y = np.asarray(series, dtype=float)
    d = int(order)
    if len(y) <= d + 1:
        raise ValueError("series must be longer than order + 1")
    delta, beta = float(state_discount), float(var_discount)

    m = np.zeros(d)
    C = np.eye(d) * PRIOR_SCALE
    n_dof = PRIOR_DF
    s_est = PRIOR_OBS_VAR

    steps = len(y) - d
    means = np.empty((steps, d))
    covs = np.empty((steps, d, d))
    s_hist = np.empty(steps)
    dof_hist = np.empty(steps)
    errs = np.empty(steps)
    dfs = np.empty(steps)
    qs = np.empty(steps)
    for i, t in enumerate(range(d, len(y))):
        F = y[t - d:t][::-1]  # most recent lag first
        R = C / delta
        n_prior = beta * n_dof
        f = F @ m
        q = F @ R @ F + s_est
        if not np.isfinite(q) or q <= 0:
            raise FloatingPointError(f"numerically singular update at step {i}")
        e = y[t] - f
        errs[i], dfs[i], qs[i] = e, n_prior, q
        A = (R @ F) / q
        m = m + A * e
        n_dof = n_prior + 1.0
        d_new = n_prior * s_est + s_est * e * e / q
        s_new = d_new / n_dof
        C = (s_new / s_est) * (R - np.outer(A, A) * q)
        C = 0.5 * (C + C.T)  # keep the filter covariance symmetric PSD
        s_est = s_new
        means[i] = m
        covs[i] = C
        s_hist[i] = s_est
        dof_hist[i] = n_dof
    # one density call per cell; cumsum adds left to right, as a running
    # scalar sum would (np.sum adds pairwise and can differ in the last bit)
    log_dens = stats.t.logpdf(errs, df=dfs, scale=np.sqrt(qs))
    log_marginal = np.cumsum(log_dens)[-1]
    return TvarFit(d, delta, beta, means, covs, s_hist, dof_hist,
                   float(log_marginal), series=y)


def grid_search(spec, series):
    """Fit every (order, state discount, variance discount) cell and return
    (best_fit, audit) with a deterministic tie-break: smaller order, then
    larger state discount, then larger variance discount.

    A cell whose filter goes numerically singular is listed in the audit
    with log_marginal None and its error message, and takes no part in the
    choice; FloatingPointError is raised only when every cell fails.
    """
    audit = []
    best = None
    best_key = None
    for order, sd, vd in itertools.product(spec.orders, spec.state_discounts,
                                           spec.var_discounts):
        cell = {"order": order, "state_discount": sd, "var_discount": vd}
        try:
            fit = fit_tvar(series, order, sd, vd)
        except FloatingPointError as exc:
            audit.append({**cell, "log_marginal": None, "error": str(exc)})
            continue
        audit.append({**cell, "log_marginal": fit.log_marginal})
        key = (fit.log_marginal, -order, sd, vd)
        if best_key is None or key > best_key:
            best, best_key = fit, key
    if best is None:
        raise FloatingPointError(f"every TVAR grid cell failed; first: {audit[0]['error']}")
    return best, audit


def backward_sample(fit, length, seed, sample_coeffs=True, innovation_scale=1.0):
    """Sample a coefficient trajectory backwards, then simulate forward.

    Initial lags come from the training series' opening values.  With
    sample_coeffs=False the posterior means are used; innovation_scale=0
    gives the deterministic AR extrapolation.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = _as_rng(seed)
    d = fit.order
    steps = fit.n_steps
    delta = fit.state_discount

    v = fit.s[-1]
    theta = np.empty((steps, d))
    if sample_coeffs:
        v = v * fit.dof[-1] / rng.chisquare(fit.dof[-1])
        scale_T = fit.coeff_covs[-1] * (v / fit.s[-1])
        theta[-1] = rng.multivariate_normal(fit.coeff_means[-1], scale_T,
                                            method="svd")
        for t in range(steps - 2, -1, -1):
            # discount evolution: B_t = delta, residual variance (1 - delta) C_t
            mean = fit.coeff_means[t] + delta * (theta[t + 1] - fit.coeff_means[t])
            cov = (1.0 - delta) * fit.coeff_covs[t] * (v / fit.s[t])
            theta[t] = mean if delta >= 1.0 else rng.multivariate_normal(mean, cov,
                                                                         method="svd")
    else:
        theta[:] = fit.coeff_means

    lags = list(fit.series[:d][::-1])  # most recent first
    out = np.empty(length)
    sd_noise = np.sqrt(v) * innovation_scale
    eps = rng.standard_normal(length)
    # an explosive fit overflows to inf or nan, which bin_to_alphabet rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(length):
            coeff = theta[min(t, steps - 1)]
            x = float(coeff @ np.asarray(lags)) + sd_noise * eps[t]
            out[t] = x
            lags = [x] + lags[:-1]
    return out


def bin_to_alphabet(series, alphabet):
    """Map each real value to the nearest alphabet pitch (ties break low)."""
    values = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("series contains non-finite values")
    symbols = np.asarray(alphabet.symbols, dtype=float)
    if len(symbols) == 0:
        raise ValueError("alphabet is empty")
    midpoints = (symbols[:-1] + symbols[1:]) / 2.0
    idx = np.searchsorted(midpoints, values, side="left")
    return alphabet.symbols[idx]
