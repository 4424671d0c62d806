"""Time-varying autoregression via discount-factor dynamic linear models.

Forward filtering with a state discount (coefficient drift) and a
variance discount (volatility drift); order and discounts chosen by grid
search on the cumulative one-step-ahead (Student-t) log marginal
likelihood.  The cells of one order share their regressors, so the grid
runs one filter per order on the stacked cells and flags, after its loop,
each cell that went numerically singular; the winner is filtered again
alone (``fit_tvar`` is the one-cell case).  Generation samples a
coefficient trajectory backwards from the filtered posteriors and
simulates the observation equation forward; real-valued output is
binned to the nearest pitch of the training alphabet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

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
        check_positive_ints(("orders", d) for d in self.orders)


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
        """Raise ValueError unless the filter could give this fit: order >= 1,
        discounts in (0, 1], finite tables of one step count and positive s
        and dof (atol and n_symbols do not apply to a TVAR fit)."""
        check_positive_ints([("order", self.order)])
        for name in ("state_discount", "var_discount"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        s = np.asarray(self.s, dtype=float)
        if s.ndim != 1 or len(s) < 1:
            raise ValueError("s must be a non-empty 1-d array")
        steps, d = len(s), self.order
        for name, shape in [("coeff_means", (steps, d)), ("coeff_covs", (steps, d, d)),
                            ("s", (steps,)), ("dof", (steps,)), ("series", (steps + d,))]:
            check_table(name, getattr(self, name), shape)
        if np.any(s <= 0) or np.any(np.asarray(self.dof, dtype=float) <= 0):
            raise ValueError("s and dof must be positive")


def fit_tvar(series, order, state_discount, var_discount):
    """Discounted DLM forward filter over a real-valued series: the
    one-cell case of the grid's stacked filter.

    The log marginal likelihood accumulates the one-step predictive
    Student-t log densities.  Raises FloatingPointError when an update
    goes numerically singular.
    """
    TvarSpec((order,), (state_discount,), (var_discount,))  # raises on a bad argument
    y = np.asarray(series, dtype=float)
    if len(y) <= order + 1:
        raise ValueError("series must be longer than order + 1")
    [fit] = _stacked_filter(y, order, [(state_discount, var_discount)])
    if isinstance(fit, str):
        raise FloatingPointError(fit)
    return fit


@np.errstate(all="ignore")  # a flagged cell's inf and NaN stay in its own row
def _stacked_filter(y, d, cells):
    """The discount filter of order d run at once for every (state
    discount, variance discount) cell, on stacked (cells, d) means and
    (cells, d, d) covariances.  Every cell shares the regressors F, and
    each stacked slice does one cell's arithmetic, so a cell gets the same
    bits alone or in a stack.  A cell whose predictive variance q goes
    non-finite or non-positive is flagged after the loop, from its q history.

    Returns one entry per cell, in order: its TvarFit, or the message
    naming the first step where it went singular.
    """
    from scipy import stats  # here, so that `import sscompose` does not load it

    delta, beta = (np.array(column, dtype=float) for column in zip(*cells))
    k, steps = len(cells), len(y) - d
    m = np.zeros((k, d))
    C = np.tile(np.eye(d) * PRIOR_SCALE, (k, 1, 1))
    n_dof = np.full(k, PRIOR_DF)
    s_est = np.full(k, PRIOR_OBS_VAR)
    # per-step history of each cell: means, covs, s, dof, and the
    # residual, prior degrees of freedom and predictive variance
    hist = [np.empty((k, steps, d)), np.empty((k, steps, d, d))] + [
        np.empty((k, steps)) for _ in range(5)]
    for i, t in enumerate(range(d, len(y))):
        F = y[t - d:t][::-1]  # most recent lag first
        R = C / delta[:, None, None]
        n_prior = beta * n_dof
        f = m @ F
        q = np.matmul(np.matmul(F, R), F) + s_est
        e = y[t] - f
        A = np.matmul(R, F) / q[:, None]
        m = m + A * e[:, None]
        n_dof = n_prior + 1.0
        d_new = n_prior * s_est + s_est * e * e / q
        s_new = d_new / n_dof
        C = (s_new / s_est)[:, None, None] * (
            R - A[:, :, None] * A[:, None, :] * q[:, None, None])
        C = 0.5 * (C + C.transpose(0, 2, 1))  # keep the filter covariance symmetric PSD
        s_est = s_new
        for h, value in zip(hist, (m, C, s_est, n_dof, e, n_prior, q)):
            h[:, i] = value
    means, covs, s_hist, dof_hist, errs, dfs, qs = hist
    # one density call per stack; cumsum adds left to right, as a running
    # scalar sum would (np.sum adds pairwise and can differ in the last bit)
    log_marginal = np.cumsum(stats.t.logpdf(errs, df=dfs, scale=np.sqrt(qs)), axis=1)[:, -1]
    singular = ~(np.isfinite(qs) & (qs > 0))  # (cells, steps)
    return [f"numerically singular update at step {singular[c].argmax()}" if singular[c].any()
            else TvarFit(d, float(sd), float(vd), means[c], covs[c], s_hist[c], dof_hist[c],
                         float(log_marginal[c]), series=y)
            for c, (sd, vd) in enumerate(cells)]


def grid_search(spec, series):
    """Fit every (order, state discount, variance discount) cell, one
    stacked filter per order, and return (best_fit, audit): the best audit
    entry, filtered again alone, with a tie-break to the smaller order, then
    the larger state discount, then the larger variance discount.

    A cell whose filter goes numerically singular, or whose order leaves
    the series too short to filter, is listed in the audit with
    log_marginal None and its error message, and takes no part in the
    choice.  ValueError is raised when the series is too short for every
    order, and FloatingPointError when every other cell fails.
    """
    y = np.asarray(series, dtype=float)
    audit = []
    cells = list(itertools.product(spec.state_discounts, spec.var_discounts))
    for order in spec.orders:
        if len(y) <= order + 1:
            fits = [f"order {order} needs a piece of more than {order + 1} notes; "
                    f"this one has {len(y)}"] * len(cells)
        else:
            fits = _stacked_filter(y, order, cells)
        for (sd, vd), fit in zip(cells, fits):
            cell = {"order": order, "state_discount": sd, "var_discount": vd}
            if isinstance(fit, str):
                audit.append({**cell, "log_marginal": None, "error": fit})
                continue
            audit.append({**cell, "log_marginal": fit.log_marginal})
    win = max((cell for cell in audit if cell["log_marginal"] is not None), default=None,
              key=lambda c: (c["log_marginal"], -c["order"], c["state_discount"], c["var_discount"]))
    if win is None:
        shortest = min(spec.orders) + 2
        if len(y) < shortest:
            raise ValueError(f"a piece of {len(y)} notes is too short for the TVAR grid, "
                             f"which needs at least {shortest}")
        raise FloatingPointError(f"every TVAR grid cell failed; first: {audit[0]['error']}")
    # the winner alone: a stacked fit would hold its whole order's history
    [best] = _stacked_filter(y, win["order"], [(win["state_discount"], win["var_discount"])])
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
                                            method="svd", check_valid="raise")
        for t in range(steps - 2, -1, -1):
            # discount evolution: B_t = delta, residual variance (1 - delta) C_t
            mean = fit.coeff_means[t] + delta * (theta[t + 1] - fit.coeff_means[t])
            theta[t] = mean if delta >= 1.0 else rng.multivariate_normal(
                mean, (1.0 - delta) * fit.coeff_covs[t] * (v / fit.s[t]),
                method="svd", check_valid="raise")
    else:
        theta[:] = fit.coeff_means

    # the simulated values newest first, then the training series' opening
    # values: out[t] is history[length - 1 - t], and step t's lags, newest
    # first, are history[length - t:length - t + d]
    history = np.empty(length + d)
    history[length:] = fit.series[:d][::-1]
    sd_noise = np.sqrt(v) * innovation_scale
    eps = rng.standard_normal(length)
    # an explosive fit overflows to inf or nan, which bin_to_alphabet rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(length):
            at = length - t
            history[at - 1] = float(theta[min(t, steps - 1)] @ history[at:at + d]) \
                + sd_noise * eps[t]
    return history[length - 1::-1]


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
