import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (batch_conjugate_regression, stepwise_tvar_log_marginal,
                     stepwise_tvar_sample)
from sscompose import tvar
from sscompose.midi_codec import PitchAlphabet


def test_constant_series_coefficient_converges_to_one():
    y = np.full(101, 60.0)
    fit = tvar.fit_tvar(y, 1, 1.0, 1.0)
    assert abs(fit.coeff_means[-1][0] - 1.0) < 0.05


def test_discount_one_matches_batch_regression():
    rng = np.random.default_rng(0)
    y = np.cumsum(rng.standard_normal(120)) + 60
    fit = tvar.fit_tvar(y, 3, 1.0, 1.0)
    m, C, s, n_dof, lm = batch_conjugate_regression(y, 3)
    assert np.abs(fit.coeff_means[-1] - m).max() < 1e-8
    assert np.abs(fit.coeff_covs[-1] - C).max() < 1e-8
    assert abs(fit.s[-1] - s) < 1e-8
    assert abs(fit.dof[-1] - n_dof) < 1e-8
    assert abs(fit.log_marginal - lm) < 1e-8


def test_white_noise_coefficient_near_zero():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(501)
    fit = tvar.fit_tvar(y, 1, 1.0, 1.0)
    assert abs(fit.coeff_means[-1][0]) < 0.1


def test_fit_covariances_psd():
    rng = np.random.default_rng(2)
    y = np.cumsum(rng.standard_normal(80)) + 60
    fit = tvar.fit_tvar(y, 4, 0.95, 0.95)
    for C in fit.coeff_covs:
        assert np.abs(C - C.T).max() == 0.0
        assert np.linalg.eigvalsh(C).min() >= -1e-10


def test_fit_short_series_error():
    with pytest.raises(ValueError):
        tvar.fit_tvar(np.arange(5.0), 4, 0.95, 0.95)
    # fit_tvar checks its arguments with TvarSpec's rule
    y = np.cumsum(np.random.default_rng(0).standard_normal(60))
    for args in [(3, 1.5, 0.9), (3, 0.9, 0.0), (3, 0.9, np.nan), (0, 0.9, 0.9),
                 (2.5, 0.9, 0.9), (-1, 0.9, 0.9), (True, 0.9, 0.9)]:
        with pytest.raises(ValueError):
            tvar.fit_tvar(y, *args)


def test_spec_validation():
    with pytest.raises(ValueError):
        tvar.TvarSpec(state_discounts=(1.5,))
    for orders in [(0,), (2.5,), (7, -1), (True,)]:
        with pytest.raises(ValueError, match="orders must be a positive integer"):
            tvar.TvarSpec(orders=orders)


def test_grid_search_single_cell():
    rng = np.random.default_rng(3)
    y = np.cumsum(rng.standard_normal(60)) + 60
    spec = tvar.TvarSpec(orders=(2,), state_discounts=(0.95,), var_discounts=(0.99,))
    best, audit = tvar.grid_search(spec, y)
    assert (best.order, best.state_discount, best.var_discount) == (2, 0.95, 0.99)
    assert len(audit) == 1


def test_grid_search_argmax_and_tie_break():
    rng = np.random.default_rng(4)
    y = np.cumsum(rng.standard_normal(150)) + 60
    spec = tvar.TvarSpec(orders=(2, 3), state_discounts=(0.95, 1.0),
                         var_discounts=(0.95, 0.99))
    best, audit = tvar.grid_search(spec, y)
    # recompute independently and apply the documented tie-break ordering
    keys = []
    for cell in audit:
        fit = tvar.fit_tvar(y, cell["order"], cell["state_discount"],
                            cell["var_discount"])
        assert fit.log_marginal == pytest.approx(cell["log_marginal"], abs=0)
        keys.append((fit.log_marginal, -cell["order"], cell["state_discount"],
                     cell["var_discount"]))
    want = max(keys)
    got = (best.log_marginal, -best.order, best.state_discount, best.var_discount)
    assert got == want


def test_grid_search_plateau_on_low_order_truth():
    # AR(2) data: the 7..14 order grid should show a likelihood plateau
    rng = np.random.default_rng(5)
    y = np.zeros(400)
    for t in range(2, 400):
        y[t] = 0.5 * y[t - 1] - 0.3 * y[t - 2] + rng.standard_normal()
    spec = tvar.TvarSpec(state_discounts=(1.0,), var_discounts=(0.99,))
    best, audit = tvar.grid_search(spec, y)
    lms = {cell["order"]: cell["log_marginal"] for cell in audit}
    spread = max(lms.values()) - min(lms.values())
    assert spread < 10.0  # no order in the grid is strongly favored
    assert best.order in range(7, 15)


def test_grid_all_cells_finite_on_melody():
    rng = np.random.default_rng(6)
    y = 60 + np.round(np.cumsum(rng.integers(-2, 3, 120))).astype(float)
    _, audit = tvar.grid_search(tvar.TvarSpec(), y)
    assert all(np.isfinite(cell["log_marginal"]) for cell in audit)


def test_backward_sample_deterministic_limit():
    rng = np.random.default_rng(7)
    y = np.cumsum(rng.standard_normal(60)) + 60
    fit = tvar.fit_tvar(y, 2, 0.95, 0.95)
    out = tvar.backward_sample(fit, 10, seed=0, sample_coeffs=False,
                               innovation_scale=0.0)
    lags = [y[1], y[0]]
    for t in range(10):
        coeff = fit.coeff_means[min(t, fit.n_steps - 1)]
        x = float(coeff @ np.asarray(lags))
        assert out[t] == pytest.approx(x, abs=1e-12)
        lags = [x] + lags[:-1]


def test_backward_sample_seeded_and_sized():
    rng = np.random.default_rng(8)
    y = np.cumsum(rng.standard_normal(60)) + 60
    fit = tvar.fit_tvar(y, 3, 0.95, 0.95)
    a = tvar.backward_sample(fit, 25, seed=5)
    b = tvar.backward_sample(fit, 25, seed=5)
    assert len(a) == 25
    assert np.array_equal(a, b)


@pytest.mark.parametrize("state_discount", [1.0, 0.95])
def test_backward_sample_matches_the_frozen_sampler(state_discount):
    rng = np.random.default_rng(9)
    y = np.cumsum(rng.standard_normal(40)) + 60
    fit = tvar.fit_tvar(y, 3, state_discount, 0.9)
    for length in (1, fit.order, fit.n_steps + 15):
        for seed in range(4):
            want = stepwise_tvar_sample(fit, length, seed)
            assert np.array_equal(tvar.backward_sample(fit, length, seed), want)


def test_bin_to_alphabet_nearest():
    alpha = PitchAlphabet(np.array([50, 62, 64, 66, 67]))
    assert tvar.bin_to_alphabet([63.2], alpha)[0] == 64
    assert tvar.bin_to_alphabet([64.0], alpha)[0] == 64
    assert tvar.bin_to_alphabet([63.0], alpha)[0] == 62  # midpoint breaks low


def test_bin_to_alphabet_subset_and_errors():
    alpha = PitchAlphabet(np.array([40, 45, 60]))
    rng = np.random.default_rng(9)
    out = tvar.bin_to_alphabet(rng.normal(50, 20, 100), alpha)
    assert set(out.tolist()) <= {40, 45, 60}
    with pytest.raises(ValueError):
        tvar.bin_to_alphabet([np.nan], alpha)
    with pytest.raises(ValueError, match="^alphabet is empty$"):
        tvar.bin_to_alphabet([60.0], PitchAlphabet(np.array([])))


@pytest.mark.parametrize("order,state_discount,var_discount",
                         [(1, 1.0, 1.0), (3, 0.95, 0.99), (7, 0.9, 0.9), (14, 0.99, 0.95)])
def test_log_marginal_is_the_stepwise_density_sum(order, state_discount, var_discount):
    rng = np.random.default_rng(10)
    y = 50.0 + np.cumsum(rng.integers(-2, 3, 300)) % 12
    fit = tvar.fit_tvar(y, order, state_discount, var_discount)
    assert fit.log_marginal == stepwise_tvar_log_marginal(y, order, state_discount,
                                                          var_discount)


def test_singular_update_raises_at_the_same_step():
    # a long run of one repeated note drives the filter covariance singular
    rng = np.random.default_rng(0)
    y = np.concatenate([np.clip(60 + np.cumsum(rng.integers(-4, 5, 60)), 48, 72),
                        np.full(300, 72)]).astype(float)
    with pytest.raises(FloatingPointError) as want:
        stepwise_tvar_log_marginal(y, 7, 0.9, 0.95)
    with pytest.raises(FloatingPointError) as got:
        tvar.fit_tvar(y, 7, 0.9, 0.95)
    assert str(got.value) == str(want.value)


def _walk_then_repeats():
    rng = np.random.default_rng(0)
    return np.concatenate([np.clip(60 + np.cumsum(rng.integers(-4, 5, 60)), 48, 72),
                           np.full(300, 72)]).astype(float)


def test_grid_search_skips_singular_cells():
    y = _walk_then_repeats()
    spec = tvar.TvarSpec(orders=(7, 8), state_discounts=(0.9, 1.0), var_discounts=(0.95,))
    best, audit = tvar.grid_search(spec, y)
    failed = [cell for cell in audit if cell["log_marginal"] is None]
    assert [(c["order"], c["state_discount"]) for c in failed] == [(7, 0.9), (8, 0.9)]
    assert failed[0]["error"] == "numerically singular update at step 350"
    ok = [cell for cell in audit if cell["log_marginal"] is not None]
    assert all("error" not in cell for cell in ok)
    for cell in ok:
        fit = tvar.fit_tvar(y, cell["order"], cell["state_discount"], cell["var_discount"])
        assert cell["log_marginal"] == fit.log_marginal
    assert best.log_marginal == max(cell["log_marginal"] for cell in ok)
    json.dumps(audit, allow_nan=False)


def test_grid_search_raises_when_every_cell_fails():
    spec = tvar.TvarSpec(orders=(7,), state_discounts=(0.9,), var_discounts=(0.95,))
    with pytest.raises(FloatingPointError, match="every TVAR grid cell failed"):
        tvar.grid_search(spec, _walk_then_repeats())


def test_tvar_fit_validate():
    rng = np.random.default_rng(12)
    series = np.cumsum(rng.standard_normal(60))
    tvar.fit_tvar(series, 3, 0.95, 0.99).validate()
    for name, value, message in [
            ("order", 0, "order must be a positive integer"),
            ("order", 2, "coeff_means has shape"),
            ("state_discount", 0.0, "state_discount must lie in"),
            ("var_discount", 1.5, "var_discount must lie in"),
            ("s", np.ones((57, 1)), "s must be a non-empty 1-d array"),
            ("coeff_means", np.zeros((1, 3)), "coeff_means has shape"),
            ("coeff_covs", np.zeros((57, 3)), "coeff_covs has shape"),
            ("dof", np.ones(56), "dof has shape"),
            ("series", None, "series has shape"),
            ("series", np.ones(59), "series has shape"),
            ("coeff_means", np.full((57, 3), np.inf), "coeff_means has non-finite"),
            ("s", np.zeros(57), "s and dof must be positive"),
            ("dof", -np.ones(57), "s and dof must be positive")]:
        fit = tvar.fit_tvar(series, 3, 0.95, 0.99)
        setattr(fit, name, value)
        with pytest.raises(ValueError, match=message):
            fit.validate()


def test_stacked_grid_gives_each_cell_the_one_cell_filter_bits():
    # each order's cells run as one stacked filter; fit_tvar runs one cell alone
    rng = np.random.default_rng(41)  # acceptance criterion 8's piece
    y = 50.0 + np.cumsum(rng.integers(-2, 3, 500)) % 12
    best, audit = tvar.grid_search(tvar.TvarSpec(), y)
    assert len(audit) == 96
    for cell in audit:
        fit = tvar.fit_tvar(y, cell["order"], cell["state_discount"], cell["var_discount"])
        assert cell["log_marginal"] == fit.log_marginal
    alone = tvar.fit_tvar(y, best.order, best.state_discount, best.var_discount)
    for name in ("coeff_means", "coeff_covs", "s", "dof"):
        assert np.array_equal(getattr(best, name), getattr(alone, name)), name


def test_grid_search_returns_a_fit_that_holds_only_its_own_cell():
    # the winner is filtered again alone, so its order's stacked history is freed
    rng = np.random.default_rng(41)
    y = 50.0 + np.cumsum(rng.integers(-2, 3, 500)) % 12
    tvar.grid_search(tvar.TvarSpec(), y)  # imports scipy.stats before tracing
    tracemalloc.start()
    try:
        best, _ = tvar.grid_search(tvar.TvarSpec(), y)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = sum(getattr(best, name).nbytes for name in ("coeff_means", "coeff_covs", "s", "dof"))
    assert held < 2 * own


def test_singular_cells_leave_the_stack_and_the_rest_keep_their_bits():
    # two cells go singular at different steps; the stack carries on without them
    y = _walk_then_repeats()
    cells = [(0.9, 0.95), (1.0, 0.95), (0.9, 0.9), (0.99, 0.99)]
    stacked = tvar._stacked_filter(y, 7, cells)
    errors = []
    for (sd, vd), got in zip(cells, stacked):
        try:
            want = tvar.fit_tvar(y, 7, sd, vd)
        except FloatingPointError as exc:
            errors.append(got)
            assert got == str(exc)
            continue
        assert got.log_marginal == want.log_marginal
        assert np.array_equal(got.coeff_covs, want.coeff_covs)
    assert errors == ["numerically singular update at step 350",
                      "numerically singular update at step 342"]



def test_a_stack_whose_every_cell_fails_returns_each_cell_its_message():
    # failed cells stay in the stack to the end; their inf and NaN raise nothing
    y = _walk_then_repeats()
    cells = [(0.9, 0.95), (0.9, 0.9)]
    want = []
    for sd, vd in cells:
        with pytest.raises(FloatingPointError) as exc:
            tvar.fit_tvar(y, 7, sd, vd)
        want.append(str(exc.value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tvar._stacked_filter(y, 7, cells) == want


def test_importing_the_package_leaves_scipy_stats_unloaded():
    # only M14's grid uses scipy.stats, and it imports it when it runs
    code = "import sys, sscompose; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_importing_the_command_line_leaves_scipy_unloaded():
    # only M9's fit and M14's grid use scipy, and each imports it when it runs
    code = "import sys, sscompose.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
