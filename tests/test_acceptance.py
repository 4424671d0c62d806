"""Acceptance gate: one test per criterion, each printing a pass line.

Criterion 9 (corpus reproduction) is conditional: it runs only when the
SSCOMPOSE_CORPUS_DIR environment variable points at a directory holding
the ten source pieces in MIDI-CSV form, and is skipped otherwise.

Run with `pytest -s tests/test_acceptance.py` to see the pass lines.
"""

import json
import os
import time

import numpy as np
import pytest

import conftest
import oracles as O
from sscompose import cli, hierarchical, hmm, metrics, semimarkov, tvar, variants
from sscompose.midi_codec import PitchSequence, emit_midi_csv, parse_midi_csv


def _report(line):
    # queued for the terminal summary so the line survives output capture
    conftest.ACCEPTANCE_LINES.append(f"PASS: {line}")
    print(f"PASS: {line}")


# -------------------------------------------------------------------------
# 1. oracle suite


def test_criterion_1_oracle_suite():
    start = time.time()
    rng = np.random.default_rng(20260823)
    checks = 0

    def close(got, want):
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    for _ in range(100):
        n = int(rng.integers(2, 4))
        K = int(rng.integers(2, 4))
        T = int(rng.integers(3, 9))
        obs = rng.integers(0, K, T)

        params = hmm.random_params(n, K, rng)
        close(hmm.log_likelihood(params, obs),
              O.enum_hmm_loglik(params.initial, params.transition,
                                params.emission, obs))
        path = hmm.viterbi(params, obs)
        close(O.path_logprob(params.initial, params.transition,
                             params.emission, obs, path),
              O.enum_viterbi_logprob(params.initial, params.transition,
                                     params.emission, obs))

        k = int(rng.integers(1, 3))
        kp = variants.random_khmm_params(n, k, K, rng)
        close(hmm.log_likelihood(kp, obs), O.enum_khmm_loglik(kp, obs))

        ap = variants.random_arhmm_params(n, K, rng)
        close(hmm.log_likelihood(ap, obs), O.enum_arhmm_loglik(ap, obs))

        hp = semimarkov.random_hsmm_params(n, K, int(rng.integers(1, 4)), rng)
        close(hmm.log_likelihood(hp, obs), O.enum_hsmm_loglik(hp, obs))

        m1 = int(rng.integers(2, 4))
        m2 = int(rng.integers(2, 4))
        T_ts = min(T, 6)  # keep (m1*m2)^T enumerable
        tp = hierarchical.random_tshmm_params(m1, m2, K, rng)
        close(hmm.log_likelihood(tp, obs[:T_ts]),
              O.enum_tshmm_loglik(tp, obs[:T_ts]))

        chains = tuple(int(rng.integers(2, 4)) for _ in range(2))
        T_f = min(T, 5)
        fp = hierarchical.random_fhmm_params(chains, K, rng)
        close(hmm.log_likelihood(fp, obs[:T_f]),
              O.enum_fhmm_loglik(fp, obs[:T_f]))
        checks += 7

    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(f"criterion 1 (oracle suite): {checks} enumeration checks matched "
            f"at 1e-10 relative in {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 2. EM monotonicity


def test_criterion_2_em_monotonicity():
    rng = np.random.default_rng(17)
    max_iter = 25
    worst = 0.0
    for i in range(20):
        K = int(rng.integers(3, 6))
        obs = rng.integers(0, K, 200)
        traces = []
        _, r = hmm.baum_welch(hmm.random_params(4, K, rng), obs, max_iter=max_iter)
        traces.append(r.log_likelihood_trace)
        _, r = variants.train_khmm(obs, 3, 2, K, seed=int(rng.integers(1e6)),
                                   max_iter=max_iter)
        traces.append(r.log_likelihood_trace)
        _, r = variants.train_lrhmm(obs, 4, K, seed=int(rng.integers(1e6)),
                                    max_iter=max_iter)
        traces.append(r.log_likelihood_trace)
        _, r = variants.train_arhmm(obs, 3, K, seed=int(rng.integers(1e6)),
                                    max_iter=max_iter)
        traces.append(r.log_likelihood_trace)
        _, r = semimarkov.train_hsmm(obs, 3, K, 5, seed=int(rng.integers(1e6)),
                                     max_iter=max_iter)
        traces.append(r.log_likelihood_trace)
        tsp, r = hierarchical.train_tshmm(obs, 3, 2, K, seed=int(rng.integers(1e6)),
                                          max_iter=max_iter)
        traces.append(r.log_likelihood_trace)
        _, r = hierarchical.train_fhmm(obs, (3, 2), K, seed=int(rng.integers(1e6)),
                                       max_iter=max_iter)
        traces.append(r.log_likelihood_trace)
        lp, _ = hierarchical.train_lhmm(obs, 3, 2, K, seed=int(rng.integers(1e6)),
                                        max_iter=max_iter)
        traces.extend(layer.log_likelihood_trace for layer in lp.layer_reports)
        for trace in traces:
            if len(trace) > 1:
                worst = min(worst, float(np.diff(trace).min()))
        assert worst >= -1e-8
    _report(f"criterion 2 (EM monotonicity): 20 sequences x 8 variants, worst "
            f"log-likelihood step {worst:.2e} >= -1e-8")


# -------------------------------------------------------------------------
# 3. reduction equalities


def test_criterion_3_reduction_equalities():
    rng = np.random.default_rng(23)
    obs = rng.integers(0, 4, 180)
    max_iter = 25
    init = hmm.random_params(3, 4, 99)
    _, ref = hmm.baum_welch(init, obs, max_iter=max_iter)
    ref_trace = np.asarray(ref.log_likelihood_trace)

    khmm_init = variants.KhmmParams(1, 3, init.initial.copy(), [],
                                    init.transition.copy(), init.emission.copy())
    _, r = variants.train_khmm(obs, 3, 1, 4, init=khmm_init, max_iter=max_iter)
    assert np.abs(np.asarray(r.log_likelihood_trace) - ref_trace).max() < 1e-9

    tshmm_init = hierarchical.TshmmParams(3, 1, np.ones((1, 1)),
                                          init.transition.copy()[None],
                                          init.initial.copy(), init.emission.copy())
    _, r = hierarchical.train_tshmm(obs, 3, 1, 4, init=tshmm_init, max_iter=max_iter)
    assert np.abs(np.asarray(r.log_likelihood_trace) - ref_trace).max() < 1e-9

    fhmm_init = hierarchical.FhmmParams((3,), [init.initial.copy()],
                                        [init.transition.copy()],
                                        init.emission.copy())
    _, r = hierarchical.train_fhmm(obs, (3,), 4, init=fhmm_init, max_iter=max_iter)
    assert np.abs(np.asarray(r.log_likelihood_trace) - ref_trace).max() < 1e-9

    _, r = hierarchical.train_lhmm(obs, 3, 1, 4, inits=[init], max_iter=max_iter)
    assert np.abs(np.asarray(r.log_likelihood_trace) - ref_trace).max() < 1e-9

    # HSMM with D_max = 1 against the zero-self-transition HMM
    offdiag = 1.0 - np.eye(3)
    zinit = hmm.HmmParams(init.initial.copy(),
                          init.transition * offdiag
                          / (init.transition * offdiag).sum(axis=1, keepdims=True),
                          init.emission.copy())
    _, zref = hmm.baum_welch(zinit, obs, max_iter=max_iter, transition_mask=offdiag)
    hsmm_init = semimarkov.HsmmParams(zinit.initial.copy(), zinit.transition.copy(),
                                      zinit.emission.copy(), np.ones((3, 1)))
    _, r = semimarkov.train_hsmm(obs, 3, 4, 1, init=hsmm_init, max_iter=max_iter)
    assert np.abs(np.asarray(r.log_likelihood_trace)
                  - np.asarray(zref.log_likelihood_trace)).max() < 1e-9

    _report("criterion 3 (reductions): KHMM(k=1), TSHMM(m2=1), FHMM(m=1), "
            "LHMM(L=1), HSMM(D_max=1) all match the first-order fit within 1e-9")


# -------------------------------------------------------------------------
# 4. two-hidden-state constraint check


def test_criterion_4_tshmm_constraints():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(5):
        obs = rng.integers(0, 4, 120)
        params = hierarchical.random_tshmm_params(4, 3, 4, rng)
        for _ in range(10):
            params, _ = hierarchical.tshmm_em_step(params, obs)
            worst = max(worst, float(np.abs(params.C.sum(axis=1) - 1.0).max()),
                        float(np.abs(params.D.sum(axis=2) - 1.0).max()))
            assert worst < 1e-12
    _report(f"criterion 4 (two-hidden-state constraints): row sums of C and D "
            f"within {worst:.2e} of 1 after every M-step (< 1e-12)")


# -------------------------------------------------------------------------
# 5. TVAR


def test_criterion_5_tvar():
    rng = np.random.default_rng(31)
    # (a) discount 1.0 equals batch conjugate regression
    y = np.cumsum(rng.standard_normal(150)) + 60
    fit = tvar.fit_tvar(y, 4, 1.0, 1.0)
    m, C, s, n_dof, lm = O.batch_conjugate_regression(y, 4)
    assert np.abs(fit.coeff_means[-1] - m).max() < 1e-8
    assert np.abs(fit.coeff_covs[-1] - C).max() < 1e-8
    assert abs(fit.s[-1] - s) < 1e-8
    assert abs(fit.log_marginal - lm) < 1e-8

    # (b) AR(1)-style recovery checks from the filter contract
    const = tvar.fit_tvar(np.full(101, 60.0), 1, 1.0, 1.0)
    assert abs(const.coeff_means[-1][0] - 1.0) < 0.05
    noise = tvar.fit_tvar(rng.standard_normal(501), 1, 1.0, 1.0)
    assert abs(noise.coeff_means[-1][0]) < 0.1

    # (c) grid search argmax verified by independent recomputation
    spec = tvar.TvarSpec(orders=(7, 8, 9), state_discounts=(0.95, 1.0),
                         var_discounts=(0.95, 0.99))
    series = np.cumsum(rng.standard_normal(200)) + 60
    best, audit = tvar.grid_search(spec, series)
    keys = []
    for cell in audit:
        refit = tvar.fit_tvar(series, cell["order"], cell["state_discount"],
                              cell["var_discount"])
        assert refit.log_marginal == cell["log_marginal"]
        keys.append((refit.log_marginal, -cell["order"], cell["state_discount"],
                     cell["var_discount"]))
    assert (best.log_marginal, -best.order, best.state_discount,
            best.var_discount) == max(keys)
    _report("criterion 5 (TVAR): discount-1 batch-regression match at 1e-8, "
            "filter recovery checks, grid argmax independently verified")


# -------------------------------------------------------------------------
# 6. metrics


def test_criterion_6_metrics():
    rng = np.random.default_rng(37)
    K = 6
    uniform = np.repeat(np.arange(K) + 50, 10)
    assert metrics.empirical_entropy(uniform) == pytest.approx(np.log(K), abs=1e-12)

    x = rng.integers(50, 58, 500)
    assert metrics.mutual_information(x, x) == pytest.approx(
        metrics.empirical_entropy(x), abs=1e-12)

    for _ in range(50):
        a = rng.integers(0, 3, rng.integers(0, 9))
        b = rng.integers(0, 3, rng.integers(0, 9))
        assert metrics.levenshtein(a, b) == O.brute_edit_distance(a, b)

    series = np.zeros(5000)
    for t in range(1, 5000):
        series[t] = 0.8 * series[t - 1] + rng.standard_normal()
    acf, pacf = metrics.acf_pacf(series, 40)
    assert max(abs(acf[h - 1] - 0.8 ** h) for h in range(1, 6)) < 0.05
    assert np.abs(pacf[1:]).max() < 0.05

    values = rng.standard_normal(2000) * 50
    got = metrics.rmse(values, 1.25)
    assert abs(got - O.rmse_naive(values, 1.25)) < 1e-12
    assert abs(got - O.rmse_compensated(values, 1.25)) < 1e-12
    _report("criterion 6 (metrics): uniform entropy, MI(X,X)=H, edit-distance "
            "brute force, AR(1) ACF/PACF pattern, dual-summation RMSE")


# -------------------------------------------------------------------------
# 7. first-bar fixture


FIRST_BAR = """\
0, 0, Header, 1, 2, 480
1, 0, Start_track
1, 0, Note_on_c, 0, 50, 80
1, 0, Note_on_c, 0, 62, 80
1, 0, Note_on_c, 0, 66, 80
1, 240, Note_on_c, 0, 50, 80
1, 480, Note_on_c, 0, 50, 80
1, 480, Note_on_c, 0, 62, 80
1, 480, Note_on_c, 0, 66, 80
1, 720, Note_on_c, 0, 64, 80
1, 720, Note_on_c, 0, 67, 80
1, 960, Note_on_c, 0, 50, 80
1, 1200, Note_on_c, 0, 50, 80
1, 1440, End_track
0, 1440, End_of_file
"""


def test_criterion_7_first_bar_fixture():
    seq = parse_midi_csv(FIRST_BAR)
    assert seq.pitches.tolist() == [50, 62, 66, 50, 50, 62, 66, 64, 67, 50, 50]
    hist = metrics.pitch_histogram(seq.pitches, [50, 62, 64, 66, 67])
    assert hist[0] == pytest.approx(5 / 11, abs=1e-15)
    _report("criterion 7 (first-bar fixture): parsed pitch list exact, "
            "pitch-50 histogram mass 5/11")


# -------------------------------------------------------------------------
# 8. end-to-end desk run


def test_criterion_8_end_to_end(tmp_path):
    start = time.time()
    rng = np.random.default_rng(41)
    walk = np.cumsum(rng.integers(-2, 3, 500)) % 12
    seq = PitchSequence(50 + walk, np.arange(500) * 240)
    piece = tmp_path / "piece.csv"
    piece.write_text(emit_midi_csv(seq))

    run = tmp_path / "run"
    assert cli.main(["train", "--input", str(piece), "--model", "M1",
                     "--seed", "0", "--out", str(run)]) == 0
    batch = tmp_path / "batch"
    assert cli.main(["generate", "--model", str(run / "M1_model.json"),
                     "--n", "1000", "--seed", "1", "--out", str(batch)]) == 0
    ev = tmp_path / "eval"
    assert cli.main(["evaluate", "--input", str(piece), "--batch", str(batch),
                     "--out", str(ev)]) == 0
    report = json.loads((ev / "report.json").read_text())
    for key in ("entropy_rmse", "musicality_average", "temporal_average",
                "acf_rmse", "pacf_rmse", "note_count_rmse", "dissonance_rmse",
                "large_interval_rmse", "mutual_information_mean",
                "edit_distance_mean"):
        assert np.isfinite(report[key])

    # batch of training-piece copies gives an all-zero report
    copies = metrics.evaluate_batch(seq, [seq] * 5)
    assert copies.entropy_rmse == 0.0
    assert copies.note_count_rmse == 0.0
    assert copies.acf_rmse == 0.0
    assert copies.pacf_rmse == 0.0
    assert copies.edit_distance_mean == 0.0

    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(f"criterion 8 (desk run): M1 trained on 500 symbols, 1000 pieces "
            f"generated and evaluated in {elapsed:.0f}s (< 300s); copy batch "
            f"all-zero")


# -------------------------------------------------------------------------
# 9. conditional corpus reproduction


TABLE_ORDER = [
    ("ode",),
    ("kings",),
    ("funebre", "marche"),
    ("hark", "herald"),
    ("book_5", "book5", "words_5", "op_62", "op62"),
    ("moonlight", "sonata_14", "no_14", "no14"),
    ("troika", "november", "seasons"),
    ("book_1", "book1", "words_1", "op_19", "op19"),
    ("rhapsody", "hungarian"),
    ("gnomus", "promenade", "pictures"),
]


def test_criterion_9_corpus_reproduction():
    corpus = os.environ.get("SSCOMPOSE_CORPUS_DIR")
    if not corpus:
        pytest.skip("SSCOMPOSE_CORPUS_DIR not set; source corpus not supplied")
    files = sorted(os.path.join(corpus, f) for f in os.listdir(corpus)
                   if f.lower().endswith((".csv", ".txt")))
    assert len(files) == 10, "expected the ten source pieces in MIDI-CSV form"

    entries = {}
    for path in files:
        name = os.path.basename(path).lower()
        with open(path) as fh:
            seq = parse_midi_csv(fh.read())
        matched = [i for i, keys in enumerate(TABLE_ORDER)
                   if any(k in name for k in keys)]
        assert len(matched) == 1, f"cannot identify piece for {name}"
        entries[matched[0]] = (name, metrics.empirical_entropy(seq.pitches), seq)
    assert sorted(entries) == list(range(10))

    by_entropy = sorted(range(10), key=lambda i: entries[i][1])
    assert by_entropy == list(range(10)), (
        "entropy ordering differs from the published table: "
        + ", ".join(f"{entries[i][0]}={entries[i][1]:.3f}" for i in by_entropy))

    chopin = entries[2][2]
    frac = metrics.interval_class_table(chopin, "harmonic")
    assert abs(frac["thirds"] - 0.0964) <= 0.03
    assert abs(frac["fourths_fifths"] - 0.4608) <= 0.03
    assert abs(frac["dissonant"] - 0.0060) <= 0.03
    _report("criterion 9 (corpus): ten-piece entropy ordering reproduced and "
            "Chopin harmonic interval fractions within 0.03")
