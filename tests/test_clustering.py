"""EM mixture fits against closed-form single-component statistics, scipy
log-density oracles, and BIC selection on well-separated blobs."""

import dataclasses
import json
import math
import multiprocessing
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import linalg
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

import analogdist.clustering as clustering
from analogdist.clustering import (
    GmmModel,
    assign_spatial_clusters,
    bic,
    gmm_fit,
    responsibilities,
    select_n_clusters,
)
from analogdist.errors import CovarianceCollapseError, DimensionMismatchError


def blobs(centers, n_per, spread, seed):
    rng = np.random.default_rng(seed)
    parts = [c + spread * rng.normal(size=(n_per, len(c))) for c in centers]
    return np.concatenate(parts)


def oracle_ll(model, x):
    """Total mixture log-likelihood via scipy's multivariate normal."""
    cols = []
    for c in range(model.n_components):
        cov = model.covariances[c]
        if model.covariance_type == "diag":
            cov = np.diag(cov)
        cols.append(multivariate_normal.logpdf(x, model.means[c], cov) + np.log(model.weights[c]))
    return float(np.sum(logsumexp(np.stack(cols, axis=1), axis=1)))


# ---------------------------------------------------------------------------
# single component: closed-form MLE


def test_single_component_is_sample_mean_and_covariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 3)) @ rng.normal(size=(3, 3)) + [1.0, -2.0, 0.5]
    model = gmm_fit(x, 1)
    assert model.weights.tolist() == [1.0]
    assert_allclose(model.means[0], x.mean(axis=0), rtol=1e-13)
    assert_allclose(model.covariances[0], np.cov(x.T, ddof=0), rtol=1e-12)
    assert model.converged
    assert model.log_likelihood == pytest.approx(oracle_ll(model, x), rel=1e-12)


def test_single_component_diag_is_per_axis_variance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(150, 4)) * [1.0, 2.0, 0.5, 3.0]
    model = gmm_fit(x, 1, covariance="diag")
    assert model.covariances.shape == (1, 4)
    assert_allclose(model.covariances[0], x.var(axis=0, ddof=0), rtol=1e-12)


# ---------------------------------------------------------------------------
# EM behavior on separated clusters


@pytest.fixture(scope="module")
def two_blobs():
    return blobs([(-10.0, 0.0), (10.0, 0.0)], 300, 1.0, seed=3)


def test_two_cluster_recovery(two_blobs):
    model = gmm_fit(two_blobs, 2, seed=0)
    order = np.argsort(model.means[:, 0])
    # At 20-sigma separation the fit recovers each blob's sample mean, not
    # just the population center.
    assert_allclose(model.means[order][0], two_blobs[:300].mean(axis=0), atol=0.02)
    assert_allclose(model.means[order][1], two_blobs[300:].mean(axis=0), atol=0.02)
    assert_allclose(model.weights, [0.5, 0.5], atol=0.02)
    assert model.converged


def test_log_likelihood_path_non_decreasing(two_blobs):
    model = gmm_fit(two_blobs, 3, seed=5)
    path = model.log_likelihood_path
    assert len(path) >= 2
    assert np.all(np.diff(path) >= -1e-9 * np.abs(path[:-1]))
    assert model.log_likelihood == path[-1]


@pytest.mark.parametrize("cov_type", ["full", "diag"])
@pytest.mark.parametrize("max_iter", [1, 2, 5])
def test_fit_stopped_at_max_iter_reports_its_own_log_likelihood(cov_type, max_iter):
    # BIC = p ln n - 2 logL recomputes the returned parameters' likelihood.
    x = blobs([(0.0, 0.0, 0.0), (5.0, 5.0, 5.0)], 300, 1.0, seed=1)
    model = gmm_fit(x, 3, seed=1, covariance=cov_type, max_iter=max_iter)
    assert not model.converged
    assert len(model.log_likelihood_path) == max_iter
    n, d = 3, 3
    cov_params = n * d if cov_type == "diag" else n * d * (d + 1) // 2
    p = (n - 1) + n * d + cov_params
    own = (p * math.log(len(x)) - bic(model, x)) / 2.0
    assert model.log_likelihood == pytest.approx(own, rel=1e-9)
    assert model.log_likelihood == model.log_likelihood_path[-1]


def test_assignments_split_separated_clusters(two_blobs):
    model = gmm_fit(two_blobs, 2, seed=0)
    labels = assign_spatial_clusters(model, two_blobs)
    left = labels[two_blobs[:, 0] < 0]
    right = labels[two_blobs[:, 0] > 0]
    assert len(set(left.tolist())) == 1
    assert len(set(right.tolist())) == 1
    assert left[0] != right[0]
    assert_array_equal(labels, np.argmax(responsibilities(model, two_blobs), axis=1))


def test_responsibilities_are_posteriors(two_blobs):
    model = gmm_fit(two_blobs, 2, seed=0)
    resp = responsibilities(model, two_blobs[:50])
    assert_allclose(resp.sum(axis=1), 1.0, rtol=1e-12)
    assert np.all(resp >= 0.0)
    # Manual posterior via scipy densities.
    cols = np.stack(
        [
            multivariate_normal.logpdf(two_blobs[:50], model.means[c], model.covariances[c])
            + np.log(model.weights[c])
            for c in range(2)
        ],
        axis=1,
    )
    assert_allclose(resp, np.exp(cols - logsumexp(cols, axis=1)[:, None]), rtol=1e-10)


# ---------------------------------------------------------------------------
# BIC


@pytest.mark.parametrize("cov_type,penalty", [("full", 1 + 2 * 2 + 2 * 3), ("diag", 1 + 2 * 2 + 2 * 2)])
def test_bic_matches_hand_formula(two_blobs, cov_type, penalty):
    model = gmm_fit(two_blobs, 2, seed=0, covariance=cov_type)
    held_out = blobs([(-10.0, 0.0), (10.0, 0.0)], 80, 1.0, seed=9)
    expected = penalty * math.log(len(held_out)) - 2.0 * oracle_ll(model, held_out)
    assert bic(model, held_out) == pytest.approx(expected, rel=1e-12)


def test_bic_prefers_true_component_count():
    data = blobs([(-8.0, 0.0), (8.0, 0.0), (0.0, 8.0)], 200, 0.8, seed=11)
    scores = {n: bic(gmm_fit(data, n, seed=1), data) for n in (1, 2, 3, 4)}
    assert min(scores, key=scores.get) == 3


# ---------------------------------------------------------------------------
# model selection


def test_select_n_clusters_recovers_three_blobs():
    data = blobs([(-8.0, 0.0), (8.0, 0.0), (0.0, 8.0)], 150, 0.8, seed=13)
    result = select_n_clusters(data, (1, 2, 3, 4, 5), seeds_per_candidate=3, base_seed=0)
    assert result.best_n == 3
    assert [n for n, _ in result.bic_curve] == [1, 2, 3, 4, 5]
    best_score = dict(result.bic_curve)[3]
    assert all(score >= best_score for _, score in result.bic_curve)
    assert result.best_model.n_components == 3


def test_select_deduplicates_candidates(two_blobs):
    result = select_n_clusters(two_blobs[:100], (2, 2, 2), seeds_per_candidate=2)
    assert [n for n, _ in result.bic_curve] == [2]


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(two_blobs):
    model = gmm_fit(two_blobs, 2, seed=0)
    clone = GmmModel.from_json(model.to_json())
    assert clone.n_components == model.n_components
    assert clone.covariance_type == model.covariance_type
    assert clone.converged == model.converged
    assert clone.log_likelihood == model.log_likelihood
    assert_array_equal(clone.weights, model.weights)
    assert_array_equal(clone.means, model.means)
    assert_array_equal(clone.covariances, model.covariances)
    assert_array_equal(clone.log_likelihood_path, model.log_likelihood_path)
    assert clone.dim == model.dim == 2
    # JSON output is stable (sorted keys), so artifacts are diffable.
    assert model.to_json() == GmmModel.from_json(model.to_json()).to_json()
    assert list(json.loads(model.to_json())) == sorted(json.loads(model.to_json()))


# ---------------------------------------------------------------------------
# degenerate inputs and failure paths


def test_constant_data_fits_with_regularization():
    x = np.full((60, 2), 1.5)
    model = gmm_fit(x, 2)
    assert_allclose(model.means, 1.5, rtol=0, atol=1e-12)
    assert model.weights.sum() == pytest.approx(1.0, rel=1e-12)


def always_collapse(x, features, n, seeds, *args, **kwargs):
    return [None] * len(seeds)


def test_collapse_raises_after_retry(monkeypatch):
    monkeypatch.setattr(clustering, "_em", always_collapse)
    with pytest.raises(CovarianceCollapseError, match="regularization"):
        gmm_fit(np.random.default_rng(0).normal(size=(50, 2)), 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_select_raises_when_every_candidate_fails(monkeypatch, workers):
    # Forked workers inherit the patch.
    monkeypatch.setattr(clustering, "_em", always_collapse)
    with pytest.raises(CovarianceCollapseError), pytest.warns(UserWarning):
        select_n_clusters(np.random.default_rng(0).normal(size=(50, 2)), (2, 3), workers=workers)


@pytest.mark.parametrize(
    "data,n,kwargs",
    [
        (np.ones((10, 2)), 0, {}),
        (np.ones((10, 2)), 11, {}),
        (np.ones((10, 2)), 2, {"covariance": "spherical"}),
        (np.array([[1.0, np.nan]]), 1, {}),
        (np.ones(10), 1, {}),
    ],
)
def test_fit_validation(data, n, kwargs):
    with pytest.raises(ValueError):
        gmm_fit(data, n, **kwargs)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_max_iter_must_be_positive(two_blobs, max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        gmm_fit(two_blobs, 2, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter"):
        select_n_clusters(two_blobs, (1, 2), max_iter=max_iter)


def test_dimension_mismatch(two_blobs):
    model = gmm_fit(two_blobs[:80], 2, seed=0)
    with pytest.raises(DimensionMismatchError):
        responsibilities(model, np.ones((5, 3)))
    with pytest.raises(DimensionMismatchError):
        bic(model, np.ones((5, 3)))


def test_select_validation(two_blobs):
    with pytest.raises(ValueError):
        select_n_clusters(two_blobs, ())
    with pytest.raises(ValueError):
        select_n_clusters(two_blobs, (2,), seeds_per_candidate=0)


# ---------------------------------------------------------------------------
# batched EM kernels against per-component references


def reference_log_gaussians(x, means, covs, cov_type):
    """(M, n) log densities, one component at a time: scipy's Cholesky and
    triangular solve for full covariances, the explicit (x - mu) / sigma
    loop for diagonal ones."""
    d = x.shape[1]
    out = np.empty((len(x), len(means)))
    for c in range(len(means)):
        if cov_type == "diag":
            z = (x - means[c]) / np.sqrt(covs[c])
            maha, logdet = np.sum(z * z, axis=1), np.sum(np.log(covs[c]))
        else:
            chol = linalg.cholesky(covs[c], lower=True)
            y = linalg.solve_triangular(chol, (x - means[c]).T, lower=True)
            maha, logdet = np.sum(y * y, axis=0), 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, c] = -0.5 * (d * math.log(2.0 * math.pi) + logdet + maha)
    return out


def log_gaussians(x, means, covs, cov_type):
    """The kernel's (n, M) unweighted log densities of the rows of x."""
    features = clustering._features(x, cov_type)
    return clustering._log_gaussians(features, np.ones(len(means)), means, covs, cov_type)


def random_components(rng, n, d, cov_type, scale=1.0):
    means = rng.normal(scale=3.0, size=(n, d))
    if cov_type == "diag":
        return means, scale * rng.uniform(0.05, 4.0, size=(n, d))
    a = rng.normal(size=(n, d, d))
    return means, scale * (a @ np.swapaxes(a, 1, 2) / d + 0.1 * np.eye(d))


@pytest.mark.parametrize("cov_type", ["full", "diag"])
@pytest.mark.parametrize("m,d,n", [(500, 3, 4), (300, 12, 6), (7, 1, 2)])
def test_batched_log_densities_match_per_component_reference(cov_type, m, d, n):
    rng = np.random.default_rng(m + d + n)
    means, covs = random_components(rng, n, d, cov_type)
    x = 3.0 * rng.normal(size=(m, d))
    expected = reference_log_gaussians(x, means, covs, cov_type)
    got = log_gaussians(x, means, covs, cov_type)
    assert got.shape == (n, m)
    assert_allclose(got.T, expected, rtol=1e-10, atol=0)


@pytest.mark.parametrize("cov_type", ["full", "diag"])
def test_log_densities_far_from_the_origin(cov_type):
    # At 1e3 from the origin with variances down to 5e-4, the expanded
    # quadratic form x'Px - 2mu'Px + mu'Pmu carries terms near 2e9 and
    # loses about 1e-7 to cancellation; the difference form does not.
    rng = np.random.default_rng(12)
    means, covs = random_components(rng, 4, 6, cov_type, scale=1e-2)
    x = 3.0 * rng.normal(size=(400, 6))
    expected = reference_log_gaussians(x, means, covs, cov_type)
    offset = 1e3
    got = log_gaussians(x + offset, means + offset, covs, cov_type)
    assert_allclose(got.T, expected, rtol=0, atol=1e-8)


@pytest.mark.parametrize("cov_type", ["full", "diag"])
def test_row_blocks_do_not_change_log_densities(monkeypatch, cov_type):
    rng = np.random.default_rng(4)
    means, covs = random_components(rng, 3, 5, cov_type)
    x = rng.normal(size=(401, 5))
    whole = log_gaussians(x, means, covs, cov_type)
    monkeypatch.setattr(clustering, "_BLOCK_ELEMS", 3 * 5 * 17)
    assert_array_equal(log_gaussians(x, means, covs, cov_type), whole)


def test_posterior_matches_scipy_logsumexp():
    rng = np.random.default_rng(8)
    rows = np.concatenate(
        [
            rng.normal(size=(200, 5)),
            rng.uniform(-1500.0, 1500.0, size=(200, 5)),
            rng.normal(loc=-800.0, scale=1.0, size=(50, 5)),
            np.array([[0.0, -np.inf, 3.0, -np.inf, -1.0]]),
        ]
    )
    log_norm, resp = clustering._posterior(np.ascontiguousarray(rows.T))
    expected = logsumexp(rows, axis=1)
    assert_allclose(log_norm, expected, rtol=1e-14, atol=0)
    assert_allclose(resp.T, np.exp(rows - expected[:, None]), rtol=1e-12, atol=1e-300)
    assert_allclose(resp.sum(axis=0), 1.0, rtol=1e-14)


def test_posterior_of_all_minus_inf_column_is_minus_inf():
    with np.errstate(invalid="ignore"):
        log_norm, _ = clustering._posterior(np.full((3, 2), -np.inf))
    assert np.all(np.isneginf(log_norm))


def test_one_singular_full_covariance_collapses_whole_batch():
    rng = np.random.default_rng(5)
    means, covs = random_components(rng, 3, 2, "full")
    covs[1] = [[1.0, 1.0], [1.0, 1.0]]
    with pytest.raises(clustering._Collapse):
        log_gaussians(rng.normal(size=(20, 2)), means, covs, "full")
    diag_means, diag_covs = random_components(rng, 3, 2, "diag")
    diag_covs[2, 0] = 0.0
    with pytest.raises(clustering._Collapse):
        log_gaussians(rng.normal(size=(20, 2)), diag_means, diag_covs, "diag")


def test_fit_with_one_singular_component_takes_regularized_retry(monkeypatch):
    # Two round blobs and one set of points lying exactly on a line: the
    # component that takes the line has a singular covariance, the others not.
    rng = np.random.default_rng(6)
    line = np.column_stack([rng.normal(size=60), np.full(60, 40.0)])
    x = np.concatenate([blobs([(-10.0, 0.0), (10.0, 0.0)], 80, 1.0, seed=6), line])
    regs = []
    em = clustering._em

    def recording_em(*args, reg, **kwargs):
        regs.append(reg)
        return em(*args, reg=reg, **kwargs)

    monkeypatch.setattr(clustering, "_em", recording_em)
    assert em(x, clustering._features(x, "full"), 3, [0], "full", 500, 1e-6, reg=0.0) == [None]
    model = gmm_fit(x, 3, seed=0)
    assert regs[0] == 0.0 and len(regs) == 2 and regs[1] > 0.0
    on_line = np.argmin(np.abs(model.means[:, 1] - 40.0))
    assert model.covariances[on_line, 1, 1] == pytest.approx(regs[1], rel=1e-6)
    assert np.all(np.linalg.eigvalsh(model.covariances) > 0.0)


# ---------------------------------------------------------------------------
# selection on the worker pool


@pytest.mark.parametrize("cov_type", ["full", "diag"])
def test_selection_does_not_depend_on_worker_count(cov_type):
    data = blobs([(-6.0, 0.0, 1.0), (6.0, 0.0, 0.0), (0.0, 7.0, -2.0)], 120, 1.0, seed=21)
    kwargs = dict(seeds_per_candidate=3, base_seed=4, covariance=cov_type)
    serial = select_n_clusters(data, (1, 2, 3, 4), workers=1, **kwargs)
    pooled = select_n_clusters(data, (1, 2, 3, 4), workers=2, **kwargs)
    assert pooled.bic_curve == serial.bic_curve
    assert pooled.best_n == serial.best_n
    assert pooled.best_model.to_json() == serial.best_model.to_json()


@pytest.mark.parametrize("gain,kept", [(0.0, 0), (1e-14, 0), (1e-9, 1)])
def test_later_seed_must_beat_the_kept_fit_by_more_than_rounding(monkeypatch, gain, kept):
    # Restarts that reach one optimum in another component order differ in
    # the last bits of their log-likelihoods; the earlier seed stays.
    fit = clustering._fit_restarts
    fits = []

    def later_seed_gains(x, features, n, seeds, *args):
        first = fit(x, features, n, seeds[:1], *args)[0]
        higher = first.log_likelihood + gain * abs(first.log_likelihood)
        fits.extend([first, dataclasses.replace(first, log_likelihood=higher)])
        return fits

    monkeypatch.setattr(clustering, "_fit_restarts", later_seed_gains)
    result = select_n_clusters(blobs([(-8.0, 0.0), (8.0, 0.0)], 60, 1.0, seed=2), (2,), seeds_per_candidate=2)
    assert result.best_model is fits[kept]


@pytest.mark.parametrize("workers", [1, 2])
def test_skipped_candidates_warn_in_candidate_order(monkeypatch, workers):
    fit = clustering._fit_restarts

    def collapse_above_two(x, features, n, seeds, *args):
        if n > 2:
            return [None] * len(seeds)
        return fit(x, features, n, seeds, *args)

    monkeypatch.setattr(clustering, "_fit_restarts", collapse_above_two)
    data = blobs([(-8.0, 0.0), (8.0, 0.0)], 60, 1.0, seed=2)
    with pytest.warns(UserWarning) as record:
        result = select_n_clusters(data, (5, 1, 4, 2, 3), seeds_per_candidate=2, workers=workers)
    assert [str(w.message) for w in record] == [
        f"all fits failed for n_components={n}; candidate skipped" for n in (3, 4, 5)
    ]
    assert [n for n, _ in result.bic_curve] == [1, 2]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_fit_reaches_the_caller_unchanged(monkeypatch, workers):
    def reject(x, features, n, seeds, *args):
        if n == 3:
            raise ValueError("EM rejected n_components=3")
        return [None] * len(seeds)

    monkeypatch.setattr(clustering, "_fit_restarts", reject)
    data = blobs([(-8.0, 0.0), (8.0, 0.0)], 60, 1.0, seed=2)
    with pytest.raises(ValueError) as err:
        select_n_clusters(data, (1, 2, 3, 4), seeds_per_candidate=2, workers=workers)
    assert type(err.value) is ValueError
    assert str(err.value) == "EM rejected n_components=3"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_pooled_selection_fits_in_worker_processes_that_all_exit(monkeypatch, tmp_path, workers):
    fit = clustering._fit_restarts

    def recording(x, features, n, seeds, *args):
        (tmp_path / f"{n}.pid").write_text(str(os.getpid()))
        return fit(x, features, n, seeds, *args)

    monkeypatch.setattr(clustering, "_fit_restarts", recording)
    data = blobs([(-8.0, 0.0), (8.0, 0.0)], 60, 1.0, seed=2)
    result = select_n_clusters(data, (1, 2, 3), seeds_per_candidate=2, workers=workers)
    assert result.best_n == 2
    pids = {int(p.read_text()) for p in tmp_path.glob("*.pid")}
    assert len(list(tmp_path.glob("*.pid"))) == 3
    if workers == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and len(pids) <= workers
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# restarts advanced as one stack


@pytest.mark.parametrize("cov_type", ["full", "diag"])
@pytest.mark.parametrize("n", [3, 4])
def test_each_restart_of_a_stack_matches_its_own_fit(cov_type, n):
    data = blobs([(-6.0, 0.0, 1.0), (6.0, 0.0, 0.0), (0.0, 7.0, -2.0)], 120, 1.0, seed=21)
    seeds = list(range(6))
    fits = clustering._fit_restarts(
        data, clustering._features(data, cov_type), n, seeds, cov_type, 500, 1e-6
    )
    # Restarts that converge at different iterations leave the stack early.
    assert len({len(fit.log_likelihood_path) for fit in fits}) > 1
    for seed, fit in zip(seeds, fits):
        alone = gmm_fit(data, n, seed=seed, covariance=cov_type)
        assert len(fit.log_likelihood_path) == len(alone.log_likelihood_path)
        assert fit.converged == alone.converged
        assert_allclose(fit.log_likelihood_path, alone.log_likelihood_path, rtol=1e-10, atol=0)
        assert fit.log_likelihood == fit.log_likelihood_path[-1]


def line_data():
    """Two round blobs and 60 points lying exactly on a horizontal line."""
    rng = np.random.default_rng(6)
    line = np.column_stack([rng.normal(size=60), np.full(60, 40.0)])
    return np.concatenate([blobs([(-10.0, 0.0), (10.0, 0.0)], 80, 1.0, seed=6), line])


def test_only_the_collapsed_restarts_take_the_regularized_retry(monkeypatch):
    x = line_data()
    features = clustering._features(x, "diag")
    seeds = [0, 1, 2, 3]
    em = clustering._em
    collapsed = [s for s in seeds if em(x, features, 2, [s], "diag", 500, 1e-6, reg=0.0) == [None]]
    assert 0 < len(collapsed) < len(seeds)
    calls = []

    def recording_em(x, features, n, seeds, *args, reg, **kwargs):
        calls.append((list(seeds), reg))
        return em(x, features, n, seeds, *args, reg=reg, **kwargs)

    monkeypatch.setattr(clustering, "_em", recording_em)
    fits = clustering._fit_restarts(x, features, 2, seeds, "diag", 500, 1e-6)
    assert calls == [(seeds, 0.0), (collapsed, clustering._regularization(x))]
    for seed, fit in zip(seeds, fits):
        alone = gmm_fit(x, 2, seed=seed, covariance="diag")
        assert len(fit.log_likelihood_path) == len(alone.log_likelihood_path)
        assert_allclose(fit.log_likelihood_path, alone.log_likelihood_path, rtol=1e-10, atol=0)


@pytest.mark.parametrize("cov_type", ["full", "diag"])
def test_tight_distant_component_keeps_its_covariance(cov_type):
    # A one-pass scatter, sum r x x^T / n - mu mu^T, cancels terms near 1e6
    # down to variances near 1e-6; the two-pass scatter about the mean does not.
    rng = np.random.default_rng(30)
    tight = 1e3 + 1e-3 * rng.normal(size=(300, 3)) @ [[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]]
    x = np.concatenate([rng.normal(size=(300, 3)), tight])
    model = gmm_fit(x, 2, seed=0, covariance=cov_type)
    far = np.argmax(model.means[:, 0])
    expected = np.cov(tight, rowvar=False, ddof=0)
    if cov_type == "diag":
        expected = np.diag(expected)
    assert_allclose(model.covariances[far], expected, rtol=1e-8, atol=0)
