"""Gaussian mixtures fit by EM, with BIC model selection.

The EM implementation keeps the per-iteration log-likelihood trace so the
monotonicity of the algorithm is observable, and treats covariance collapse
explicitly: one retry with a small diagonal regularization, then failure.

Each EM iteration is a few whole-array numpy calls over all components at
once, laid out component-major so that every reduction over components or
dimensions runs along whole rows. The E-step forms the (n, D, M) stack of
differences from every component mean and whitens it: diagonal covariances
divide by the standard deviations, full covariances multiply by the inverse
factors of one batched Cholesky decomposition of the (n, D, D) covariance
stack. Working on the differences, not on the expanded quadratic form,
keeps data far from the origin free of cancellation. The log-sum-exp over
components shifts out the per-sample maximum, and the shifted exponentials
serve both the log-likelihood and the responsibilities. The M-step forms
all weights, means and covariances in batched products. Long catalogs are
processed in row blocks that bound each temporary at 256 KB.
select_n_clusters fits its candidate x seed grid on a thread pool and
merges in grid order, so its result does not depend on the worker count.
"""

from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import CovarianceCollapseError, DimensionMismatchError

__all__ = [
    "GmmModel",
    "gmm_fit",
    "bic",
    "responsibilities",
    "assign_spatial_clusters",
    "select_n_clusters",
    "SelectionResult",
]

_WEIGHT_FLOOR = 1e-12
_REG_FACTOR = 1e-6
_LOG_2PI = math.log(2.0 * math.pi)
_TINY = np.finfo(np.float64).tiny
# Each (n, D, rows) temporary of an EM pass holds at most this many doubles
# (256 KB): the few temporaries of one block stay in a core's L2 cache, and
# concurrent fits stay small whatever the catalog length. On a Xeon with
# 2 MB of L2 per core, this halved the time of a 12-component, 20-wide
# diagonal EM iteration on 3000 rows against one 5.8 MB block.
_BLOCK_ELEMS = 1 << 15


class _Collapse(Exception):
    """Internal: covariance not positive definite during EM."""


@dataclass(frozen=True)
class GmmModel:
    """Fitted mixture. covariances is (n, D, D) for full covariance or
    (n, D) diagonals; log_likelihood is the total training log-likelihood
    and log_likelihood_path its per-iteration trace."""

    n_components: int
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    covariance_type: str
    log_likelihood: float
    log_likelihood_path: np.ndarray = field(repr=False)
    converged: bool = True

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_components": self.n_components,
                "weights": self.weights.tolist(),
                "means": self.means.tolist(),
                "covariances": self.covariances.tolist(),
                "covariance_type": self.covariance_type,
                "log_likelihood": self.log_likelihood,
                "log_likelihood_path": self.log_likelihood_path.tolist(),
                "converged": self.converged,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "GmmModel":
        raw = json.loads(text)
        return cls(
            n_components=int(raw["n_components"]),
            weights=np.asarray(raw["weights"], dtype=np.float64),
            means=np.asarray(raw["means"], dtype=np.float64),
            covariances=np.asarray(raw["covariances"], dtype=np.float64),
            covariance_type=str(raw["covariance_type"]),
            log_likelihood=float(raw["log_likelihood"]),
            log_likelihood_path=np.asarray(raw["log_likelihood_path"], dtype=np.float64),
            converged=bool(raw["converged"]),
        )


def _check_data(data) -> np.ndarray:
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("data must be a 2-d array")
    if not np.all(np.isfinite(x)):
        raise ValueError("data must be finite")
    return x


def _row_blocks(m: int, width: int):
    """Slices covering m rows, each at most _BLOCK_ELEMS // width long."""
    step = max(1, _BLOCK_ELEMS // width)
    return (slice(i, i + step) for i in range(0, m, step))


def _log_gaussians(xt: np.ndarray, means: np.ndarray, covs: np.ndarray, cov_type: str) -> np.ndarray:
    """(n, M) matrix of per-component log densities of the (D, M) transposed
    data xt, all components at once."""
    n, d = means.shape
    if cov_type == "diag":
        if np.any(covs <= 0.0):
            raise _Collapse
        scale = np.sqrt(covs)[:, :, None]
        logdet = np.sum(np.log(covs), axis=1)
    else:
        try:
            chol = np.linalg.cholesky(covs)
            inv = np.linalg.inv(chol)
        except np.linalg.LinAlgError:
            raise _Collapse from None
        logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    maha = np.empty((n, xt.shape[1]))
    for rows in _row_blocks(xt.shape[1], n * d):
        diff = xt[None, :, rows] - means[:, :, None]
        # Whitened differences: (x - mu) / sigma, or L^-1 (x - mu).
        if cov_type == "diag":
            z = np.divide(diff, scale, out=diff)
        else:
            z = inv @ diff
        maha[:, rows] = np.einsum("ndm,ndm->nm", z, z)
    return -0.5 * ((d * _LOG_2PI + logdet)[:, None] + maha)


def _scatter(xt: np.ndarray, means: np.ndarray, resp: np.ndarray, cov_type: str) -> np.ndarray:
    """Posterior-weighted scatter about each mean: sum_m r_cm (x_m - mu_c)
    (x_m - mu_c)^T as (n, D, D), or its (n, D) diagonal."""
    n, d = means.shape
    out = np.zeros((n, d) if cov_type == "diag" else (n, d, d))
    for rows in _row_blocks(xt.shape[1], n * d):
        diff = xt[None, :, rows] - means[:, :, None]
        if cov_type == "diag":
            out += (np.square(diff, out=diff) @ resp[:, rows, None])[:, :, 0]
        else:
            out += (diff * resp[:, None, rows]) @ np.swapaxes(diff, 1, 2)
    return out


def _posterior(log_prob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(sum(exp(log_prob))) over the components (axis 0) and the
    normalized posteriors, from one exponential of log_prob minus its
    column maximum. A column whose maximum is not finite is shifted by 0,
    so an all -inf column gives -inf."""
    shift = np.max(log_prob, axis=0)
    shift[~np.isfinite(shift)] = 0.0
    e = np.exp(log_prob - shift)
    total = e.sum(axis=0)
    with np.errstate(divide="ignore"):
        log_norm = shift + np.log(total)
    return log_norm, e / total


def _kmeanspp_centers(x: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared-distance sampling."""
    m = len(x)
    centers = np.empty((n, x.shape[1]))
    centers[0] = x[rng.integers(m)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for c in range(1, n):
        total = d2.sum()
        if total <= 0.0:
            centers[c:] = x[rng.integers(m, size=n - c)]
            break
        probs = d2 / total
        centers[c] = x[rng.choice(m, p=probs)]
        d2 = np.minimum(d2, np.sum((x - centers[c]) ** 2, axis=1))
    return centers


def _em(
    x: np.ndarray,
    n_components: int,
    seed: int,
    cov_type: str,
    max_iter: int,
    tol: float,
    reg: float,
) -> GmmModel:
    m, d = x.shape
    rng = np.random.default_rng(seed)
    means = _kmeanspp_centers(x, n_components, rng)
    global_cov = np.cov(x, rowvar=False, ddof=0).reshape(d, d)
    if cov_type == "diag":
        covs = np.tile(np.maximum(np.diag(global_cov), _WEIGHT_FLOOR) + reg, (n_components, 1))
    else:
        covs = np.tile(global_cov + reg * np.eye(d), (n_components, 1, 1))
    weights = np.full(n_components, 1.0 / n_components)

    xt = np.ascontiguousarray(x.T)
    path = []
    prev = -np.inf
    for it in range(max_iter):
        log_prob = _log_gaussians(xt, means, covs, cov_type) + np.log(weights)[:, None]
        log_norm, resp = _posterior(log_prob)
        ll = float(np.sum(log_norm))
        path.append(ll)

        # No M-step after the last E-step, so path[-1] is the returned
        # parameters' own log-likelihood.
        converged = prev > -np.inf and ll - prev <= tol * abs(prev)
        if converged or it == max_iter - 1:
            break
        prev = ll

        # A posterior below the smallest normal double cannot change the
        # M-step sums it enters (each is at least _WEIGHT_FLOOR * m), while
        # arithmetic on subnormal doubles runs 10-100x slower.
        resp[resp < _TINY] = 0.0
        counts = resp.sum(axis=1)
        if np.any(counts < _WEIGHT_FLOOR * m):
            raise _Collapse
        weights = counts / m
        means = (resp @ x) / counts[:, None]
        scatter = _scatter(xt, means, resp, cov_type)
        if cov_type == "diag":
            covs = scatter / counts[:, None] + reg
        else:
            cov = scatter / counts[:, None, None]
            covs = 0.5 * (cov + np.swapaxes(cov, 1, 2)) + reg * np.eye(d)

    return GmmModel(
        n_components=n_components,
        weights=weights,
        means=means,
        covariances=covs,
        covariance_type=cov_type,
        log_likelihood=path[-1],
        log_likelihood_path=np.asarray(path),
        converged=converged,
    )


def gmm_fit(
    data,
    n_components: int,
    seed: int = 0,
    covariance: str = "full",
    max_iter: int = 500,
    tol: float = 1e-6,
) -> GmmModel:
    """Fit a Gaussian mixture by EM from a k-means++ seeding.

    Convergence is declared when the relative log-likelihood improvement
    drops below tol. A singular covariance triggers one retry with the
    diagonal regularized by 1e-6 of the mean data variance; a second
    failure raises CovarianceCollapseError.
    """
    x = _check_data(data)
    if not 1 <= n_components <= len(x):
        raise ValueError("n_components must lie in [1, n_samples]")
    if covariance not in ("full", "diag"):
        raise ValueError("covariance must be 'full' or 'diag'")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    try:
        return _em(x, n_components, seed, covariance, max_iter, tol, reg=0.0)
    except _Collapse:
        pass
    reg = _REG_FACTOR * float(np.mean(np.var(x, axis=0)))
    if reg <= 0.0:
        reg = _REG_FACTOR
    try:
        return _em(x, n_components, seed, covariance, max_iter, tol, reg=reg)
    except _Collapse:
        raise CovarianceCollapseError(
            f"covariance collapsed for n_components={n_components} even after "
            f"diagonal regularization {reg:g}"
        ) from None


def _n_parameters(model: GmmModel) -> int:
    n, d = model.n_components, model.dim
    if model.covariance_type == "diag":
        return (n - 1) + n * d + n * d
    return (n - 1) + n * d + n * d * (d + 1) // 2


def _model_posterior(model: GmmModel, data) -> tuple[np.ndarray, np.ndarray]:
    """_posterior of the model's weighted component log densities at the
    checked data: per-sample log-likelihoods and (n, M) posteriors."""
    x = _check_data(data)
    if x.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"data width {x.shape[1]} does not match model dimension {model.dim}"
        )
    log_prob = _log_gaussians(x.T, model.means, model.covariances, model.covariance_type)
    return _posterior(log_prob + np.log(model.weights)[:, None])


def bic(model: GmmModel, data) -> float:
    """Bayesian information criterion p*ln(M) - 2*logL on the given data."""
    log_norm = _model_posterior(model, data)[0]
    return _n_parameters(model) * math.log(len(log_norm)) - 2.0 * float(np.sum(log_norm))


def responsibilities(model: GmmModel, data) -> np.ndarray:
    """Posterior component probabilities, one row per sample (rows sum to 1)."""
    return _model_posterior(model, data)[1].T


def assign_spatial_clusters(model: GmmModel, features) -> np.ndarray:
    """Hard labels by maximum posterior probability."""
    return np.argmax(responsibilities(model, features), axis=1)


@dataclass(frozen=True)
class SelectionResult:
    best_n: int
    bic_curve: list  # (n_components, bic) pairs, skipped candidates absent
    best_model: GmmModel


def select_n_clusters(
    data,
    candidates,
    seeds_per_candidate: int = 5,
    base_seed: int = 0,
    covariance: str = "full",
    max_iter: int = 500,
    tol: float = 1e-6,
    workers: int = 1,
) -> SelectionResult:
    """Pick the component count minimizing BIC.

    Each candidate is fit from seeds_per_candidate k-means++ seedings and
    the best likelihood kept. Candidates whose fits all fail are skipped
    with a warning. Ties resolve to the smaller count. The candidate x seed
    fits run on a pool of `workers` threads and are merged in candidate
    then seed order, so the result does not depend on the worker count.
    """
    x = _check_data(data)
    candidates = sorted(set(int(n) for n in candidates))
    if not candidates:
        raise ValueError("candidates must be non-empty")
    if seeds_per_candidate < 1:
        raise ValueError("seeds_per_candidate must be >= 1")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    def fit(job):
        n, seed = job
        try:
            return gmm_fit(x, n, seed=seed, covariance=covariance, max_iter=max_iter, tol=tol)
        except CovarianceCollapseError:
            return None

    jobs = [
        (n, base_seed + pos * seeds_per_candidate + s)
        for pos, n in enumerate(candidates)
        for s in range(seeds_per_candidate)
    ]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        fits = list(pool.map(fit, jobs))

    curve = []
    best = None
    for pos, n in enumerate(candidates):
        model = None
        for cand in fits[pos * seeds_per_candidate : (pos + 1) * seeds_per_candidate]:
            if cand is not None and (model is None or cand.log_likelihood > model.log_likelihood):
                model = cand
        if model is None:
            warnings.warn(f"all fits failed for n_components={n}; candidate skipped")
            continue
        score = bic(model, x)
        curve.append((n, score))
        if best is None or score < best[1]:
            best = (n, score, model)
    if best is None:
        raise CovarianceCollapseError("every candidate component count failed to fit")
    return SelectionResult(best_n=best[0], bic_curve=curve, best_model=best[2])
