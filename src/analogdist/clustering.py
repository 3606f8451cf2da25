"""Gaussian mixtures fit by EM, with BIC model selection.

The EM implementation keeps the per-iteration log-likelihood trace so the
monotonicity of the algorithm is observable, and treats covariance collapse
explicitly: one retry with a small diagonal regularization, then failure.

EM advances all restarts (seeds) of one component count together: their
components sit side by side on one component axis, so each numpy call of
an iteration does the work of every restart. A restart that converges
leaves the stack with the parameters of its last E-step; one whose
covariance collapses leaves it and is retried afterwards, with the other
collapsed restarts of the stack, at the regularized diagonal.

The E-step is matrix products over features of the data centred once at
its mean c, with x' = x - c and mu' = mu - c:
- diagonal: one product of the per-component coefficients
  [-1/2sigma^2, mu'/sigma^2, normalizer + log w] with the features
  [x'^2; x'; 1], the expanded quadratic form. It cancels: its error is
  about eps * (|mu'| / sigma)^2. A 3-d component of sigma 1e-3 lying 866
  from the data mean had its log densities off by 1.1e-4, and at sigma
  1e-5 by 0.9.
- full: per row block, one batched product of the stacked [L^-1 | -L^-1 mu']
  (one batched Cholesky decomposition L L^T of the covariance stack) with
  [x'; 1], which gives the whitened differences L^-1 (x - mu); then each
  component's squared norm. Its error grows with |x'| / sigma, not with
  its square: 1.4e-10 in the case above, and 1.7e-8 at sigma 1e-5.
The log-sum-exp over components shifts out the per-sample maximum, and the
shifted exponentials, taken in place, serve both the log-likelihood and
the responsibilities. The M-step works on the raw data in two passes, the
means and then the posterior-weighted scatter about them, so tight,
distant components keep their digits and an exactly singular component
still collapses. Long catalogs are processed in row blocks that bound each
temporary at 256 KB.

select_n_clusters fits one job per candidate count, in forked worker
processes when it has more than one worker and more than one candidate,
and merges in candidate-then-seed order, so its result does not depend on
the worker count. Processes, not threads: EM's many short numpy calls
hold the GIL, and on a 2-core machine two threads made each fit 50-70%
slower, while two processes each kept their solo time.
"""

from __future__ import annotations

import json
import math
import os
import warnings
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
# A later restart replaces the kept one only when its log-likelihood is
# higher by more than this relative margin. Restarts that reach one optimum
# with their components in another order differ only by rounding (about
# 1e-16 relative on the mixture workload), and which of them is kept should
# not depend on the last bits of a sum.
_LL_TIE = 1e-12
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


def _check_fit(x: np.ndarray, counts, covariance: str, max_iter: int) -> None:
    if not all(1 <= n <= len(x) for n in counts):
        raise ValueError("n_components must lie in [1, n_samples]")
    if covariance not in ("full", "diag"):
        raise ValueError("covariance must be 'full' or 'diag'")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def _row_blocks(m: int, width: int):
    """Slices covering m rows, each at most _BLOCK_ELEMS // width long."""
    step = max(1, _BLOCK_ELEMS // width)
    return (slice(i, i + step) for i in range(0, m, step))


def _features(x: np.ndarray, cov_type: str) -> tuple[np.ndarray, np.ndarray]:
    """The data's mean c and the E-step features of its rows x, as columns:
    [(x - c)^2; x - c; 1] for diagonal covariances, [x - c; 1] for full."""
    centre = x.mean(axis=0)
    xc = (x - centre).T
    rows = [xc * xc, xc] if cov_type == "diag" else [xc]
    return centre, np.concatenate(rows + [np.ones((1, len(x)))])


def _factor(covs: np.ndarray, cov_type: str) -> tuple[np.ndarray, np.ndarray]:
    """Per component, the precisions 1/sigma^2 (diagonal) or the inverse
    Cholesky factor L^-1 (full, covariance L L^T), and the log-determinant
    of the covariance. Raises _Collapse if any covariance is not positive
    definite."""
    if cov_type == "diag":
        if np.any(covs <= 0.0):
            raise _Collapse
        return 1.0 / covs, np.sum(np.log(covs), axis=1)
    try:
        chol = np.linalg.cholesky(covs)
        inv = np.linalg.inv(chol)
    except np.linalg.LinAlgError:
        raise _Collapse from None
    return inv, 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)


def _log_gaussians(
    features: tuple[np.ndarray, np.ndarray],
    weights: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    cov_type: str,
) -> np.ndarray:
    """(n, M) matrix of the weighted log densities log w + log N(x; mu, cov)
    of every component at the M samples whose _features are given."""
    centre, f = features
    n, d = means.shape
    factor, logdet = _factor(covs, cov_type)
    mu = means - centre
    norm = np.log(weights) - 0.5 * (d * _LOG_2PI + logdet)
    if cov_type == "diag":
        # -(x - mu)^2 / 2 sigma^2 expanded over the features [x^2; x; 1].
        scaled = mu * factor
        norm -= 0.5 * np.sum(mu * scaled, axis=1)
        return np.concatenate([-0.5 * factor, scaled, norm[:, None]], axis=1) @ f
    # Each component's [L^-1 | -L^-1 mu] maps [x; 1] to the whitened
    # differences L^-1 (x - mu), whose squared norms are summed.
    whiten = np.concatenate([factor, -(factor @ mu[:, :, None])], axis=2)
    out = np.empty((n, f.shape[1]))
    for rows in _row_blocks(f.shape[1], n * d):
        z = whiten @ f[:, rows]
        out[:, rows] = np.einsum("ndm,ndm->nm", z, z)
    out *= -0.5
    out += norm[:, None]
    return out


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
    """log(sum(exp(log_prob))) over the components (axis -2) and the
    normalized posteriors, from one exponential of log_prob minus its
    column maximum. The posteriors overwrite log_prob. A column whose
    maximum is not finite is shifted by 0, so an all -inf column gives
    -inf."""
    shift = np.max(log_prob, axis=-2)
    shift[~np.isfinite(shift)] = 0.0
    e = np.exp(np.subtract(log_prob, shift[..., None, :], out=log_prob), out=log_prob)
    total = e.sum(axis=-2)
    with np.errstate(divide="ignore"):
        log_norm = shift + np.log(total)
    e /= total[..., None, :]
    return log_norm, e


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
    features: tuple[np.ndarray, np.ndarray],
    n_components: int,
    seeds,
    cov_type: str,
    max_iter: int,
    tol: float,
    reg: float,
) -> list:
    """EM from the k-means++ seeding of each seed, all restarts advanced
    together as one stack of components: the n components of the i-th live
    restart are stack rows i*n to (i+1)*n. Returns one GmmModel per seed,
    or None where that restart's covariance collapsed."""
    m, d = x.shape
    n = n_components
    means = np.concatenate([_kmeanspp_centers(x, n, np.random.default_rng(s)) for s in seeds])
    global_cov = np.cov(x, rowvar=False, ddof=0).reshape(d, d)
    if cov_type == "diag":
        start = np.maximum(np.diag(global_cov), _WEIGHT_FLOOR) + reg
    else:
        start = global_cov + reg * np.eye(d)
    covs = np.repeat(start[None], len(means), axis=0)
    weights = np.full(len(means), 1.0 / n)

    xt = np.ascontiguousarray(x.T)
    fits = [None] * len(seeds)
    paths = [[] for _ in seeds]
    live = np.arange(len(seeds))
    prev = np.full(len(seeds), -np.inf)

    def keep(mask, *stacks):
        """The live restarts where mask holds, and those rows of each stack."""
        rows = np.repeat(mask, n)
        return (live[mask], prev[mask]) + tuple(a[rows] for a in stacks)

    for it in range(max_iter):
        try:
            log_prob = _log_gaussians(features, weights, means, covs, cov_type)
        except _Collapse:
            ok = np.ones(len(live), dtype=bool)
            for i in range(len(live)):
                try:
                    _factor(covs[i * n : (i + 1) * n], cov_type)
                except _Collapse:
                    ok[i] = False
            live, prev, weights, means, covs = keep(ok, weights, means, covs)
            if not len(live):
                break
            log_prob = _log_gaussians(features, weights, means, covs, cov_type)
        log_norm, resp = _posterior(log_prob.reshape(len(live), n, m))
        ll = log_norm.sum(axis=1)
        for restart, value in zip(live, ll.tolist()):
            paths[restart].append(value)

        # A restart leaves with the parameters of its last E-step, so
        # path[-1] is the returned parameters' own log-likelihood.
        converged = (prev > -np.inf) & (ll - prev <= tol * np.abs(prev))
        leaving = converged if it < max_iter - 1 else np.ones(len(live), dtype=bool)
        for i in np.flatnonzero(leaving):
            rows = slice(i * n, (i + 1) * n)
            path = paths[live[i]]
            fits[live[i]] = GmmModel(
                n_components=n,
                weights=weights[rows].copy(),
                means=means[rows].copy(),
                covariances=covs[rows].copy(),
                covariance_type=cov_type,
                log_likelihood=path[-1],
                log_likelihood_path=np.asarray(path),
                converged=bool(converged[i]),
            )
        if leaving.all():
            break
        prev = ll
        resp = resp.reshape(-1, m)
        if leaving.any():
            live, prev, resp = keep(~leaving, resp)

        # A posterior below the smallest normal double cannot change the
        # M-step sums it enters (each is at least _WEIGHT_FLOOR * m), while
        # arithmetic on subnormal doubles runs 10-100x slower.
        resp[resp < _TINY] = 0.0
        counts = resp.sum(axis=1)
        starved = np.any((counts < _WEIGHT_FLOOR * m).reshape(-1, n), axis=1)
        if starved.any():
            live, prev, resp, counts = keep(~starved, resp, counts)
            if not len(live):
                break
        weights = counts / m
        means = (resp @ x) / counts[:, None]
        scatter = _scatter(xt, means, resp, cov_type)
        if cov_type == "diag":
            covs = scatter / counts[:, None] + reg
        else:
            cov = scatter / counts[:, None, None]
            covs = 0.5 * (cov + np.swapaxes(cov, 1, 2)) + reg * np.eye(d)
    return fits


def _regularization(x: np.ndarray) -> float:
    """Diagonal added on the retry: 1e-6 of the mean data variance."""
    reg = _REG_FACTOR * float(np.mean(np.var(x, axis=0)))
    return reg if reg > 0.0 else _REG_FACTOR


def _fit_restarts(
    x: np.ndarray,
    features: tuple[np.ndarray, np.ndarray],
    n_components: int,
    seeds,
    cov_type: str,
    max_iter: int,
    tol: float,
) -> list:
    """_em of every seed; the restarts that collapse are retried as one
    stack at the regularized diagonal, and None marks a second collapse."""
    fits = _em(x, features, n_components, seeds, cov_type, max_iter, tol, reg=0.0)
    retry = [seed for seed, fit in zip(seeds, fits) if fit is None]
    if retry:
        again = iter(_em(x, features, n_components, retry, cov_type, max_iter, tol, reg=_regularization(x)))
        fits = [next(again) if fit is None else fit for fit in fits]
    return fits


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
    _check_fit(x, [n_components], covariance, max_iter)
    model = _fit_restarts(x, _features(x, covariance), n_components, [seed], covariance, max_iter, tol)[0]
    if model is None:
        raise CovarianceCollapseError(
            f"covariance collapsed for n_components={n_components} even after "
            f"diagonal regularization {_regularization(x):g}"
        )
    return model


def _n_parameters(model: GmmModel) -> int:
    n, d = model.n_components, model.dim
    if model.covariance_type == "diag":
        return (n - 1) + n * d + n * d
    return (n - 1) + n * d + n * d * (d + 1) // 2


def _model_features(model: GmmModel, data) -> tuple[np.ndarray, np.ndarray]:
    """_features of the checked data, for the model's covariance type."""
    x = _check_data(data)
    if x.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"data width {x.shape[1]} does not match model dimension {model.dim}"
        )
    return _features(x, model.covariance_type)


def _model_posterior(model: GmmModel, features) -> tuple[np.ndarray, np.ndarray]:
    """_posterior of the model's weighted component log densities:
    per-sample log-likelihoods and (n, M) posteriors."""
    return _posterior(
        _log_gaussians(features, model.weights, model.means, model.covariances, model.covariance_type)
    )


def _bic(model: GmmModel, features) -> float:
    log_norm = _model_posterior(model, features)[0]
    return _n_parameters(model) * math.log(len(log_norm)) - 2.0 * float(np.sum(log_norm))


def bic(model: GmmModel, data) -> float:
    """Bayesian information criterion p*ln(M) - 2*logL on the given data."""
    return _bic(model, _model_features(model, data))


def responsibilities(model: GmmModel, data) -> np.ndarray:
    """Posterior component probabilities, one row per sample (rows sum to 1)."""
    return _model_posterior(model, _model_features(model, data))[1].T


def assign_spatial_clusters(model: GmmModel, features) -> np.ndarray:
    """Hard labels by maximum posterior probability."""
    return np.argmax(responsibilities(model, features), axis=1)


# The job of a select_n_clusters worker process, set once as it starts;
# it stays None in the calling process.
_worker_job = None


def _start_worker(job) -> None:
    global _worker_job
    _worker_job = job


def _run_job(pos: int) -> list:
    return _worker_job(pos)


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
    the best likelihood kept; likelihoods within 1e-12 relative of each
    other tie, and a tie keeps the earlier seed. Candidates whose fits all
    fail are skipped with a warning. Ties resolve to the smaller count.
    Each candidate's seeds are fit as one stack, one job per candidate, and
    merged in candidate then seed order, so the result does not depend on
    the worker count. With workers > 1 and more than one candidate the jobs
    run on min(workers, len(candidates)) processes forked from the caller,
    which inherit the data; elsewhere, and where the platform cannot fork,
    they run in the calling process. An exception raised by a job reaches
    the caller with its type and message, and every worker has exited when
    this function returns or raises. BLAS threads, if any, are per process.
    """
    x = _check_data(data)
    candidates = sorted(set(int(n) for n in candidates))
    if not candidates:
        raise ValueError("candidates must be non-empty")
    if seeds_per_candidate < 1:
        raise ValueError("seeds_per_candidate must be >= 1")
    _check_fit(x, candidates, covariance, max_iter)

    features = _features(x, covariance)

    def fit(pos):
        seeds = [base_seed + pos * seeds_per_candidate + s for s in range(seeds_per_candidate)]
        return _fit_restarts(x, features, candidates[pos], seeds, covariance, max_iter, tol)

    jobs = range(len(candidates))
    if workers > 1 and len(candidates) > 1 and hasattr(os, "fork"):
        # Imported here: a fresh CLI process that fits nothing in a pool
        # does not pay for loading multiprocessing.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Under fork the workers inherit `fit`, with the data and features
        # it closes over, instead of receiving them pickled. The pool forks
        # all its workers before it starts a thread of its own; OpenBLAS
        # stops its threads around a fork.
        with ProcessPoolExecutor(
            min(workers, len(candidates)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker,
            initargs=(fit,),
        ) as pool:
            fits = list(pool.map(_run_job, jobs))
    else:
        fits = [fit(pos) for pos in jobs]

    curve = []
    best = None
    for n, restarts in zip(candidates, fits):
        model = None
        for cand in restarts:
            if cand is not None and (
                model is None or cand.log_likelihood > model.log_likelihood + _LL_TIE * abs(model.log_likelihood)
            ):
                model = cand
        if model is None:
            warnings.warn(f"all fits failed for n_components={n}; candidate skipped")
            continue
        score = _bic(model, features)
        curve.append((n, score))
        if best is None or score < best[1]:
            best = (n, score, model)
    if best is None:
        raise CovarianceCollapseError("every candidate component count failed to fit")
    return SelectionResult(best_n=best[0], bic_curve=curve, best_model=best[2])
