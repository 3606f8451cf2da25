"""Independent checks of the commands' outputs.

Every check recomputes part of a command's result with code written here
(plain numpy and the standard library, never the package under test), or
tests a property the method must have. No check compares against a stored
copy of earlier output. A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path, PurePosixPath

import numpy as np


class CheckFailed(Exception):
    """A command's output disagrees with the benchmark's own computation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def require_close(actual, expected, rtol: float, what: str) -> None:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    err = np.abs(actual - expected)
    bad = ~(err <= rtol * np.abs(expected))
    require(not bad.any(), f"{what}: {int(bad.sum())} value(s) off by more than {rtol:g} relative")


# ---------------------------------------------------------------------------
# file formats, read and written without the package


def read_anacat(path) -> tuple[np.ndarray, np.ndarray | None]:
    """States and times of an .anacat file: one JSON header line, then
    little-endian float64 states and optional int64 times."""
    raw = Path(path).read_bytes()
    newline = raw.index(b"\n")
    head = json.loads(raw[:newline])
    length, dim = int(head["L"]), int(head["D"])
    offset = newline + 1
    states = np.frombuffer(raw, "<f8", length * dim, offset).reshape(length, dim)
    times = None
    if head["has_times"]:
        times = np.frombuffer(raw, "<i8", length, offset + 8 * length * dim)
    return states, times


def write_anacat(path, states: np.ndarray, name: str) -> None:
    """Write states with times 0..L-1 in the .anacat layout."""
    states = np.ascontiguousarray(states, dtype="<f8")
    head = {
        "D": states.shape[1],
        "L": states.shape[0],
        "dtype": "f64",
        "has_times": True,
        "metadata": {"name": name, "units": "arbitrary"},
        "schema_version": 1,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(head, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(states.tobytes())
        fh.write(np.arange(states.shape[0], dtype="<i8").tobytes())


def read_csv(path) -> dict[str, list[str]]:
    """Columns of a CSV written after one '# schema' comment line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    require(lines and lines[0].startswith("#"), f"{path}: missing schema line")
    rows = list(csv.reader(lines[1:]))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def floats(cells) -> np.ndarray:
    return np.array([float(c) if c != "" else math.nan for c in cells])


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def manifest_outputs(manifest_path) -> dict[str, str]:
    """The output hashes a manifest records, checked against the files."""
    manifest_path = Path(manifest_path)
    outputs = json.loads(manifest_path.read_text(encoding="utf-8"))["outputs"]
    require(outputs, f"{manifest_path}: records no outputs")
    for rel, digest in outputs.items():
        actual = sha256(manifest_path.parent / PurePosixPath(rel))
        require(actual == digest, f"{manifest_path}: {rel} hashes to {actual[:12]}, recorded {digest[:12]}")
    return outputs


# ---------------------------------------------------------------------------
# reference computations


def rk4_l63(x: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Classical RK4 for Lorenz-63 (sigma 10, rho 28, beta 8/3), vectorized over rows."""
    sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0

    def f(s):
        return np.stack(
            [sigma * (s[:, 1] - s[:, 0]), s[:, 0] * (rho - s[:, 2]) - s[:, 1], s[:, 0] * s[:, 1] - beta * s[:, 2]],
            axis=1,
        )

    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return x


def brute_force_analogs(states, times, row: int, k: int, gap: int) -> np.ndarray:
    """Distances to the k nearest admissible rows of catalog row `row`.

    With gap > 0, rows less than `gap` time units from the target are
    inadmissible (the row itself included); with gap 0 only the row itself
    is. Ties are ordered by row index.
    """
    diff = states - states[row]
    dist = np.sqrt(np.sum(diff * diff, axis=1))
    if gap > 0:
        admissible = np.flatnonzero(np.abs(times - times[row]) >= gap)
    else:
        admissible = np.flatnonzero(np.arange(len(states)) != row)
    order = np.lexsort((admissible, dist[admissible]))[:k]
    return dist[admissible[order]]


def sample_rows(rng, count: int) -> np.ndarray:
    """Row 0 and up to seven more drawn at random: the targets a check
    recomputes by brute force."""
    return np.unique(np.r_[0, rng.choice(count, size=min(7, count), replace=False)])


def local_dimension(r: np.ndarray) -> float:
    """1 / mean(log(r_K / r_k)) over k < K."""
    return 1.0 / float(np.mean(np.log(r[-1] / r[:-1])))


def prefactor(r: np.ndarray, dim: float) -> float:
    """Least-squares C of r_k = C k^(1/dim) in log space."""
    k = np.arange(1, len(r) + 1, dtype=np.float64)
    return math.exp(float(np.mean(np.log(r) - np.log(k) / dim)))


def eof_features(states: np.ndarray, n_eof: int) -> np.ndarray:
    """Coordinates on the leading principal axes, each axis signed so that
    its largest-magnitude loading is positive."""
    centred = states - states.mean(axis=0)
    _, _, vt = np.linalg.svd(centred, full_matrices=False)
    axes = vt[:n_eof].copy()
    peaks = np.argmax(np.abs(axes), axis=1)
    axes *= np.sign(axes[np.arange(n_eof), peaks])[:, None]
    return centred @ axes.T


def mixture_bic(model: dict, x: np.ndarray) -> float:
    """p ln(M) - 2 log-likelihood of a Gaussian mixture given as model.json."""
    weights = np.asarray(model["weights"])
    means = np.asarray(model["means"])
    covs = np.asarray(model["covariances"])
    m, d = x.shape
    n = len(weights)
    log_dens = np.empty((m, n))
    for c in range(n):
        diff = x - means[c]
        if model["covariance_type"] == "diag":
            quad = np.sum(diff * diff / covs[c], axis=1)
            logdet = float(np.sum(np.log(covs[c])))
        else:
            chol = np.linalg.cholesky(covs[c])
            y = np.linalg.solve(chol, diff.T)
            quad = np.sum(y * y, axis=0)
            logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        log_dens[:, c] = math.log(weights[c]) - 0.5 * (d * math.log(2.0 * math.pi) + logdet + quad)
    top = log_dens.max(axis=1)
    loglik = float(np.sum(top + np.log(np.sum(np.exp(log_dens - top[:, None]), axis=1))))
    per_cov = d if model["covariance_type"] == "diag" else d * (d + 1) // 2
    n_params = (n - 1) + n * d + n * per_cov
    return n_params * math.log(m) - 2.0 * loglik


# ---------------------------------------------------------------------------
# per-command checks


def check_gen_l63(path, n: int, dt: float, stride: int) -> None:
    """Every row, advanced one stride by the benchmark's own RK4, gives the next."""
    states, times = read_anacat(path)
    require(states.shape == (n, 3), f"gen-l63: shape {states.shape}, expected ({n}, 3)")
    require(np.array_equal(times, np.arange(n)), "gen-l63: times are not 0..n-1")
    predicted = rk4_l63(states[:-1], dt, stride)
    nxt = states[1:]
    err = np.max(np.abs(predicted - nxt), axis=1) / np.max(np.abs(nxt), axis=1)
    require(np.all(err <= 1e-9), f"gen-l63: RK4 mismatch up to {err.max():.3g} relative")


def check_gen_surrogate(path, n: int, width: int, modes: int) -> None:
    """A traveling-modes field spans 2 dimensions per mode: the EOF spectrum
    beyond 2*modes holds only the noise floor."""
    states, times = read_anacat(path)
    require(states.shape == (n, width), f"gen-surrogate: shape {states.shape}, expected ({n}, {width})")
    require(np.array_equal(times, np.arange(n)), "gen-surrogate: times are not 0..n-1")
    head = states[: min(n, 4000)]
    power = np.linalg.svd(head - head.mean(axis=0), compute_uv=False) ** 2
    tail = float(power[2 * modes :].sum() / power.sum())
    require(tail < 1e-4, f"gen-surrogate: {tail:.3g} of the variance lies beyond {2 * modes} EOFs")


def check_theory_curves(out) -> None:
    """Marker means equal Gamma(k + 1/d) / Gamma(k) in size-free units."""
    cols = read_csv(Path(out) / "markers.csv")
    k, d = floats(cols["k"]), floats(cols["d"])
    expected = [math.exp(math.lgamma(ki + 1.0 / di) - math.lgamma(ki)) for ki, di in zip(k, d)]
    require_close(floats(cols["mean"]), expected, 1e-9, "theory-curves mean")


def check_fit_target(out, catalog, row: int, k: int, gap: int) -> None:
    states, times = read_anacat(catalog)
    r = brute_force_analogs(states, times, row, k, gap)
    cols = read_csv(Path(out) / "fit.csv")
    observed = [float(v) for s, v in zip(cols["series"], cols["distance"]) if s == "observed"]
    require_close(observed, r, 1e-12, "fit-target analog distances")
    dim = floats(read_csv(Path(out) / "summary.csv")["dim"])
    require_close(dim, [local_dimension(r)], 1e-9, "fit-target dimension")


def check_dim_stats(out, catalog, k: int, gap: int, dim_range, rng) -> None:
    """Dimensions at sampled targets match a brute-force search; the mean
    lies in the range the attractor's dimension must fall in."""
    states, times = read_anacat(catalog)
    cols = read_csv(Path(out) / "dims.csv")
    targets = floats(cols["target"]).astype(np.int64)
    dims = floats(cols["dim"])
    sample = sample_rows(rng, len(targets))
    expected = [local_dimension(brute_force_analogs(states, times, int(targets[j]), k, gap)) for j in sample]
    require_close(dims[sample], expected, 1e-9, "dim-stats dimension")
    lo, hi = dim_range
    require(lo <= dims.mean() <= hi, f"dim-stats: mean dimension {dims.mean():.4f} outside [{lo:g}, {hi:g}]")


def check_rescaled_density(out, catalog, k: int, gap: int, dim_range, rng) -> None:
    states, times = read_anacat(catalog)
    cols = read_csv(Path(out) / "targets.csv")
    targets = floats(cols["target"]).astype(np.int64)
    dims, prefs = floats(cols["dim"]), floats(cols["prefactor"])
    sample = sample_rows(rng, len(targets))
    exp_dims, exp_prefs = [], []
    for j in sample:
        r = brute_force_analogs(states, times, int(targets[j]), k, gap)
        exp_dims.append(local_dimension(r))
        exp_prefs.append(prefactor(r, exp_dims[-1]))
    require_close(dims[sample], exp_dims, 1e-9, "rescaled-density dimension")
    require_close(prefs[sample], exp_prefs, 1e-9, "rescaled-density prefactor")
    lo, hi = dim_range
    require(lo <= dims.mean() <= hi, f"rescaled-density: mean dimension {dims.mean():.4f} outside [{lo:g}, {hi:g}]")


def check_mc_distances(out, catalog, target: int, sizes, n_catalogs: int, k: int, seed: int) -> None:
    """The first and last subsampled catalogs, redrawn here, give the same
    dimension as the command reports for them."""
    states, _ = read_anacat(catalog)
    cols = read_csv(Path(out) / "catalogs.csv")
    dims = floats(cols["dim"])
    require(len(dims) == len(sizes) * n_catalogs, f"mc-distances: {len(dims)} catalog rows")
    for li, i in ((0, 0), (len(sizes) - 1, n_catalogs - 1)):
        rng = np.random.default_rng(seed + li * n_catalogs + i)
        rows = np.sort(rng.choice(len(states), size=sizes[li], replace=False))
        diff = states[rows] - states[target]
        dist = np.sort(np.sqrt(np.sum(diff * diff, axis=1)))
        r = dist[: k + 1]
        r = r[r > 0.0][:k]
        require_close(dims[li * n_catalogs + i], local_dimension(r), 1e-9, f"mc-distances dimension L={sizes[li]} #{i}")


def check_rerun(original_manifest, rerun_dir) -> None:
    """Every output regenerated by the single-worker rerun hashes as recorded."""
    recorded = manifest_outputs(original_manifest)
    for rel, digest in recorded.items():
        actual = sha256(Path(rerun_dir) / PurePosixPath(rel))
        require(actual == digest, f"rerun: {rel} hashes to {actual[:12]}, first run {digest[:12]}")


def check_dmax_scan(out, epsilon: float, rho_bar: float, l_eff: int, ranks) -> None:
    cols = read_csv(Path(out) / "scan.csv")
    k = floats(cols["k"])
    require(sorted(set(k.astype(int))) == sorted(ranks), f"dmax-scan: ranks {sorted(set(k))}")
    expected = [math.log(l_eff / ki) / math.log(rho_bar / epsilon) for ki in k]
    require_close(floats(cols["dmax_theory"]), expected, 1e-12, "dmax-scan dmax_theory")
    passed = np.array([c == "true" for c in cols["passed"]])
    require(np.array_equal(passed, floats(cols["ratio"]) < epsilon), "dmax-scan: passed != (ratio < epsilon)")


def check_cluster(out, catalog, n_eof: int, covariance: str, planted: int | None) -> None:
    """BIC selection, the saved model's BIC recomputed here, EM monotonicity,
    and (on planted blobs) recovery of the planted count."""
    out = Path(out)
    cols = read_csv(out / "bic.csv")
    counts, bics = floats(cols["n_components"]).astype(int), floats(cols["bic"])
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    best = int(counts[np.argmin(bics)])
    require(model["n_components"] == best, f"cluster: model has {model['n_components']} components, BIC argmin is {best}")
    require(model["covariance_type"] == covariance, f"cluster: covariance {model['covariance_type']}")
    path = np.asarray(model["log_likelihood_path"])
    drops = np.diff(path) < -1e-9 * np.abs(path[1:])
    require(not drops.any(), f"cluster: log-likelihood decreased at EM iteration {np.argmax(drops) + 1}")
    states, _ = read_anacat(catalog)
    recomputed = mixture_bic(model, eof_features(states, n_eof))
    require_close(bics[np.argmin(bics)], recomputed, 1e-6, "cluster BIC of the saved model")
    if planted is not None:
        require(best == planted, f"cluster: selected {best} components, planted {planted}")
