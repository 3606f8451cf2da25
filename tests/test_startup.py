"""Start-up cost of the CLI: SciPy submodules load only where they are used.

Each CLI command runs in a fresh process, so whatever `analogdist.cli`
imports is paid by every command. `scipy.stats` serves only the KS p-value
of `mc-distances`, `scipy.spatial` only the k-d tree backend, and
`scipy.special` only the distance laws of `theory-curves`, `mc-distances`
and `rescaled-density`; each is imported inside the code that calls it.
`multiprocessing` serves only the process pool of a mixture selection on
more than one worker, and loads with that pool.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_LAZY = ("scipy.stats", "scipy.spatial", "scipy.special")
_POOLS = ("multiprocessing", "concurrent.futures.process")

_PROBE = f"""
import json, sys
import analogdist.cli
import numpy as np
from analogdist.catalog import Catalog
from analogdist.clustering import select_n_clusters
from analogdist.density import ks_test
from analogdist.disttheory import DistParams, distance_mean
from analogdist.neighbors import NeighborIndex

lazy = {_LAZY!r}
before = [m for m in lazy if m in sys.modules]
mean = distance_mean(DistParams(rank=1, dim=1.0, catalog_size=10))
laws = [m for m in lazy if m in sys.modules]
rng = np.random.default_rng(0)
catalog = Catalog(rng.normal(size=(300, 3)))
target = rng.normal(size=3)
tree = NeighborIndex(catalog, backend="kdtree").query(target, 5)
scan = NeighborIndex(catalog, backend="exhaustive").query(target, 5)
d, p = ks_test(rng.uniform(size=50), lambda s: np.clip(s, 0.0, 1.0))
pools = {_POOLS!r}
select_n_clusters(rng.normal(size=(60, 2)), (1, 2), seeds_per_candidate=1, workers=1)
unpooled = [m for m in pools if m in sys.modules]
select_n_clusters(rng.normal(size=(60, 2)), (1, 2), seeds_per_candidate=1, workers=2)
print(json.dumps({{
    "unpooled": unpooled,
    "pooled": [m for m in pools if m in sys.modules],
    "before": before,
    "laws": laws,
    "after": [m for m in lazy if m in sys.modules],
    "same": tree.distances.tobytes() == scan.distances.tobytes()
    and tree.indices.tolist() == scan.indices.tolist(),
    "ks": [d, p],
    "mean": mean,
}}))
"""


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the package from this checkout."""
    path = os.pathsep.join(filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], cwd=_ROOT, env=env, capture_output=True, text=True
    )


def test_cli_import_leaves_stats_and_spatial_unloaded_until_used():
    run = _fresh("-c", _PROBE)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    assert seen["before"] == []
    assert seen["laws"] == ["scipy.special"]
    assert seen["after"] == list(_LAZY)
    assert seen["same"]
    assert seen["unpooled"] == []
    assert seen["pooled"] == list(_POOLS)
    d, p = seen["ks"]
    assert 0.0 < d < 1.0 and 0.0 <= p <= 1.0
    # Gamma(2) / (10 Gamma(1)): the rank-1 mean at dim 1 is 1/L.
    assert abs(seen["mean"] - 0.1) < 1e-12


def test_python_dash_m_runs_the_cli():
    run = _fresh("-m", "analogdist", "--help")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: analogdist")
