"""Start-up cost of the CLI: SciPy submodules load only where they are used.

Each CLI command runs in a fresh process, so whatever `analogdist.cli`
imports is paid by every command. `scipy.spatial` serves only the k-d tree
backend and `scipy.special` only the distance laws of `theory-curves`,
`mc-distances` and `rescaled-density` (and the KS p-value); each is imported
inside the code that calls it. `scipy.stats` never loads: the exact KS
p-value of `mc-distances` is computed in the package, since loading
`scipy.stats` cost that command more time and memory than its own work.
`multiprocessing` serves only the process pool of a mixture selection on
more than one worker, and loads with that pool.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from analogdist import experiments

_ROOT = Path(__file__).resolve().parents[1]
_LAZY = ("scipy.spatial", "scipy.special")
_NEVER = "scipy.stats"
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

def stats():
    return sorted(m for m in sys.modules if m == {_NEVER!r} or m.startswith({_NEVER + "."!r}))

lazy = {_LAZY!r}
before = [m for m in lazy if m in sys.modules]
stats_at_import = stats()
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
    "stats_at_import": stats_at_import,
    "stats_at_end": stats(),
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


def _imported(stderr: str) -> set[str]:
    """Module names from a `-X importtime` report ("import time: ... | name")."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def _is_stats(name: str) -> bool:
    return name == _NEVER or name.startswith(_NEVER + ".")


def test_cli_import_leaves_stats_and_spatial_unloaded_until_used():
    run = _fresh("-c", _PROBE)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    assert seen["before"] == []
    assert seen["laws"] == ["scipy.special"]
    assert seen["after"] == list(_LAZY)
    assert seen["stats_at_import"] == []
    assert seen["stats_at_end"] == []
    assert seen["same"]
    assert seen["unpooled"] == []
    assert seen["pooled"] == list(_POOLS)
    d, p = seen["ks"]
    assert 0.0 < d < 1.0 and 0.0 <= p <= 1.0
    # Gamma(2) / (10 Gamma(1)): the rank-1 mean at dim 1 is 1/L.
    assert abs(seen["mean"] - 0.1) < 1e-12


def test_mc_distances_and_its_rerun_never_load_scipy_stats(tmp_path):
    catalog = tmp_path / "tiny.anacat"
    experiments.run_gen_l63(catalog, n=400, burn_in=50, seed=9)
    mc = tmp_path / "mc"
    run = _fresh("-X", "importtime", "-m", "analogdist", "mc-distances",
                 "--catalog-source", str(catalog), "--L-list", "200,300", "--n-catalogs", "4",
                 "--K-dim", "20", "--k-markers", "1,5", "--out", str(mc))
    assert run.returncode == 0, run.stderr
    loaded = _imported(run.stderr)
    # The report does list SciPy's modules: the distance laws load special.
    assert any(name.startswith("scipy.special.") for name in loaded)
    assert sorted(filter(_is_stats, loaded)) == []
    assert (mc / "ks.csv").is_file()

    rerun = _fresh("-X", "importtime", "-m", "analogdist", "rerun", str(mc / "manifest.json"),
                   "--out", str(tmp_path / "rerun"))
    assert rerun.returncode == 0, rerun.stderr
    loaded = _imported(rerun.stderr)
    assert any(name.startswith("scipy.special.") for name in loaded)
    assert sorted(filter(_is_stats, loaded)) == []


def _stats_imports(path: Path) -> list[int]:
    """Lines of `path` that import scipy.stats or a module under it."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
            if node.module == "scipy":
                names += [f"scipy.{alias.name}" for alias in node.names]
        else:
            continue
        if any(map(_is_stats, names)):
            lines.append(node.lineno)
    return lines


def test_no_module_of_the_package_imports_scipy_stats(tmp_path):
    found = {
        path.name: lines
        for path in sorted((_ROOT / "src" / "analogdist").rglob("*.py"))
        if (lines := _stats_imports(path))
    }
    assert found == {}
    # The check itself sees each spelling of the import.
    probe = tmp_path / "probe.py"
    probe.write_text("import scipy.stats\nfrom scipy import special, stats\n"
                     "from scipy.stats import kstwo\nimport scipy.stats._ksstats as k\n"
                     "from scipy import special\n")
    assert _stats_imports(probe) == [1, 2, 3, 4]


def test_python_dash_m_runs_the_cli():
    run = _fresh("-m", "analogdist", "--help")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: analogdist")
