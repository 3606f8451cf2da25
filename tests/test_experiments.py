"""Experiment drivers: artifacts, manifests, determinism, and validation.

Every driver is exercised on a deliberately small configuration; the checks
are structural (files exist, schemas hold, hashes verify, reruns are
bit-identical) rather than statistical, which the acceptance suite covers.
"""

import csv
import io
import json
import math
import os
import sys
import xml.etree.ElementTree as ET
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from analogdist import dimred, experiments
from analogdist.catalog import Catalog, ExclusionPolicy, load_catalog, save_catalog
from analogdist.clustering import GmmModel
from analogdist.dimension import estimate_local_dimension
from analogdist.experiments import CSV_SCHEMA, RUNNERS, worker_count, write_csv
from analogdist.manifest import file_sha256, load_manifest, verify_outputs
from analogdist.neighbors import NeighborIndex
from csvcols import read_columns


@pytest.fixture(scope="module")
def small_l63(tmp_path_factory):
    path = tmp_path_factory.mktemp("cats") / "small.anacat"
    experiments.run_gen_l63(path, n=3000, dt=0.01, burn_in=500, stride=2, seed=1)
    return path


@pytest.fixture(scope="module")
def small_surrogate(tmp_path_factory):
    path = tmp_path_factory.mktemp("cats") / "modes.anacat"
    experiments.run_gen_surrogate(path, modes=2, grid=8, n=600, seed=2)
    return path


def _csv_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def _assert_svg(path):
    ET.fromstring(path.read_text(encoding="utf-8"))


def _assert_manifest_clean(out_dir):
    manifest = load_manifest(out_dir / "manifest.json")
    status = verify_outputs(manifest, out_dir)
    assert status and all(status.values())
    return manifest


class TestWriteCsv:
    def test_schema_comment_then_header(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "demo", {"a": [1], "b": [2.5]})
        lines = _csv_lines(path)
        assert lines[0] == f"# {CSV_SCHEMA} demo"
        assert lines[1] == "a,b"

    def test_float_cells_round_trip_and_nan_is_blank(self, tmp_path):
        values = [0.1, 1.0 / 3.0, math.nan, -1e-17]
        path = write_csv(tmp_path / "t.csv", "demo", {"v": values})
        cells = read_columns(path)["v"]
        assert cells[2] == ""
        for cell, value in zip(cells[:2] + cells[3:], values[:2] + values[3:]):
            assert float(cell) == value

    def test_bool_none_and_int_cells(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "demo",
            {"flag": [True, False], "gap": [None, None], "n": [np.int64(3), 4]},
        )
        cols = read_columns(path)
        assert cols["flag"] == ["true", "false"]
        assert cols["gap"] == ["", ""]
        assert cols["n"] == ["3", "4"]

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="same length"):
            write_csv(tmp_path / "t.csv", "demo", {"a": [1], "b": [1, 2]})

    @pytest.mark.parametrize(
        "columns",
        [
            {
                "f": np.array([0.1, -0.0, math.nan, 1e300, -1e-17, math.inf, 1.0 / 3.0]),
                "i": np.array([0, -3, 2**40, 7, 1, 2, 3], dtype=np.int64),
                "b": np.array([True, False, True, True, False, False, True]),
                "f32": np.array([0.1, 2.5, math.nan, 1e-3, 7, 8, 9], dtype=np.float32),
            },
            {
                "mixed": [None, math.nan, np.float64(0.1), np.int64(-5), np.bool_(True), 2.5, 3],
                "flags": [np.bool_(False), True, False, None, np.float64(math.nan), np.int32(4), -0.0],
                "text": ["plain", "a,b", 'say "hi"', "", "x\ny", "  ", "#not a comment"],
            },
            {"empty": [], "also_empty": np.array([], dtype=np.float64)},
            {"grid": range(4), "pairs": (1.5, math.nan, np.float32(0.25), np.uint8(200))},
        ],
        ids=["ndarrays", "mixed-lists", "zero-length", "other-sequences"],
    )
    def test_bytes_equal_per_cell_reference(self, tmp_path, columns):
        path = write_csv(tmp_path / "t.csv", "demo", columns)
        assert path.read_bytes() == _reference_csv("demo", columns)


def _reference_cell(value) -> str:
    # The per-cell formatting rule of write_csv, kept verbatim as an oracle.
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "" if math.isnan(v) else repr(v)
    return str(value)


def _reference_csv(name: str, columns: dict) -> bytes:
    """write_csv's bytes, produced one row and one cell at a time."""
    cols = {key: list(values) for key, values in columns.items()}
    (n,) = {len(v) for v in cols.values()}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols.keys())
    for i in range(n):
        writer.writerow([_reference_cell(v[i]) for v in cols.values()])
    return (f"# {CSV_SCHEMA} {name}\n" + buf.getvalue()).encode("utf-8")


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ANALOG_DIST_THREADS", "3")
        assert worker_count() == 3

    def test_env_must_be_positive(self, monkeypatch):
        monkeypatch.setenv("ANALOG_DIST_THREADS", "0")
        with pytest.raises(ValueError, match="ANALOG_DIST_THREADS must be an integer >= 1, got '0'"):
            worker_count()

    @pytest.mark.parametrize("value", ["abc", "2.5"])
    def test_env_must_be_an_integer(self, monkeypatch, value):
        monkeypatch.setenv("ANALOG_DIST_THREADS", value)
        with pytest.raises(ValueError) as err:
            worker_count()
        assert str(err.value) == f"ANALOG_DIST_THREADS must be an integer >= 1, got {value!r}"

    def test_default_caps_at_eight(self, monkeypatch):
        monkeypatch.delenv("ANALOG_DIST_THREADS", raising=False)
        assert worker_count() == min(8, os.cpu_count() or 1)

    def test_env_value_is_capped(self, monkeypatch):
        # Only the pure function runs: no pool of this size is started.
        monkeypatch.setenv("ANALOG_DIST_THREADS", "100000")
        assert worker_count() == experiments.MAX_WORKERS == 64
        monkeypatch.setenv("ANALOG_DIST_THREADS", str(experiments.MAX_WORKERS))
        assert worker_count() == experiments.MAX_WORKERS


@pytest.mark.parametrize(
    "run",
    [
        lambda out, l63, sur: experiments.run_cluster(
            out, sur, n_eof=3, candidates=(1, 2, 3), seeds_per_candidate=3, covariance="full"
        ),
        lambda out, l63, sur: experiments.run_cluster(
            out, sur, n_eof=4, candidates=(2, 3, 4), seeds_per_candidate=3, covariance="diag", seed=5
        ),
        lambda out, l63, sur: experiments.run_mc_distances(out, l63, **MC_KWARGS),
    ],
    ids=["cluster-full", "cluster-diag", "mc-distances"],
)
def test_outputs_do_not_depend_on_worker_count(run, small_l63, small_surrogate, tmp_path, monkeypatch):
    # More workers than cores, switching threads often: a row written to the
    # wrong place or lost would change a hash.
    hashes = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in ("1", "2", "5"):
            monkeypatch.setenv("ANALOG_DIST_THREADS", threads)
            result = run(tmp_path / threads, small_l63, small_surrogate)
            hashes.append({p.name: file_sha256(p) for p in result.outputs})
    finally:
        sys.setswitchinterval(interval)
    assert hashes[0] == hashes[1] == hashes[2]
    assert len(hashes[0]) >= 4


class TestGenerators:
    def test_gen_l63_catalog_and_sidecar_manifest(self, small_l63):
        cat = load_catalog(small_l63)
        assert (cat.length, cat.dim) == (3000, 3)
        np.testing.assert_array_equal(cat.times, np.arange(3000))
        sidecar = small_l63.parent / (small_l63.name + ".manifest.json")
        manifest = load_manifest(sidecar)
        assert manifest.command == "gen-l63"
        assert manifest.seeds == {"seed": 1}
        assert all(verify_outputs(manifest, small_l63.parent).values())

    def test_gen_l63_is_deterministic(self, tmp_path):
        a = tmp_path / "a.anacat"
        b = tmp_path / "b.anacat"
        experiments.run_gen_l63(a, n=200, burn_in=50, seed=5)
        experiments.run_gen_l63(b, n=200, burn_in=50, seed=5)
        assert a.read_bytes() == b.read_bytes()

    def test_gen_surrogate_dimensions(self, small_surrogate, tmp_path):
        cat = load_catalog(small_surrogate)
        assert (cat.length, cat.dim) == (600, 8)
        wide = tmp_path / "wide.anacat"
        experiments.run_gen_surrogate(wide, modes=2, grid=8, n=50, components=2)
        assert load_catalog(wide).dim == 16


@pytest.fixture(scope="module")
def theory_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("theory")
    res = experiments.run_theory_curves(
        out, k_list=(1, 3), d_list=(2.0,), catalog_size=10_000, grid_points=64
    )
    return out, res


class TestTheoryCurves:
    def test_artifacts_and_manifest(self, theory_result):
        out, res = theory_result
        assert {p.name for p in res.outputs} == {"curves.csv", "markers.csv", "curves.svg"}
        _assert_manifest_clean(out)
        _assert_svg(out / "curves.svg")

    def test_each_curve_peaks_at_one(self, theory_result):
        out, _ = theory_result
        cols = read_columns(out / "curves.csv")
        density = np.array([float(v) if v else np.nan for v in cols["density"]])
        for label in set(cols["series"]):
            rows = [i for i, s in enumerate(cols["series"]) if s == label]
            assert np.nanmax(density[rows]) == 1.0

    def test_markers_ordered_mode_below_mean(self, theory_result):
        out, _ = theory_result
        cols = read_columns(out / "markers.csv")
        assert len(cols["k"]) == 2
        for mode, mean in zip(cols["mode"], cols["mean"]):
            assert float(mode) < float(mean)


class TestFitTarget:
    def test_fit_artifacts(self, small_l63, tmp_path):
        res = experiments.run_fit_target(tmp_path, small_l63, target_index=100, n_analogs=20)
        cols = read_columns(tmp_path / "summary.csv")
        dim = float(cols["dim"][0])
        prefactor = float(cols["prefactor"][0])
        rescaling = float(cols["rescaling"][0])
        assert 0.5 < dim < 6.0
        assert rescaling == pytest.approx(prefactor * 3000.0 ** (1.0 / dim), rel=1e-12)
        assert len(read_columns(tmp_path / "fit.csv")["k"]) == 4 * 20
        _assert_svg(tmp_path / "fit.svg")
        _assert_manifest_clean(tmp_path)
        assert "dim=" in res.summary[0]

    def test_target_out_of_range(self, small_l63, tmp_path):
        with pytest.raises(ValueError, match="outside catalog"):
            experiments.run_fit_target(tmp_path, small_l63, target_index=3000)


MC_KWARGS = dict(
    l_list=(400, 800),
    n_catalogs=6,
    target_index=7,
    n_analogs_dim=20,
    k_markers=(1, 5),
    seed=3,
)


@pytest.fixture(scope="module")
def mc_result(small_l63, tmp_path_factory):
    out = tmp_path_factory.mktemp("mc")
    res = experiments.run_mc_distances(out, small_l63, **MC_KWARGS)
    return out, res


class TestMcDistances:
    def test_artifact_set(self, mc_result):
        out, res = mc_result
        names = {p.name for p in res.outputs}
        assert names == {
            "catalogs.csv",
            "ks.csv",
            "rho_overlap.csv",
            "dim_density.csv",
            "rho_density.csv",
            "dim.svg",
            "rho.svg",
            "rescaled_k1.csv",
            "rescaled_k1.svg",
            "rescaled_k5.csv",
            "rescaled_k5.svg",
        }
        _assert_manifest_clean(out)
        for name in names:
            if name.endswith(".svg"):
                _assert_svg(out / name)

    def test_catalog_table_shape(self, mc_result):
        out, _ = mc_result
        cols = read_columns(out / "catalogs.csv")
        assert len(cols["L"]) == 2 * 6
        assert set(cols["L"]) == {"400", "800"}
        rho = np.array([float(v) for v in cols["rho"]])
        assert np.all(rho > 0.0)

    def test_ks_table(self, mc_result):
        out, _ = mc_result
        cols = read_columns(out / "ks.csv")
        assert len(cols["k"]) == 4
        for cell in cols["p_value"]:
            assert 0.0 <= float(cell) <= 1.0

    def test_rho_overlap_ratio_definition(self, mc_result):
        out, _ = mc_result
        cols = read_columns(out / "rho_overlap.csv")
        assert len(cols["ratio"]) == 1
        assert float(cols["ratio"][0]) == pytest.approx(
            float(cols["w1"][0]) / float(cols["pooled_std"][0]), rel=1e-12
        )

    def test_summary_reports_pooled_dimension(self, mc_result):
        _, res = mc_result
        assert res.summary[0].startswith("pooled dim ")

    def test_rerun_is_bit_identical(self, small_l63, mc_result, tmp_path):
        out, _ = mc_result
        experiments.run_mc_distances(tmp_path, small_l63, **MC_KWARGS)
        for name in ("catalogs.csv", "ks.csv", "rescaled_k1.csv", "dim.svg"):
            assert file_sha256(tmp_path / name) == file_sha256(out / name)

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"n_catalogs": 1}, "n_catalogs"),
            ({"k_markers": (0, 5)}, "k_markers"),
            ({"k_markers": (1, 25)}, "k_markers"),
            ({"target_index": -1}, "target_index"),
        ],
    )
    def test_validation(self, small_l63, tmp_path, bad, match):
        kwargs = {**MC_KWARGS, **bad}
        with pytest.raises(ValueError, match=match):
            experiments.run_mc_distances(tmp_path, small_l63, **kwargs)


def _tied_source(path):
    """Normal rows around a target at the origin, plus every signed
    permutation of (0.5, 0, 0) and (0.5, 0.5, 0): 18 rows at two exactly
    equal distances, nearer than the rank-20 analogs."""
    rng = np.random.default_rng(4)
    shells = {
        tuple(s * np.array(v)[list(p)])
        for v in ((0.5, 0, 0), (0.5, 0.5, 0))
        for p in permutations(range(3))
        for s in product((-1.0, 1.0), repeat=3)
    }
    states = np.vstack([np.zeros((1, 3)), sorted(shells), rng.normal(scale=2.0, size=(2000, 3))])
    order = rng.permutation(len(states))
    save_catalog(Catalog(states[order], np.arange(len(states))), path)
    return int(np.argmin(order))


def _per_subcatalog_dims(path, l_list, n_catalogs, target_index, n_analogs_dim, seed, **_):
    """The dim column as a search of each sub-catalog gives it: the seeded
    rows copied into a catalog of their own and queried there. Also counts
    the sub-catalogs that hold the target and those with tied distances."""
    source = load_catalog(path)
    target, time = source.states[target_index], int(source.times[target_index])
    dims, held, tied = [], 0, 0
    for li, size in enumerate(l_list):
        for i in range(n_catalogs):
            rng = np.random.default_rng(seed + li * n_catalogs + i)
            rows = np.sort(rng.choice(len(source), size, replace=False))
            index = NeighborIndex(Catalog(source.states[rows], source.times[rows]), backend="exhaustive")
            r = index.query(target, n_analogs_dim, ExclusionPolicy(1), time).distances
            dims.append(float(estimate_local_dimension(r)))
            held += target_index in rows
            tied += len(np.unique(r)) < len(r)
    return dims, held, tied


@pytest.mark.parametrize("source", ["l63", "width-128", "ties"])
def test_one_ranking_equals_a_search_of_each_subcatalog(source, small_l63, tmp_path):
    kwargs = dict(MC_KWARGS)
    if source == "l63":
        path = small_l63
    elif source == "width-128":
        path = tmp_path / "wide.anacat"
        experiments.run_gen_surrogate(path, modes=3, grid=64, n=1500, components=2, seed=5)
        kwargs.update(l_list=(300, 700), n_catalogs=4, target_index=11)
    else:
        path = tmp_path / "ties.anacat"
        kwargs.update(l_list=(200, 400), target_index=_tied_source(path))
    experiments.run_mc_distances(tmp_path / "mc", path, **kwargs)
    dims, held, tied = _per_subcatalog_dims(path, **kwargs)
    assert read_columns(tmp_path / "mc" / "catalogs.csv")["dim"] == [repr(d) for d in dims]
    if source == "l63":
        assert held >= 1
    if source == "ties":
        assert tied >= 1


class TestRescaledDensity:
    def test_artifacts(self, small_l63, tmp_path):
        experiments.run_rescaled_density(
            tmp_path, small_l63, k_max=3, n_analogs_dim=12, n_targets=40, exclusion_gap=5
        )
        assert len(read_columns(tmp_path / "targets.csv")["target"]) == 40
        cols = read_columns(tmp_path / "curves.csv")
        assert set(cols["series"]) == {
            "k=1", "k=1 theory", "k=2", "k=2 theory", "k=3", "k=3 theory",
        }
        _assert_svg(tmp_path / "rescaled.svg")
        _assert_manifest_clean(tmp_path)

    @pytest.mark.parametrize(
        "bad",
        [
            {"k_max": 0},
            {"k_max": 5, "n_analogs_dim": 4},
            {"n_targets": 1},
        ],
    )
    def test_validation(self, small_l63, tmp_path, bad):
        kwargs = dict(k_max=3, n_analogs_dim=12, n_targets=40, exclusion_gap=5)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            experiments.run_rescaled_density(tmp_path, small_l63, **kwargs)


class TestDmaxScan:
    def test_scan_artifacts(self, small_surrogate, tmp_path):
        experiments.run_dmax_scan(
            tmp_path,
            small_surrogate,
            epsilon=0.5,
            k_list=(1, 4),
            eof_counts=(1, 2, 3, 20),  # 20 exceeds the 8 columns and is dropped
            n_analogs=10,
            n_targets=30,
            rmsd_pairs=2000,
        )
        cols = read_columns(tmp_path / "scan.csv")
        assert len(cols["n_eof"]) == 2 * 3
        assert set(cols["n_eof"]) == {"1", "2", "3"}
        assert set(cols["passed"]) <= {"true", "false"}
        boundary = read_columns(tmp_path / "boundary.csv")
        assert boundary["series"] == ["empirical", "theory", "empirical", "theory"]
        _assert_svg(tmp_path / "ratio.svg")
        _assert_svg(tmp_path / "boundary.svg")
        _assert_manifest_clean(tmp_path)

    def test_one_fit_serves_every_rank(self, small_surrogate, tmp_path, monkeypatch):
        real, calls = dimred.eof_fit, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(dimred, "eof_fit", counting)
        experiments.run_dmax_scan(
            tmp_path, small_surrogate, epsilon=0.5, k_list=(1, 4, 9), eof_counts=(1, 3),
            n_analogs=10, n_targets=20, rmsd_pairs=2000,
        )
        assert len(calls) == 1
        assert set(read_columns(tmp_path / "scan.csv")["k"]) == {"1", "4", "9"}

    def test_no_usable_counts(self, small_surrogate, tmp_path):
        with pytest.raises(ValueError, match="eof_counts"):
            experiments.run_dmax_scan(
                tmp_path, small_surrogate, epsilon=0.5, eof_counts=(30, 40)
            )


class TestCluster:
    def test_cluster_artifacts(self, small_surrogate, tmp_path):
        res = experiments.run_cluster(
            tmp_path,
            small_surrogate,
            n_eof=3,
            candidates=(1, 2),
            seeds_per_candidate=2,
        )
        bic = read_columns(tmp_path / "bic.csv")
        assert bic["n_components"] == ["1", "2"]
        assignments = read_columns(tmp_path / "assignments.csv")
        assert len(assignments["cluster"]) == 600
        model = GmmModel.from_json((tmp_path / "model.json").read_text())
        assert model.n_components in (1, 2)
        assert {int(c) for c in assignments["cluster"]} <= set(range(model.n_components))
        assert len(read_columns(tmp_path / "eof.csv")["component"]) == 3
        _assert_svg(tmp_path / "bic.svg")
        _assert_manifest_clean(tmp_path)
        assert "selected" in res.summary[0]

    def test_standardize_smoke(self, small_surrogate, tmp_path):
        experiments.run_cluster(
            tmp_path,
            small_surrogate,
            n_eof=2,
            candidates=(1,),
            seeds_per_candidate=1,
            standardize=True,
        )
        _assert_manifest_clean(tmp_path)


class TestDimStats:
    def test_artifacts(self, small_l63, tmp_path):
        experiments.run_dim_stats(
            tmp_path,
            small_l63,
            n_analogs=10,
            exclusion_gap=5,
            n_targets=80,
            steps_per_day=10,
            smooth_window_days=8,
            hist_bins=10,
        )
        dims = read_columns(tmp_path / "dims.csv")
        assert len(dims["dim"]) == 80
        daily = read_columns(tmp_path / "daily.csv")
        assert len(daily["day"]) > 10
        weekly = read_columns(tmp_path / "weekly.csv")
        for q10, q90 in zip(weekly["q10"], weekly["q90"]):
            assert float(q90) >= float(q10)
        assert len(read_columns(tmp_path / "hist.csv")["density"]) == 10
        for name in ("hist.svg", "daily.svg", "weekly.svg"):
            _assert_svg(tmp_path / name)
        _assert_manifest_clean(tmp_path)

    def test_steps_per_day_validated(self, small_l63, tmp_path):
        with pytest.raises(ValueError, match="steps_per_day"):
            experiments.run_dim_stats(tmp_path, small_l63, steps_per_day=0)


class TestRerun:
    def test_runner_table_matches_drivers(self):
        assert set(RUNNERS) == {
            "gen-l63",
            "gen-surrogate",
            "theory-curves",
            "fit-target",
            "mc-distances",
            "rescaled-density",
            "dmax-scan",
            "cluster",
            "dim-stats",
        }

    def test_rerun_directory_experiment_in_place(self, tmp_path):
        experiments.run_theory_curves(tmp_path, k_list=(1,), d_list=(2.0,), grid_points=32)
        _, status = experiments.run_rerun(tmp_path / "manifest.json")
        assert status and all(status.values())

    def test_rerun_into_fresh_directory(self, tmp_path):
        src = tmp_path / "src"
        experiments.run_theory_curves(src, k_list=(1,), d_list=(2.0,), grid_points=32)
        result, status = experiments.run_rerun(src / "manifest.json", out=tmp_path / "fresh")
        assert all(status.values())
        assert (tmp_path / "fresh" / "curves.csv").is_file()
        assert result.manifest_path.parent == tmp_path / "fresh"

    def test_rerun_file_experiment(self, tmp_path):
        path = tmp_path / "tiny.anacat"
        experiments.run_gen_l63(path, n=100, burn_in=20, seed=4)
        _, status = experiments.run_rerun(tmp_path / "tiny.anacat.manifest.json")
        assert status == {"tiny.anacat": True}

    def test_rerun_detects_drift(self, tmp_path):
        experiments.run_theory_curves(tmp_path, k_list=(1,), d_list=(2.0,), grid_points=32)
        manifest_path = tmp_path / "manifest.json"
        raw = json.loads(manifest_path.read_text())
        raw["outputs"]["curves.csv"] = "0" * 64
        manifest_path.write_text(json.dumps(raw))
        _, status = experiments.run_rerun(manifest_path)
        assert status["curves.csv"] is False
        assert status["markers.csv"] is True

    def test_rerun_unknown_command(self, tmp_path):
        raw = {
            "command": "nope",
            "parameters": {},
            "seeds": {},
            "package_version": "0",
            "created_utc": "2026-01-01T00:00:00Z",
            "outputs": {},
            "schema_version": 1,
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="unknown command"):
            experiments.run_rerun(path)


# ---------------------------------------------------------------------------
# recorded parameters of direct calls
#
# The golden gate feeds only CLI-typed, already sorted values. Here each
# driver is called directly, once with every default applied and once with
# unnormalised input (tuples, unsorted ranks, duplicated EOF counts, numpy
# scalars, Path objects, ints where floats are recorded, an EOF count wider
# than the catalog), and the manifest must record exactly these parameters
# and seeds. (A duplicated rank exits 2 before any work; tests/test_cli.py
# checks that.)


@pytest.fixture(scope="module")
def recording_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("recording")
    experiments.run_gen_l63(root / "cats" / "l63.anacat", n=100_000, seed=1)
    experiments.run_gen_surrogate(root / "cats" / "wide.anacat", modes=2, n=2400)
    experiments.run_gen_surrogate(root / "cats" / "tiny.anacat", modes=2, n=300, noise=0.05)
    return root


i64, f64 = np.int64, np.float64

# command -> (call with every default applied, call with unnormalised input)
RECORDING_CALLS = {
    "gen-l63": (
        lambda: experiments.run_gen_l63("d/l63.anacat"),
        lambda: experiments.run_gen_l63(
            Path("u") / "l63.anacat", n=i64(200), dt=f64(0.01), burn_in=i64(20), stride=i64(2),
            seed=i64(4),
        ),
    ),
    "gen-surrogate": (
        lambda: experiments.run_gen_surrogate("d/wind.anacat", 2),
        lambda: experiments.run_gen_surrogate(
            "./u//wind.anacat", i64(2), grid=i64(8), n=300, noise=f64(0.01), seed=i64(3),
            components=i64(2), decay=1,
        ),
    ),
    "theory-curves": (
        lambda: experiments.run_theory_curves("d/theory"),
        lambda: experiments.run_theory_curves(
            Path("u/theory"), k_list=(i64(5), 1, 3), d_list=[2, f64(1.5)],
            catalog_size=i64(1000), grid_points=i64(16),
        ),
    ),
    "fit-target": (
        lambda: experiments.run_fit_target("d/fit", "cats/l63.anacat", 5),
        lambda: experiments.run_fit_target(
            "./u//fit/", "./cats//l63.anacat", i64(7), n_analogs=i64(12), exclusion_gap=i64(3)
        ),
    ),
    "mc-distances": (
        lambda: experiments.run_mc_distances("d/mc", "cats/l63.anacat"),
        lambda: experiments.run_mc_distances(
            Path("u/mc"), Path("cats/l63.anacat"), l_list=(i64(600), 300), n_catalogs=i64(4),
            target_index=i64(3), n_analogs_dim=i64(20), k_markers=[5, i64(1), 3], bw_dim=1,
            bw_rho=f64(4.0), bw_rescaled=f64(0.5), seed=i64(2),
        ),
    ),
    "rescaled-density": (
        lambda: experiments.run_rescaled_density("d/resc", "cats/l63.anacat"),
        lambda: experiments.run_rescaled_density(
            Path("u/resc"), Path("cats/l63.anacat"), k_max=i64(3), bandwidth=1,
            n_analogs_dim=i64(10), n_targets=i64(30), exclusion_gap=i64(4), seed=i64(6),
        ),
    ),
    "dmax-scan": (
        lambda: experiments.run_dmax_scan("d/dmax", "cats/wide.anacat", 0.4),
        lambda: experiments.run_dmax_scan(
            "u/dmax", Path("cats/wide.anacat"), 1, k_list=(5, i64(1), 3),
            eof_counts=(3, 1, i64(3), 2, 999), l_eff=i64(50), rho_bar=f64(0.5),
            n_analogs=i64(12), n_targets=i64(10), seed=i64(1), rmsd_pairs=i64(300),
        ),
    ),
    "cluster": (
        lambda: experiments.run_cluster("d/cluster", "cats/tiny.anacat"),
        lambda: experiments.run_cluster(
            Path("u/cluster"), "./cats//tiny.anacat", n_eof=i64(3), candidates=(i64(2), 1),
            seeds_per_candidate=i64(2), covariance=np.str_("diag"), standardize=np.bool_(True),
            seed=i64(5),
        ),
    ),
    "dim-stats": (
        lambda: experiments.run_dim_stats("d/dims", "cats/l63.anacat"),
        lambda: experiments.run_dim_stats(
            Path("u/dims"), Path("cats/l63.anacat"), n_analogs=i64(10), exclusion_gap=i64(3),
            n_targets=i64(100), steps_per_day=i64(10), smooth_window_days=8, hist_bins=i64(10),
        ),
    ),
}

# Recorded from the drivers before they shared one envelope.
RECORDED = {
    ("gen-l63", "defaults"): (
        {
            "burn_in": 10000, "dt": 0.01, "n": 20000, "out": "d/l63.anacat", "seed": None,
            "stride": 1,
        },
        {},
    ),
    ("gen-l63", "unnormalised"): (
        {
            "burn_in": 20, "dt": 0.01, "n": 200, "out": "u/l63.anacat", "seed": 4, "stride": 2,
        },
        {"seed": 4},
    ),
    ("gen-surrogate", "defaults"): (
        {
            "components": 1, "decay": 0.85, "grid": 64, "modes": 2, "n": 30000, "noise": 0.001,
            "out": "d/wind.anacat", "seed": 0,
        },
        {"seed": 0},
    ),
    ("gen-surrogate", "unnormalised"): (
        {
            "components": 2, "decay": 1.0, "grid": 8, "modes": 2, "n": 300, "noise": 0.01,
            "out": "u/wind.anacat", "seed": 3,
        },
        {"seed": 3},
    ),
    ("theory-curves", "defaults"): (
        {
            "catalog_size": 100000, "d_list": [1.3, 2.0, 5.0], "grid_points": 512,
            "k_list": [1, 5, 30], "out": "d/theory",
        },
        {},
    ),
    ("theory-curves", "unnormalised"): (
        {
            "catalog_size": 1000, "d_list": [2.0, 1.5], "grid_points": 16, "k_list": [5, 1, 3],
            "out": "u/theory",
        },
        {},
    ),
    ("fit-target", "defaults"): (
        {
            "catalog": "cats/l63.anacat", "exclusion_gap": 0, "n_analogs": 40, "out": "d/fit",
            "target_index": 5,
        },
        {},
    ),
    ("fit-target", "unnormalised"): (
        {
            "catalog": "./cats//l63.anacat", "exclusion_gap": 3, "n_analogs": 12,
            "out": "u/fit", "target_index": 7,
        },
        {},
    ),
    ("mc-distances", "defaults"): (
        {
            "bw_dim": 0.15, "bw_rescaled": 0.3, "bw_rho": 4.0,
            "catalog_source": "cats/l63.anacat", "k_markers": [1, 15, 30],
            "l_list": [10000, 100000], "n_analogs_dim": 150, "n_catalogs": 200, "out": "d/mc",
            "seed": 0, "target_index": 0,
        },
        {"seed": 0},
    ),
    ("mc-distances", "unnormalised"): (
        {
            "bw_dim": 1.0, "bw_rescaled": 0.5, "bw_rho": 4.0,
            "catalog_source": "cats/l63.anacat", "k_markers": [1, 3, 5], "l_list": [600, 300],
            "n_analogs_dim": 20, "n_catalogs": 4, "out": "u/mc", "seed": 2, "target_index": 3,
        },
        {"seed": 2},
    ),
    ("rescaled-density", "defaults"): (
        {
            "bandwidth": 0.3, "catalog": "cats/l63.anacat", "exclusion_gap": 36, "k_max": 8,
            "n_analogs_dim": 40, "n_targets": 400, "out": "d/resc", "seed": 0,
        },
        {"seed": 0},
    ),
    ("rescaled-density", "unnormalised"): (
        {
            "bandwidth": 1.0, "catalog": "cats/l63.anacat", "exclusion_gap": 4, "k_max": 3,
            "n_analogs_dim": 10, "n_targets": 30, "out": "u/resc", "seed": 6,
        },
        {"seed": 6},
    ),
    ("dmax-scan", "defaults"): (
        {
            "catalog": "cats/wide.anacat",
            "eof_counts": [1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50],
            "epsilon": 0.4, "k_list": [1, 5, 25, 100], "l_eff": None, "n_analogs": 40,
            "n_targets": 200, "out": "d/dmax", "rho_bar": 0.55, "rmsd_pairs": 50000, "seed": 0,
        },
        {"seed": 0},
    ),
    ("dmax-scan", "unnormalised"): (
        {
            "catalog": "cats/wide.anacat", "eof_counts": [1, 2, 3], "epsilon": 1.0,
            "k_list": [1, 3, 5], "l_eff": 50, "n_analogs": 12, "n_targets": 10,
            "out": "u/dmax", "rho_bar": 0.5, "rmsd_pairs": 300, "seed": 1,
        },
        {"seed": 1},
    ),
    ("cluster", "defaults"): (
        {
            "candidates": [1, 2, 3, 4, 5, 6, 7, 8], "catalog": "cats/tiny.anacat",
            "covariance": "full", "n_eof": 50, "out": "d/cluster", "seed": 0,
            "seeds_per_candidate": 5, "standardize": False,
        },
        {"seed": 0, "seeds_per_candidate": 5},
    ),
    ("cluster", "unnormalised"): (
        {
            "candidates": [2, 1], "catalog": "./cats//tiny.anacat", "covariance": "diag",
            "n_eof": 3, "out": "u/cluster", "seed": 5, "seeds_per_candidate": 2,
            "standardize": True,
        },
        {"seed": 5, "seeds_per_candidate": 2},
    ),
    ("dim-stats", "defaults"): (
        {
            "catalog": "cats/l63.anacat", "exclusion_gap": 36, "hist_bins": 40,
            "n_analogs": 40, "n_targets": 2000, "out": "d/dims", "smooth_window_days": 80.0,
            "steps_per_day": 24,
        },
        {},
    ),
    ("dim-stats", "unnormalised"): (
        {
            "catalog": "cats/l63.anacat", "exclusion_gap": 3, "hist_bins": 10, "n_analogs": 10,
            "n_targets": 100, "out": "u/dims", "smooth_window_days": 8.0, "steps_per_day": 10,
        },
        {},
    ),
}


@pytest.mark.parametrize("variant", ["defaults", "unnormalised"])
@pytest.mark.parametrize("command", list(RECORDING_CALLS))
def test_recorded_parameters_of_direct_calls(command, variant, recording_root, monkeypatch):
    monkeypatch.chdir(recording_root)
    result = RECORDING_CALLS[command][variant == "unnormalised"]()
    manifest = load_manifest(result.manifest_path)
    # JSON text, so 80 and 80.0 or 1 and true do not compare equal.
    recorded = json.dumps([manifest.parameters, manifest.seeds], sort_keys=True)
    assert recorded == json.dumps(RECORDED[command, variant], sort_keys=True)
