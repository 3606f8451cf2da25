"""Golden outputs: every command, run through the CLI at tiny sizes.

Each step's output files must hash to the recorded sha256, and its
manifest must record the same command, parameters, seeds and output
hashes, so any change to what a command writes shows up here. Paths are
relative to the run directory because manifests record them as given.
The digests hold for the numpy/scipy builds the suite runs on; a refactor
of the drivers or the CLI must leave every one of them unchanged.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from analogdist.cli import main

# (step name, argv, manifest path relative to the run directory)
STEPS = [
    ("gen-l63",
     ["gen-l63", "--n", "1500", "--burn-in", "200", "--stride", "2", "--seed", "3",
      "--out", "l63.anacat"],
     "l63.anacat.manifest.json"),
    ("gen-surrogate",
     ["gen-surrogate", "--modes", "2", "--grid", "12", "--components", "2", "--n", "900",
      "--seed", "4", "--out", "wind.anacat"],
     "wind.anacat.manifest.json"),
    ("theory-curves",
     ["theory-curves", "--k-list", "1,5", "--d-list", "1.3,2", "--L", "1e4",
      "--grid-points", "64", "--out", "theory"],
     "theory/manifest.json"),
    ("fit-target",
     ["fit-target", "--catalog", "l63.anacat", "--target-index", "700", "--K", "20",
      "--exclusion-gap", "5", "--out", "fit"],
     "fit/manifest.json"),
    ("mc-distances",
     ["mc-distances", "--catalog-source", "l63.anacat", "--L-list", "300,600",
      "--n-catalogs", "6", "--target", "100", "--K-dim", "30", "--k-markers", "1,5",
      "--seed", "2", "--out", "mc"],
     "mc/manifest.json"),
    ("rescaled-density",
     ["rescaled-density", "--catalog", "wind.anacat", "--k-max", "4", "--K-dim", "12",
      "--n-targets", "40", "--exclusion-gap", "10", "--seed", "1", "--out", "resc"],
     "resc/manifest.json"),
    ("dmax-scan",
     ["dmax-scan", "--catalog", "wind.anacat", "--epsilon", "0.4", "--k-list", "1,5",
      "--eof-counts", "1,2,3", "--L-eff", "50", "--K", "15", "--n-targets", "20",
      "--seed", "1", "--rmsd-pairs", "500", "--out", "dmax"],
     "dmax/manifest.json"),
    ("cluster",
     ["cluster", "--catalog", "wind.anacat", "--n-eof", "3", "--candidates", "1,2,3",
      "--seeds", "2", "--out", "cluster"],
     "cluster/manifest.json"),
    ("cluster-diag",
     ["cluster", "--catalog", "wind.anacat", "--n-eof", "3", "--candidates", "1,2",
      "--seeds", "2", "--covariance", "diag", "--standardize", "--seed", "5",
      "--out", "cluster-diag"],
     "cluster-diag/manifest.json"),
    ("dim-stats",
     ["dim-stats", "--catalog", "l63.anacat", "--K", "15", "--exclusion-gap", "5",
      "--n-targets", "200", "--steps-per-day", "10", "--smooth-window-days", "8",
      "--out", "dims"],
     "dims/manifest.json"),
    ("rerun",
     ["rerun", "mc/manifest.json", "--out", "mc-rerun"],
     "mc-rerun/manifest.json"),
]

# Recorded from the drivers before the CLI was made table-driven.
GOLDEN = {
    "gen-l63": {
        "command": "gen-l63",
        "parameters": {
            "burn_in": 200, "dt": 0.01, "n": 1500, "out": "l63.anacat", "seed": 3, "stride": 2,
        },
        "seeds": {"seed": 3},
        "outputs": {
            "l63.anacat":
                "7e80fcfae661cfb42aac66dbdbf72e0cab7c310f4dde501e20a6c3311d317784",
        },
        "stdout_sha256": "a0adb7423220eca7e8179c26a5cbf8b4c0c1431e635c8eab428b069aa16c1a15",
    },
    "gen-surrogate": {
        "command": "gen-surrogate",
        "parameters": {
            "components": 2, "decay": 0.85, "grid": 12, "modes": 2, "n": 900, "noise": 0.001,
            "out": "wind.anacat", "seed": 4,
        },
        "seeds": {"seed": 4},
        "outputs": {
            "wind.anacat":
                "936c35b56f166dbb05caab2886d235bc86f6bff0e02178a5d6fbb39172784cc9",
        },
        "stdout_sha256": "33477ff8abe826dd97b06f7905dbe863ab4e2e482960dcfe6732c99e4a5dc06f",
    },
    "theory-curves": {
        "command": "theory-curves",
        "parameters": {
            "catalog_size": 10000, "d_list": [1.3, 2.0], "grid_points": 64, "k_list": [1, 5],
            "out": "theory",
        },
        "seeds": {},
        "outputs": {
            "curves.csv":
                "d783f99d2f69c0a8cffed8a25f0e95584ff7e3c9219f20a4b611a6240fe4f63c",
            "curves.svg":
                "c1b6721cc451eba8cfeca9800193ae443b4c691dcf1a2d7bf0aab5eacd843642",
            "markers.csv":
                "3f063b97169fcb76e92ee028864097b760e9e878744993575e9d8ab95856f81e",
        },
        "stdout_sha256": "1daf982ac12a376592e9b348837f62951296fe3f642f2aaa313fa9a28b92bd19",
    },
    "fit-target": {
        "command": "fit-target",
        "parameters": {
            "catalog": "l63.anacat", "exclusion_gap": 5, "n_analogs": 20, "out": "fit",
            "target_index": 700,
        },
        "seeds": {},
        "outputs": {
            "fit.csv":
                "df4be0efc4dd5a90591c090abb059d3c112d96d642058dc99393efe00c2d09c3",
            "fit.svg":
                "5e7e48297a8a23a0fcbd1eb04bb0e36ab09274f12d6ebf1acce6a0a4d258b742",
            "summary.csv":
                "21ae9aa99834fb22e0fe9ae55a2f1449a7ad3c933b488124624fb78defea607f",
        },
        "stdout_sha256": "3d8b588939e172cd79b8265726e523fdb20e2589a11fb754f5718548721765dd",
    },
    "mc-distances": {
        "command": "mc-distances",
        "parameters": {
            "bw_dim": 0.15, "bw_rescaled": 0.3, "bw_rho": 4.0, "catalog_source": "l63.anacat",
            "k_markers": [1, 5], "l_list": [300, 600], "n_analogs_dim": 30, "n_catalogs": 6,
            "out": "mc", "seed": 2, "target_index": 100,
        },
        "seeds": {"seed": 2},
        "outputs": {
            "catalogs.csv":
                "5e4b851bd780545f95c3989eca6fdd0189f5213663a60061cc7afadad8f05a23",
            "dim.svg":
                "62b6fcb566cf64a2db2dddaba894049235df844bb90ca11aa9a8f3429dd5ca05",
            "dim_density.csv":
                "cdd29488303788512a062fdb2dac6536a766e14a04d8b337c813ca9fc80c1327",
            "ks.csv":
                "7a0fdf9a3ea13eefd55a1ed07d73e33c1b9ca51b17c8ef1fbf01a3505ceaf56a",
            "rescaled_k1.csv":
                "4c0e2b91cd8bb4755497c47000da458f45c32d5a87fc8a7e8458578ea92b2310",
            "rescaled_k1.svg":
                "680321fb6e148d69a443614a55f7dc06581f96d1953ae0e3611b0307f79e8894",
            "rescaled_k5.csv":
                "fd45432e66aeaeb2a082de8bac137e9d8e2ca8a7be115514d2b11aee29cd12c7",
            "rescaled_k5.svg":
                "df0c7d349fca935c5116b432041586f393d900bc0eb1fec94f8b3d0feda758a5",
            "rho.svg":
                "d1091f4de0a3ea863611c2075609e6dbd3ad704d4b13272160bb8f7079cbbcb2",
            "rho_density.csv":
                "254c607f89c9ed15be45d90f5dd221efa869712fbc0d97c6af2279c1244ab355",
            "rho_overlap.csv":
                "811dc51cebce75ca4515ff4d7071fb09c8134700e51244f2b37c2bf3f3979a6f",
        },
        "stdout_sha256": "4c7853a8583d47a4206d8f09baac677662bd4959231d8a758318e61860b90dea",
    },
    "rescaled-density": {
        "command": "rescaled-density",
        "parameters": {
            "bandwidth": 0.3, "catalog": "wind.anacat", "exclusion_gap": 10, "k_max": 4,
            "n_analogs_dim": 12, "n_targets": 40, "out": "resc", "seed": 1,
        },
        "seeds": {"seed": 1},
        "outputs": {
            "curves.csv":
                "1dc3633413a51a29bef3b9d92c811992f700de3b790d6a73e41a7aa7ec05fa9f",
            "rescaled.svg":
                "b0bc0bcc99d9b98994e2a5497085945d867bb2d5dd4bc637fdec12498dec5bbf",
            "targets.csv":
                "801d068644da9749dd3a419c64ff403a90c2cf738ccd479cd219021f6b3bf1b5",
        },
        "stdout_sha256": "8e3c679eb62b2f9866a0bd59baead44d891d9c04d424d40fea32b22b51139be1",
    },
    "dmax-scan": {
        "command": "dmax-scan",
        "parameters": {
            "catalog": "wind.anacat", "eof_counts": [1, 2, 3], "epsilon": 0.4, "k_list": [1, 5],
            "l_eff": 50, "n_analogs": 15, "n_targets": 20, "out": "dmax", "rho_bar": 0.55,
            "rmsd_pairs": 500, "seed": 1,
        },
        "seeds": {"seed": 1},
        "outputs": {
            "boundary.csv":
                "3fee51c2d0743e14ee4aeb96ada96a0bfd7a91807ffdc8fae46fbe70ed40182f",
            "boundary.svg":
                "ce12823a372fcbe35ddebfd5a54056dfb9459ba78b58b6923088f6aeb7f2a2bf",
            "ratio.svg":
                "d56f5c5fe5be3608f3571cf660aa880d55df8794368b715f228ffb62efc051a1",
            "scan.csv":
                "e4efbbd8fc0272a3eeb7f86e0470cc29b7c9719e0eb4f740e9f4e321a90e5f8d",
        },
        "stdout_sha256": "17e6060f1f6678a56f4656e6a0d98b80447ef39864f3e5a59c5da8ac5655dd8d",
    },
    "cluster": {
        "command": "cluster",
        "parameters": {
            "candidates": [1, 2, 3], "catalog": "wind.anacat", "covariance": "full", "n_eof": 3,
            "out": "cluster", "seed": 0, "seeds_per_candidate": 2, "standardize": False,
        },
        "seeds": {"seed": 0, "seeds_per_candidate": 2},
        "outputs": {
            "assignments.csv":
                "97c76ceec3548a95ab6279440faca573c735eb759a796b95108808755a93239f",
            "bic.csv":
                "be688daee39fae4a5a8deaecc33e8cb8e4acf2dc9297522f4cdaed764da7bc20",
            "bic.svg":
                "f354ef418257098258e888604c34df5c7bd9a2ce5eb9f243f9a8593817149143",
            "eof.csv":
                "49f279cf97753d387929d8ca802916491d3c76b2e72e15d0dcddbb7afffbc98e",
            "model.json":
                "2220bdbf198325aa6e63847280754cedf75f124c768f582bdb82f2a0efb28cb0",
        },
        "stdout_sha256": "1c55922b1e790d4eb61d7e77560c1cf4d8b1a140ee0c5bfd467a418105ec596d",
    },
    "cluster-diag": {
        "command": "cluster",
        "parameters": {
            "candidates": [1, 2], "catalog": "wind.anacat", "covariance": "diag", "n_eof": 3,
            "out": "cluster-diag", "seed": 5, "seeds_per_candidate": 2, "standardize": True,
        },
        "seeds": {"seed": 5, "seeds_per_candidate": 2},
        "outputs": {
            "assignments.csv":
                "4a23627099927e60c1611717d66a7bf77f9f1b061145aba46cd839a39d72005e",
            "bic.csv":
                "24e518de42b713e645678f45d5bc1858298ace2a92a612a4a2bf8803cd3ad5c1",
            "bic.svg":
                "49e2016a6085dea1333570ba6ef707ae37300ee9042583fedf27cde7e5b8a723",
            "eof.csv":
                "49f279cf97753d387929d8ca802916491d3c76b2e72e15d0dcddbb7afffbc98e",
            "model.json":
                "549bd84d409b26fa01be487f211d03207b07803a0e7723441a8160037a853229",
        },
        "stdout_sha256": "7c68b29ea4eba704b35576867f30a84aaa3f3c0f1c367653cd3c170022ed7c07",
    },
    "dim-stats": {
        "command": "dim-stats",
        "parameters": {
            "catalog": "l63.anacat", "exclusion_gap": 5, "hist_bins": 40, "n_analogs": 15,
            "n_targets": 200, "out": "dims", "smooth_window_days": 8.0, "steps_per_day": 10,
        },
        "seeds": {},
        "outputs": {
            "daily.csv":
                "b57f3afabc9bf570c29585137a42ea190c8124b3378da2c0b187e9e73ecd8a3d",
            "daily.svg":
                "9baa2912b6d8b38731d8373ad669f20d1e01744c147a0c1e2da5d681250d7dd3",
            "dims.csv":
                "6220ca8dbe8e56f7eecb682a10b094dc5ffb3fce92dd6276abe20deff13ebef4",
            "hist.csv":
                "e3436e50da4d537202fd011458c74241e21a84f6fd8c142a3b2a40fbcdfc5ecd",
            "hist.svg":
                "18afc7c40e6a27c80ada5a7cdeefe534bade2c7fdb6adcc13d61b037988dcb39",
            "weekly.csv":
                "78513f149a355b7942dcbd6f04dbf06988b207fb1ae5852f79b835a2ea81780c",
            "weekly.svg":
                "6f07f7ec89570b958d47ffe711c1b2ce4af1a2dce73b8d37806c0618e3d9d41f",
        },
        "stdout_sha256": "d5f3fc9c5da65582f41c45c913a46f6c8bbce3ccaf93c4f316b7535b35a52dc4",
    },
    "rerun": {
        "command": "mc-distances",
        "parameters": {
            "bw_dim": 0.15, "bw_rescaled": 0.3, "bw_rho": 4.0, "catalog_source": "l63.anacat",
            "k_markers": [1, 5], "l_list": [300, 600], "n_analogs_dim": 30, "n_catalogs": 6,
            "out": "mc-rerun", "seed": 2, "target_index": 100,
        },
        "seeds": {"seed": 2},
        "outputs": {
            "catalogs.csv":
                "5e4b851bd780545f95c3989eca6fdd0189f5213663a60061cc7afadad8f05a23",
            "dim.svg":
                "62b6fcb566cf64a2db2dddaba894049235df844bb90ca11aa9a8f3429dd5ca05",
            "dim_density.csv":
                "cdd29488303788512a062fdb2dac6536a766e14a04d8b337c813ca9fc80c1327",
            "ks.csv":
                "7a0fdf9a3ea13eefd55a1ed07d73e33c1b9ca51b17c8ef1fbf01a3505ceaf56a",
            "rescaled_k1.csv":
                "4c0e2b91cd8bb4755497c47000da458f45c32d5a87fc8a7e8458578ea92b2310",
            "rescaled_k1.svg":
                "680321fb6e148d69a443614a55f7dc06581f96d1953ae0e3611b0307f79e8894",
            "rescaled_k5.csv":
                "fd45432e66aeaeb2a082de8bac137e9d8e2ca8a7be115514d2b11aee29cd12c7",
            "rescaled_k5.svg":
                "df0c7d349fca935c5116b432041586f393d900bc0eb1fec94f8b3d0feda758a5",
            "rho.svg":
                "d1091f4de0a3ea863611c2075609e6dbd3ad704d4b13272160bb8f7079cbbcb2",
            "rho_density.csv":
                "254c607f89c9ed15be45d90f5dd221efa869712fbc0d97c6af2279c1244ab355",
            "rho_overlap.csv":
                "811dc51cebce75ca4515ff4d7071fb09c8134700e51244f2b37c2bf3f3979a6f",
        },
        "stdout_sha256": "37e3e4f6d21d90ad2668e8e60ab720b8a36819a332f9c49ebc551126e5e431ee",
    },
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_steps(root) -> dict:
    """Run every step inside `root`; per step, its exit code, a digest of
    its stdout, and the four reproducible manifest fields."""
    results = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, argv, manifest in STEPS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            raw = json.loads(Path(manifest).read_text(encoding="utf-8"))
            results[name] = {
                "exit": code,
                "stdout_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
                **{key: raw[key] for key in ("command", "parameters", "seeds", "outputs")},
                "files": {
                    rel: _sha256(Path(manifest).parent / rel) for rel in raw["outputs"]
                },
            }
    finally:
        os.chdir(cwd)
    return results


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    return run_steps(tmp_path_factory.mktemp("golden"))


def check_step(got, want):
    assert got["exit"] == 0
    for key in ("command", "parameters", "seeds", "outputs"):
        assert got[key] == want[key], key
    assert got["files"] == want["outputs"]
    assert got["stdout_sha256"] == want["stdout_sha256"]


@pytest.mark.parametrize("name", [step[0] for step in STEPS])
def test_golden_outputs(golden_run, name):
    check_step(golden_run[name], GOLDEN[name])


def test_golden_outputs_at_two_blas_threads_and_two_workers(tmp_path):
    # OpenBLAS reads its thread count once, when numpy loads, so the steps
    # run again in a fresh interpreter, against the same recorded digests.
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2", "ANALOG_DIST_THREADS": "2"}
    script = "import json, sys, test_golden; print(json.dumps(test_golden.run_steps(sys.argv[1])))"
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    results = json.loads(run.stdout.splitlines()[-1])
    assert list(results) == [step[0] for step in STEPS]
    for name, got in results.items():
        check_step(got, GOLDEN[name])
