"""CLI surface: argument parsing and the fixed exit-code contract.

0 success, 2 bad request, 3 numeric failure, 4 I/O or format trouble.
"""

import argparse
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Annotated, get_args, get_origin

import numpy as np
import pytest

from analogdist import __version__, clustering, experiments
from analogdist.catalog import Catalog, load_catalog, save_catalog
from analogdist.cli import _text_parser, build_parser, main
from analogdist.errors import CovarianceCollapseError
from analogdist.manifest import build_manifest, file_sha256, save_manifest
from analogdist.neighbors import NeighborIndex
from csvcols import read_columns

_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def tiny_catalog(tmp_path):
    path = tmp_path / "tiny.anacat"
    experiments.run_gen_l63(path, n=400, burn_in=50, seed=9)
    return path


# Each subcommand's (option string, dest, required) in order, as the
# hand-written parser declared them before the options were generated from
# the driver signatures.
_FLAG_TABLE = {
    'gen-l63': [
        ('--n', 'n', False),
        ('--dt', 'dt', False),
        ('--burn-in', 'burn_in', False),
        ('--stride', 'stride', False),
        ('--seed', 'seed', False),
        ('--out', 'out', True),
    ],
    'gen-surrogate': [
        ('--modes', 'modes', True),
        ('--grid', 'grid', False),
        ('--n', 'n', False),
        ('--noise', 'noise', False),
        ('--seed', 'seed', False),
        ('--components', 'components', False),
        ('--decay', 'decay', False),
        ('--out', 'out', True),
    ],
    'theory-curves': [
        ('--k-list', 'k_list', False),
        ('--d-list', 'd_list', False),
        ('--L', 'catalog_size', False),
        ('--grid-points', 'grid_points', False),
        ('--out', 'out', True),
    ],
    'fit-target': [
        ('--catalog', 'catalog', True),
        ('--target-index', 'target_index', True),
        ('--K', 'n_analogs', False),
        ('--exclusion-gap', 'exclusion_gap', False),
        ('--out', 'out', True),
    ],
    'mc-distances': [
        ('--catalog-source', 'catalog_source', True),
        ('--L-list', 'l_list', False),
        ('--n-catalogs', 'n_catalogs', False),
        ('--target', 'target_index', False),
        ('--K-dim', 'n_analogs_dim', False),
        ('--k-markers', 'k_markers', False),
        ('--bw-dim', 'bw_dim', False),
        ('--bw-rho', 'bw_rho', False),
        ('--bw-rescaled', 'bw_rescaled', False),
        ('--seed', 'seed', False),
        ('--out', 'out', True),
    ],
    'rescaled-density': [
        ('--catalog', 'catalog', True),
        ('--k-max', 'k_max', False),
        ('--bandwidth', 'bandwidth', False),
        ('--K-dim', 'n_analogs_dim', False),
        ('--n-targets', 'n_targets', False),
        ('--exclusion-gap', 'exclusion_gap', False),
        ('--seed', 'seed', False),
        ('--out', 'out', True),
    ],
    'dmax-scan': [
        ('--catalog', 'catalog', True),
        ('--epsilon', 'epsilon', True),
        ('--k-list', 'k_list', False),
        ('--eof-counts', 'eof_counts', False),
        ('--L-eff', 'l_eff', False),
        ('--rho-bar', 'rho_bar', False),
        ('--K', 'n_analogs', False),
        ('--n-targets', 'n_targets', False),
        ('--seed', 'seed', False),
        ('--rmsd-pairs', 'rmsd_pairs', False),
        ('--out', 'out', True),
    ],
    'cluster': [
        ('--catalog', 'catalog', True),
        ('--n-eof', 'n_eof', False),
        ('--candidates', 'candidates', False),
        ('--seeds', 'seeds_per_candidate', False),
        ('--covariance', 'covariance', False),
        ('--standardize', 'standardize', False),
        ('--seed', 'seed', False),
        ('--out', 'out', True),
    ],
    'dim-stats': [
        ('--catalog', 'catalog', True),
        ('--K', 'n_analogs', False),
        ('--exclusion-gap', 'exclusion_gap', False),
        ('--n-targets', 'n_targets', False),
        ('--steps-per-day', 'steps_per_day', False),
        ('--smooth-window-days', 'smooth_window_days', False),
        ('--hist-bins', 'hist_bins', False),
        ('--out', 'out', True),
    ],
}


def _subparsers():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestParsing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.strip() == f"analogdist {__version__}"

    def test_command_required(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_bad_list_argument_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["theory-curves", "--k-list", "1,zap", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_int_list_accepts_scientific_notation(self):
        assert _text_parser(tuple[int, ...])("1e5,2, 30") == [100_000, 2, 30]
        for text in ("a,b", "2.5", "1,2.9", "1e-1", "inf", "nan"):
            with pytest.raises(argparse.ArgumentTypeError):
                _text_parser(tuple[int, ...])(text)

    @pytest.mark.parametrize(
        "argv",
        [
            ["theory-curves", "--k-list", "2.5", "--out", "theory"],
            ["theory-curves", "--L", "2.5", "--out", "theory"],
            ["dmax-scan", "--catalog", "c.anacat", "--epsilon", "0.4", "--eof-counts", "2.9",
             "--out", "dmax"],
            ["dmax-scan", "--catalog", "c.anacat", "--epsilon", "0.4", "--L-eff", "250.5",
             "--out", "dmax"],
        ],
    )
    def test_non_integral_integer_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "not an integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_float_list(self):
        assert _text_parser(tuple[float, ...])("1.5,2") == [1.5, 2.0]
        with pytest.raises(argparse.ArgumentTypeError):
            _text_parser(tuple[float, ...])("1.5;2")

    def test_every_subcommand_is_runnable(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert set(sub.choices) == set(experiments.RUNNERS) | {"rerun"}

    def test_options_are_runner_keywords_without_own_defaults(self):
        # A flag left out must be left out of the call, so the runner's
        # signature holds the only default; required flags are exactly the
        # runner's parameters without one.
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for command, (runner, _) in experiments.RUNNERS.items():
            params = inspect.signature(runner).parameters
            actions = [a for a in sub.choices[command]._actions if a.dest != "help"]
            for action in actions:
                assert action.dest in params, (command, action.dest)
                assert action.default is argparse.SUPPRESS, (command, action.dest)
            required = {a.dest for a in actions if a.required}
            assert required == {n for n, p in params.items() if p.default is p.empty}, command

    def test_flags_match_the_recorded_table(self):
        table = {
            command: [(*a.option_strings, a.dest, a.required)
                      for a in parser._actions if a.dest != "help"]
            for command, parser in _subparsers().items() if command != "rerun"
        }
        assert table == _FLAG_TABLE

    def test_a_new_driver_gets_its_subcommand_without_a_cli_edit(self, tmp_path, monkeypatch,
                                                                  capsys):
        monkeypatch.setattr(experiments, "RUNNERS", dict(experiments.RUNNERS))

        @experiments._driver("stub", "dir")
        def run_stub(out: Path, size: int, ranks: tuple[int, ...] = (1,), loud: bool = False):
            """Echo the settings."""
            return [], [f"size={size} ranks={ranks} loud={loud}"]

        stub = _subparsers()["stub"]
        assert [(*a.option_strings, a.dest, a.required) for a in stub._actions][1:] == [
            ("--size", "size", True), ("--ranks", "ranks", False), ("--loud", "loud", False),
            ("--out", "out", True),
        ]
        out = tmp_path / "stub"
        assert main(["stub", "--size", "1e3", "--ranks", "3,2", "--loud", "--out", str(out)]) == 0
        assert "size=1000 ranks=(3, 2) loud=True" in capsys.readouterr().out
        assert json.loads((out / "manifest.json").read_text())["parameters"] == {
            "out": str(out), "size": 1000, "ranks": [3, 2], "loud": True,
        }
        with pytest.raises(SystemExit) as err:
            main(["stub", "--out", str(out)])
        assert err.value.code == 2
        assert "--size" in capsys.readouterr().err

    def test_integer_text_beyond_2_53_stays_exact(self, tmp_path):
        out = tmp_path / "theory"
        assert main(["theory-curves", "--k-list", "1", "--d-list", "2", "--grid-points", "32",
                     "--L", "9007199254740993", "--out", str(out)]) == 0
        recorded = json.loads((out / "manifest.json").read_text())["parameters"]
        assert recorded["catalog_size"] == 2**53 + 1


@pytest.mark.parametrize(
    "script", sorted((_ROOT / "scripts").glob("run_*_pipeline.py")), ids=lambda p: p.stem
)
def test_pipeline_steps_bind_to_their_runners(script):
    # Parsing touches no file, so every step is checked without running it:
    # a renamed flag exits 2 here, a renamed runner keyword fails to bind.
    spec = importlib.util.spec_from_file_location(script.stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    steps = module.steps(Path("results"))
    assert steps
    for argv in steps:
        kwargs = vars(build_parser().parse_args(argv))
        runner = experiments.RUNNERS[kwargs.pop("command")][0]
        inspect.signature(runner).bind(**kwargs)


# Settings checked by a driver body or its library call, after `out` is
# created; every other bad setting is rejected when the call is bound.
_CHECKED_AFTER_BINDING = {"dimension", "noise", "dt", "epsilon", "rho_bar"}


class TestExitCodes:
    def test_success_prints_summary_and_manifest(self, tmp_path, capsys):
        code = main(
            ["theory-curves", "--k-list", "1", "--d-list", "2", "--grid-points", "32",
             "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"manifest: {tmp_path / 'manifest.json'}" in out
        assert (tmp_path / "curves.svg").is_file()

    def test_validation_error_exits_2(self, tiny_catalog, tmp_path, capsys):
        code = main(
            ["fit-target", "--catalog", str(tiny_catalog), "--target-index", "400",
             "--out", str(tmp_path / "fit")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_numeric_error_exits_3(self, tmp_path, capsys):
        # A wildly large step makes the integrator diverge.
        code = main(
            ["gen-l63", "--n", "50", "--dt", "100", "--burn-in", "0",
             "--out", str(tmp_path / "blow.anacat")]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_collapsed_covariance_exits_3(self, tiny_catalog, tmp_path, monkeypatch, capsys):
        def collapse(*args, **kwargs):
            raise CovarianceCollapseError("covariance collapsed during EM")

        monkeypatch.setattr(experiments, "select_n_clusters", collapse)
        code = main(["cluster", "--catalog", str(tiny_catalog), "--n-eof", "2",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "collapsed" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_em_exits_with_one_code_at_any_worker_count(
        self, threads, tiny_catalog, tmp_path, monkeypatch, capsys
    ):
        # At 2 workers the fits run in forked processes, which inherit the
        # patches; each failure must cross back with its type and message.
        monkeypatch.setenv("ANALOG_DIST_THREADS", threads)
        argv = ["cluster", "--catalog", str(tiny_catalog), "--n-eof", "2", "--candidates", "1,2,3",
                "--seeds", "2"]

        def reject(*args):
            raise ValueError("EM rejected its input")

        monkeypatch.setattr(clustering, "_fit_restarts", reject)
        assert main(argv + ["--out", str(tmp_path / "rejected")]) == 2
        assert capsys.readouterr().err == "error: EM rejected its input\n"

        monkeypatch.setattr(clustering, "_fit_restarts", lambda x, f, n, seeds, *args: [None] * len(seeds))
        with pytest.warns(UserWarning):
            assert main(argv + ["--out", str(tmp_path / "collapsed")]) == 3
        assert capsys.readouterr().err == "error: every candidate component count failed to fit\n"

    @pytest.mark.parametrize("dim", [3, 24])
    def test_non_finite_catalog_exits_3(self, tmp_path, capsys, dim):
        # D=3 searches with the k-d tree, D=24 with the exhaustive scan.
        states = np.random.default_rng(dim).normal(size=(400, dim))
        states[250, 1] = np.nan
        path = tmp_path / "bad.anacat"
        save_catalog(Catalog(states, np.arange(400)), path)
        code = main(
            ["fit-target", "--catalog", str(path), "--target-index", "10",
             "--out", str(tmp_path / "fit")]
        )
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_dim_stats_with_fewer_days_than_the_smoothing_window(self, tmp_path, capsys):
        # 60 targets fall on 60 days; the default 80-day window spans 161.
        catalog = tmp_path / "sur.anacat"
        experiments.run_gen_surrogate(catalog, modes=2, grid=8, n=3000, seed=4)
        code = main(
            ["dim-stats", "--catalog", str(catalog), "--n-targets", "60", "--K", "10",
             "--out", str(tmp_path / "ds")]
        )
        assert code == 0, capsys.readouterr().err
        daily = (tmp_path / "ds" / "daily.csv").read_text().splitlines()
        assert len(daily) == 2 + 60

    def test_dim_stats_without_targets_exits_2_before_writing(self, tiny_catalog, tmp_path, capsys):
        out = tmp_path / "ds"
        code = main(
            ["dim-stats", "--catalog", str(tiny_catalog), "--n-targets", "0", "--out", str(out)]
        )
        assert code == 2
        assert "n_targets must be >= 2" in capsys.readouterr().err
        assert list(out.glob("*.csv")) == []

    def test_fit_target_numbers_a_catalog_without_times(self, tmp_path, capsys):
        # Like dim-stats, fit-target gives a timeless catalog the times 0..L-1,
        # so temporal exclusion works on it.
        states = np.random.default_rng(5).normal(size=(300, 3))
        path = tmp_path / "timeless.anacat"
        save_catalog(Catalog(states), path)
        gap = ["--exclusion-gap", "3"]
        code = main(["dim-stats", "--catalog", str(path), "--n-targets", "20", *gap,
                     "--out", str(tmp_path / "ds")])
        assert code == 0, capsys.readouterr().err
        code = main(["fit-target", "--catalog", str(path), "--target-index", "150", "--K", "30",
                     *gap, "--out", str(tmp_path / "fit")])
        assert code == 0, capsys.readouterr().err
        cols = read_columns(tmp_path / "fit" / "fit.csv")
        observed = [float(d) for s, d in zip(cols["series"], cols["distance"]) if s == "observed"]
        numbered = NeighborIndex(Catalog(states, np.arange(300)))
        assert observed == numbered.row_distances([150], 30, 3)[0].tolist()

    @pytest.mark.parametrize("d", ["0", "-1.5"])
    def test_theory_curves_with_non_positive_dimension_exits_2(self, d, tmp_path, capsys):
        out = tmp_path / "theory"
        code = main(["theory-curves", "--d-list", f"2,{d}", "--out", str(out)])
        assert code == 2
        assert f"d_list must be a positive finite number, got {float(d):g}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--n-targets", "0", "--k-list", "1,5"], "n_targets must be >= 1"),
            # The default k-list reaches rank 100; 2000 rows give L_eff = 83.
            ([], "rank 100 exceeds the effective catalog size L_eff = 83"),
        ],
        ids=["no-targets", "rank-above-l-eff"],
    )
    def test_dmax_scan_rejects_request_before_writing(self, extra, message, tmp_path, capsys):
        catalog = tmp_path / "sur.anacat"
        experiments.run_gen_surrogate(catalog, modes=2, grid=8, n=2000, seed=4)
        out = tmp_path / "dmax"
        code = main(["dmax-scan", "--catalog", str(catalog), "--epsilon", "0.4", *extra,
                     "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,parameter",
        [
            (["theory-curves", "--grid-points", "0"], "grid_points"),
            (["rescaled-density", "--catalog", "CAT", "--n-targets", "20", "--K-dim", "20",
              "--exclusion-gap", "3", "--bandwidth", "0"], "bandwidth"),
            (["rescaled-density", "--catalog", "CAT", "--n-targets", "20", "--K-dim", "20",
              "--exclusion-gap", "3", "--bandwidth", "nan"], "bandwidth"),
            (["mc-distances", "--catalog-source", "CAT", "--L-list", "200", "--n-catalogs", "4",
              "--K-dim", "20", "--k-markers", "1,5", "--bw-rho", "0"], "bw_rho"),
            (["mc-distances", "--catalog-source", "CAT", "--L-list", "200", "--n-catalogs", "4",
              "--K-dim", "20", "--k-markers", "1,5", "--bw-rescaled", "inf"], "bw_rescaled"),
            (["dim-stats", "--catalog", "CAT", "--n-targets", "30", "--K", "10",
              "--smooth-window-days", "0"], "smooth_window_days"),
            (["dim-stats", "--catalog", "CAT", "--n-targets", "30", "--K", "10",
              "--smooth-window-days", "inf"], "smooth_window_days"),
            (["dim-stats", "--catalog", "CAT", "--n-targets", "30", "--K", "10",
              "--hist-bins", "0"], "hist_bins"),
            (["dim-stats", "--catalog", "CAT", "--n-targets", "30", "--K", "2"], "n_analogs"),
            (["fit-target", "--catalog", "CAT", "--target-index", "10", "--K", "2"], "n_analogs"),
            (["mc-distances", "--catalog-source", "CAT", "--L-list", "200", "--n-catalogs", "4",
              "--K-dim", "2", "--k-markers", "1,2"], "n_analogs_dim"),
            (["fit-target", "--catalog", "CAT", "--target-index", "10", "--exclusion-gap", "-1"],
             "exclusion_gap"),
            (["dim-stats", "--catalog", "CAT", "--n-targets", "30", "--K", "10",
              "--exclusion-gap", "-1"], "exclusion_gap"),
            (["rescaled-density", "--catalog", "CAT", "--n-targets", "20", "--K-dim", "20",
              "--exclusion-gap", "-1"], "exclusion_gap"),
            (["cluster", "--catalog", "CAT", "--n-eof", "0"], "n_eof"),
            (["cluster", "--catalog", "CAT", "--seeds", "0"], "seeds_per_candidate"),
            (["cluster", "--catalog", "CAT", "--candidates", "0,2"], "candidates"),
            (["theory-curves", "--d-list", "2,inf"], "d_list"),
            # Finite, but every density value on the grid underflows to zero.
            (["theory-curves", "--d-list", "1e300", "--k-list", "1", "--grid-points", "8"],
             "dimension"),
            (["gen-surrogate", "--modes", "2", "--grid", "8", "--n", "50", "--noise", "nan"],
             "noise"),
            (["gen-surrogate", "--modes", "2", "--grid", "8", "--n", "50", "--noise", "inf"],
             "noise"),
            (["gen-l63", "--n", "100", "--dt", "nan"], "dt"),
            (["gen-l63", "--n", "100", "--dt", "inf"], "dt"),
            (["dmax-scan", "--catalog", "CAT", "--k-list", "1,5", "--epsilon", "inf"],
             "epsilon"),
            (["dmax-scan", "--catalog", "CAT", "--k-list", "1,5", "--epsilon", "0.4",
              "--rho-bar", "inf"], "rho_bar"),
            (["dim-stats", "--catalog", "CAT", "--n-targets", "1", "--K", "10"], "n_targets"),
            # At the default L, L^(1/d) (d = 0.01) or its square (d = 0.02)
            # is beyond the doubles.
            (["theory-curves", "--d-list", "2,0.01"], "dimension"),
            (["theory-curves", "--d-list", "0.02", "--k-list", "1"], "dimension"),
        ],
        ids=["grid-points-0", "bandwidth-0", "bandwidth-nan", "bw-rho-0", "bw-rescaled-inf",
             "smooth-window-days-0", "smooth-window-days-inf", "hist-bins-0", "dim-stats-K-2",
             "fit-target-K-2", "mc-distances-K-dim-2", "fit-target-gap-negative",
             "dim-stats-gap-negative", "rescaled-density-gap-negative", "cluster-n-eof-0",
             "cluster-seeds-0", "cluster-candidate-0", "d-list-inf", "d-list-huge",
             "gen-surrogate-noise-nan", "gen-surrogate-noise-inf", "gen-l63-dt-nan",
             "gen-l63-dt-inf", "dmax-scan-epsilon-inf", "dmax-scan-rho-bar-inf",
             "dim-stats-n-targets-1", "d-list-0.01", "d-list-0.02"],
    )
    def test_bad_setting_exits_2_before_writing(self, argv, parameter, tiny_catalog, tmp_path,
                                                capsys):
        # Apart from the one bad value, each request runs on the tiny catalog.
        # A command that writes one file writes it, and its manifest, in `out`.
        out = tmp_path / "out"
        dest = out
        if experiments.RUNNERS[argv[0]][1] == "file":
            out.mkdir()
            dest = out / "cat.anacat"
        argv = [str(tiny_catalog) if a == "CAT" else a for a in argv]
        assert main([*argv, "--out", str(dest)]) == 2
        assert f"{parameter} must be" in capsys.readouterr().err
        if parameter in _CHECKED_AFTER_BINDING:
            assert list(out.iterdir()) == []
        else:
            assert not out.exists()

    @pytest.mark.skipif(
        Path("/proc/sys/vm/overcommit_memory").is_file()
        and Path("/proc/sys/vm/overcommit_memory").read_text().strip() == "1",
        reason="with overcommit always on, a terabyte request is granted and then filled",
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit-target", "--catalog", "CAT", "--target-index", "10", "--K", "100000000000"],
            ["dim-stats", "--catalog", "CAT", "--K", "100000000000"],
            ["rescaled-density", "--catalog", "CAT", "--K-dim", "100000000000"],
            ["theory-curves", "--grid-points", "1000000000000"],
            ["dim-stats", "--catalog", "CAT", "--hist-bins", "100000000000"],
            ["gen-l63", "--n", "100000000000"],
            ["dmax-scan", "--catalog", "CAT", "--epsilon", "0.4", "--k-list", "1,5",
             "--rmsd-pairs", "100000000000"],
        ],
        ids=["fit-target-K", "dim-stats-K", "rescaled-density-K-dim", "theory-curves-grid-points",
             "dim-stats-hist-bins", "gen-l63-n", "dmax-scan-rmsd-pairs"],
    )
    def test_oversized_request_exits_2_before_writing(self, argv, tiny_catalog, tmp_path, capsys):
        # An analog count above the catalog's length is refused, with the
        # count the catalog can give, before an array that wide is made; each
        # other request asks for 0.7 to 7 TiB at once, which numpy refuses.
        out = tmp_path / "out"
        dest = out
        if experiments.RUNNERS[argv[0]][1] == "file":
            out.mkdir()
            dest = out / "cat.anacat"
        argv = [str(tiny_catalog) if a == "CAT" else a for a in argv]
        assert main([*argv, "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if "--K" in argv or "--K-dim" in argv:
            assert "requested 100000000000 analogs but only" in err
        assert list(out.iterdir()) == []

    def test_mc_distances_beyond_physical_memory_exits_2_naming_the_size(self, tiny_catalog, tmp_path):
        # 1e15 catalogs of 20 float64 distances is 1.6e17 bytes, beyond any
        # machine's memory. The child caps its own address space at 2 GiB, so
        # code that builds an object per catalog before sizing the request
        # fails within that cap instead of growing until the host runs out.
        out = tmp_path / "mc"
        argv = ["mc-distances", "--catalog-source", str(tiny_catalog), "--L-list", "200",
                "--n-catalogs", str(10**15), "--K-dim", "20", "--k-markers", "1,5", "--out", str(out)]
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from analogdist.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        path = os.pathsep.join(filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith(f"error: {10**15} catalogs of 20 distances need ")
        assert run.stderr.rstrip().endswith("GiB of physical memory")
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit-target", "--target-index", "10"],
            ["dim-stats", "--n-targets", "30", "--K", "10"],
            ["rescaled-density", "--n-targets", "20", "--K-dim", "20"],
        ],
        ids=["fit-target", "dim-stats", "rescaled-density"],
    )
    def test_negative_exclusion_gap_exits_2_before_reading_the_catalog(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        def unread(path):
            raise AssertionError(f"read the catalog {path}")

        monkeypatch.setattr(experiments, "load_catalog", unread)
        out = tmp_path / "out"
        code = main([*argv, "--catalog", "absent.anacat", "--exclusion-gap", "-1",
                     "--out", str(out)])
        assert code == 2
        assert "exclusion_gap must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["cluster", "--catalog", "absent.anacat", "--n-eof", "0"], "n_eof must be >= 1, got 0"),
            (["cluster", "--catalog", "absent.anacat", "--seeds", "0"],
             "seeds_per_candidate must be >= 1, got 0"),
            (["cluster", "--catalog", "absent.anacat", "--candidates", "0,2"],
             "candidates must be >= 1, got 0"),
            (["cluster", "--catalog", "absent.anacat", "--candidates", ""],
             "candidates must not be empty"),
            # A sub-catalog of K rows that holds the target has only K - 1 analogs.
            (["mc-distances", "--catalog-source", "absent.anacat", "--L-list", "200,20",
              "--K-dim", "20", "--k-markers", "1,5"],
             "l_list must hold sizes > n_analogs_dim = 20, got [200, 20]"),
            (["mc-distances", "--catalog-source", "absent.anacat", "--L-list", ""],
             "l_list must hold sizes > n_analogs_dim = 150, got []"),
        ],
        ids=["cluster-n-eof-0", "cluster-seeds-0", "cluster-candidate-0", "cluster-no-candidates",
             "mc-distances-size-K-dim", "mc-distances-no-sizes"],
    )
    def test_bad_count_exits_2_before_reading_the_catalog(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        def unread(path):
            raise AssertionError(f"read the catalog {path}")

        monkeypatch.setattr(experiments, "load_catalog", unread)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        if argv[0] == "mc-distances":  # l_list is checked against n_analogs_dim in the body
            assert list(out.iterdir()) == []
        else:
            assert not out.exists()

    def test_mc_distances_size_above_the_source_exits_2_before_any_search(
        self, tiny_catalog, tmp_path, monkeypatch, capsys
    ):
        def unbuilt(*args, **kwargs):
            raise AssertionError("built a NeighborIndex")

        monkeypatch.setattr(experiments, "NeighborIndex", unbuilt)
        out = tmp_path / "mc"
        code = main(["mc-distances", "--catalog-source", str(tiny_catalog), "--L-list", "200,500",
                     "--n-catalogs", "4", "--K-dim", "20", "--k-markers", "1,5", "--out", str(out)])
        assert code == 2
        assert "requested 500 rows from a catalog of 400" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["theory-curves", "--k-list", "5,1,5"],
            ["mc-distances", "--catalog-source", "absent.anacat", "--k-markers", "1,5,1e0"],
            ["dmax-scan", "--catalog", "absent.anacat", "--epsilon", "0.4", "--k-list", "5,5"],
            # Repeated sizes or dimensions would give one curve but two summaries or markers.
            ["mc-distances", "--catalog-source", "absent.anacat", "--L-list", "1000,1000"],
            ["theory-curves", "--d-list", "2,2", "--k-list", "1"],
        ],
        ids=["theory-curves", "mc-distances", "dmax-scan", "mc-distances-sizes",
             "theory-curves-dimensions"],
    )
    def test_duplicated_rank_exits_2_before_any_work(self, argv, tmp_path, capsys):
        # The catalogs do not exist: reading one would exit 4 instead.
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert "repeats" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("markers", ["1,30", "1,5"])
    def test_mc_distances_with_a_copy_of_the_target_exits_2_before_writing(
        self, markers, tmp_path, capsys
    ):
        # Only the target's own row is excluded; its copies at rows 2000 and
        # 2001 are analogs at distance zero, which no dimension fit accepts.
        path = tmp_path / "dup.anacat"
        experiments.run_gen_l63(path, n=3000, burn_in=1000, seed=2)
        states = load_catalog(path).states.copy()
        states[2000] = states[2001] = states[10]
        save_catalog(Catalog(states, np.arange(3000)), path)
        out = tmp_path / "mc"
        code = main(["mc-distances", "--catalog-source", str(path), "--L-list", "2900",
                     "--n-catalogs", "4", "--target", "10", "--K-dim", "30",
                     "--k-markers", markers, "--out", str(out)])
        assert code == 2
        assert "distances must be positive" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_missing_catalog_exits_4(self, tmp_path, capsys):
        code = main(
            ["fit-target", "--catalog", str(tmp_path / "absent.anacat"),
             "--target-index", "0", "--out", str(tmp_path / "fit")]
        )
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_malformed_manifest_exits_4(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("{broken")
        code = main(["rerun", str(path)])
        assert code == 4
        assert "error:" in capsys.readouterr().err


class TestRerunCommand:
    def test_rerun_clean(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(
            ["theory-curves", "--k-list", "1", "--d-list", "2", "--grid-points", "32",
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        code = main(["rerun", str(out / "manifest.json")])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "ok       curves.csv" in stdout
        assert "MISMATCH" not in stdout

    def test_rerun_reports_mismatch(self, tmp_path, capsys):
        out = tmp_path / "exp"
        main(
            ["theory-curves", "--k-list", "1", "--d-list", "2", "--grid-points", "32",
             "--out", str(out)]
        )
        manifest_path = out / "manifest.json"
        raw = json.loads(manifest_path.read_text())
        raw["outputs"]["curves.csv"] = "f" * 64
        manifest_path.write_text(json.dumps(raw))
        capsys.readouterr()
        code = main(["rerun", str(manifest_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "MISMATCH curves.csv" in captured.out
        assert "differ from the manifest" in captured.err

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda params: params.update(bogus=1),
            lambda params: params.update(k_list=5),
            lambda params: params.update(grid_points=None),
            lambda params: params.pop("k_list"),
            lambda params: params.update(k_list=[1, 5, 5]),
        ],
        ids=["unknown", "not-a-list", "null", "missing", "duplicated-rank"],
    )
    def test_rerun_with_unbindable_parameters_exits_4(self, tamper, tmp_path, capsys):
        # --k-list is not the default, so a run that fell back to it would
        # rewrite curves.csv.
        out = tmp_path / "exp"
        main(
            ["theory-curves", "--k-list", "1,5", "--d-list", "2", "--grid-points", "32",
             "--out", str(out)]
        )
        manifest_path = out / "manifest.json"
        raw = json.loads(manifest_path.read_text())
        tamper(raw["parameters"])
        manifest_path.write_text(json.dumps(raw))
        before = {p.name: file_sha256(p) for p in out.iterdir()}
        capsys.readouterr()
        code = main(["rerun", str(manifest_path)])
        assert code == 4
        assert "manifest" in capsys.readouterr().err
        assert {p.name: file_sha256(p) for p in out.iterdir()} == before

    @pytest.mark.parametrize(
        "tamper,message",
        [
            (lambda raw: raw["parameters"].update(bogus=1),
             "do not bind: unknown ['bogus'], missing []"),
            (lambda raw: raw.pop("seeds"), "manifest missing field 'seeds'"),
        ],
        ids=["parameters", "field"],
    )
    def test_rerun_error_without_position_names_no_offset(self, tamper, message, tmp_path, capsys):
        out = tmp_path / "exp"
        main(["theory-curves", "--k-list", "1", "--d-list", "2", "--grid-points", "32",
              "--out", str(out)])
        manifest_path = out / "manifest.json"
        raw = json.loads(manifest_path.read_text())
        tamper(raw)
        manifest_path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["rerun", str(manifest_path)]) == 4
        err = capsys.readouterr().err.strip()
        assert err.endswith(message)
        assert "byte offset" not in err

    def test_rerun_into_new_directory(self, tmp_path, capsys):
        out = tmp_path / "exp"
        main(
            ["theory-curves", "--k-list", "1", "--d-list", "2", "--grid-points", "32",
             "--out", str(out)]
        )
        code = main(["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "again")])
        assert code == 0
        assert (tmp_path / "again" / "curves.csv").is_file()


# ---------------------------------------------------------------------------
# parameter domains, declared in the driver signatures


def _base(kind):
    """The type under an annotation's Annotated, optional and tuple layers."""
    args = get_args(kind)
    return _base(args[0]) if args else kind


def _outside(kind) -> list:
    """One value just outside each domain check an annotation carries."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is tuple:
        return [(v,) for v in _outside(args[0])]
    if origin is not Annotated:
        return []
    values = _outside(args[0])
    for check in args[1:]:
        if isinstance(check, experiments._at_least):
            values.append(check.floor - 1)
        elif check is experiments._positive_finite:
            values.append(0.0)
        elif check is experiments._nonempty:
            values.append(())
        elif isinstance(check, experiments._one_of):
            values.append("|".join(check.options))
    return values


def _signature(command):
    return inspect.signature(experiments.RUNNERS[command][0], eval_str=True).parameters


# Required arguments other than the one under test; no catalog is ever read.
_REQUIRED = {"catalog": "absent.anacat", "catalog_source": "absent.anacat", "target_index": 0}
_OUTSIDE = [
    (command, name, value)
    for command in sorted(experiments.RUNNERS)
    for name, param in _signature(command).items()
    for value in _outside(param.annotation)
]


def _cli_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


_OUTSIDE_IDS = [f"{c}-{n}-{_cli_text(v) or 'empty'}" for c, n, v in _OUTSIDE]


def _flag(command, dest) -> str:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest).option_strings[0]


def _unread(path):
    raise AssertionError(f"read the catalog {path}")


@pytest.mark.parametrize("command,parameter,value", _OUTSIDE, ids=_OUTSIDE_IDS)
def test_value_outside_its_domain_exits_2_when_the_call_is_bound(
    command, parameter, value, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(experiments, "load_catalog", _unread)
    given = {**{n: _REQUIRED[n] for n, p in _signature(command).items()
                if p.default is p.empty and n != "out"}, parameter: value}
    argv = [command]
    for name, v in given.items():
        argv += [_flag(command, name), _cli_text(v)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {parameter} must ")
    assert not out.exists()


@pytest.mark.parametrize("command,parameter,value", _OUTSIDE, ids=_OUTSIDE_IDS)
def test_rerun_of_a_value_outside_its_domain_exits_4_before_anything_runs(
    command, parameter, value, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(experiments, "load_catalog", _unread)
    recorded = {n: _REQUIRED.get(n) if p.default is p.empty else p.default
                for n, p in _signature(command).items()}
    recorded.update({"out": "out", parameter: value})
    manifest_path = tmp_path / "manifest.json"
    save_manifest(build_manifest(command, recorded, [], base_dir=tmp_path), manifest_path)
    again = tmp_path / "again"
    assert main(["rerun", str(manifest_path), "--out", str(again)]) == 4
    assert f"manifest parameters do not coerce: {parameter} must " in capsys.readouterr().err
    assert not again.exists()


@pytest.mark.parametrize(
    "parameter,value",
    [("n_eof", 2.7), ("standardize", "false"), ("n_eof", True)],
    ids=["fraction-for-int", "text-for-bool", "bool-for-int"],
)
def test_rerun_of_a_value_of_another_type_exits_4_before_anything_runs(
    parameter, value, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(experiments, "load_catalog", _unread)
    recorded = {n: _REQUIRED.get(n) if p.default is p.empty else p.default
                for n, p in _signature("cluster").items()}
    recorded.update({"out": "out", parameter: value})
    manifest_path = tmp_path / "manifest.json"
    save_manifest(build_manifest("cluster", recorded, [], base_dir=tmp_path), manifest_path)
    again = tmp_path / "again"
    assert main(["rerun", str(manifest_path), "--out", str(again)]) == 4
    assert f"manifest parameters do not coerce: {parameter} must be " in capsys.readouterr().err
    assert not again.exists()


# Required settings of every command, none of which is read while parsing.
_GIVEN = {"catalog": "absent.anacat", "catalog_source": "absent.anacat", "target_index": "0",
          "modes": "2", "epsilon": "0.4"}
_INTEGER_OPTIONS = [
    (command, name)
    for command in sorted(experiments.RUNNERS)
    for name, param in _signature(command).items()
    if _base(param.annotation) is int
]


@pytest.mark.parametrize("command,parameter", _INTEGER_OPTIONS,
                         ids=[f"{c}-{n}" for c, n in _INTEGER_OPTIONS])
def test_every_integer_option_accepts_1e3_and_rejects_2_5(command, parameter, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    flags = {a.dest: a.option_strings[0] for a in _subparsers()[command]._actions}
    argv = [command, "--out", "out"]
    for name, param in _signature(command).items():
        if param.default is param.empty and name not in ("out", parameter):
            argv += [flags[name], _GIVEN[name]]
    parsed = vars(build_parser().parse_args([*argv, flags[parameter], "1e3"]))[parameter]
    assert parsed in (1000, [1000])
    with pytest.raises(SystemExit) as err:
        main([*argv, flags[parameter], "2.5"])
    assert err.value.code == 2
    assert "not an integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# Integer and float parameters whose annotation declares no domain (an
# _at_least or _positive_finite check on the value or on each element),
# with the reason.
_NO_DOMAIN_COMMANDS = {
    # Their library calls check every setting before a file is written.
    "gen-l63", "gen-surrogate", "dmax-scan",
}
_NO_DOMAIN = {
    # Seeds, which numpy's generators check.
    ("mc-distances", "seed"), ("rescaled-density", "seed"), ("cluster", "seed"),
    # DistParams checks each rank against the catalog size before the tables
    # are written.
    ("theory-curves", "k_list"), ("theory-curves", "catalog_size"),
    # Each size must exceed n_analogs_dim, checked in the body before the
    # catalog is read.
    ("mc-distances", "l_list"),
}


def test_every_count_and_setting_declares_its_domain():
    # An empty tuple is outside only a list's _nonempty, not a value's domain.
    undeclared = {
        (command, name)
        for command in experiments.RUNNERS if command not in _NO_DOMAIN_COMMANDS
        for name, param in _signature(command).items()
        if _base(param.annotation) in (int, float)
        and all(v == () for v in _outside(param.annotation))
    }
    assert undeclared == _NO_DOMAIN


def test_console_script_registered(tmp_path):
    """The packaging metadata built from this checkout registers the script.

    setuptools writes the same `entry_points.txt` that an install copies into
    site-packages; building it into tmp_path needs no install and checks this
    checkout rather than whatever copy happens to be installed.
    """
    pytest.importorskip("setuptools")
    build = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "egg_info", "--egg-base", str(tmp_path)],
        cwd=_ROOT, capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    dist = metadata.PathDistribution(tmp_path / "analogdist.egg-info")
    match = dist.entry_points.select(group="console_scripts", name="analogdist")
    assert [ep.value for ep in match] == ["analogdist.cli:main"]
    assert next(iter(match)).load() is main


def _installed() -> bool:
    try:
        metadata.distribution("analogdist")
    except metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(not _installed(), reason="analogdist distribution is not installed")
def test_console_script_installed_metadata():
    scripts = metadata.entry_points(group="console_scripts")
    match = [ep for ep in scripts if ep.name == "analogdist"]
    assert match and match[0].value == "analogdist.cli:main"
