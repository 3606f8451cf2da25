"""Every output check must fail on a deliberately corrupted output."""

import csv
import io
import json
import shutil

import numpy as np
import pytest

import checks
from harness import build_inputs, call_cli
from workloads import WORKLOADS

SEED = 3


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny round of the l63 and mixture workloads, outputs kept."""
    bases = {}
    for name in ("l63", "mixture"):
        base = tmp_path_factory.mktemp(name)
        workload = WORKLOADS[name]
        build_inputs(workload, base / "inputs", SEED, workload.tiny)
        (base / "round").mkdir()
        for op in workload.ops(base / "round", base / "inputs", SEED, workload.tiny):
            code, err = call_cli(op.argv, op.env)
            assert code == 0, err
        bases[name] = base
    return bases


@pytest.fixture
def ops(outputs, tmp_path):
    """The operations of a private copy of each round, by label."""
    found = {}
    for name, base in outputs.items():
        shutil.copytree(base, tmp_path / name)
        workload = WORKLOADS[name]
        for op in workload.ops(tmp_path / name / "round", tmp_path / name / "inputs", SEED, workload.tiny):
            found[op.label] = op
    return found


def edit_csv(path, column, row, change):
    """Replace one cell of an analogdist CSV by change(float(cell))."""
    head, body = path.read_text(encoding="utf-8").split("\n", 1)
    rows = list(csv.reader(io.StringIO(body)))
    col = rows[0].index(column)
    rows[row + 1][col] = repr(change(float(rows[row + 1][col])))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(head + "\n" + buf.getvalue(), encoding="utf-8")


def out_dir(op):
    return op.manifest.parent


def test_uncorrupted_outputs_pass(ops):
    for op in ops.values():
        op.check()
        checks.manifest_outputs(op.manifest)


def test_perturbed_distance_fails(ops):
    op = ops["fit_target"]
    edit_csv(out_dir(op) / "fit.csv", "distance", 3, lambda v: v * (1 + 1e-9))
    with pytest.raises(checks.CheckFailed, match="distances"):
        op.check()


@pytest.mark.parametrize(
    "label, name",
    [("fit_target", "summary.csv"), ("dim_stats", "dims.csv"), ("rescaled_density", "targets.csv"),
     ("mc_distances", "catalogs.csv")],
)
def test_perturbed_dimension_fails(ops, label, name):
    op = ops[label]
    edit_csv(out_dir(op) / name, "dim", 0, lambda v: v * (1 + 1e-7))
    with pytest.raises(checks.CheckFailed, match="dimension"):
        op.check()


def test_perturbed_state_fails(ops):
    op = ops["gen_l63"]
    path = op.manifest.parent / "l63.anacat"
    raw = bytearray(path.read_bytes())
    offset = raw.index(b"\n") + 1 + 8 * 3 * 100
    value = np.frombuffer(bytes(raw[offset : offset + 8]), "<f8")[0]
    raw[offset : offset + 8] = np.array([value * (1 + 1e-8)], "<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(checks.CheckFailed, match="RK4"):
        op.check()


def test_perturbed_theory_mean_fails(ops):
    op = ops["theory_curves"]
    edit_csv(out_dir(op) / "markers.csv", "mean", 4, lambda v: v * (1 + 1e-8))
    with pytest.raises(checks.CheckFailed, match="mean"):
        op.check()


def test_perturbed_dmax_theory_fails(ops):
    op = ops["dmax_scan"]
    edit_csv(out_dir(op) / "scan.csv", "dmax_theory", 1, lambda v: v * (1 + 1e-9))
    with pytest.raises(checks.CheckFailed, match="dmax_theory"):
        op.check()


@pytest.mark.parametrize("label", ["cluster_full", "cluster_diag"])
def test_perturbed_selected_bic_fails(ops, label):
    op = ops[label]
    bic = checks.floats(checks.read_csv(out_dir(op) / "bic.csv")["bic"])
    edit_csv(out_dir(op) / "bic.csv", "bic", int(np.argmin(bic)), lambda v: v + 1e-5 * abs(v))
    with pytest.raises(checks.CheckFailed, match="BIC"):
        op.check()


@pytest.mark.parametrize("label", ["cluster_full", "cluster_diag"])
def test_lowered_other_bic_fails(ops, label):
    op = ops[label]
    bic = checks.floats(checks.read_csv(out_dir(op) / "bic.csv")["bic"])
    other = (int(np.argmin(bic)) + 1) % len(bic)
    edit_csv(out_dir(op) / "bic.csv", "bic", other, lambda v: float(bic.min()) - 1.0)
    with pytest.raises(checks.CheckFailed, match="argmin"):
        op.check()


def test_decreasing_log_likelihood_fails(ops):
    op = ops["cluster_diag"]
    path = out_dir(op) / "model.json"
    model = json.loads(path.read_text(encoding="utf-8"))
    trace = model["log_likelihood_path"]
    trace[1] = trace[0] - abs(trace[0]) * 1e-6
    path.write_text(json.dumps(model), encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match="decreased"):
        op.check()


def test_missed_planted_count_fails(outputs):
    z = WORKLOADS["mixture"].tiny
    base = outputs["mixture"]
    checks.check_cluster(base / "round" / "diag", base / "inputs" / "blobs.anacat", z["blob_dim"], "diag", z["blob_count"])
    with pytest.raises(checks.CheckFailed, match="planted"):
        checks.check_cluster(base / "round" / "diag", base / "inputs" / "blobs.anacat", z["blob_dim"], "diag",
                             z["blob_count"] + 1)


@pytest.mark.parametrize("label", ["gen_l63", "theory_curves", "mc_distances", "dim_stats", "cluster_full"])
def test_perturbed_recorded_hash_fails(ops, label):
    op = ops[label]
    manifest = json.loads(op.manifest.read_text(encoding="utf-8"))
    rel = sorted(manifest["outputs"])[0]
    digest = manifest["outputs"][rel]
    manifest["outputs"][rel] = ("0" if digest[0] != "0" else "1") + digest[1:]
    op.manifest.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match="hashes to"):
        checks.manifest_outputs(op.manifest)


def test_changed_rerun_output_fails(ops):
    op = ops["rerun"]
    path = out_dir(op) / "ks.csv"
    path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match="rerun"):
        op.check()
