"""Manifest round trips and tamper detection, hashed against hashlib directly."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from analogdist import __version__
from analogdist.errors import FormatError
from analogdist.manifest import (
    SCHEMA_VERSION,
    ExperimentManifest,
    build_manifest,
    file_sha256,
    load_manifest,
    save_manifest,
    verify_outputs,
)


@pytest.fixture()
def out_dir(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"x,y\n1,2\n")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "b.svg").write_bytes(b"<svg/>")
    return tmp_path


def _build(out_dir, **kwargs):
    outputs = [out_dir / "a.csv", out_dir / "sub" / "b.svg"]
    params = {"seed": 7, "n": 100, "out": out_dir}
    return build_manifest("demo", params, outputs, out_dir, **kwargs)


def test_file_sha256_matches_hashlib(out_dir):
    payload = (out_dir / "a.csv").read_bytes()
    assert file_sha256(out_dir / "a.csv") == hashlib.sha256(payload).hexdigest()


def test_file_sha256_streams_large_files(tmp_path):
    # 3 MiB forces several 1 MiB read chunks through the same digest.
    blob = bytes(range(256)) * (3 * 4096)
    path = tmp_path / "big.bin"
    path.write_bytes(blob)
    assert file_sha256(path) == hashlib.sha256(blob).hexdigest()


def test_build_records_relative_posix_paths_sorted(out_dir):
    manifest = _build(out_dir)
    assert list(manifest.outputs) == ["a.csv", "sub/b.svg"]
    for digest in manifest.outputs.values():
        assert len(digest) == 64


def test_build_promotes_seed_parameters(out_dir):
    manifest = _build(out_dir)
    assert manifest.seeds == {"seed": 7}


def test_build_jsonifies_paths_and_numpy_scalars(out_dir):
    outputs = [out_dir / "a.csv"]
    params = {"out": out_dir, "bw": np.float64(0.25), "ks": (1, 2), "seed": np.int64(5)}
    manifest = build_manifest("demo", params, outputs, out_dir)
    assert manifest.parameters["out"] == str(out_dir)
    assert manifest.parameters["bw"] == 0.25 and isinstance(manifest.parameters["bw"], float)
    assert manifest.parameters["ks"] == [1, 2]
    assert manifest.seeds == {"seed": 5}
    json.dumps(dataclasses.asdict(manifest))


def test_build_stamps_version_and_schema(out_dir):
    manifest = _build(out_dir)
    assert manifest.package_version == __version__
    assert manifest.schema_version == SCHEMA_VERSION
    assert manifest.created_utc.endswith("Z")


def test_save_load_round_trip(out_dir):
    manifest = _build(out_dir)
    path = out_dir / "manifest.json"
    save_manifest(manifest, path)
    assert load_manifest(path) == manifest


def test_saved_json_is_stable(out_dir):
    manifest = _build(out_dir)
    p1, p2 = out_dir / "m1.json", out_dir / "m2.json"
    save_manifest(manifest, p1)
    save_manifest(manifest, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text())["schema_version"] == SCHEMA_VERSION


def test_verify_outputs_all_true_then_flags_tampering(out_dir):
    manifest = _build(out_dir)
    assert verify_outputs(manifest, out_dir) == {"a.csv": True, "sub/b.svg": True}
    (out_dir / "a.csv").write_bytes(b"x,y\n1,3\n")
    assert verify_outputs(manifest, out_dir) == {"a.csv": False, "sub/b.svg": True}


def test_verify_outputs_missing_file_is_false(out_dir):
    manifest = _build(out_dir)
    (out_dir / "sub" / "b.svg").unlink()
    assert verify_outputs(manifest, out_dir)["sub/b.svg"] is False


def _valid_raw(out_dir):
    manifest = _build(out_dir)
    return dataclasses.asdict(manifest)


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda raw: raw.update(schema_version=99), "schema_version"),
        (lambda raw: raw.pop("command"), "missing field 'command'"),
        (lambda raw: raw.update(parameters=[1, 2]), "must be dict"),
        (lambda raw: raw["outputs"].update({"a.csv": "deadbeef"}), "malformed SHA-256"),
    ],
)
def test_load_rejects_malformed_manifests(out_dir, mutate, match):
    raw = _valid_raw(out_dir)
    mutate(raw)
    path = out_dir / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(FormatError, match=match):
        load_manifest(path)


def test_load_rejects_non_json_and_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_manifest(path)
    path.write_text("[1, 2]")
    with pytest.raises(FormatError, match="root must be"):
        load_manifest(path)


def test_load_rejects_binary_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00junk")
    with pytest.raises(FormatError, match="not UTF-8"):
        load_manifest(path)


def test_manifest_is_frozen(out_dir):
    manifest = _build(out_dir)
    with pytest.raises(dataclasses.FrozenInstanceError):
        manifest.command = "other"
