"""Experiment manifests: enough provenance to re-run an experiment exactly.

Every experiment driver writes a JSON manifest next to its outputs holding
the command name, the fully resolved parameters (defaults included), the
seeds in play, the package version, a timestamp, and the SHA-256 of every
output file. Re-running from a manifest must reproduce each output
bit-identically; the timestamp lives only in the manifest itself so it
never breaks that invariant.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path, PurePosixPath
from typing import Any, Mapping

from . import __version__
from .errors import FormatError

__all__ = [
    "ExperimentManifest",
    "file_sha256",
    "build_manifest",
    "save_manifest",
    "load_manifest",
    "verify_outputs",
]

SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class ExperimentManifest:
    """Provenance record for one experiment run.

    outputs maps POSIX-style paths, relative to the manifest's directory,
    to SHA-256 hex digests.
    """

    command: str
    parameters: Mapping[str, Any]
    seeds: Mapping[str, int]
    package_version: str
    created_utc: str
    outputs: Mapping[str, str]
    schema_version: int = SCHEMA_VERSION


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _jsonify(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def build_manifest(
    command: str,
    parameters: Mapping[str, Any],
    outputs,
    base_dir,
) -> ExperimentManifest:
    """Hash `outputs` (paths under base_dir) and assemble a manifest.

    Every parameter whose name contains "seed" and whose value is not None
    is promoted into the seeds block.
    """
    base = Path(base_dir)
    params = _jsonify(dict(parameters))
    seeds = {k: v for k, v in params.items() if "seed" in k and v is not None}
    hashed = {}
    for path in outputs:
        path = Path(path)
        rel = PurePosixPath(path.relative_to(base)).as_posix()
        hashed[rel] = file_sha256(path)
    return ExperimentManifest(
        command=command,
        parameters=params,
        seeds=seeds,
        package_version=__version__,
        created_utc=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        outputs=dict(sorted(hashed.items())),
    )


def save_manifest(manifest: ExperimentManifest, path) -> None:
    text = json.dumps(dataclasses.asdict(manifest), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_manifest(path) -> ExperimentManifest:
    """Read and validate a manifest; malformed files raise FormatError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"manifest is not UTF-8 text: {exc}", exc.start) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"manifest is not valid JSON: {exc.msg}", exc.pos) from exc
    if not isinstance(raw, dict):
        raise FormatError("manifest root must be a JSON object")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(f"unsupported manifest schema_version {raw.get('schema_version')!r}")
    required = {
        "command": str,
        "parameters": dict,
        "seeds": dict,
        "package_version": str,
        "created_utc": str,
        "outputs": dict,
    }
    for key, kind in required.items():
        if key not in raw:
            raise FormatError(f"manifest missing field {key!r}")
        if not isinstance(raw[key], kind):
            raise FormatError(f"manifest field {key!r} must be {kind.__name__}")
    for rel, digest in raw["outputs"].items():
        if not (isinstance(digest, str) and len(digest) == 64):
            raise FormatError(f"output {rel!r} has a malformed SHA-256 digest")
    return ExperimentManifest(
        command=raw["command"],
        parameters=raw["parameters"],
        seeds=raw["seeds"],
        package_version=raw["package_version"],
        created_utc=raw["created_utc"],
        outputs=raw["outputs"],
    )


def verify_outputs(manifest: ExperimentManifest, base_dir) -> dict[str, bool]:
    """Re-hash each recorded output under base_dir; missing files count as False."""
    base = Path(base_dir)
    status = {}
    for rel, expected in manifest.outputs.items():
        target = base / PurePosixPath(rel)
        status[rel] = target.is_file() and file_sha256(target) == expected
    return status
