"""Catalogs of states: containers, temporal exclusion, and file IO.

A catalog is an (L, D) matrix of float64 states with integer timestamps
(hours or step counts), 0..L-1 unless given. Files use the ``.anacat``
container: a single JSON header line followed by the row-major
little-endian float64 payload and the little-endian int64 times.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

__all__ = [
    "Catalog",
    "ExclusionPolicy",
    "apply_exclusion",
    "save_catalog",
    "load_catalog",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

# Header lines beyond this size indicate a corrupt file, not a real header.
_MAX_HEADER_BYTES = 1 << 20


@dataclass(frozen=True)
class Catalog:
    """Immutable collection of candidate states.

    states: (L, D) float64, one state per row.
    times:  (L,) int64, strictly increasing; 0..L-1 when not given.
    name, units: free-form labels carried through file round-trips.
    """

    states: np.ndarray
    times: np.ndarray | None = None
    name: str = ""
    units: str = ""

    def __post_init__(self):
        states = np.ascontiguousarray(np.asarray(self.states, dtype=np.float64))
        if states.ndim != 2:
            raise ValueError("states must be a 2-d array")
        if states.shape[0] < 1 or states.shape[1] < 1:
            raise ValueError("catalog needs at least one row and one column")
        object.__setattr__(self, "states", states)
        if self.times is None:
            times = np.arange(states.shape[0], dtype=np.int64)
        else:
            times = np.ascontiguousarray(np.asarray(self.times, dtype=np.int64))
            if times.shape != (states.shape[0],):
                raise ValueError("times must have one entry per state")
            if len(times) > 1 and not np.all(np.diff(times) > 0):
                raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @property
    def length(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return self.length


@dataclass(frozen=True)
class ExclusionPolicy:
    """Temporal exclusion: candidates with |time - target_time| < min_target_gap
    are discarded (0 disables the rule). The default of 36 hours removes
    same-weather neighbours for hourly catalogs.
    """

    min_target_gap: int = 36

    def __post_init__(self):
        if self.min_target_gap < 0:
            raise ValueError("min_target_gap must be >= 0")


def apply_exclusion(
    indices: np.ndarray,
    distances: np.ndarray,
    target_time: int | None,
    times: np.ndarray,
    policy: ExclusionPolicy,
) -> tuple[np.ndarray, np.ndarray]:
    """Filter a candidate list (catalog indices plus distances) by a policy.

    Returns the candidates at least min_target_gap from target_time, in the
    order given; callers pass (distance, index)-ordered candidates.
    """
    indices = np.asarray(indices, dtype=np.int64)
    distances = np.asarray(distances, dtype=np.float64)
    if indices.shape != distances.shape or indices.ndim != 1:
        raise ValueError("indices and distances must be 1-d arrays of equal length")

    gap = policy.min_target_gap
    if gap > 0:
        if target_time is None:
            raise ValueError("min_target_gap needs a target time")
        keep = np.abs(times[indices] - int(target_time)) >= gap
        indices, distances = indices[keep], distances[keep]
    return indices, distances


def _header_dict(c: Catalog) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "L": c.length,
        "D": c.dim,
        "dtype": "f64",
        "has_times": True,
        "metadata": {"name": c.name, "units": c.units},
    }


def save_catalog(c: Catalog, path) -> None:
    """Write the binary container; round-trips bitwise through load_catalog."""
    header = json.dumps(_header_dict(c), sort_keys=True) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(np.ascontiguousarray(c.states, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(c.times, dtype="<i8").tobytes())


def load_catalog(path) -> Catalog:
    """Read a catalog container, validating the header and payload length.

    The payload is read straight into the state and time arrays, so peak
    memory is about the payload size. A file written without times
    (has_times false) loads with times 0..L-1.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        line = fh.readline(_MAX_HEADER_BYTES + 1)
        if not line.endswith(b"\n"):
            raise FormatError("missing header line", 0)
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise FormatError("header is not valid JSON", 0) from None
        if not isinstance(header, dict):
            raise FormatError("header must be a JSON object", 0)

        offset = len(line)
        try:
            version = int(header["schema_version"])
            length = int(header["L"])
            dim = int(header["D"])
            dtype = header["dtype"]
            has_times = bool(header["has_times"])
            metadata = header.get("metadata", {}) or {}
        except (KeyError, TypeError, ValueError):
            raise FormatError("header is missing required fields", 0) from None
        if version != SCHEMA_VERSION:
            raise FormatError(f"unsupported schema_version {version}", 0)
        if dtype != "f64":
            raise FormatError(f"unsupported dtype {dtype!r}", 0)
        if length < 1 or dim < 1:
            raise FormatError(f"invalid shape L={length}, D={dim}", 0)

        expected = offset + length * dim * 8 + (length * 8 if has_times else 0)
        if size < expected:
            raise FormatError(
                f"payload truncated: expected {expected} bytes, file has {size}", size
            )
        if size > expected:
            raise FormatError("trailing bytes after payload", expected)

        states = np.empty((length, dim), dtype="<f8")
        times = np.empty(length, dtype="<i8") if has_times else None
        got = offset + fh.readinto(states)
        if has_times:
            got += fh.readinto(times)
        if got != expected:
            raise FormatError(
                f"payload truncated: expected {expected} bytes, read {got}", got
            )

    try:
        return Catalog(
            states=states,
            times=times,
            name=str(metadata.get("name", "")),
            units=str(metadata.get("units", "")),
        )
    except ValueError as exc:
        raise FormatError(f"invalid payload: {exc}", offset) from None

