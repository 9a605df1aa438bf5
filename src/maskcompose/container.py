"""Versioned binary container for worlds, models and codebooks.

Layout (all integers little-endian):

    magic   4 bytes  "DCW1"
    version u32
    count   u32      number of sections
    then per section:
        name_len u32, name (utf-8)
        meta_len u32, meta (canonical JSON: sorted keys, no spaces)
        data_len u64, data (raw bytes)

Numeric arrays travel as raw little-endian buffers with dtype and shape in
the section's meta, so identical inputs always produce identical bytes.
dump_text renders any container as a human-readable listing for debugging.

Reading trusts nothing in the file: a truncated or corrupted artifact either
loads or raises ValidationError, never a decoding or indexing error.
"""

from __future__ import annotations

import io
import json
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .codec import Codebook
from .countmodel import CountModel
from .errors import MaskComposeError, ValidationError
from .worlds import FactorizedWorld, SceneWorld, WorldJoint

MAGIC = b"DCW1"
VERSION = 1

_DTYPES = {"int16": np.int16, "int64": np.int64, "float64": np.float64}


@dataclass
class Section:
    name: str
    meta: dict
    data: bytes


def _canonical_json(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_container(path: str, sections: list[Section]):
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<II", VERSION, len(sections)))
    for s in sections:
        name = s.name.encode("utf-8")
        meta = _canonical_json(s.meta)
        buf.write(struct.pack("<I", len(name)))
        buf.write(name)
        buf.write(struct.pack("<I", len(meta)))
        buf.write(meta)
        buf.write(struct.pack("<Q", len(s.data)))
        buf.write(s.data)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def read_container(path: str) -> list[Section]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ValidationError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    pos = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise ValidationError(f"container is truncated: {n} bytes wanted at byte {pos}")
        pos += n
        return raw[pos - n : pos]

    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise ValidationError(f"unsupported container version {version}")
    out = []
    for i in range(count):
        name = take(struct.unpack("<I", take(4))[0])
        meta = take(struct.unpack("<I", take(4))[0])
        data = take(struct.unpack("<Q", take(8))[0])
        try:
            name, meta = name.decode("utf-8"), json.loads(meta)
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
            raise ValidationError(f"section {i} does not decode: {exc}") from None
        if not isinstance(meta, dict):
            raise ValidationError(f"section {name!r} meta is not a JSON object")
        out.append(Section(name, meta, data))
    if pos != len(raw):
        raise ValidationError(f"{len(raw) - pos} trailing bytes after last section")
    return out


def _field(s: Section, key: str, kind: type):
    """A meta field a loader reads, checked for presence and type; an int is
    not a bool, and a float may be an int but must be finite."""
    value = s.meta.get(key)
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ValidationError(
            f"section {s.name!r}: meta field {key!r} must be {kind.__name__}, got {value!r}"
        )
    return value


def _nonneg_ints(s: Section, key: str) -> list[int]:
    """A meta field holding a list of non-negative ints (a shape, cell indices)."""
    values = _field(s, key, list)
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in values):
        raise ValidationError(
            f"section {s.name!r}: meta field {key!r} must list non-negative ints, got {values!r}"
        )
    return values


def _section(sections: dict[str, Section], name: str) -> Section:
    if name not in sections:
        raise ValidationError(f"container has no {name} section")
    return sections[name]


@contextmanager
def _loading(path: str):
    """Report anything a loader finds wrong with an artifact as a
    ValidationError naming the file: the checks above, and what the world,
    model and codebook constructors reject."""
    try:
        yield
    except (ValueError, MaskComposeError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def array_section(name: str, arr: np.ndarray, extra: dict | None = None) -> Section:
    arr = np.ascontiguousarray(arr)
    if arr.dtype.name not in _DTYPES:
        raise ValidationError(f"unsupported array dtype {arr.dtype}")
    meta = {"dtype": arr.dtype.name, "shape": list(arr.shape)}
    if extra:
        meta.update(extra)
    little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return Section(name, meta, little.tobytes())


def section_array(s: Section) -> np.ndarray:
    name = _field(s, "dtype", str)
    if name not in _DTYPES:
        raise ValidationError(f"section {s.name!r}: unsupported array dtype {name!r}")
    shape = _nonneg_ints(s, "shape")
    dtype = np.dtype(_DTYPES[name]).newbyteorder("<")
    if math.prod(shape) * dtype.itemsize != len(s.data):
        raise ValidationError(
            f"section {s.name!r}: {len(s.data)} bytes do not hold a {name} array of shape {shape}"
        )
    return np.frombuffer(s.data, dtype=dtype).reshape(shape).astype(_DTYPES[name])


def dump_text(path: str) -> str:
    """Human-readable listing of a container's sections."""
    lines = [f"DCW1 v{VERSION}: {path}"]
    for s in read_container(path):
        meta = json.dumps(s.meta, sort_keys=True)
        lines.append(f"  [{s.name}] {len(s.data)} bytes  meta={meta}")
        if "dtype" in s.meta:
            arr = section_array(s)
            flat = np.asarray(arr).ravel()
            head = ", ".join(f"{v:.6g}" for v in flat[:8])
            more = " ..." if flat.size > 8 else ""
            lines.append(f"    values: {head}{more}")
    return "\n".join(lines)


# world <-> container ---------------------------------------------------------

def save_world(path: str, world: WorldJoint, extra: list[Section] | None = None):
    sections = [Section("world", world.params(), b"")]
    if isinstance(world, FactorizedWorld):
        sections.append(array_section("prior_tables", world.prior_tables))
        for name in sorted(world.table_conditions):
            tables = world.table_conditions[name]
            cells = sorted(tables)
            stacked = np.stack([tables[c] for c in cells])
            sections.append(
                array_section(
                    f"condition/{name}", stacked, {"cells": [int(c) for c in cells]}
                )
            )
    write_container(path, sections + list(extra or []))


def load_world(path: str) -> WorldJoint:
    with _loading(path):
        sections = {s.name: s for s in read_container(path)}
        head = _section(sections, "world")
        kind = head.meta.get("kind")
        if kind == "scene":
            dims = ("grid_w", "grid_h", "n_shapes", "n_colors", "max_objects")
            return SceneWorld(*(_field(head, k, int) for k in dims))
        if kind == "factorized":
            world = FactorizedWorld(
                *(_field(head, k, int) for k in ("grid_w", "grid_h", "vocab_size")),
                section_array(_section(sections, "prior_tables")),
            )
            for name, s in sections.items():
                if name.startswith("condition/"):
                    stacked, cells = section_array(s), _nonneg_ints(s, "cells")
                    if stacked.ndim != 2 or stacked.shape[0] != len(cells):
                        raise ValidationError(f"section {name!r}: one table row per cell expected")
                    world.add_condition(name.split("/", 1)[1], dict(zip(cells, stacked)))
            return world
        raise ValidationError(f"unknown world kind {kind!r}")


# count model <-> container ---------------------------------------------------

def save_count_model(
    path: str, model: CountModel, extra: list[Section] | None = None
):
    keys = sorted(model.counts, key=repr)
    stacked = (
        np.stack([model.counts[k] for k in keys])
        if keys
        else np.zeros((0, model.vocab_size), dtype=np.int64)
    )
    meta = {
        "grid_w": model.grid_w,
        "grid_h": model.grid_h,
        "vocab_size": model.vocab_size,
        "alpha": model.alpha,
        "dropout_prob": model.dropout_prob,
        "n_samples": model.n_samples,
        "rng_seed": model.rng_seed,
    }
    sections = [
        Section("count_model", meta, b""),
        Section("bucket_keys", {"count": len(keys)}, _encode_keys(keys)),
        array_section("bucket_counts", stacked),
    ]
    write_container(path, sections + list(extra or []))


def _encode_keys(keys: list[tuple]) -> bytes:
    # (pos, signature tuple, condition key tuple) with mixed int/str leaves
    return _canonical_json([[k[0], list(k[1]), list(k[2])] for k in keys])


def _deep_tuple(value):
    if isinstance(value, list):
        return tuple(_deep_tuple(v) for v in value)
    return value


def _decode_keys(data: bytes) -> list[tuple]:
    """(position, signature, condition key) tuples from the bucket_keys JSON.

    A model has few distinct condition keys across its buckets, so each is
    turned into nested tuples, and checked to be hashable, once: its repr,
    which tells JSON values apart, finds it again.
    """
    out = []
    ckeys = {}
    try:
        for pos, sig, ckey in json.loads(data):
            text = repr(ckey)
            key = ckeys.get(text)
            if key is None:
                key = ckeys[text] = _deep_tuple(ckey)
                hash(key)  # a JSON object in the condition key would not be
            out.append((int(pos), tuple(map(int, sig)), key))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bucket keys do not decode: {exc}") from None
    return out


def load_count_model(path: str) -> CountModel:
    with _loading(path):
        sections = {s.name: s for s in read_container(path)}
        head = _section(sections, "count_model")
        keys = _decode_keys(_section(sections, "bucket_keys").data)
        counts = section_array(_section(sections, "bucket_counts"))
        vocab_size = _field(head, "vocab_size", int)
        if counts.shape != (len(keys), vocab_size) or (counts < 0).any():
            raise ValidationError("bucket counts must be one non-negative row per bucket key")
        return CountModel(
            grid_w=_field(head, "grid_w", int),
            grid_h=_field(head, "grid_h", int),
            vocab_size=vocab_size,
            alpha=_field(head, "alpha", float),
            dropout_prob=_field(head, "dropout_prob", float),
            counts=dict(zip(keys, counts)),
            n_samples=_field(head, "n_samples", int),
            rng_seed=_field(head, "rng_seed", int),
        )


# codebook <-> container ------------------------------------------------------

def save_codebook(path: str, cb: Codebook, extra: list[Section] | None = None):
    meta = {"patch_h": cb.patch_h, "patch_w": cb.patch_w, "channels": cb.channels}
    sections = [
        Section("codebook", meta, b""),
        array_section("entries", cb.entries),
        array_section("objective_history", np.asarray(cb.objective_history, dtype=np.float64)),
    ]
    write_container(path, sections + list(extra or []))


def load_codebook(path: str) -> Codebook:
    with _loading(path):
        sections = {s.name: s for s in read_container(path)}
        head = _section(sections, "codebook")
        history = section_array(_section(sections, "objective_history"))
        if history.ndim != 1:
            raise ValidationError("objective_history must be 1-d")
        return Codebook(
            entries=section_array(_section(sections, "entries")),
            patch_h=_field(head, "patch_h", int),
            patch_w=_field(head, "patch_w", int),
            channels=_field(head, "channels", int),
            objective_history=tuple(float(v) for v in history),
        )
