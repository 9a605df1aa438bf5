"""Patch-level vector quantization between images and token grids.

An image is tiled into non-overlapping patches; each patch becomes the index
of its nearest codebook entry in squared Euclidean distance (ties to the
lowest index), and decoding writes the entries back and clamps to the valid
pixel range. The codebook is learned by seeded k-means with k-means++
initialization; the per-iteration objective (mean squared distance of every
patch to its assigned center) is recorded and never increases.

Images travel as float arrays in [0, 1] and on disk as binary 8-bit PPM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, TokenOutOfRange, TooFewPatches

DEFAULT_CODEBOOK_SIZE = 64
DEFAULT_PATCH = 4
DEFAULT_KMEANS_ITERS = 25
QUANTIZE_CHUNK = 2048  # patches per distance block in _quantize_batch


@dataclass(frozen=True)
class Codebook:
    """Learned patch dictionary: entries is an (n_entries, D) float matrix
    with D = patch_h * patch_w * channels."""

    entries: np.ndarray
    patch_h: int
    patch_w: int
    channels: int
    objective_history: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] < 1:
            raise DimensionMismatch("entries must be a nonempty 2-d matrix")
        if not np.isfinite(entries).all():
            raise DimensionMismatch("codebook entries must be finite")
        if entries.shape[1] != self.dim:
            raise DimensionMismatch(
                f"entry width {entries.shape[1]} != patch_h*patch_w*channels = {self.dim}"
            )

    @property
    def dim(self) -> int:
        return self.patch_h * self.patch_w * self.channels

    @property
    def n_entries(self) -> int:
        return int(self.entries.shape[0])


def quantize_patch(z_e: np.ndarray, cb: Codebook) -> int:
    """Index of the nearest entry; equidistant entries resolve to the lowest."""
    z_e = np.asarray(z_e, dtype=np.float64).ravel()
    if z_e.size != cb.dim:
        raise DimensionMismatch(f"patch vector has {z_e.size} values, codebook wants {cb.dim}")
    return int(_quantize_batch(z_e[None, :], cb.entries)[0])


def _quantize_batch(patches: np.ndarray, entries: np.ndarray) -> np.ndarray:
    out = np.empty(patches.shape[0], dtype=np.int32)
    for start in range(0, patches.shape[0], QUANTIZE_CHUNK):
        block = patches[start : start + QUANTIZE_CHUNK]
        d2 = ((block[:, None, :] - entries[None, :, :]) ** 2).sum(axis=2)
        out[start : start + QUANTIZE_CHUNK] = np.argmin(d2, axis=1)
    return out


def _check_image(img: np.ndarray, cb: Codebook) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or img.shape[2] != cb.channels:
        raise DimensionMismatch(f"expected H x W x {cb.channels} image, got {img.shape}")
    if img.shape[0] % cb.patch_h or img.shape[1] % cb.patch_w:
        raise DimensionMismatch(
            f"image {img.shape[:2]} not divisible by patch {cb.patch_h}x{cb.patch_w}"
        )
    return img


def extract_patches(img: np.ndarray, patch_h: int, patch_w: int) -> np.ndarray:
    """Row-major non-overlapping patches, flattened to (n_patches, D)."""
    h, w, c = img.shape
    gh, gw = h // patch_h, w // patch_w
    tiled = img.reshape(gh, patch_h, gw, patch_w, c).transpose(0, 2, 1, 3, 4)
    return tiled.reshape(gh * gw, patch_h * patch_w * c)


def assemble_patches(
    patches: np.ndarray, grid_h: int, grid_w: int, patch_h: int, patch_w: int, channels: int
) -> np.ndarray:
    tiled = patches.reshape(grid_h, grid_w, patch_h, patch_w, channels)
    return tiled.transpose(0, 2, 1, 3, 4).reshape(grid_h * patch_h, grid_w * patch_w, channels)


def encode(img: np.ndarray, cb: Codebook) -> np.ndarray:
    """Token grid of shape (H/patch_h, W/patch_w)."""
    img = _check_image(img, cb)
    gh, gw = img.shape[0] // cb.patch_h, img.shape[1] // cb.patch_w
    patches = extract_patches(img, cb.patch_h, cb.patch_w)
    return _quantize_batch(patches, cb.entries).reshape(gh, gw)


def decode(tokens: np.ndarray, cb: Codebook) -> np.ndarray:
    """Write each token's entry into its patch slot; clamp into [0, 1]."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise DimensionMismatch("token grid must be 2-d")
    if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= cb.n_entries:
        raise TokenOutOfRange(
            f"token ids must lie in [0, {cb.n_entries}), got range "
            f"[{tokens.min()}, {tokens.max()}]"
        )
    patches = cb.entries[tokens.ravel()]
    img = assemble_patches(
        patches, tokens.shape[0], tokens.shape[1], cb.patch_h, cb.patch_w, cb.channels
    )
    return np.clip(img, 0.0, 1.0)


def roundtrip_mse(img: np.ndarray, cb: Codebook) -> float:
    img = _check_image(img, cb)
    return float(np.mean((decode(encode(img, cb), cb) - img) ** 2))


def _kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared-distance weighting."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:  # all remaining points coincide with a center
            centers[j] = data[rng.integers(n)]
            continue
        centers[j] = data[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((data - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans(
    data: np.ndarray, k: int, iters: int = DEFAULT_KMEANS_ITERS, rng_seed: int = 0
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd iterations from a k-means++ start.

    Returns (centers, assignments, objective_history); the history holds the
    mean squared distance to the assigned center at each assignment step and
    is non-increasing. Empty clusters are reseeded to the point currently
    farthest from its center, which cannot raise the objective.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionMismatch("kmeans expects an (n, D) matrix")
    if data.shape[0] < k:
        raise TooFewPatches(f"need at least {k} patches, got {data.shape[0]}")
    rng = np.random.default_rng(rng_seed)
    centers = _kmeans_pp_init(data, k, rng)
    history: list[float] = []
    assign = np.zeros(data.shape[0], dtype=np.int32)
    for _ in range(max(1, iters)):
        assign = _quantize_batch(data, centers)
        d2 = ((data - centers[assign]) ** 2).sum(axis=1)
        history.append(float(d2.mean()))
        for j in range(k):
            members = assign == j
            if members.any():
                centers[j] = data[members].mean(axis=0)
            else:
                far = int(np.argmax(d2))
                centers[j] = data[far]
                d2[far] = 0.0
    assign = _quantize_batch(data, centers)
    history.append(float(((data - centers[assign]) ** 2).sum(axis=1).mean()))
    return centers, assign, history


def learn_codebook(
    patches: np.ndarray,
    n_entries: int = DEFAULT_CODEBOOK_SIZE,
    iters: int = DEFAULT_KMEANS_ITERS,
    rng_seed: int = 0,
    patch_h: int = DEFAULT_PATCH,
    patch_w: int = DEFAULT_PATCH,
    channels: int = 3,
) -> Codebook:
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 2 or patches.shape[1] != patch_h * patch_w * channels:
        raise DimensionMismatch(
            f"patches must be (n, {patch_h * patch_w * channels}), got {patches.shape}"
        )
    centers, _, history = kmeans(patches, n_entries, iters, rng_seed)
    return Codebook(
        entries=centers,
        patch_h=patch_h,
        patch_w=patch_w,
        channels=channels,
        objective_history=tuple(history),
    )


def learn_codebook_from_images(
    images, n_entries: int = DEFAULT_CODEBOOK_SIZE, iters: int = DEFAULT_KMEANS_ITERS,
    rng_seed: int = 0, patch_h: int = DEFAULT_PATCH, patch_w: int = DEFAULT_PATCH,
) -> Codebook:
    """Pool patches from a stack of equally shaped H x W x C images."""
    images = [np.asarray(im, dtype=np.float64) for im in images]
    channels = images[0].shape[2]
    pooled = np.concatenate([extract_patches(im, patch_h, patch_w) for im in images])
    return learn_codebook(
        pooled, n_entries, iters, rng_seed,
        patch_h=patch_h, patch_w=patch_w, channels=channels,
    )


def quantize_oracle(z_e: np.ndarray, cb: Codebook) -> int:
    """Reference scan: plain python loops with exact fsum accumulation."""
    z = [float(v) for v in np.asarray(z_e).ravel()]
    if len(z) != cb.dim:
        raise DimensionMismatch("oracle got a patch of the wrong width")
    best_j, best_d = 0, math.inf
    for j in range(cb.n_entries):
        row = cb.entries[j]
        d = math.fsum((z[i] - float(row[i])) ** 2 for i in range(len(z)))
        if d < best_d:
            best_j, best_d = j, d
    return best_j


def write_ppm(path: str, img: np.ndarray):
    """Binary 8-bit P6; values are rounded from [0, 1] floats."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DimensionMismatch("PPM output needs an H x W x 3 image")
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    h, w, _ = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_ppm(path: str) -> np.ndarray:
    """Inverse of write_ppm; tolerates comments and extra whitespace."""
    with open(path, "rb") as fh:
        raw = fh.read()

    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # single whitespace byte after maxval
    magic, w, h, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    if magic != b"P6" or maxval != 255:
        raise ValueError(f"not an 8-bit binary PPM: magic {magic!r}, maxval {maxval}")
    body = raw[pos : pos + w * h * 3]
    if len(body) != w * h * 3:
        raise ValueError("truncated PPM payload")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3).astype(np.float64) / 255.0
