"""Dataset manifests, PGM images, bilinear resize, synthetic data, and

checkpoints.

File formats:
  manifest  CSV with header `path,labels,boxes`; labels are `;`-separated
            class indices (may be empty), boxes `;`-separated
            `class:x:y:w:h` tuples in source-image pixels.
  image     binary PGM (P5), maxval 255.
  checkpoint text header (magic CAPS, version, config echo, tensor
            directory), then raw little-endian IEEE-754 buffers.
"""

from __future__ import annotations

import io
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Checkpoint",
    "DataError",
    "ManifestEntry",
    "Sample",
    "generate_synthetic",
    "load_checkpoint",
    "load_manifest",
    "load_pgm",
    "resize_bilinear",
    "save_checkpoint",
    "synth_dataset",
    "write_manifest",
    "write_pgm",
]


class DataError(ValueError):
    """Malformed file or unusable dataset description."""


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


@dataclass
class ManifestEntry:
    path: str
    labels: tuple[int, ...]
    boxes: tuple[tuple[int, int, int, int, int], ...] = ()  # (class, x, y, w, h)


def _parse_labels(text: str, lineno: int) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(";"))
    except ValueError:
        raise DataError(f"line {lineno}: bad label list {text!r}")


def _parse_boxes(text: str, lineno: int) -> tuple:
    if not text:
        return ()
    boxes = []
    for tok in text.split(";"):
        parts = tok.split(":")
        if len(parts) != 5:
            raise DataError(f"line {lineno}: bad box {tok!r}, expected class:x:y:w:h")
        try:
            boxes.append(tuple(int(p) for p in parts))
        except ValueError:
            raise DataError(f"line {lineno}: bad box {tok!r}, expected integers")
    return tuple(boxes)


def load_manifest(path) -> list[ManifestEntry]:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "path,labels,boxes":
        raise DataError(f"{path}: expected header 'path,labels,boxes'")
    entries = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"line {lineno}: expected 3 columns, got {len(parts)}")
        img_path = parts[0].strip()
        if not img_path:
            raise DataError(f"line {lineno}: empty image path")
        if img_path in seen:
            warnings.warn(f"{path}: duplicate image path {img_path!r} at line {lineno}")
        seen.add(img_path)
        entries.append(
            ManifestEntry(
                path=img_path,
                labels=_parse_labels(parts[1].strip(), lineno),
                boxes=_parse_boxes(parts[2].strip(), lineno),
            )
        )
    return entries


def write_manifest(entries, path) -> None:
    lines = ["path,labels,boxes"]
    for e in entries:
        if "," in e.path or e.path.splitlines() != [e.path] or e.path != e.path.strip():
            raise DataError(f"image path {e.path!r} cannot be read back: empty, or a comma, line break or edge space")
        labels = ";".join(str(i) for i in e.labels)
        boxes = ";".join(":".join(str(v) for v in box) for box in e.boxes)
        lines.append(f"{e.path},{labels},{boxes}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# PGM images
# ---------------------------------------------------------------------------


def load_pgm(path) -> np.ndarray:
    """Binary P5, maxval 255, scaled to [0, 1]."""
    raw = Path(path).read_bytes()
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(raw):
            raise DataError(f"{path}: truncated PGM header")
        ch = raw[i : i + 1]
        if ch == b"#":  # comment runs to end of line
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            start = i
            while i < len(raw) and not raw[i : i + 1].isspace():
                i += 1
            tokens.append(raw[start:i])
    magic, w, h, maxval = tokens
    if magic != b"P5":
        raise DataError(f"{path}: expected binary PGM magic P5, got {magic!r}")
    if maxval != b"255":
        raise DataError(f"{path}: only maxval 255 supported, got {maxval!r}")
    w, h = int(w), int(h)
    pixels = raw[i + 1 : i + 1 + w * h]
    if len(pixels) != w * h:
        raise DataError(f"{path}: expected {w * h} pixel bytes, found {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w).astype(np.float64) / 255.0


def write_pgm(image: np.ndarray, path) -> None:
    """Quantize [0, 1] grayscale to 8 bits and write binary P5."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise DataError(f"expected a 2D image, got shape {img.shape}")
    q = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = q.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(q.tobytes())


# ---------------------------------------------------------------------------
# Bilinear resize (shared with heatmap upsampling)
# ---------------------------------------------------------------------------


def resize_bilinear(image: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    """Bilinear resample with corners aligned to pixel centers.

    Identity at the same size; constants stay constant; works in both
    directions (the localization pipeline upsamples, ingestion downsizes).
    """
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    out_h, out_w = target
    if out_h < 1 or out_w < 1:
        raise DataError(f"target size must be positive, got {target}")

    def coords(n_src, n_dst):
        if n_dst == 1 or n_src == 1:
            return np.zeros(n_dst)
        return np.arange(n_dst) * ((n_src - 1) / (n_dst - 1))

    ys = coords(h, out_h)
    xs = coords(w, out_w)
    y0 = np.minimum(ys.astype(int), h - 1)
    x0 = np.minimum(xs.astype(int), w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    ty = (ys - y0)[:, None]
    tx = (xs - x0)[None, :]
    a = img[np.ix_(y0, x0)]
    b = img[np.ix_(y0, x1)]
    c = img[np.ix_(y1, x0)]
    d = img[np.ix_(y1, x1)]
    top = a + (b - a) * tx
    bot = c + (d - c) * tx
    return top + (bot - top) * ty


# ---------------------------------------------------------------------------
# Synthetic multi-label glyph dataset
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    image: np.ndarray  # (H, W) in [0, 1], already 8-bit quantized
    labels: tuple[int, ...]
    boxes: tuple[tuple[int, int, int, int, int], ...]  # (class, x, y, w, h)


def _draw_glyph(img: np.ndarray, cls: int, x: int, y: int, size: int, amp: float) -> None:
    yy, xx = np.mgrid[0:size, 0:size]
    if cls == 0:  # filled disc
        r = size / 2.0
        mask = (xx - (size - 1) / 2.0) ** 2 + (yy - (size - 1) / 2.0) ** 2 <= r * r
    elif cls == 1:  # hollow square
        t = max(2, size // 6)
        mask = (xx < t) | (xx >= size - t) | (yy < t) | (yy >= size - t)
    elif cls == 2:  # diagonal stripes
        mask = (xx + yy) % 4 < 2
    else:  # cross
        t = max(2, size // 5)
        mid = (size - 1) / 2.0
        mask = (np.abs(xx - mid) <= t / 2.0) | (np.abs(yy - mid) <= t / 2.0)
    region = img[y : y + size, x : x + size]
    region[mask] = np.maximum(region[mask], amp)


def generate_synthetic(
    n: int,
    image_size: int,
    n_classes: int = 4,
    seed: int = 0,
    class_prior: float = 0.35,
) -> list[Sample]:
    """Multi-label glyph images over low-amplitude noise.

    Each present class draws its glyph (disc, hollow square, stripes,
    cross) inside its own randomly chosen quadrant; the ground-truth box
    is the glyph extent. Pure function of the seed.
    """
    if not 1 <= n_classes <= 4:
        raise DataError(f"n_classes must be in 1..4 (one glyph kind per class), got {n_classes}")
    if image_size < 24:
        raise DataError(f"image_size must be >= 24, got {image_size}")
    rng = np.random.default_rng(seed)
    half = image_size // 2
    samples = []
    for _ in range(n):
        img = rng.uniform(0.0, 0.2, size=(image_size, image_size))
        present = np.flatnonzero(rng.random(n_classes) < class_prior)
        quadrants = rng.permutation(4)[: len(present)]
        boxes = []
        for cls, quad in zip(present, quadrants):
            qy, qx = divmod(int(quad), 2)
            max_size = half - 4
            size = int(rng.integers(max(8, half // 3), max_size + 1))
            x = qx * half + int(rng.integers(1, half - size))
            y = qy * half + int(rng.integers(1, half - size))
            amp = rng.uniform(0.65, 1.0)
            _draw_glyph(img, int(cls), x, y, size, amp)
            boxes.append((int(cls), x, y, size, size))
        img = np.rint(np.clip(img, 0.0, 1.0) * 255.0) / 255.0
        samples.append(Sample(image=img, labels=tuple(int(c) for c in present), boxes=tuple(boxes)))
    return samples


def synth_dataset(
    out_dir,
    n_train: int,
    n_test: int,
    image_size: int,
    n_classes: int = 4,
    seed: int = 0,
    class_prior: float = 0.35,
) -> tuple[Path, Path]:
    """Write train/test PGMs plus manifests; returns the manifest paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for split, count in (("train", n_train), ("test", n_test)):
        samples = generate_synthetic(
            count, image_size, n_classes, seed=seed if split == "train" else seed + 1, class_prior=class_prior
        )
        entries = []
        for i, s in enumerate(samples):
            name = f"{split}_{i:05d}.pgm"
            write_pgm(s.image, out_dir / name)
            entries.append(ManifestEntry(path=name, labels=s.labels, boxes=s.boxes))
        manifest = out_dir / f"{split}.csv"
        write_manifest(entries, manifest)
        paths.append(manifest)
    return tuple(paths)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_MAGIC = "CAPS"
_VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_TAG_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


@dataclass
class Checkpoint:
    config: dict[str, str] = field(default_factory=dict)
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    rng_state: str | None = None
    version: int = _VERSION


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Text directory plus little-endian IEEE-754 payload; byte-stable."""
    header = io.StringIO()
    header.write(f"{_MAGIC} {ckpt.version}\n")
    for key, value in ckpt.config.items():
        if any(c.isspace() for c in key):
            raise DataError(f"config key {key!r} must not contain whitespace")
        header.write(f"config {key}={value}\n")
    if ckpt.rng_state is not None:
        header.write(f"rng {ckpt.rng_state}\n")
    offset = 0
    payload = []
    for name, arr in ckpt.tensors.items():
        if any(c.isspace() for c in name):
            raise DataError(f"tensor name {name!r} must not contain whitespace")
        tag = _DTYPE_TAGS.get(arr.dtype)
        if tag is None:
            raise DataError(f"tensor {name}: unsupported dtype {arr.dtype}")
        buf = np.ascontiguousarray(arr).astype(_TAG_DTYPES[tag], copy=False).tobytes()
        dims = "x".join(str(d) for d in arr.shape) if arr.ndim else "scalar"
        header.write(f"tensor {name} {tag} {dims} {offset} {len(buf)}\n")
        payload.append(buf)
        offset += len(buf)
    header.write(f"data {offset}\n")
    with open(path, "wb") as f:
        f.write(header.getvalue().encode("ascii"))
        for buf in payload:
            f.write(buf)


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    ckpt = Checkpoint()
    directory = []
    total = None

    def next_line(pos):
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise DataError(f"{path}: truncated header")
        return raw[pos:nl].decode("ascii", errors="replace"), nl + 1

    line, pos = next_line(0)
    magic, _, version = line.partition(" ")
    if magic != _MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}, expected {_MAGIC}")
    if not version.isdigit() or int(version) != _VERSION:
        raise DataError(f"{path}: unsupported version {version!r}, expected {_VERSION}")
    ckpt.version = int(version)

    while True:
        line, pos = next_line(pos)
        if line.startswith("config "):
            key, _, value = line[len("config ") :].partition("=")
            ckpt.config[key] = value
        elif line.startswith("rng "):
            ckpt.rng_state = line[len("rng ") :]
        elif line.startswith("tensor "):
            try:
                name, tag, dims, offset, nbytes = line[len("tensor ") :].split(" ")
                shape = () if dims == "scalar" else tuple(int(d) for d in dims.split("x"))
                offset, nbytes = int(offset), int(nbytes)
            except ValueError:
                raise DataError(f"{path}: malformed tensor line {line!r}")
            if min((offset, nbytes) + shape) < 0:
                raise DataError(f"{path}: tensor {name} has a negative offset, byte count or extent")
            directory.append((name, tag, shape, offset, nbytes))
        elif line.startswith("data "):
            if not line[len("data ") :].isdigit():
                raise DataError(f"{path}: malformed data line {line!r}")
            total = int(line[len("data ") :])
            break
        else:
            raise DataError(f"{path}: unrecognized header line {line!r}")
    blob = raw[pos:]
    if total is None or len(blob) != total:
        raise DataError(f"{path}: payload has {len(blob)} bytes, directory says {total}")
    for name, tag, shape, offset, nbytes in directory:
        if tag not in _TAG_DTYPES:
            raise DataError(f"{path}: tensor {name} has unknown dtype tag {tag!r}")
        expected = int(np.prod(shape)) if shape else 1
        if nbytes != expected * _TAG_DTYPES[tag].itemsize:
            raise DataError(f"{path}: tensor {name} expected {expected} values, directory gives {nbytes} bytes")
        if offset + nbytes > total:
            raise DataError(f"{path}: tensor {name} bytes {offset}..{offset + nbytes} run past the {total}-byte payload")
        arr = np.frombuffer(blob[offset : offset + nbytes], dtype=_TAG_DTYPES[tag])
        ckpt.tensors[name] = arr.reshape(shape).copy()
    return ckpt


def rng_state_token(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state, separators=(",", ":"))


def rng_from_token(token: str) -> np.random.Generator:
    state = json.loads(token)
    gen = np.random.default_rng(0)
    gen.bit_generator.state = state
    return gen
