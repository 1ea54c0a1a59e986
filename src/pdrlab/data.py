"""Synthetic classification datasets and the CSV interchange format.

All generators are deterministic functions of their seed. Labels are one
int64 array of small class ids; UNLABELED (-1) marks an unlabeled example,
in memory and on disk alike.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .tensor import RandomSource

UNLABELED = -1  # marks an unlabeled example, in memory and on disk


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) read-only float64, a copy of what the caller passed
    labels: np.ndarray  # (n,) read-only int64, a class id or UNLABELED per example
    n_classes: int
    provenance: dict

    def __post_init__(self):
        features = np.array(self.features, dtype=np.float64)  # the caller's array stays writable
        labels = np.array(self.labels)
        if labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        labels = labels.astype(np.int64, copy=False)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise ValueError("features and labels disagree on example count")
        if not np.all(np.isfinite(features)):
            raise ValueError("features have non-finite entries")
        if labels.size and (labels.min() < UNLABELED or labels.max() >= self.n_classes):
            raise ValueError(f"labels must lie in [{UNLABELED}, {self.n_classes}), "
                             f"got {labels.min()}..{labels.max()}")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels != UNLABELED)


def _moon_arcs(n: int):
    """Noiseless two-moons coordinates and labels, balanced classes."""
    n0 = (n + 1) // 2
    n1 = n - n0
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, max(n1, 1))[:n1]
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    features = np.vstack([upper, lower])
    labels = np.array([0] * n0 + [1] * n1)
    return features, labels


def make_two_moons(n: int, noise_std: float, seed: int) -> Dataset:
    """Two interleaved half-circle arcs with isotropic Gaussian noise.

    The upper moon is the unit arc; the lower moon is the mirrored arc at
    the standard offsets (x shifted +1, y by -0.5), so the classes are not
    linearly separable. Class counts are ceil(n/2) and floor(n/2).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= noise_std < np.inf:  # also catches NaN
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    features, labels = _moon_arcs(n)
    if noise_std > 0:
        rng = RandomSource(seed).split(1)
        features = features + noise_std * rng.generator().standard_normal(features.shape)
    return Dataset(features, labels, 2,
                   {"generator": "two-moons", "n": n, "noise_std": noise_std, "seed": seed})


def _simplex_means(k: int, dim: int, separation: float) -> np.ndarray:
    """k means with every pairwise distance equal to separation.

    Columns of the Helmert basis give a regular simplex with side sqrt(2)
    in k-1 dimensions; scale it and pad with zeros up to dim.
    """
    if dim < k - 1:
        raise ValueError(f"{k} equidistant means need at least {k - 1} dimensions, got {dim}")
    helmert = np.zeros((k - 1, k))
    for j in range(1, k):
        helmert[j - 1, :j] = 1.0
        helmert[j - 1, j] = -j
        helmert[j - 1] /= np.sqrt(j * (j + 1))
    means = np.zeros((k, dim))
    means[:, : k - 1] = helmert.T * (separation / np.sqrt(2.0))
    return means


def make_gaussian_mixture(n: int, k: int, dim: int, separation: float, seed: int) -> Dataset:
    """Unit-covariance Gaussian blobs at mutually equidistant means."""
    if k < 2 or dim < 1 or n < 1:
        raise ValueError("need n >= 1, k >= 2, dim >= 1")
    if not 0 <= separation < np.inf:  # also catches NaN
        raise ValueError(f"separation must be finite and >= 0, got {separation}")
    means = _simplex_means(k, dim, separation)
    counts = [n // k + (1 if c < n % k else 0) for c in range(k)]
    labels = np.repeat(np.arange(k), counts)
    noise = RandomSource(seed).split(1).generator().standard_normal((n, dim))
    features = means[labels] + noise
    return Dataset(features, labels, k,
                   {"generator": "gaussian-mixture", "n": n, "k": k, "dim": dim,
                    "separation": separation, "seed": seed})


def apply_domain_shift(ds: Dataset, angle: float, scale: float, seed: int) -> Dataset:
    """Rotate features by `angle` in a seeded random 2-plane, then scale.

    The map is linear and invertible (inverse: divide by scale, rotate by
    -angle in the same plane). angle=0, scale=1 returns the features
    unchanged bit for bit.
    """
    d = ds.n_features
    if d < 2:
        raise ValueError("domain shift needs at least 2 feature dimensions")
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    if not 0 < scale < np.inf:  # also catches NaN
        raise ValueError(f"scale must be finite and positive, got {scale}")
    rng = RandomSource(seed)
    u = rng.split(0).generator().standard_normal(d)
    u /= np.linalg.norm(u)
    v = rng.split(1).generator().standard_normal(d)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    rot = (
        np.eye(d)
        + (np.cos(angle) - 1.0) * (np.outer(u, u) + np.outer(v, v))
        + np.sin(angle) * (np.outer(u, v) - np.outer(v, u))
    )
    features = scale * (ds.features @ rot.T)
    prov = dict(ds.provenance)
    prov["shift"] = {"angle": angle, "scale": scale, "seed": seed}
    return Dataset(features, ds.labels, ds.n_classes, prov)


def make_spurious_pair(n: int, core_noise: float, seed: int):
    """Train/eval pair with a planted shortcut feature.

    Both sets are two-moons in the first two (core) dimensions. A third
    dimension is +1/-1 perfectly aligned with the label at train time and
    perfectly inverted at eval time; marginal feature ranges match, so the
    sets are indistinguishable without reading the correlation.
    """
    if not 0 <= core_noise < np.inf:  # also catches NaN
        raise ValueError(f"core_noise must be finite and >= 0, got {core_noise}")
    base = RandomSource(seed)
    out = []
    for split_id, sign in (("train", 1.0), ("adversarial_eval", -1.0)):
        # identical arc layout, independent core noise per split
        feats, labels = _moon_arcs(n)
        if core_noise > 0:
            stream = base.split(10 if sign > 0 else 11)
            feats = feats + core_noise * stream.generator().standard_normal(feats.shape)
        spur = sign * (2.0 * labels - 1.0)  # +/-1, aligned with label on train
        features = np.column_stack([feats, spur])
        out.append(Dataset(features, labels, 2,
                           {"generator": "bias-pair", "split": split_id, "n": n,
                            "core_noise": core_noise, "seed": seed}))
    return out[0], out[1]


def withhold_labels(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Keep labels on exactly round(fraction * n) examples, stratified.

    Per-class kept counts stay within one of the proportional share; which
    examples keep their label is a seeded choice within each class.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if np.any(ds.labels == UNLABELED):
        raise ValueError("withhold_labels expects a fully labeled dataset")
    n = ds.n_examples
    total_keep = int(round(fraction * n))
    classes, counts = np.unique(ds.labels, return_counts=True)
    shares = fraction * counts
    keep = np.floor(shares).astype(np.int64)
    # the leftover labels go to the largest remainders, ties to the lower class
    by_remainder = np.lexsort((classes, keep - shares))
    keep[by_remainder[: total_keep - int(keep.sum())]] += 1
    rng = RandomSource(seed)
    kept = np.zeros(n, dtype=bool)
    # split mixes its keys in Python-int arithmetic, where an np.int64 key overflows
    for c, k in zip(classes.tolist(), keep.tolist()):
        idx = np.flatnonzero(ds.labels == c)
        kept[idx[rng.split(c).generator().permutation(idx.size)[:k]]] = True
    labels = np.where(kept, ds.labels, UNLABELED)
    prov = dict(ds.provenance)
    prov["withheld"] = {"fraction": fraction, "seed": seed, "kept": total_keep}
    return Dataset(ds.features, labels, ds.n_classes, prov)


def write_csv(ds: Dataset, path) -> None:
    """Write features and labels; header f0..f{d-1},label; -1 = unlabeled."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(ds.n_features)] + ["label"])
        for row, y in zip(ds.features, ds.labels.tolist()):
            writer.writerow([repr(float(v)) for v in row] + [y])


def read_csv(path) -> Dataset:
    """Read the CSV format back; malformed rows fail with their line number."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}:1: empty file") from None
        d = len(header) - 1
        if d < 1 or header != [f"f{j}" for j in range(d)] + ["label"]:
            raise ValueError(f"{path}:1: bad header {header!r}")
        feats, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise ValueError(f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}")
            try:
                feats.append([float(v) for v in row[:d]])
                y = int(row[d])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from None
            if y < UNLABELED:
                raise ValueError(f"{path}:{lineno}: bad label {y}")
            labels.append(y)
    if not feats:
        raise ValueError(f"{path}: no data rows")
    features = np.asarray(feats, dtype=np.float64)
    if not np.all(np.isfinite(features)):
        raise ValueError(f"{path}: non-finite feature values")
    return Dataset(features, labels, max(max(labels) + 1, 2), {"source": str(path)})
