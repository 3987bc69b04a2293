"""Closed-form CCA, Gaussian-kernel KCCA, and cluster-expanded CCA.

The linear fit whitens both views (symmetric eigendecomposition with an
eigenvalue floor), takes the SVD of the whitened cross-covariance, and maps
the singular vectors back through the inverse square roots. Canonical
correlations are the singular values clipped to [0, 1].

A fit may pair rows through index pairs (audio row, visual row). The pairs
enter only through per-row counts n_a and n_v and the sparse pair-count matrix
C: the count-weighted means, Sxx = Xc' diag(n_a) Xc, Syy = Yc' diag(n_v) Yc
and Sxy = Xc' C Yc, each over m - 1, are the statistics of the materialised
pairs without copying a row per pair. A view with more dimensions d than rows
n is solved in the span of its centred rows Xc: the eigendecomposition
Xc Xc' = U diag(s^2) U' of the n x n Gram gives the rows' coordinates U s in
the orthonormal basis V = Xc' U / s, and outside span(V) the covariance is
reg * I. Directions whose eigenvalue lies within rounding of zero (relative to
the largest) are left to the ridge. Weights go back to the view as
Xc' (U / s w), so V is formed only when r exceeds its rank k, to build a
d x (r - k) complement; no d x d matrix is formed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import blockio
from .clustering import _sq_distances, expand_pairs
from .errors import FormatError, NumericalError, ResourceLimitError, SingularityError

EIG_FLOOR = 1e-12
DEFAULT_REG_SCALE = 1e-4
KCCA_N_CAP = 2000

MODEL_MAGIC = b"AVCM"
_SIDES = {"audio": "x", "x": "x", "visual": "y", "y": "y"}
# header fields (with the kind blockio.field reads each as) of the two model files; every
# other array of the class's AXES is a block, stored in AXES order
_LINEAR_FIELDS = {"correlations": blockio.NUMBERS, "reg_x": float, "reg_y": float}
_KERNEL_FIELDS = {
    "correlations": blockio.NUMBERS, "beta": float, "kappa": float, "kernel": ("gaussian", "linear"),
    "grand_mean_x": float, "grand_mean_y": float,
}


@dataclass
class LinearProjection:
    """Fitted projection pair (wx, wy) with centering vectors and canonical correlations."""

    wx: np.ndarray
    wy: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray
    correlations: np.ndarray
    reg_x: float
    reg_y: float

    # the axis labels of each array, for blockio.check_dims
    AXES = {"wx": "dr", "wy": "er", "mean_x": "d", "mean_y": "e", "correlations": "r"}

    def __post_init__(self) -> None:
        blockio.check_dims({name: (getattr(self, name), axes) for name, axes in self.AXES.items()})
        for name in ("reg_x", "reg_y"):
            _check_ridge(name, getattr(self, name))

    @property
    def r(self) -> int:
        return self.wx.shape[1]


@dataclass
class KernelModel:
    """Dual-coefficient kernel CCA model; projection needs the training sets."""

    train_x: np.ndarray
    train_y: np.ndarray
    dual_x: np.ndarray
    dual_y: np.ndarray
    beta: float
    kappa: float
    kernel: str
    correlations: np.ndarray
    # training-kernel column means and grand means, cached for test centering
    col_means_x: np.ndarray = field(repr=False)
    col_means_y: np.ndarray = field(repr=False)
    grand_mean_x: float
    grand_mean_y: float
    offset_x: np.ndarray = field(repr=False)
    offset_y: np.ndarray = field(repr=False)

    AXES = {
        "train_x": "nd", "train_y": "ne", "dual_x": "nr", "dual_y": "nr", "col_means_x": "n",
        "col_means_y": "n", "offset_x": "r", "offset_y": "r", "correlations": "r",
    }

    def __post_init__(self) -> None:
        blockio.check_dims({name: (getattr(self, name), axes) for name, axes in self.AXES.items()})
        _check_kernel(self.beta, self.kappa)

    @property
    def r(self) -> int:
        return self.dual_x.shape[1]


def _check_ridge(name: str, reg: float) -> None:
    """ValueError unless reg is a finite number >= 0."""
    if not 0 <= reg < np.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {reg}")


def _check_kernel(beta: float, kappa: float) -> None:
    """ValueError unless the kernel width beta and the ridge kappa are finite numbers > 0."""
    for name, value in (("beta", beta), ("kappa", kappa)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be a finite number > 0, got {value}")


def _paired_views(x: np.ndarray, y: np.ndarray, r: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """x and y as finite float64 matrices with one row per pair and, given r, at least
    2 rows and 1 <= r <= the narrower width; ValueError otherwise."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    for name, a in (("x", x), ("y", y)):
        if a.ndim != 2:
            raise ValueError(f"{name} must be a 2-d matrix, got shape {a.shape}")
        if not blockio.all_finite(a):
            raise ValueError(f"{name} contains non-finite values")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"views must pair rows: {x.shape[0]} vs {y.shape[0]}")
    if r is not None and x.shape[0] < 2:
        raise ValueError(f"need at least 2 samples, got {x.shape[0]}")
    if r is not None and not 1 <= r <= min(x.shape[1], y.shape[1]):
        raise ValueError(f"r must be in [1, {min(x.shape[1], y.shape[1])}], got {r}")
    return x, y


def _labelled_views(x: np.ndarray, y: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """The paired views and their labels, one per row; ValueError otherwise."""
    x, y = _paired_views(x, y)
    labels = np.asarray(labels)
    if labels.shape[0] != x.shape[0]:
        raise ValueError("labels must align with the paired rows")
    return x, y, labels


def _side(side: str) -> str:
    """'x' for the audio side, 'y' for the visual side; ValueError for any other name."""
    if side not in _SIDES:
        raise ValueError(f"side must be one of {sorted(_SIDES)}, got {side!r}")
    return _SIDES[side]


def _inv_sqrt_psd(m: np.ndarray, *, allow_floor: bool) -> np.ndarray:
    """(Sigma)^(-1/2) via symmetric eigendecomposition."""
    evals, evecs = np.linalg.eigh(m)
    if not allow_floor and evals.min() < EIG_FLOOR:
        raise SingularityError(
            f"covariance is rank deficient (min eigenvalue {evals.min():.3e}); pass reg > 0"
        )
    evals = np.maximum(evals, EIG_FLOOR)
    return (evecs / np.sqrt(evals)) @ evecs.T


def _resolve_reg(trace: float, dim: int, reg: float | None) -> float:
    if reg is None:
        return DEFAULT_REG_SCALE * trace / dim
    _check_ridge("reg", reg)
    return float(reg)


# what a covariance builder hands the solve: zx, zy are the centred rows in the coordinates of the
# ridged sxx, syy, and qx, qy the maps back to the views, each (xc, U / s) (None keeps a view's own axes)
_Stats = namedtuple("_Stats", "mean_x mean_y zx zy qx qy sxx syy sxy reg_x reg_y")


def _covariances(x: np.ndarray, y: np.ndarray, reg: float | None) -> _Stats:
    """Statistics of the identity pairing in the views' own axes (d <= n)."""
    n = x.shape[0]
    mean_x = x.mean(axis=0)
    mean_y = y.mean(axis=0)
    xc = x - mean_x
    yc = y - mean_y
    sxx = xc.T @ xc / (n - 1)
    syy = yc.T @ yc / (n - 1)
    reg_x = _resolve_reg(float(np.trace(sxx)), sxx.shape[0], reg)
    reg_y = _resolve_reg(float(np.trace(syy)), syy.shape[0], reg)
    sxx += reg_x * np.eye(sxx.shape[0])
    syy += reg_y * np.eye(syy.shape[0])
    return _Stats(mean_x, mean_y, xc, yc, None, None, sxx, syy, xc.T @ yc / (n - 1), reg_x, reg_y)


def _whiten(st: _Stats, full: bool) -> tuple[np.ndarray, ...]:
    """(Sxx)^(-1/2), (Syy)^(-1/2) and the SVD u, s, vt of the whitened cross-covariance."""
    allow_floor = st.reg_x > 0 and st.reg_y > 0
    isx = _inv_sqrt_psd(st.sxx, allow_floor=allow_floor)
    isy = _inv_sqrt_psd(st.syy, allow_floor=allow_floor)
    return (isx, isy, *np.linalg.svd(isx @ st.sxy @ isy, full_matrices=full))


def _pair_indices(pairs, n: int) -> tuple[np.ndarray, np.ndarray]:
    a_idx, v_idx = (np.asarray(p) for p in pairs)
    if a_idx.ndim != 1 or a_idx.shape != v_idx.shape:
        raise ValueError("pairs must be two index vectors of equal length")
    if not (np.issubdtype(a_idx.dtype, np.integer) and np.issubdtype(v_idx.dtype, np.integer)):
        raise ValueError("pair indices must be integers")
    if a_idx.size < 2:
        raise ValueError(f"need at least 2 pairs, got {a_idx.size}")
    if min(a_idx.min(), v_idx.min()) < 0 or max(a_idx.max(), v_idx.max()) >= n:
        raise ValueError(f"pair indices must lie in [0, {n})")
    return a_idx.astype(np.int64), v_idx.astype(np.int64)


# rows of z gathered per step of _pair_sum, in elements
_PAIR_CHUNK = 1 << 20


def _pair_sum(a_idx: np.ndarray, v_idx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """C @ z for the pair-count matrix C[i, j] = #{pairs (i, j)}, without forming C or z[v_idx]."""
    order = np.argsort(a_idx, kind="stable")
    rows, cols = a_idx[order], v_idx[order]
    out = np.zeros_like(z)
    step = max(1, _PAIR_CHUNK // max(1, z.shape[1]))
    for lo in range(0, rows.size, step):
        r, c = rows[lo : lo + step], cols[lo : lo + step]
        starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        out[r[starts]] += np.add.reduceat(z[c], starts, axis=0)
    return out


def _coordinates(xc: np.ndarray, allow_floor: bool) -> tuple[np.ndarray, tuple | None]:
    """The centred rows in the coordinates the solver whitens, and the map back to the view.

    With d <= n the view's own axes are kept (map None). With d > n the Gram
    xc xc' = U diag(s^2) U' gives the coordinates Z = U s of the rows in the
    orthonormal basis V = xc' U / s of their span, xc = Z V', and the
    covariance outside span(V) is reg * I. Eigenvalues at or below
    max(EIG_FLOOR, s_max^2 * n * eps) are rounding noise, such as the
    direction the centring removed, and are dropped: their U / s would not be
    orthonormal in the view. The map is (xc, U / s), not V.
    """
    n, d = xc.shape
    if d <= n:
        return xc, None
    if not allow_floor:
        raise SingularityError(
            f"covariance of {d} dimensions from {n} rows is rank deficient; pass reg > 0"
        )
    evals, evecs = np.linalg.eigh(xc @ xc.T)
    keep = evals > max(EIG_FLOOR, evals[-1] * n * np.finfo(np.float64).eps)
    s = np.sqrt(evals[keep])
    u = evecs[:, keep]
    return u * s, (xc, u / s)


def _to_view(w: np.ndarray, basis: tuple | None, reg: float, r: int) -> np.ndarray:
    """Map coordinate weights back to the view; columns beyond span(V) come from its complement."""
    if basis is None:
        return w
    xc, u_over_s = basis
    k = w.shape[1]
    w = xc.T @ (u_over_s @ w)
    if k < r:
        # the complement of span(V) has eigenvalue reg and no correlation with the other view: the
        # trailing columns of a reduced QR of [V | E] are orthonormal to V, with E any d x (r - k)
        v = xc.T @ u_over_s
        complement = np.linalg.qr(np.hstack([v, np.eye(v.shape[0], r - k)]))[0][:, k:]
        w = np.hstack([w, complement / np.sqrt(max(reg, EIG_FLOOR))])
    return w


def _pair_covariances(
    x: np.ndarray, y: np.ndarray, a_idx: np.ndarray, v_idx: np.ndarray, reg: float | None
) -> _Stats:
    """Pair-count statistics, each view in its own or its thin coordinates."""
    m = a_idx.size
    counts_x = np.bincount(a_idx, minlength=x.shape[0]).astype(np.float64)
    counts_y = np.bincount(v_idx, minlength=y.shape[0]).astype(np.float64)
    mean_x = counts_x @ x / m
    mean_y = counts_y @ y / m
    xc = x - mean_x
    yc = y - mean_y
    reg_x = _resolve_reg(float(counts_x @ np.einsum("ij,ij->i", xc, xc)) / (m - 1), x.shape[1], reg)
    reg_y = _resolve_reg(float(counts_y @ np.einsum("ij,ij->i", yc, yc)) / (m - 1), y.shape[1], reg)
    allow_floor = reg_x > 0 and reg_y > 0
    zx, qx = _coordinates(xc, allow_floor)
    zy, qy = _coordinates(yc, allow_floor)
    sxx = (zx * counts_x[:, None]).T @ zx / (m - 1) + reg_x * np.eye(zx.shape[1])
    syy = (zy * counts_y[:, None]).T @ zy / (m - 1) + reg_y * np.eye(zy.shape[1])
    sxy = zx.T @ _pair_sum(a_idx, v_idx, zy) / (m - 1)
    return _Stats(mean_x, mean_y, zx, zy, qx, qy, sxx, syy, sxy, reg_x, reg_y)


def fit_cca(
    x: np.ndarray,
    y: np.ndarray,
    r: int,
    reg: float | None = None,
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
) -> LinearProjection:
    """Maximize the correlation between linear projections of the two views.

    reg is the ridge added to each empirical covariance; None picks
    1e-4 * trace / dim per view. Correlations come back non-increasing,
    clipped to [0, 1].

    pairs = (a_idx, v_idx) trains on the rows (x[a_idx[i]], y[v_idx[i]]) as
    fit_cca(x[a_idx], y[v_idx]) would, without copying them; None pairs row i
    with row i. An r above the data rank still gives r columns, the trailing
    ones with correlation 0.
    """
    x, y = _paired_views(x, y, r)
    n = x.shape[0]
    rows = np.arange(n)
    if pairs is None:
        a_idx = v_idx = rows
    else:
        a_idx, v_idx = _pair_indices(pairs, n)
    # identity statistics stay apart: via the pair counts their last bits, and kcca's MAPs, would move
    identity = np.array_equal(a_idx, rows) and np.array_equal(v_idx, rows)
    if identity and x.shape[1] <= n and y.shape[1] <= n:
        st = _covariances(x, y, reg)
    else:
        st = _pair_covariances(x, y, a_idx, v_idx, reg)
    # trailing singular vectors (zero correlation) are needed when r exceeds a coordinate rank
    isx, isy, u, s, vt = _whiten(st, full=r > min(st.sxy.shape))
    correlations = np.zeros(r)
    correlations[: min(r, s.size)] = s[:r]
    return LinearProjection(
        wx=_to_view(isx @ u[:, :r], st.qx, st.reg_x, r),
        wy=_to_view(isy @ vt.T[:, :r], st.qy, st.reg_y, r),
        mean_x=st.mean_x,
        mean_y=st.mean_y,
        correlations=np.clip(correlations, 0.0, 1.0),
        reg_x=st.reg_x,
        reg_y=st.reg_y,
    )


def project(model: LinearProjection, features: np.ndarray, side: str) -> np.ndarray:
    """(features - mean) @ W for the chosen side ('audio'/'x' or 'visual'/'y')."""
    s = _side(side)
    features = np.asarray(features, dtype=np.float64)
    squeeze = features.ndim == 1
    features = np.atleast_2d(features)
    w, mean = getattr(model, "w" + s), getattr(model, "mean_" + s)
    if features.shape[1] != w.shape[0]:
        raise ValueError(f"feature dim {features.shape[1]} does not match side dim {w.shape[0]}")
    out = (features - mean) @ w
    return out[0] if squeeze else out


def _kernel(a: np.ndarray, b: np.ndarray, kind: str, beta: float) -> np.ndarray:
    if kind == "gaussian":
        return np.exp(-beta * _sq_distances(a, b))
    if kind == "linear":
        return a @ b.T
    raise ValueError(f"unknown kernel {kind!r}")


def _kernel_features(k_centered: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit feature map Phi = V sqrt(L) of a centered kernel matrix."""
    evals, evecs = np.linalg.eigh(k_centered)
    if evals.min() < -1e-8 * max(evals.max(), 1.0):
        raise NumericalError(f"kernel matrix not PSD after centering (min eigenvalue {evals.min():.3e})")
    keep = evals > max(evals.max(), 0.0) * 1e-12
    evals = evals[keep]
    evecs = evecs[:, keep]
    return evecs * np.sqrt(evals), evecs, evals


def fit_kcca(
    x: np.ndarray,
    y: np.ndarray,
    r: int,
    beta: float = 0.4,
    kappa: float = 1e-3,
    kernel: str = "gaussian",
) -> KernelModel:
    """Kernel CCA with ridge kappa per view; k(a, b) = exp(-beta * ||a - b||^2).

    The centered kernels are eigendecomposed into explicit feature maps and
    passed through the same whitened-SVD core as fit_cca; primal weights are
    mapped back to dual coefficients. O(n^3): capped at desk scale.
    """
    x, y = _paired_views(x, y)
    n = x.shape[0]
    if n > KCCA_N_CAP:
        raise ResourceLimitError(
            f"KCCA solve is O(n^3); n={n} exceeds the cap of {KCCA_N_CAP}. "
            "Subsample the training pairs."
        )
    _check_kernel(beta, kappa)
    kx = _kernel(x, x, kernel, beta)
    ky = _kernel(y, y, kernel, beta)
    col_means_x = kx.mean(axis=0)
    col_means_y = ky.mean(axis=0)
    grand_x = float(kx.mean())
    grand_y = float(ky.mean())
    h = np.eye(n) - np.full((n, n), 1.0 / n)
    phi_x, vx, lx = _kernel_features(h @ kx @ h)
    phi_y, vy, ly = _kernel_features(h @ ky @ h)
    if not 1 <= r <= min(phi_x.shape[1], phi_y.shape[1]):
        raise ValueError(
            f"r must be in [1, {min(phi_x.shape[1], phi_y.shape[1])}] for this kernel rank, got {r}"
        )
    base = fit_cca(phi_x, phi_y, r, reg=kappa)
    dual_x = (vx / np.sqrt(lx)) @ base.wx
    dual_y = (vy / np.sqrt(ly)) @ base.wy
    return KernelModel(
        train_x=x,
        train_y=y,
        dual_x=dual_x,
        dual_y=dual_y,
        beta=float(beta),
        kappa=float(kappa),
        kernel=kernel,
        correlations=base.correlations,
        col_means_x=col_means_x,
        col_means_y=col_means_y,
        grand_mean_x=grand_x,
        grand_mean_y=grand_y,
        offset_x=base.mean_x @ base.wx,
        offset_y=base.mean_y @ base.wy,
    )


def kernel_project(model: KernelModel, features: np.ndarray, side: str) -> np.ndarray:
    """Project new points through the dual coefficients with training-set centering."""
    s = _side(side)
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    train, dual, col_means, grand, offset = (
        getattr(model, f"{name}_{s}") for name in ("train", "dual", "col_means", "grand_mean", "offset")
    )
    if features.shape[1] != train.shape[1]:
        raise ValueError(f"feature dim {features.shape[1]} does not match training dim {train.shape[1]}")
    kt = _kernel(features, train, model.kernel, model.beta)
    kt_centered = kt - kt.mean(axis=1, keepdims=True) - col_means[None, :] + grand
    return kt_centered @ dual - offset


def fit_cluster_cca(
    x: np.ndarray,
    y: np.ndarray,
    labels: np.ndarray,
    f: float,
    r: int,
    reg: float | None = None,
    seed: int = 0,
    target_count: int | None = None,
) -> LinearProjection:
    """CCA over cluster-expanded pairs; f = 0 reduces to the identity pairing."""
    x, y, labels = _labelled_views(x, y, labels)
    pairs = expand_pairs(labels, f=f, seed=seed, target_count=target_count)
    return fit_cca(x, y, r, reg, pairs=(pairs.audio_indices, pairs.visual_indices))


# model type -> (class, header fields); a deep model file stores its head as a linear-cca
_MODEL_TYPES = {"linear-cca": (LinearProjection, _LINEAR_FIELDS), "kcca": (KernelModel, _KERNEL_FIELDS)}


def block_names(kind: str) -> list[str]:
    """The blocks of a model of type kind, in file order: its class's AXES minus the header fields."""
    cls, fields = _MODEL_TYPES[kind]
    return [name for name in cls.AXES if name not in fields]


def encode(model, kind: str, field_prefix: str = "", block_prefix: str = "") -> tuple[dict, dict]:
    """The header fields (JSON values) and blocks (in file order) of a model of type kind, names prefixed."""
    header = {}
    for name, field_kind in _MODEL_TYPES[kind][1].items():
        value = getattr(model, name)
        header[field_prefix + name] = [float(v) for v in value] if field_kind is blockio.NUMBERS else value
    return header, {block_prefix + name: getattr(model, name) for name in block_names(kind)}


def decode(kind: str, header: dict, blocks: dict, where: str, field_prefix: str = "", block_prefix: str = ""):
    """The model that encode stored under these prefixes; ValueError if its blocks' shapes disagree."""
    cls, fields = _MODEL_TYPES[kind]
    names = block_names(kind)
    values = {
        **{name: blocks[block_prefix + name] for name in names},
        **{name: blockio.field(header, field_prefix + name, f, where) for name, f in fields.items()},
    }
    # the class's own shape check, under the names the file stores the values by
    stored = {**{name: block_prefix + name for name in names}, **{name: field_prefix + name for name in fields}}
    blockio.check_dims({stored[name]: (values[name], axes) for name, axes in cls.AXES.items()})
    return cls(**values)


def save_cca_model(model: LinearProjection | KernelModel, path: str | Path, extra: dict | None = None) -> None:
    kind = next(kind for kind, (cls, _) in _MODEL_TYPES.items() if type(model) is cls)
    fields, blocks = encode(model, kind)
    blockio.save(path, MODEL_MAGIC, {"type": kind, **fields, "config": extra or {}}, blocks)


def load_cca_model(path: str | Path) -> LinearProjection | KernelModel:
    header, blocks = blockio.load(path, MODEL_MAGIC)
    kind = blockio.field(header, "type", tuple(_MODEL_TYPES), f"{path}: model header")
    blockio.expect(path, blocks, block_names(kind))
    try:
        return decode(kind, header, blocks, f"{path}: {kind} model header")
    except (TypeError, ValueError) as exc:  # blocks whose shapes disagree
        raise FormatError(f"{path}: invalid {kind} model: {exc}") from exc
