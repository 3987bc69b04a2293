"""Two-branch MLP embedding trained by maximizing total correlation.

The objective is the sum of the top-r singular values of the whitened
cross-covariance of the branch outputs, estimated per minibatch with ridge
regularization. Its closed-form gradient flows back through tanh hidden
layers and a logistic output layer; RMSProp performs the ascent. A linear
CCA head fitted on the final outputs, without dropout, defines the shared
space. The dropout rate is a training setting (TrainConfig.dropout), not part
of a branch: branch_forward takes it as an argument.

Training holds the parameters, their squared-gradient means, one block of
RMSProp scratch (2 x 32K float64, 512 KB) and one step: that step's batches,
layer caches, output gradients and parameter gradients, all dropped before
the next step gathers its batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import blockio
from .cca import LinearProjection, _covariances, _labelled_views, _paired_views
from .cca import _check_ridge, _side, _whiten, block_names, decode, encode, fit_cca, project
from .clustering import expand_pairs
from .errors import DivergenceError, FormatError

DEFAULT_AUDIO_LAYERS = (128, 128, 64, 64)
DEFAULT_VISUAL_LAYERS = (512, 512, 256, 256)

MODEL_MAGIC = b"AVDM"
# elements of a parameter per RMSProp block: 2 x 32K float64 of scratch stay in L2 across the
# update's passes (8K and 64K measured slower)
_RMSPROP_BLOCK = 1 << 15


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of -|x| only, so it never overflows; minimum(x, -x) keeps a NaN's sign, -abs would not
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@dataclass
class BranchNetwork:
    """One MLP branch: tanh hidden layers, logistic output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be non-empty and aligned")
        # layer i maps width i to width i + 1; names are those of the model file's blocks, less the side
        blockio.check_dims({
            **{f"w{i}": (w, (i, i + 1)) for i, w in enumerate(self.weights)},
            **{f"b{i}": (b, (i + 1,)) for i, b in enumerate(self.biases)},
        })

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


@dataclass
class TrainConfig:
    batch_size: int = 512
    epochs: int = 50
    learning_rate: float = 0.001
    rho: float = 0.9
    epsilon: float = 1e-8
    dropout: float = 0.2
    r: int = 30
    reg: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < self.r + 1:
            raise ValueError(
                f"batch_size ({self.batch_size}) must be >= r + 1 ({self.r + 1}) "
                "for a well-posed batch covariance"
            )
        for name in ("batch_size", "epochs", "learning_rate", "epsilon", "r"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be a finite number > 0, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        _check_ridge("reg", self.reg)


@dataclass
class DeepModel:
    audio_branch: BranchNetwork
    visual_branch: BranchNetwork
    cca_head: LinearProjection
    objective_history: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        head = self.cca_head
        # each side of the head reads what its branch's last layer outputs
        blockio.check_dims({
            "audio output layer": (self.audio_branch.weights[-1], "ia"), "head.wx": (head.wx, "ar"),
            "visual output layer": (self.visual_branch.weights[-1], "jv"), "head.wy": (head.wy, "vr"),
        })

    @property
    def r(self) -> int:
        return self.cca_head.r

    @property
    def correlations(self) -> np.ndarray:
        return self.cca_head.correlations


def init_branch(layer_dims: list[int], rng: np.random.Generator) -> BranchNetwork:
    """Glorot-uniform initialization."""
    weights, biases = [], []
    for d_in, d_out in zip(layer_dims, layer_dims[1:]):
        bound = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return BranchNetwork(weights=weights, biases=biases)


def branch_forward(
    net: BranchNetwork,
    batch: np.ndarray,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, list[dict]]:
    """Forward pass; returns (outputs, per-layer caches for backprop).

    A dropout rate above 0 applies inverted dropout to the hidden activations,
    drawing the masks from rng, so a pass without dropout needs no rescaling.
    """
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {dropout}")
    if dropout > 0.0 and rng is None:
        raise ValueError("dropout needs an rng")
    a = np.asarray(batch, dtype=np.float64)
    blockio.check_dims({"weights[0]": (net.weights[0], "dh"), "batch": (a, "nd")})
    caches: list[dict] = []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        h = _sigmoid(z) if i == last else np.tanh(z)
        mask = None
        if dropout > 0.0 and i < last:
            mask = (rng.random(h.shape) >= dropout) / (1.0 - dropout)
        caches.append({"input": a, "activated": h, "mask": mask})
        a = h if mask is None else h * mask
    return a, caches


def branch_backward(
    net: BranchNetwork, caches: list[dict], d_out: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of each weight/bias given d(objective)/d(outputs)."""
    d_w = [np.empty(0)] * len(net.weights)
    d_b = [np.empty(0)] * len(net.biases)
    grad = d_out
    for i in range(len(net.weights) - 1, -1, -1):
        cache = caches[i]
        act = cache["activated"]
        if i == len(net.weights) - 1:
            dz = grad * act * (1.0 - act)  # logistic
        else:
            if cache["mask"] is not None:
                grad = grad * cache["mask"]
            dz = grad * (1.0 - act * act)  # tanh
        d_w[i] = cache["input"].T @ dz
        d_b[i] = dz.sum(axis=0)
        if i > 0:  # the gradient of the branch input is never used
            grad = dz @ net.weights[i].T
    return d_w, d_b


def _whitened_svd(fx: np.ndarray, fy: np.ndarray, reg: float | None):
    st = _covariances(fx, fy, reg)
    return (st.zx, st.zy, *_whiten(st, full=False))


def _clipped_sum(s: np.ndarray, r: int) -> float:
    return float(np.minimum(s[:r], 1.0).sum())


def _gradient(r: int, xc, yc, isx, isy, u, s, vt) -> tuple[np.ndarray, np.ndarray]:
    """d(_clipped_sum)/d(views) from the pieces of one _whitened_svd."""
    n = xc.shape[0]
    # components at the clip boundary contribute no gradient
    active = s[:r] < 1.0
    u_r = u[:, :r][:, active]
    v_r = vt[:r, :].T[:, active]
    s_r = s[:r][active]
    delta12 = isx @ u_r @ v_r.T @ isy
    delta11 = -0.5 * (isx @ (u_r * s_r) @ u_r.T @ isx)
    delta22 = -0.5 * (isy @ (v_r * s_r) @ v_r.T @ isy)
    d_fx = (2.0 * xc @ delta11 + yc @ delta12.T) / (n - 1)
    d_fy = (2.0 * yc @ delta22 + xc @ delta12) / (n - 1)
    return d_fx, d_fy


def _objective_and_grad(
    fx: np.ndarray, fy: np.ndarray, r: int, reg: float | None
) -> tuple[float, np.ndarray, np.ndarray]:
    """total_correlation and corr_gradient from one whitening and SVD; r is not checked: TrainConfig bounds it."""
    parts = _whitened_svd(fx, fy, reg)
    return (_clipped_sum(parts[5], r), *_gradient(r, *parts))


def total_correlation(fx: np.ndarray, fy: np.ndarray, r: int, reg: float | None = None) -> float:
    """Sum of the top-r singular values of the whitened cross-covariance, each clipped to 1."""
    fx, fy = _paired_views(fx, fy, r)
    return _clipped_sum(_whitened_svd(fx, fy, reg)[5], r)


def corr_gradient(
    fx: np.ndarray, fy: np.ndarray, r: int, reg: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of total_correlation with respect to each view's entries."""
    fx, fy = _paired_views(fx, fy, r)
    return _gradient(r, *_whitened_svd(fx, fy, reg))


def _rmsprop(params, grads, sq_means, scratch: np.ndarray, cfg: TrainConfig) -> None:
    """One RMSProp ascent step, in place: c = rho*c + (1-rho)*g*g; p += lr*g / (sqrt(c) + eps).

    Each parameter's flat view is walked in blocks of scratch's width, running the
    operations in the order of the formula on the block, so the block stays in cache
    across them. They are elementwise, so the blocks give the whole-array bits.
    """
    width = scratch.shape[1]
    for p, g, c in zip(params, grads, sq_means):
        p, g, c = p.reshape(-1), g.reshape(-1), c.reshape(-1)  # views: all three are contiguous
        for lo in range(0, p.size, width):
            blk = slice(lo, lo + width)
            pb, gb, cb = p[blk], g[blk], c[blk]
            t, d = scratch[:, : pb.size]
            cb *= cfg.rho
            np.multiply(1.0 - cfg.rho, gb, out=t)
            t *= gb
            cb += t
            np.sqrt(cb, out=d)
            d += cfg.epsilon
            np.multiply(cfg.learning_rate, gb, out=t)
            t /= d
            pb += t


def _train_on_pairs(
    x: np.ndarray,
    y: np.ndarray,
    a_idx: np.ndarray,
    v_idx: np.ndarray,
    cfg: TrainConfig,
    audio_layers: tuple[int, ...],
    visual_layers: tuple[int, ...],
) -> DeepModel:
    """Shared training loop; pairs are (a_idx[i], v_idx[i]) rows of x and y."""
    # last-bit chaotic: first-layer dW * (1 + 2**-52) moves ordering seed 0's sdcca MAP 0.6883 -> 0.6759
    for name, widths in (("audio_layers", audio_layers), ("visual_layers", visual_layers)):
        if not widths or min(widths) < 1:
            raise ValueError(f"{name} must be one or more widths >= 1, got {tuple(widths)}")
        if cfg.r > widths[-1]:
            raise ValueError(f"r={cfg.r} exceeds the output width {widths[-1]} of {name}")
    n = a_idx.shape[0]
    if n < cfg.batch_size:
        raise ValueError(f"need at least batch_size={cfg.batch_size} pairs, got {n}")

    rng = np.random.default_rng(cfg.seed)
    audio = init_branch([x.shape[1], *audio_layers], rng)
    visual = init_branch([y.shape[1], *visual_layers], rng)
    # RMSProp over both branches: parameters, squared-gradient means, one block of scratch
    params = audio.weights + audio.biases + visual.weights + visual.biases
    sq_means = [np.zeros_like(p) for p in params]
    scratch = np.empty((2, min(_RMSPROP_BLOCK, max(p.size for p in params))))

    history: list[float] = []
    n_batches = n // cfg.batch_size  # trailing partial batch is dropped
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        batch_objs = []
        for b in range(n_batches):
            sel = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            fa, cache_a = branch_forward(audio, x[a_idx[sel]], cfg.dropout, rng)
            fv, cache_v = branch_forward(visual, y[v_idx[sel]], cfg.dropout, rng)
            obj, d_fa, d_fv = _objective_and_grad(fa, fv, cfg.r, cfg.reg)
            if not np.isfinite(obj):
                raise DivergenceError(f"non-finite objective at epoch {epoch}, batch {b}")
            dw_a, db_a = branch_backward(audio, cache_a, d_fa)
            dw_v, db_v = branch_backward(visual, cache_v, d_fv)
            del fa, fv, cache_a, cache_v, d_fa, d_fv  # the caches hold the batches
            _rmsprop(params, dw_a + db_a + dw_v + db_v, sq_means, scratch, cfg)
            del dw_a, db_a, dw_v, db_v  # nothing of this step is left when the next gathers its batch
            batch_objs.append(obj)
        history.append(float(np.mean(batch_objs)))

    # head fitted once, on outputs without dropout over the full training pairing
    out_a = branch_forward(audio, x)[0]
    out_v = branch_forward(visual, y)[0]
    head = fit_cca(out_a, out_v, cfg.r, cfg.reg, pairs=(a_idx, v_idx))
    return DeepModel(audio_branch=audio, visual_branch=visual, cca_head=head, objective_history=history)


def train_dcca(
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    audio_layers: tuple[int, ...] = DEFAULT_AUDIO_LAYERS,
    visual_layers: tuple[int, ...] = DEFAULT_VISUAL_LAYERS,
) -> DeepModel:
    """Minibatch ascent on total correlation through both branches.

    Deterministic for a given cfg.seed: initialization, shuffling, and
    dropout all draw from one seeded stream. The CCA head is fitted once, on
    full-dataset outputs without dropout after the last epoch.
    """
    x, y = _paired_views(x, y)
    idx = np.arange(x.shape[0])
    return _train_on_pairs(x, y, idx, idx, cfg, audio_layers, visual_layers)


def train_sdcca(
    x: np.ndarray,
    y: np.ndarray,
    labels: np.ndarray,
    f: float,
    cfg: TrainConfig,
    target_pairs: int | None = None,
    audio_layers: tuple[int, ...] = DEFAULT_AUDIO_LAYERS,
    visual_layers: tuple[int, ...] = DEFAULT_VISUAL_LAYERS,
) -> DeepModel:
    """DCCA over cluster-expanded pairs; f = 0 reproduces the plain pairing."""
    x, y, labels = _labelled_views(x, y, labels)
    pairs = expand_pairs(labels, f=f, seed=cfg.seed, target_pairs=target_pairs)
    return _train_on_pairs(
        x, y, pairs.audio_indices, pairs.visual_indices, cfg, audio_layers, visual_layers
    )


def embed(model: DeepModel, features: np.ndarray, side: str) -> np.ndarray:
    """Branch forward without dropout, then the CCA head projection for that side."""
    branch = model.audio_branch if _side(side) == "x" else model.visual_branch
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    out, _ = branch_forward(branch, features)
    return project(model.cca_head, out, side)


def save_deep_model(model: DeepModel, path: str | Path, extra: dict | None = None) -> None:
    head_fields, head_blocks = encode(model.cca_head, "linear-cca", "head_", "head.")
    header = {
        "type": "dcca",
        **head_fields,
        "objective_history": model.objective_history,
        "n_audio_layers": len(model.audio_branch.weights),
        "n_visual_layers": len(model.visual_branch.weights),
        "config": extra or {},
    }
    blocks = {}
    for side, net in (("audio", model.audio_branch), ("visual", model.visual_branch)):
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            blocks[f"{side}.w{i}"], blocks[f"{side}.b{i}"] = w, b
    blockio.save(path, MODEL_MAGIC, header, {**blocks, **head_blocks})


def _block_names(n_audio: int, n_visual: int) -> list[str]:
    """The blocks of a deep model file: each layer's weights and bias, per branch, then the CCA head's."""
    layers = [
        f"{side}.{kind}{i}"
        for side, n in (("audio", n_audio), ("visual", n_visual))
        for i in range(n)
        for kind in "wb"
    ]
    return layers + [f"head.{name}" for name in block_names("linear-cca")]


def load_deep_model(path: str | Path) -> DeepModel:
    header, blocks = blockio.load(path, MODEL_MAGIC)
    if header.get("type") != "dcca":
        raise FormatError(f"{path}: not a deep model file")
    where = f"{path}: dcca model header"
    get = partial(blockio.field, header, where=where)
    n_a, n_v = get("n_audio_layers", int), get("n_visual_layers", int)
    # two blocks per layer: a count the file cannot hold is rejected before any name is built
    for key, n in (("n_audio_layers", n_a), ("n_visual_layers", n_v)):
        if not 0 <= n <= len(blocks) // 2:
            raise FormatError(f"{where} key {key!r} is {n}, but the file holds {len(blocks)} blocks")
    blockio.expect(path, blocks, _block_names(n_a, n_v))
    history = get("objective_history", blockio.NUMBERS, nullable=True)
    branches = []
    for side, n in (("audio", n_a), ("visual", n_v)):
        try:
            weights = [blocks[f"{side}.w{i}"] for i in range(n)]
            biases = [blocks[f"{side}.b{i}"] for i in range(n)]
            branches.append(BranchNetwork(weights=weights, biases=biases))
        except ValueError as exc:  # blocks whose shapes disagree
            raise FormatError(f"{path}: invalid dcca model: {side}.{exc}") from exc
    try:
        return DeepModel(
            *branches,
            cca_head=decode("linear-cca", header, blocks, where, "head_", "head."),
            objective_history=[] if history is None else history.tolist(),
        )
    except (TypeError, ValueError) as exc:  # blocks whose shapes disagree
        raise FormatError(f"{path}: invalid dcca model: {exc}") from exc
