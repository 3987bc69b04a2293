"""BiLSTM attention scorer over 3-second audio chunks and top-k selection.

The recurrence uses peephole connections: the input and forget gates see the
previous cell state, the output gate sees the current one. Both directions run
as one recurrence over a joint state [h_forward | h_backward]: step t advances
the forward LSTM on chunk t and the backward LSTM on chunk T-1-t. Per-chunk
scores are squashed to a distribution and pooled to macro-chunk scores.

A direction's weights are four arrays with the gates on the leading axis
(LstmParams); the weights file holds them as one JSON key per gate and array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blockio
from .errors import FormatError, ValidationError

_GATES = ("input", "forget", "cell", "output")
_PEEPHOLE_GATES = ("input", "forget", "output")
# The joint recurrence computes sigmoid(z) as 0.5 * tanh(z / 2) + 0.5, so the
# rows of the sigmoid gates carry the factor 1/2, which is exact in floating point.
_GATE_SCALE = np.array([0.5, 0.5, 1.0, 0.5])
# each array of a direction: its name, the gates on its leading axis, the axes of one gate's slice
_LAYOUT = (("w_x", _GATES, "hd"), ("w_h", _GATES, "hh"), ("w_c", _PEEPHOLE_GATES, "hh"), ("b", _GATES, "h"))
_WEIGHTS_VERSION = 1
DEFAULT_DIM = 16  # the hidden and the attention dims of the stand-in scorer
_RANDOM_SCALE = 0.2  # and the standard deviation of its random weights


@dataclass
class LstmParams:
    """Weights of one LSTM direction, the gates stacked on the leading axis.

    w_x: (4, hidden, input_dim), w_h: (4, hidden, hidden) and b: (4, hidden),
    gates in _GATES order; w_c: (3, hidden, hidden), peepholes in
    _PEEPHOLE_GATES order. w_x.reshape(-1, input_dim) is the (4 hidden,
    input_dim) input matrix.
    """

    w_x: np.ndarray
    w_h: np.ndarray
    w_c: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        # g gates, p peephole gates, h hidden units, d inputs
        blockio.check_dims({"w_x": (self.w_x, "ghd"), "w_h": (self.w_h, "ghh"),
                            "w_c": (self.w_c, "phh"), "b": (self.b, "gh")})
        if (len(self.w_x), len(self.w_c)) != (len(_GATES), len(_PEEPHOLE_GATES)):
            raise ValueError(f"an LSTM direction has 4 gates and 3 peepholes, got {len(self.w_x)} and {len(self.w_c)}")
        if not all(blockio.all_finite(a) for a in (self.w_x, self.w_h, self.w_c, self.b)):
            raise ValidationError("non-finite LSTM parameter")

    @property
    def hidden_dim(self) -> int:
        return self.w_x.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[2]


@dataclass
class AttentionParams:
    """BiLSTM plus the attention score head u_t = w_out . tanh(W_f h_tf + W_b h_tb + beta)."""

    forward_lstm: LstmParams
    backward_lstm: LstmParams
    w_forward: np.ndarray
    w_backward: np.ndarray
    w_out: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        # g gates, d inputs, f and b the hidden units of each direction, m attention units
        blockio.check_dims({
            "forward_lstm.w_x": (self.forward_lstm.w_x, "gfd"), "backward_lstm.w_x": (self.backward_lstm.w_x, "gbd"),
            "w_forward": (self.w_forward, "mf"), "w_backward": (self.w_backward, "mb"),
            "w_out": (self.w_out, "m"), "bias": (self.bias, "m"),
        })
        # Both directions stacked into one recurrence over S = [h | c], built here once, so the
        # arrays above must not be mutated afterwards. With n = h_forward + h_backward joint
        # units, pre-activations are one block of n rows per gate in _GATES order, each block
        # holding the forward direction's units, then the backward direction's:
        #   _w_x: per direction, (4 h_dir, input_dim) input weights; _b: per direction, (4 h_dir,);
        #   _w_s: (4n, 2n) block-diagonal recurrent weights on [h_{t-1} | c_{t-1}]
        #         (the c columns hold the input/forget peepholes, zero elsewhere);
        #   _w_co: (n, n) block-diagonal output peephole on c_t;
        #   _w_head: (m, n) = [w_forward | w_backward].
        # Gate rows of the sigmoid gates are pre-scaled by 1/2.
        dirs = (self.forward_lstm, self.backward_lstm)
        n = sum(d.hidden_dim for d in dirs)
        w_s = np.zeros((4, n, 2, n))  # gate, unit, [h | c], unit: the (4n, 2n) layout
        self._w_co = np.zeros((n, n))
        off = 0
        for d in dirs:
            units = slice(off, off + d.hidden_dim)
            w_s[:, units, 0, units] = _GATE_SCALE[:, None, None] * d.w_h
            w_s[:2, units, 1, units] = _GATE_SCALE[:2, None, None] * d.w_c[:2]
            self._w_co[units, units] = _GATE_SCALE[3] * d.w_c[2]
            off += d.hidden_dim
        self._w_x = tuple((_GATE_SCALE[:, None, None] * d.w_x).reshape(-1, d.input_dim) for d in dirs)
        self._b = tuple((_GATE_SCALE[:, None] * d.b).ravel() for d in dirs)
        self._w_s = w_s.reshape(4 * n, 2 * n)
        self._w_head = np.hstack([self.w_forward, self.w_backward])


def bilstm_states(features: np.ndarray, p: AttentionParams) -> np.ndarray:
    """Run both directions from zero state over a (T, input_dim) sequence.

    Returns the (T, h_forward + h_backward) joint states in original time
    order: columns [:h_forward] forward, the rest backward.
    """
    x = np.asarray(features, dtype=np.float64)
    blockio.check_dims({"forward_lstm.w_x": (p.forward_lstm.w_x, "ghd"), "features": (x, "td")})
    if x.shape[0] == 0:
        raise ValidationError("empty chunk sequence")
    steps = x.shape[0]
    # one GEMM per direction; the backward direction reads the reversed sequence
    z_in = np.concatenate(
        [
            (seq @ w.T + b).reshape(steps, 4, -1)
            for seq, w, b in zip((x, x[::-1]), p._w_x, p._b)
        ],
        axis=2,
    ).reshape(steps, -1)
    n = p._w_co.shape[0]
    w_s, w_co = p._w_s, p._w_co
    # the step buffers, allocated once: every step writes them in place
    state = np.zeros(2 * n)
    h, c = state[:n], state[n:]
    z = np.empty(4 * n)
    tanh_gates, sig_gates = z[: 3 * n], z[: 2 * n]
    i, f, g, o = z[:n], z[n : 2 * n], z[2 * n : 3 * n], z[3 * n :]
    tmp = np.empty(n)
    out = np.empty((steps, n))
    for t in range(steps):
        np.dot(w_s, state, out=z)
        z += z_in[t]
        np.tanh(tanh_gates, out=tanh_gates)
        sig_gates *= 0.5
        sig_gates += 0.5
        c *= f
        np.multiply(i, g, out=tmp)
        c += tmp
        np.dot(w_co, c, out=tmp)
        tmp += o
        np.tanh(tmp, out=tmp)
        tmp *= 0.5
        tmp += 0.5
        np.tanh(c, out=h)
        h *= tmp
        out[t] = h
    h_fwd = p.forward_lstm.hidden_dim
    out[:, h_fwd:] = out[::-1, h_fwd:].copy()
    return out


def score_states(states: np.ndarray, p: AttentionParams) -> np.ndarray:
    """Attention scores u_t = w_out . tanh(W_f h_tf + W_b h_tb + beta) for all t at once."""
    return np.tanh(states @ p._w_head.T + p.bias) @ p.w_out


def attention_distribution(u: np.ndarray) -> np.ndarray:
    """Softmax with max-subtraction for stability."""
    u = np.asarray(u, dtype=np.float64)
    if not blockio.all_finite(u):
        raise ValidationError("non-finite attention scores")
    shifted = u - u.max()
    e = np.exp(shifted)
    return e / e.sum()


def select_top_k(theta: np.ndarray, c: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pool base-chunk attention mass into c macro-chunks by max and pick the top k.

    Returns (selected, macro_scores): the (k,) int64 kept macro-chunks in temporal
    (ascending) order, ties broken toward the lower index, and the (c,) macro-chunk scores.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if c < 1 or theta.shape[0] % c != 0:
        raise ValueError(f"unsupported chunk count {c} for {theta.shape[0]} base chunks")
    if not 1 <= k <= c:
        raise ValueError(f"k must be in [1, {c}], got {k}")
    macro_scores = theta.reshape(c, -1).max(axis=1)
    return np.sort(np.argsort(-macro_scores, kind="stable")[:k]), macro_scores


def _lstm_to_json(p: LstmParams) -> dict:
    """The weights file's keys of one direction: w_x_<gate>, w_h_<gate>, b_<gate> per gate, then w_c_<gate>."""
    out = {f"{name}_{g}": getattr(p, name)[i].tolist() for i, g in enumerate(_GATES) for name in ("w_x", "w_h", "b")}
    return out | {f"w_c_{g}": w.tolist() for g, w in zip(_PEEPHOLE_GATES, p.w_c)}


def _lstm_from_json(obj: dict, key: str, where: str) -> LstmParams:
    """The LSTM direction under obj[key]; each per-gate array must hold finite numbers and is
    checked under its key, a shape error prefixed by the direction's."""
    lstm = blockio.field(obj, key, dict, where)
    arrays = {f"{name}_{g}": (blockio.field(lstm, f"{name}_{g}", blockio.NUMBERS, f"{where} {key}"), axes)
              for name, gates, axes in _LAYOUT for g in gates}
    try:
        blockio.check_dims(arrays)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc
    return LstmParams(**{name: np.stack([arrays[f"{name}_{g}"][0] for g in gates]) for name, gates, _ in _LAYOUT})


def save_attention_params(p: AttentionParams, path: str | Path) -> None:
    obj = {
        "version": _WEIGHTS_VERSION,
        "forward_lstm": _lstm_to_json(p.forward_lstm),
        "backward_lstm": _lstm_to_json(p.backward_lstm),
        "w_forward": p.w_forward.tolist(),
        "w_backward": p.w_backward.tolist(),
        "w_out": p.w_out.tolist(),
        "bias": p.bias.tolist(),
    }
    Path(path).write_text(json.dumps(obj), encoding="utf-8")


def load_attention_params(path: str | Path) -> AttentionParams:
    obj = blockio.read_json_object(path, "attention weights")
    where = f"{path}: attention weights"
    version = blockio.field(obj, "version", int, where)
    if version != _WEIGHTS_VERSION:
        raise FormatError(f"{where} key 'version' is {version}; only version {_WEIGHTS_VERSION} is supported")
    try:
        return AttentionParams(
            forward_lstm=_lstm_from_json(obj, "forward_lstm", where),
            backward_lstm=_lstm_from_json(obj, "backward_lstm", where),
            **{k: blockio.field(obj, k, blockio.NUMBERS, where) for k in ("w_forward", "w_backward", "w_out", "bias")},
        )
    except ValueError as exc:  # arrays whose shapes disagree
        raise FormatError(f"{path}: {exc}") from exc


def random_lstm_params(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> LstmParams:
    h, s = hidden_dim, _RANDOM_SCALE
    return LstmParams(w_x=s * rng.normal(size=(4, h, input_dim)), w_h=s * rng.normal(size=(4, h, h)),
                      w_c=s * rng.normal(size=(3, h, h)), b=np.zeros((4, h)))


def random_attention_params(
    input_dim: int, hidden_dim: int = DEFAULT_DIM, attention_dim: int = DEFAULT_DIM, seed: int = 0
) -> AttentionParams:
    """Seeded stand-in scorer for pipelines that have no trained weights file."""
    rng = np.random.default_rng(seed)
    return AttentionParams(
        forward_lstm=random_lstm_params(input_dim, hidden_dim, rng),
        backward_lstm=random_lstm_params(input_dim, hidden_dim, rng),
        w_forward=_RANDOM_SCALE * rng.normal(size=(attention_dim, hidden_dim)),
        w_backward=_RANDOM_SCALE * rng.normal(size=(attention_dim, hidden_dim)),
        w_out=_RANDOM_SCALE * rng.normal(size=attention_dim),
        bias=np.zeros(attention_dim),
    )
