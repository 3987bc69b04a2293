"""Reference implementations that the library's array paths are tested against."""

import numpy as np

from avembed.attention import LstmParams, _sigmoid
from avembed.errors import UndefinedSimilarityError


def lstm_step(
    x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, p: LstmParams
) -> tuple[np.ndarray, np.ndarray]:
    """One step of one peephole LSTM direction, one gate at a time; returns (h_t, c_t)."""
    if x_t.shape != (p.input_dim,) or h_prev.shape != (p.hidden_dim,) or c_prev.shape != (p.hidden_dim,):
        raise ValueError(
            f"dimension mismatch: x {x_t.shape}, h {h_prev.shape}, c {c_prev.shape} "
            f"vs params ({p.hidden_dim}, {p.input_dim})"
        )
    i_t = _sigmoid(p.b["input"] + p.w_x["input"] @ x_t + p.w_h["input"] @ h_prev + p.w_c["input"] @ c_prev)
    f_t = _sigmoid(p.b["forget"] + p.w_x["forget"] @ x_t + p.w_h["forget"] @ h_prev + p.w_c["forget"] @ c_prev)
    c_t = f_t * c_prev + i_t * np.tanh(p.w_x["cell"] @ x_t + p.w_h["cell"] @ h_prev + p.b["cell"])
    o_t = _sigmoid(p.w_x["output"] @ x_t + p.w_h["output"] @ h_prev + p.w_c["output"] @ c_t + p.b["output"])
    h_t = o_t * np.tanh(c_t)
    return h_t, c_t


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """a . b / (|a| |b|) of two vectors; zero-norm input is an error, never a silent 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"vectors must share one dimension, got {a.shape} and {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise UndefinedSimilarityError("cosine similarity is undefined for a zero-norm vector")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))
