"""Reference implementations that the library's array paths are tested against."""

import numpy as np

from avembed.attention import LstmParams
from avembed.deep import _sigmoid
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
    # gates by position: input, forget, cell, output; peepholes: input, forget, output
    i_t = _sigmoid(p.b[0] + p.w_x[0] @ x_t + p.w_h[0] @ h_prev + p.w_c[0] @ c_prev)
    f_t = _sigmoid(p.b[1] + p.w_x[1] @ x_t + p.w_h[1] @ h_prev + p.w_c[1] @ c_prev)
    c_t = f_t * c_prev + i_t * np.tanh(p.w_x[2] @ x_t + p.w_h[2] @ h_prev + p.b[2])
    o_t = _sigmoid(p.w_x[3] @ x_t + p.w_h[3] @ h_prev + p.w_c[2] @ c_t + p.b[3])
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
