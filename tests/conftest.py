import struct

import numpy as np
import pytest

from avembed.attention import AttentionParams, LstmParams


def planted_lstm(input_dim: int, hidden_dim: int = 4) -> LstmParams:
    """Memoryless LSTM: forget gate shut, input/output gates open, cell
    candidate reads coordinate 0 of the input. Makes the attention score a
    strictly increasing function of x_t[0]."""
    w_x = np.zeros((4, hidden_dim, input_dim))
    w_x[2, 0, 0] = 0.5  # gates by position: input, forget, cell, output
    return LstmParams(
        w_x=w_x,
        w_h=np.zeros((4, hidden_dim, hidden_dim)),
        w_c=np.zeros((3, hidden_dim, hidden_dim)),
        b=np.array([10.0, -10.0, 0.0, 10.0])[:, None] * np.ones(hidden_dim),
    )


@pytest.fixture
def planted_attention() -> AttentionParams:
    input_dim, hidden_dim = 8, 4
    w_f = np.zeros((1, hidden_dim))
    w_f[0, 0] = 1.0
    return AttentionParams(
        forward_lstm=planted_lstm(input_dim, hidden_dim),
        backward_lstm=planted_lstm(input_dim, hidden_dim),
        w_forward=w_f,
        w_backward=np.zeros((1, hidden_dim)),
        w_out=np.ones(1),
        bias=np.zeros(1),
    )


def edit_header(raw: bytes, edit) -> bytes:
    """A model or index file's bytes with its JSON header bytes replaced by edit(header bytes)."""
    (length,) = struct.unpack("<I", raw[5:9])
    new = edit(raw[9 : 9 + length])
    return raw[:5] + struct.pack("<I", len(new)) + new + raw[9 + length :]


def random_lstm(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> LstmParams:
    return LstmParams(
        w_x=rng.normal(scale=0.5, size=(4, hidden_dim, input_dim)),
        w_h=rng.normal(scale=0.5, size=(4, hidden_dim, hidden_dim)),
        w_c=rng.normal(scale=0.5, size=(3, hidden_dim, hidden_dim)),
        b=rng.normal(scale=0.5, size=(4, hidden_dim)),
    )


def random_attention(input_dim: int, hidden_dim: int, attention_dim: int, rng: np.random.Generator) -> AttentionParams:
    return AttentionParams(
        forward_lstm=random_lstm(input_dim, hidden_dim, rng),
        backward_lstm=random_lstm(input_dim, hidden_dim, rng),
        w_forward=rng.normal(size=(attention_dim, hidden_dim)),
        w_backward=rng.normal(size=(attention_dim, hidden_dim)),
        w_out=rng.normal(size=attention_dim),
        bias=rng.normal(size=attention_dim),
    )
