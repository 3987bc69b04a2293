import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avembed.attention import (
    AttentionParams,
    LstmParams,
    attention_distribution,
    bilstm_states,
    load_attention_params,
    random_attention_params,
    save_attention_params,
    score_states,
    select_top_k,
)
from avembed.data import FeatureSequence, pool_chunks, video_level_audio
from avembed.deep import _sigmoid
from avembed.errors import FormatError, ValidationError
from avembed.pipeline import representation_from_selection
from conftest import planted_lstm, random_attention, random_lstm
from oracles import chained_steps, lstm_step, top_k


def _zero_lstm(input_dim=3, hidden_dim=4):
    return LstmParams(
        w_x=np.zeros((4, hidden_dim, input_dim)),
        w_h=np.zeros((4, hidden_dim, hidden_dim)),
        w_c=np.zeros((3, hidden_dim, hidden_dim)),
        b=np.zeros((4, hidden_dim)),
    )


def _oracle_lstm_step(x, h_prev, c_prev, p):
    """Straight-line scalar transcription of the recurrence, one component at a time.

    Gates by position: input 0, forget 1, cell 2, output 3; peepholes: input 0, forget 1, output 2.
    """
    hd = p.hidden_dim
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i_t = np.zeros(hd)
    f_t = np.zeros(hd)
    c_t = np.zeros(hd)
    o_t = np.zeros(hd)
    h_t = np.zeros(hd)
    for a in range(hd):
        i_t[a] = sig(
            p.b[0][a]
            + sum(p.w_x[0][a, j] * x[j] for j in range(len(x)))
            + sum(p.w_h[0][a, j] * h_prev[j] for j in range(hd))
            + sum(p.w_c[0][a, j] * c_prev[j] for j in range(hd))
        )
        f_t[a] = sig(
            p.b[1][a]
            + sum(p.w_x[1][a, j] * x[j] for j in range(len(x)))
            + sum(p.w_h[1][a, j] * h_prev[j] for j in range(hd))
            + sum(p.w_c[1][a, j] * c_prev[j] for j in range(hd))
        )
        cand = math.tanh(
            sum(p.w_x[2][a, j] * x[j] for j in range(len(x)))
            + sum(p.w_h[2][a, j] * h_prev[j] for j in range(hd))
            + p.b[2][a]
        )
        c_t[a] = f_t[a] * c_prev[a] + i_t[a] * cand
    for a in range(hd):
        o_t[a] = sig(
            sum(p.w_x[3][a, j] * x[j] for j in range(len(x)))
            + sum(p.w_h[3][a, j] * h_prev[j] for j in range(hd))
            + sum(p.w_c[2][a, j] * c_t[j] for j in range(hd))
            + p.b[3][a]
        )
        h_t[a] = o_t[a] * math.tanh(c_t[a])
    return h_t, c_t


def _masked_sigmoid(x):
    """Reference sigmoid: two exps over boolean-masked halves."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_bits_equal_the_masked_form(self):
        edges = [0.0, 1e-300, 709.0, 745.0, 1000.0, np.inf, np.nan]
        x = np.concatenate([np.random.default_rng(0).normal(scale=5.0, size=1000), edges, np.negative(edges)])
        # neither form may exp a positive argument, so nothing overflows; exp of a
        # large negative argument underflows to a subnormal or 0 in both, as it should
        with np.errstate(all="raise", under="ignore"):
            got = _sigmoid(x)
            want = _masked_sigmoid(x)
            with pytest.raises(FloatingPointError):
                1.0 / (1.0 + np.exp(-x))  # the unguarded form overflows at -1000
        assert np.signbit(x[-1]) and not np.signbit(x[-8])  # both NaN signs are covered
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestLstmStep:
    """The per-step reference in oracles.py against the scalar transcription above."""

    def test_all_zero_params_give_zero_state(self):
        p = _zero_lstm()
        h, c = lstm_step(np.ones(3), np.zeros(4), np.zeros(4), p)
        assert np.all(h == 0) and np.all(c == 0)

    def test_hidden_state_bounded(self):
        rng = np.random.default_rng(0)
        p = random_lstm(5, 6, rng)
        h = np.zeros(6)
        c = np.zeros(6)
        for _ in range(50):
            h, c = lstm_step(rng.normal(size=5), h, c, p)
            assert np.all(np.abs(h) < 1.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            p = random_lstm(4, 4, rng)
            x = rng.normal(size=4)
            h_prev = rng.uniform(-0.9, 0.9, size=4)
            c_prev = rng.normal(size=4)
            h, c = lstm_step(x, h_prev, c_prev, p)
            h_ref, c_ref = _oracle_lstm_step(x, h_prev, c_prev, p)
            np.testing.assert_allclose(h, h_ref, atol=1e-12)
            np.testing.assert_allclose(c, c_ref, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        p = _zero_lstm(3, 4)
        with pytest.raises(ValueError):
            lstm_step(np.zeros(5), np.zeros(4), np.zeros(4), p)

    def test_gate_count_checked(self):
        p = _zero_lstm()
        with pytest.raises(ValueError, match="4 gates and 3 peepholes, got 3 and 3"):
            LstmParams(w_x=p.w_x[:3], w_h=p.w_h[:3], w_c=p.w_c, b=p.b[:3])


def _planted_attention(input_dim, hidden_f, hidden_b, rng):
    return AttentionParams(
        forward_lstm=planted_lstm(input_dim, hidden_f),
        backward_lstm=planted_lstm(input_dim, hidden_b),
        w_forward=rng.normal(size=(3, hidden_f)),
        w_backward=rng.normal(size=(3, hidden_b)),
        w_out=rng.normal(size=3),
        bias=rng.normal(size=3),
    )


def _random_attention(input_dim, hidden_f, hidden_b, rng):
    p = random_attention(input_dim, hidden_f, 3, rng)
    backward = random_lstm(input_dim, hidden_b, rng)
    return AttentionParams(p.forward_lstm, backward, p.w_forward, rng.normal(size=(3, hidden_b)), p.w_out, p.bias)


class TestJointRecurrence:
    @pytest.mark.parametrize("length", [1, 2, 7, 73])
    @pytest.mark.parametrize("hidden", [(1, 1), (4, 4), (16, 16), (3, 5)])
    @pytest.mark.parametrize("make", [_random_attention, _planted_attention])
    def test_matches_chained_steps(self, make, hidden, length):
        rng = np.random.default_rng(100 * length + 10 * hidden[0] + hidden[1])
        p = make(6, *hidden, rng)
        feats = rng.uniform(-2, 2, size=(length, 6))
        ref_states, ref_scores = chained_steps(feats, p)
        states = bilstm_states(feats, p)
        np.testing.assert_allclose(states, ref_states, rtol=0, atol=1e-12)
        np.testing.assert_allclose(score_states(states, p), ref_scores, rtol=0, atol=1e-12)

    def test_empty_sequence_rejected(self):
        p = random_attention(3, 4, 2, np.random.default_rng(16))
        with pytest.raises(ValidationError):
            bilstm_states(np.empty((0, 3)), p)

    def test_input_dim_mismatch_raises(self):
        p = random_attention(3, 4, 2, np.random.default_rng(17))
        with pytest.raises(ValueError):
            bilstm_states(np.zeros((5, 4)), p)


class TestBilstm:
    def test_single_step_symmetry(self):
        rng = np.random.default_rng(1)
        lstm = random_lstm(3, 4, rng)
        p = AttentionParams(
            forward_lstm=lstm,
            backward_lstm=lstm,
            w_forward=np.eye(4)[:2],
            w_backward=np.eye(4)[:2],
            w_out=np.ones(2),
            bias=np.zeros(2),
        )
        states = bilstm_states(rng.normal(size=(1, 3)), p)
        np.testing.assert_allclose(states[0, :4], states[0, 4:], atol=1e-12)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(2)
        fwd = random_lstm(3, 4, rng)
        bwd = random_lstm(3, 4, rng)
        head = dict(w_forward=np.eye(4)[:1], w_backward=np.eye(4)[:1], w_out=np.ones(1), bias=np.zeros(1))
        p = AttentionParams(forward_lstm=fwd, backward_lstm=bwd, **head)
        p_swapped = AttentionParams(forward_lstm=bwd, backward_lstm=fwd, **head)
        seq = rng.normal(size=(6, 3))
        states = bilstm_states(seq, p)
        states_rev = bilstm_states(seq[::-1], p_swapped)
        for t in range(6):
            np.testing.assert_allclose(states[t, :4], states_rev[5 - t, 4:], atol=1e-12)
            np.testing.assert_allclose(states[t, 4:], states_rev[5 - t, :4], atol=1e-12)

    def test_forward_states_equal_chained_steps(self):
        rng = np.random.default_rng(3)
        p = random_attention(3, 5, 2, rng)
        seq = rng.normal(size=(5, 3))
        np.testing.assert_allclose(bilstm_states(seq, p)[:, :5], chained_steps(seq, p)[0][:, :5], atol=1e-12)


class TestChunkFeature:
    """The BiLSTM input of a chunk is the max over its frames (pool_chunks' maxes)."""

    def test_identical_frames(self):
        frame = np.arange(6, dtype=np.float32)
        _, maxes = pool_chunks(np.tile(frame, (3, 1)), 3)
        assert np.allclose(maxes[0], frame)

    def test_disjoint_support(self):
        _, maxes = pool_chunks(np.eye(3, dtype=np.float32), 3)
        assert np.allclose(maxes[0], np.ones(3))

    def test_per_column_scan(self):
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(3, 128)).astype(np.float32)
        expected = np.array([max(frames[i, j] for i in range(3)) for j in range(128)])
        np.testing.assert_allclose(pool_chunks(frames, 3)[1][0], expected)


class TestAttentionScores:
    def test_zero_output_weights(self):
        rng = np.random.default_rng(6)
        p = random_attention(3, 4, 2, rng)
        p = AttentionParams(p.forward_lstm, p.backward_lstm, p.w_forward, p.w_backward, np.zeros(2), p.bias)
        states = bilstm_states(rng.normal(size=(4, 3)), p)
        assert np.all(score_states(states, p) == 0)

    def test_identical_states_constant_scores(self):
        rng = np.random.default_rng(7)
        p = random_attention(3, 4, 2, rng)
        h = rng.normal(size=4)
        u = score_states(np.tile(np.concatenate([h, h]), (5, 1)), p)
        assert np.allclose(u, u[0])

    def test_matches_second_transcription(self):
        rng = np.random.default_rng(8)
        p = random_attention(3, 4, 3, rng)
        states = bilstm_states(rng.normal(size=(6, 3)), p)
        u = score_states(states, p)
        for t, (hf, hb) in enumerate(zip(states[:, :4], states[:, 4:])):
            pre = [
                sum(p.w_forward[m, j] * hf[j] for j in range(4))
                + sum(p.w_backward[m, j] * hb[j] for j in range(4))
                + p.bias[m]
                for m in range(3)
            ]
            expected = sum(p.w_out[m] * math.tanh(pre[m]) for m in range(3))
            assert abs(u[t] - expected) < 1e-12


class TestAttentionDistribution:
    def test_uniform(self):
        np.testing.assert_allclose(attention_distribution(np.zeros(3)), np.full(3, 1 / 3))

    def test_shift_invariance(self):
        u = np.array([0.3, -1.2, 2.0, 0.0])
        np.testing.assert_allclose(
            attention_distribution(u), attention_distribution(u + 123.4), atol=1e-12
        )

    def test_known_values(self):
        theta = attention_distribution(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(theta, [0.09003, 0.24473, 0.66524], atol=1e-5)

    @given(st.lists(st.floats(-512, 512), min_size=1, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_probability_vector_property(self, scores):
        theta = attention_distribution(np.array(scores))
        assert np.all(theta >= 0)
        assert abs(theta.sum() - 1.0) <= 1e-9


class TestSelectTopK:
    def test_mass_in_last_third_selects_third_chunk(self):
        theta = np.full(72, 0.1 / 71)
        theta[60] = 0.9
        selected, _ = select_top_k(theta / theta.sum(), c=3, k=1)
        assert selected.tolist() == [2]

    def test_select_all(self):
        theta = np.random.default_rng(9).dirichlet(np.ones(72))
        selected, _ = select_top_k(theta, c=6, k=6)
        assert selected.tolist() == list(range(6))

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            theta = rng.dirichlet(np.ones(72))
            selected, _ = select_top_k(theta, c=9, k=3)
            assert selected.tolist() == top_k(theta, 9, 3)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        theta = rng.dirichlet(np.ones(36))
        base, _ = select_top_k(theta, 6, 2)
        # argmax sets survive any strictly monotone transform of the scores
        squashed = np.exp(2.5 * theta)
        squashed = squashed / squashed.sum()
        assert np.array_equal(select_top_k(squashed, 6, 2)[0], base)

    def test_tie_break_lower_index(self):
        theta = np.full(6, 1 / 6)
        assert select_top_k(theta, 3, 2)[0].tolist() == [0, 1]

    def test_bad_args(self):
        theta = np.full(72, 1 / 72)
        with pytest.raises(ValueError):
            select_top_k(theta, 5, 1)  # 72 % 5 != 0
        with pytest.raises(ValueError):
            select_top_k(theta, 3, 4)  # k > c


class TestQueryRepresentation:
    """Selected-chunk query vectors come from representation_from_selection over
    the 3-frame chunk means; mean-mode ones from video_level_audio."""

    def _audio(self, n=216, d=8, seed=0):
        rng = np.random.default_rng(seed)
        return FeatureSequence("v", "audio", rng.normal(size=(n, d)).astype(np.float32))

    @staticmethod
    def _rep(seq, selected, c):
        means, _ = pool_chunks(seq.frames, 3)
        return representation_from_selection(means, selected, c)

    def test_full_selection_equals_mean_mode(self):
        seq = self._audio()
        theta = np.full(72, 1 / 72)
        selected, _ = select_top_k(theta, 3, 3)
        np.testing.assert_allclose(self._rep(seq, selected, 3), video_level_audio(seq), atol=1e-12)

    def test_single_macro_of_identical_frames(self):
        v = np.linspace(0, 1, 8, dtype=np.float32)
        seq = FeatureSequence("v", "audio", np.tile(v, (216, 1)))
        theta = np.zeros(72)
        theta[0] = 1.0
        selected, _ = select_top_k(theta, 3, 1)
        np.testing.assert_allclose(self._rep(seq, selected, 3), v, atol=1e-6)

    def test_c9_k3_covers_72_frames(self):
        seq = self._audio(seed=3)
        theta = np.random.default_rng(12).dirichlet(np.ones(72))
        selected, _ = select_top_k(theta, 9, 3)
        got = self._rep(seq, selected, 9)
        rows = []
        for i in selected:
            rows.extend(range(i * 24, (i + 1) * 24))
        assert len(rows) == 72
        np.testing.assert_allclose(got, seq.frames[rows].astype(np.float64).mean(axis=0), atol=1e-12)

    def test_visual_rejected(self):
        seq = FeatureSequence("v", "visual", np.ones((4, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            video_level_audio(seq)


class TestWeightsFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        p = random_attention(8, 4, 3, rng)
        path = tmp_path / "attention.json"
        save_attention_params(p, path)
        loaded = load_attention_params(path)
        for name in ("w_x", "w_h", "w_c", "b"):
            for lstm, back in ((p.forward_lstm, loaded.forward_lstm), (p.backward_lstm, loaded.backward_lstm)):
                np.testing.assert_array_equal(getattr(back, name), getattr(lstm, name))
        seq = rng.normal(size=(5, 8))
        u1 = score_states(bilstm_states(seq, p), p)
        u2 = score_states(bilstm_states(seq, loaded), loaded)
        np.testing.assert_array_equal(u1, u2)
        again = tmp_path / "again.json"
        save_attention_params(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_per_gate_keys_load_into_stacked_arrays(self, tmp_path):
        """A file keyed the way the format has always been keyed: per gate, in this key order."""
        rng = np.random.default_rng(18)
        gates, peepholes, h, d = ("input", "forget", "cell", "output"), ("input", "forget", "output"), 3, 5
        direction = {}
        for g in gates:
            direction[f"w_x_{g}"] = rng.normal(size=(h, d))
            direction[f"w_h_{g}"] = rng.normal(size=(h, h))
            direction[f"b_{g}"] = rng.normal(size=h)
        for g in peepholes:
            direction[f"w_c_{g}"] = rng.normal(size=(h, h))
        obj = {"version": 1, "forward_lstm": direction, "backward_lstm": direction,
               "w_forward": rng.normal(size=(2, h)), "w_backward": rng.normal(size=(2, h)),
               "w_out": rng.normal(size=2), "bias": rng.normal(size=2)}
        path = tmp_path / "attention.json"
        path.write_text(json.dumps(obj, default=np.ndarray.tolist))
        p = load_attention_params(path)
        for lstm in (p.forward_lstm, p.backward_lstm):
            for i, g in enumerate(gates):
                np.testing.assert_array_equal(lstm.w_x[i], direction[f"w_x_{g}"])
                np.testing.assert_array_equal(lstm.w_h[i], direction[f"w_h_{g}"])
                np.testing.assert_array_equal(lstm.b[i], direction[f"b_{g}"])
            for i, g in enumerate(peepholes):
                np.testing.assert_array_equal(lstm.w_c[i], direction[f"w_c_{g}"])
        again = tmp_path / "again.json"
        save_attention_params(p, again)
        assert again.read_bytes() == path.read_bytes()

    def test_shape_validation_on_load(self, tmp_path):
        rng = np.random.default_rng(14)
        p = random_attention(8, 4, 3, rng)
        path = tmp_path / "attention.json"
        save_attention_params(p, path)
        obj = json.loads(path.read_text())
        obj["forward_lstm"]["w_x_input"] = [[0.0] * 3] * 4  # wrong input dim
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError):
            load_attention_params(path)

    def test_misshaped_gate_named(self, tmp_path):
        path = tmp_path / "attention.json"
        save_attention_params(random_attention_params(128, 16, 16, seed=0), path)
        obj = json.loads(path.read_text())
        obj["forward_lstm"]["w_x_forget"] = [[0.0] * 128] * 15  # one hidden unit short
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match=r"w_x_forget of shape \(15, 128\) does not fit the other arrays"):
            load_attention_params(path)

    @pytest.mark.parametrize("key, gate, shape, message", [
        ("forward_lstm", "w_x_input", (16, 3),
         "forward_lstm: w_x_forget of shape (16, 128) does not fit the other arrays: w_x_input set axis d to 3"),
        ("backward_lstm", "w_h_cell", (15, 16),
         "backward_lstm: w_h_cell of shape (15, 16) does not fit the other arrays: w_x_input set axis h to 16"),
    ], ids=["forward-input-width", "backward-cell-rows"])
    def test_shape_error_names_the_direction_and_the_array_that_set_the_axis(self, tmp_path, key, gate, shape,
                                                                            message):
        path = tmp_path / "attention.json"
        save_attention_params(random_attention_params(128, 16, 16, seed=0), path)
        obj = json.loads(path.read_text())
        obj[key][gate] = np.zeros(shape).tolist()
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError) as info:
            load_attention_params(path)
        assert str(info.value) == f"{path}: {message}"

    def test_not_json(self, tmp_path):
        path = tmp_path / "attention.json"
        path.write_text("not json at all")
        with pytest.raises(FormatError):
            load_attention_params(path)


class TestPlantedFixture:
    def test_known_argmax(self, planted_attention):
        rng = np.random.default_rng(15)
        feats = rng.uniform(-1, 1, size=(12, 8))
        feats[7, 0] = 3.0  # plant the winner in coordinate 0
        states = bilstm_states(feats, planted_attention)
        theta = attention_distribution(score_states(states, planted_attention))
        assert int(np.argmax(theta)) == 7

    def test_seeded_standin_is_deterministic(self):
        p1 = random_attention_params(8, seed=3)
        p2 = random_attention_params(8, seed=3)
        seq = np.ones((4, 8))
        np.testing.assert_array_equal(
            score_states(bilstm_states(seq, p1), p1),
            score_states(bilstm_states(seq, p2), p2),
        )
