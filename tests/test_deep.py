import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from avembed import deep as deep_mod
from avembed.cca import fit_cca
from avembed.clustering import expand_pairs
from avembed.deep import (
    BranchNetwork,
    TrainConfig,
    _objective_and_grad,
    _sigmoid,
    _whitened_svd,
    branch_backward,
    branch_forward,
    corr_gradient,
    embed,
    init_branch,
    load_deep_model,
    save_deep_model,
    total_correlation,
    train_dcca,
    train_sdcca,
)
from avembed.errors import SingularityError


def fd_gradient(fx, fy, r, reg, h=1e-5):
    """Central finite differences of total_correlation, entry by entry."""
    gx = np.zeros_like(fx)
    gy = np.zeros_like(fy)
    for mat, grad in ((fx, gx), (fy, gy)):
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = mat[idx]
            mat[idx] = orig + h
            up = total_correlation(fx, fy, r, reg)
            mat[idx] = orig - h
            down = total_correlation(fx, fy, r, reg)
            mat[idx] = orig
            grad[idx] = (up - down) / (2 * h)
    return gx, gy


def correlated_views(n, p, q, seed, strength=0.6):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, min(p, q)))
    fx = np.hstack([base, rng.normal(size=(n, p - base.shape[1]))]) + 0.5 * rng.normal(size=(n, p))
    fy = strength * base[:, :q] + rng.normal(size=(n, q)) * 0.8
    if q > base.shape[1]:
        fy = np.hstack([fy, rng.normal(size=(n, q - base.shape[1]))])
    return fx, fy[:, :q]


class TestBranchForward:
    def test_zero_params_give_half(self):
        net = BranchNetwork(
            weights=[np.zeros((4, 3)), np.zeros((3, 2))],
            biases=[np.zeros(3), np.zeros(2)],
        )
        out, _ = branch_forward(net, np.random.default_rng(0).normal(size=(5, 4)))
        np.testing.assert_allclose(out, 0.5)

    def test_zero_dropout_train_equals_eval(self):
        rng = np.random.default_rng(1)
        net = init_branch([6, 5, 4], rng)
        batch = rng.normal(size=(8, 6))
        out_eval, _ = branch_forward(net, batch)
        out_train, _ = branch_forward(net, batch, 0.0, np.random.default_rng(9))
        np.testing.assert_array_equal(out_eval, out_train)

    def test_matches_second_transcription(self):
        rng = np.random.default_rng(2)
        net = init_branch([3, 4, 3, 2], rng)
        batch = rng.normal(size=(6, 3))
        out, _ = branch_forward(net, batch)
        for row in range(6):
            a = batch[row]
            for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
                z = np.array([sum(a[i] * w[i, j] for i in range(w.shape[0])) + b[j] for j in range(w.shape[1])])
                if layer < len(net.weights) - 1:
                    a = np.array([math.tanh(v) for v in z])
                else:
                    a = np.array([1.0 / (1.0 + math.exp(-v)) for v in z])
            np.testing.assert_allclose(out[row], a, atol=1e-12)

    def test_dropout_masks_are_seeded(self):
        rng = np.random.default_rng(3)
        net = init_branch([4, 8, 3], rng)
        batch = rng.normal(size=(16, 4))
        o1, _ = branch_forward(net, batch, 0.5, np.random.default_rng(7))
        o2, _ = branch_forward(net, batch, 0.5, np.random.default_rng(7))
        o3, _ = branch_forward(net, batch, 0.5, np.random.default_rng(8))
        np.testing.assert_array_equal(o1, o2)
        assert not np.array_equal(o1, o3)

    def test_dimension_mismatch(self):
        net = init_branch([4, 3], np.random.default_rng(4))
        with pytest.raises(ValueError):
            branch_forward(net, np.zeros((2, 5)))

    @pytest.mark.parametrize("dropout, rng", [
        (-0.1, np.random.default_rng(0)), (1.0, np.random.default_rng(0)), (0.2, None),
    ], ids=["negative", "one", "no-rng"])
    def test_dropout_rate_checked(self, dropout, rng):
        net = init_branch([4, 3, 2], np.random.default_rng(4))
        with pytest.raises(ValueError, match="dropout"):
            branch_forward(net, np.zeros((2, 4)), dropout, rng)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        net = init_branch([3, 4, 2], rng)
        batch = rng.normal(size=(10, 3))
        target = rng.normal(size=(10, 2))

        def loss():
            out, _ = branch_forward(net, batch)
            return float((out * target).sum())

        out, caches = branch_forward(net, batch)
        dw, db = branch_backward(net, caches, target)
        h = 1e-6
        for li in range(2):
            w = net.weights[li]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                orig = w[idx]
                w[idx] = orig + h
                up = loss()
                w[idx] = orig - h
                down = loss()
                w[idx] = orig
                assert abs((up - down) / (2 * h) - dw[li][idx]) < 1e-6


class TestTotalCorrelation:
    def test_identical_views_saturate(self):
        fx = np.random.default_rng(6).normal(size=(100, 5))
        value = total_correlation(fx, fx, 5, reg=1e-8)
        assert abs(value - 5.0) < 1e-3

    def test_bounded_in_zero_r(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            fx = rng.normal(size=(40, 6))
            fy = rng.normal(size=(40, 5))
            v = total_correlation(fx, fy, 4, reg=1e-4)
            assert 0.0 <= v <= 4.0

    def test_equals_sum_of_cca_correlations(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            fx, fy = correlated_views(60, 7, 5, int(rng.integers(1 << 30)))
            r = int(rng.integers(1, 6))
            reg = 10.0 ** rng.uniform(-6, -2)
            tc = total_correlation(fx, fy, r, reg)
            sc = float(fit_cca(fx, fy, r, reg).correlations.sum())
            assert abs(tc - sc) < 1e-6

    def test_swap_symmetry(self):
        fx, fy = correlated_views(50, 6, 4, 9)
        assert abs(total_correlation(fx, fy, 3, 1e-4) - total_correlation(fy, fx, 3, 1e-4)) < 1e-10

    def test_shift_and_rotation_invariance(self):
        rng = np.random.default_rng(10)
        fx, fy = correlated_views(80, 5, 5, 11)
        v0 = total_correlation(fx, fy, 3, 1e-4)
        assert abs(total_correlation(fx + 7.5, fy, 3, 1e-4) - v0) < 1e-8
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert abs(total_correlation(fx @ q, fy, 3, 1e-4) - v0) < 1e-8

    def test_degenerate_batch_zero_reg(self):
        rng = np.random.default_rng(12)
        fx = rng.normal(size=(30, 4))
        fx[:, 2] = 1.0  # zero-variance column
        with pytest.raises(SingularityError):
            total_correlation(fx, rng.normal(size=(30, 3)), 2, reg=0.0)


class TestCorrGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(20):
            fx, fy = correlated_views(64, 8, 6, int(rng.integers(1 << 30)))
            gx, gy = corr_gradient(fx, fy, 4, reg=1e-3)
            fgx, fgy = fd_gradient(fx, fy, 4, reg=1e-3)
            rel_x = np.linalg.norm(gx - fgx) / np.linalg.norm(fgx)
            rel_y = np.linalg.norm(gy - fgy) / np.linalg.norm(fgy)
            worst = max(worst, rel_x, rel_y)
        assert worst <= 1e-4

    def test_equal_views_symmetric_gradient(self):
        fx = np.random.default_rng(14).normal(size=(40, 5))
        gx, gy = corr_gradient(fx, fx.copy(), 3, reg=1e-3)
        np.testing.assert_allclose(gx, gy, atol=1e-10)

    def test_row_shift_invariance(self):
        fx, fy = correlated_views(50, 6, 4, 15)
        g1 = corr_gradient(fx, fy, 3, reg=1e-4)
        g2 = corr_gradient(fx + 3.25, fy, 3, reg=1e-4)
        np.testing.assert_allclose(g1[0], g2[0], atol=1e-9)
        np.testing.assert_allclose(g1[1], g2[1], atol=1e-9)


class TestObjectiveAndGrad:
    """The fused routine returns exactly what the two public functions return."""

    @pytest.mark.parametrize("case", ["generic", "clipped", "full-width"])
    def test_equals_public_functions(self, case):
        fx, fy = correlated_views(48, 7, 5, 24)
        r, reg = 3, 1e-3
        if case == "clipped":
            # three identical columns and no ridge: three singular values are 1 up to
            # rounding, and two of them round to >= 1 and are clipped
            fy[:, :3] = fx[:, :3]
            r, reg = 4, 0.0
            s = _whitened_svd(fx, fy, reg)[5][:r]
            assert np.any(s >= 1.0) and np.any(s < 1.0)
        elif case == "full-width":
            r = 5
        obj, d_fx, d_fy = _objective_and_grad(fx, fy, r, reg)
        gx, gy = corr_gradient(fx, fy, r, reg)
        assert obj == total_correlation(fx, fy, r, reg)
        np.testing.assert_array_equal(d_fx, gx)
        np.testing.assert_array_equal(d_fy, gy)


def small_cfg(**kw):
    base = dict(batch_size=32, epochs=3, learning_rate=1e-3, dropout=0.1, r=4, reg=1e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTraining:
    def _correlated_data(self, n=256, seed=0):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, 6))
        x = z @ rng.normal(size=(6, 12)) + 0.3 * rng.normal(size=(n, 12))
        y = z @ rng.normal(size=(6, 10)) + 0.3 * rng.normal(size=(n, 10))
        return x, y

    def test_objective_improves_over_training(self):
        for seed in range(5):
            x, y = self._correlated_data(seed=seed)
            cfg = small_cfg(seed=seed, epochs=10)
            model = train_dcca(x, y, cfg, audio_layers=(16, 8), visual_layers=(16, 8))
            assert model.objective_history[-1] > model.objective_history[0]

    def test_bit_reproducible(self):
        x, y = self._correlated_data(seed=3)
        cfg = small_cfg(seed=7, epochs=2)
        m1 = train_dcca(x, y, cfg, audio_layers=(8, 6), visual_layers=(8, 6))
        m2 = train_dcca(x, y, cfg, audio_layers=(8, 6), visual_layers=(8, 6))
        for w1, w2 in zip(m1.audio_branch.weights, m2.audio_branch.weights):
            np.testing.assert_array_equal(w1, w2)
        for w1, w2 in zip(m1.visual_branch.weights, m2.visual_branch.weights):
            np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(m1.cca_head.correlations, m2.cca_head.correlations)
        assert m1.objective_history == m2.objective_history

    def test_linear_probe_recovers_cca_correlation(self):
        # one shallow layer at a near-linear operating point must land close
        # to the closed-form fit on the raw features
        x, y = self._correlated_data(n=512, seed=5)
        x = 0.1 * (x - x.mean(axis=0)) / x.std(axis=0)
        y = 0.1 * (y - y.mean(axis=0)) / y.std(axis=0)
        cfg = small_cfg(seed=2, epochs=40, r=3, batch_size=128, dropout=0.0, learning_rate=3e-3)
        model = train_dcca(x, y, cfg, audio_layers=(12,), visual_layers=(10,))
        deep_tc = float(model.cca_head.correlations.sum())
        linear_tc = float(fit_cca(x, y, 3, reg=1e-3).correlations.sum())
        assert deep_tc >= 0.9 * linear_tc

    def test_too_few_pairs_rejected(self):
        x, y = self._correlated_data(n=16)
        with pytest.raises(ValueError):
            train_dcca(x, y, small_cfg(batch_size=32), audio_layers=(8,), visual_layers=(8,))

    @pytest.mark.parametrize("layers, message", [
        (dict(audio_layers=()), "audio_layers must be one or more widths >= 1, got ()"),
        (dict(audio_layers=(0, 4)), "audio_layers must be one or more widths >= 1, got (0, 4)"),
        (dict(visual_layers=(-3, 4)), "visual_layers must be one or more widths >= 1, got (-3, 4)"),
    ], ids=["empty", "zero", "negative"])
    def test_widths_below_one_rejected(self, layers, message):
        x, y = self._correlated_data(n=64)
        with pytest.raises(ValueError, match=re.escape(message)):
            train_dcca(x, y, small_cfg(), **{"audio_layers": (8, 4), "visual_layers": (8, 4), **layers})

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=16, r=30)  # batch < r + 1
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)
        # the ridge meets the linear fits' rule; the RMSProp settings are finite and > 0
        for bad in (dict(reg=np.nan), dict(reg=np.inf), dict(reg=-1e-4), dict(learning_rate=np.inf),
                    dict(learning_rate=np.nan), dict(learning_rate=0.0), dict(epsilon=np.nan), dict(epsilon=np.inf)):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TrainConfig(**bad)


class TestSdcca:
    def _clustered(self, n_per=64, k=4, seed=0):
        rng = np.random.default_rng(seed)
        centroids = 2.5 * rng.normal(size=(k, 5))
        labels = np.repeat(np.arange(k), n_per)
        z = centroids[labels] + 0.7 * rng.normal(size=(k * n_per, 5))
        x = z @ rng.normal(size=(5, 12)) + 0.3 * rng.normal(size=(k * n_per, 12))
        y = z @ rng.normal(size=(5, 10)) + 0.3 * rng.normal(size=(k * n_per, 10))
        return x, y, labels

    def test_f0_identical_to_dcca(self):
        x, y, labels = self._clustered()
        cfg = small_cfg(seed=4, epochs=2)
        m_plain = train_dcca(x, y, cfg, audio_layers=(8, 6), visual_layers=(8, 6))
        m_sup = train_sdcca(x, y, labels, f=0.0, cfg=cfg, audio_layers=(8, 6), visual_layers=(8, 6))
        for w1, w2 in zip(m_plain.audio_branch.weights, m_sup.audio_branch.weights):
            np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(m_plain.cca_head.wx, m_sup.cca_head.wx)

    def test_expanded_pair_count_drives_batches(self):
        x, y, labels = self._clustered(n_per=32, k=2)
        cfg = small_cfg(seed=1, epochs=1, batch_size=64)
        model = train_sdcca(x, y, labels, f=1.0, cfg=cfg, audio_layers=(8, 6), visual_layers=(8, 6))
        assert len(model.objective_history) == 1

    def test_target_count_mode(self):
        x, y, labels = self._clustered(n_per=32, k=2)
        cfg = small_cfg(seed=2, epochs=1, batch_size=32)
        model = train_sdcca(
            x, y, labels, f=1.0, cfg=cfg, target_count=100,
            audio_layers=(8, 6), visual_layers=(8, 6),
        )
        assert model.cca_head.wx.shape == (6, 4)


def _oracle_forward(net, batch, dropout=0.0, rng=None):
    """tanh hidden layers, logistic output; with an rng (training, dropout > 0), an
    inverted-dropout mask per hidden layer, drawn layer by layer."""
    a = batch
    caches = []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.tanh(a @ w + b)
        mask = None
        if rng is not None:
            mask = (rng.random(h.shape) >= dropout) / (1.0 - dropout)
        caches.append({"input": a, "activated": h, "mask": mask})
        a = h if mask is None else h * mask
    out = _sigmoid(a @ net.weights[-1] + net.biases[-1])
    caches.append({"input": a, "activated": out, "mask": None})
    return out, caches


def _unpruned_backward(net, caches, d_out):
    """branch_backward without pruning: it also forms the first layer's input gradient."""
    d_w = [np.empty(0)] * len(net.weights)
    d_b = [np.empty(0)] * len(net.biases)
    grad = d_out
    for i in range(len(net.weights) - 1, -1, -1):
        cache = caches[i]
        act = cache["activated"]
        if i == len(net.weights) - 1:
            dz = grad * act * (1.0 - act)
        else:
            if cache["mask"] is not None:
                grad = grad * cache["mask"]
            dz = grad * (1.0 - act * act)
        d_w[i] = cache["input"].T @ dz
        d_b[i] = dz.sum(axis=0)
        grad = dz @ net.weights[i].T
    return d_w, d_b


def _oracle_train(x, y, a_idx, v_idx, cfg, audio_layers, visual_layers):
    """The training loop from its own forward with dropout, the public objective and gradient,
    one whitening each, the unpruned backward and RMSProp written out with temporaries."""
    rng = np.random.default_rng(cfg.seed)
    nets = (init_branch([x.shape[1], *audio_layers], rng),
            init_branch([y.shape[1], *visual_layers], rng))
    sq = [[np.zeros_like(p) for p in net.weights + net.biases] for net in nets]
    n = a_idx.shape[0]
    history = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        objs = []
        for b in range(n // cfg.batch_size):
            sel = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            fa, cache_a = _oracle_forward(nets[0], x[a_idx[sel]], cfg.dropout, rng)
            fv, cache_v = _oracle_forward(nets[1], y[v_idx[sel]], cfg.dropout, rng)
            objs.append(total_correlation(fa, fv, cfg.r, cfg.reg))
            grads = corr_gradient(fa, fv, cfg.r, cfg.reg)
            for net, cache, d_out, cs in zip(nets, (cache_a, cache_v), grads, sq):
                d_w, d_b = _unpruned_backward(net, cache, d_out)
                for p, g, c in zip(net.weights + net.biases, d_w + d_b, cs):
                    c *= cfg.rho
                    c += (1.0 - cfg.rho) * g * g
                    p += cfg.learning_rate * g / (np.sqrt(c) + cfg.epsilon)
        history.append(float(np.mean(objs)))
    out_a, _ = _oracle_forward(nets[0], x)
    out_v, _ = _oracle_forward(nets[1], y)
    return nets, fit_cca(out_a, out_v, cfg.r, cfg.reg, pairs=(a_idx, v_idx)), history


class TestTrainingOracle:
    """Training equals, bit for bit, a loop with its own forward pass, two whitenings per
    batch, the first layer's input gradient and RMSProp on temporaries."""

    @pytest.mark.parametrize("method, block", [
        ("dcca", None), ("sdcca", None), ("dcca", 7), ("sdcca", 7),
    ], ids=["dcca", "sdcca", "dcca-block-7", "sdcca-block-7"])
    def test_bit_identical_to_oracle(self, method, block, monkeypatch):
        # every parameter here is smaller than the default block; blocks of 7 leave a ragged
        # tail on seven of the ten, and two (the 5- and 6-wide output biases) are a tail alone
        if block is not None:
            monkeypatch.setattr(deep_mod, "_RMSPROP_BLOCK", block)
        x, y, labels = TestSdcca()._clustered(n_per=40, k=3, seed=11)
        cfg = small_cfg(seed=9, epochs=2, batch_size=32, dropout=0.2, r=3)
        layers = dict(audio_layers=(9, 7, 5), visual_layers=(11, 6))
        if method == "dcca":
            model = train_dcca(x, y, cfg, **layers)
            a_idx = v_idx = np.arange(x.shape[0])
        else:
            model = train_sdcca(x, y, labels, f=0.5, cfg=cfg, **layers)
            pairs = expand_pairs(labels, f=0.5, seed=cfg.seed)
            a_idx, v_idx = pairs.audio_indices, pairs.visual_indices
        assert a_idx.shape[0] // cfg.batch_size >= 3
        nets, head, history = _oracle_train(x, y, a_idx, v_idx, cfg, **layers)
        assert model.objective_history == history
        for got, want in zip((model.audio_branch, model.visual_branch), nets):
            for a, b in zip(got.weights + got.biases, want.weights + want.biases, strict=True):
                assert np.array_equal(a, b)
        for name in ("wx", "wy", "mean_x", "mean_y", "correlations"):
            assert np.array_equal(getattr(model.cca_head, name), getattr(head, name)), name


class TestWorkingSet:
    """Training keeps the parameters, their RMSProp means, one block of scratch and one step."""

    def test_step_output_dead_when_the_next_step_starts(self, monkeypatch):
        last = {}  # id(branch) -> weakref to its latest training-step output
        alive_at_start = []

        def watched(net, batch, dropout=0.0, rng=None):
            if rng is not None:  # a training step; the head's passes take no rng
                if id(net) in last:
                    alive_at_start.append(last[id(net)]() is not None)
                out, caches = branch_forward(net, batch, dropout, rng)
                last[id(net)] = weakref.ref(out)
                return out, caches
            return branch_forward(net, batch, dropout, rng)

        monkeypatch.setattr(deep_mod, "branch_forward", watched)
        x, y, labels = TestSdcca()._clustered(n_per=40, k=3, seed=11)
        train_sdcca(x, y, labels, f=0.5, cfg=small_cfg(seed=9, epochs=2, r=3),
                    audio_layers=(9, 5), visual_layers=(11, 6))
        assert len(alive_at_start) >= 10
        assert not any(alive_at_start)

    def test_training_peak_holds_one_step(self):
        # the ordering workload's branches on 240 videos, 128/1024-d, batch 256. tracemalloc peak
        # while step k lived on as step k+1 gathered its batch, and RMSProp's scratch spanned the
        # 1024 x 256 layer: 21.5 MB run alone, 20.4 under pytest (21.4 in a first prototype).
        # With one step and one block of scratch: 14.4 MB alone, 13.3 under pytest (13.9).
        rng = np.random.default_rng(24)
        labels = np.repeat(np.arange(4), 60)
        z = rng.normal(size=(4, 16))[labels] + 0.5 * rng.normal(size=(240, 16))
        x = z @ rng.normal(size=(16, 128)) + rng.normal(size=(240, 128))
        y = z @ rng.normal(size=(16, 1024)) + rng.normal(size=(240, 1024))
        cfg = TrainConfig(batch_size=256, epochs=1, r=5, reg=0.25, seed=0)
        tracemalloc.start()
        try:
            train_sdcca(x, y, labels, f=1.0, cfg=cfg, target_count=4 * 256,
                        audio_layers=(64, 32), visual_layers=(256, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17e6


class TestEmbedAndFiles:
    def test_default_config_embeds_width_30(self):
        # stock branch stacks (128,128,64,64 / 512,512,256,256) and r=30
        rng = np.random.default_rng(19)
        x = rng.normal(size=(128, 128))
        y = rng.normal(size=(128, 1024)) + np.tile(x, (1, 8))
        cfg = TrainConfig(batch_size=64, epochs=1, seed=0)
        assert cfg.r == 30 and cfg.learning_rate == 0.001 and cfg.dropout == 0.2
        model = train_dcca(x, y, cfg)
        assert model.audio_branch.layer_dims == [128, 128, 128, 64, 64]
        assert model.visual_branch.layer_dims == [1024, 512, 512, 256, 256]
        assert embed(model, x[:3], "audio").shape == (3, 30)
        assert embed(model, y[:3], "visual").shape == (3, 30)

    def test_embed_width_and_determinism(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(128, 12))
        y = rng.normal(size=(128, 10)) + x[:, :10]
        cfg = small_cfg(seed=3, epochs=2, r=4)
        model = train_dcca(x, y, cfg, audio_layers=(8, 6), visual_layers=(8, 6))
        e1 = embed(model, x[:5], "audio")
        e2 = embed(model, x[:5], "audio")
        assert e1.shape == (5, 4)
        np.testing.assert_array_equal(e1, e2)

    def test_duplicated_rows_duplicate_embeddings(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(64, 12))
        y = rng.normal(size=(64, 10))
        model = train_dcca(x, y, small_cfg(seed=5, epochs=1), audio_layers=(8, 6), visual_layers=(8, 6))
        batch = np.vstack([x[:3], x[:3]])
        out = embed(model, batch, "audio")
        np.testing.assert_array_equal(out[:3], out[3:])

    def test_embedding_correlations_match_head(self):
        # definition re-check: with a vanishing head ridge, the per-dimension
        # Pearson correlation of the training embeddings is the stored value
        rng = np.random.default_rng(22)
        z = rng.normal(size=(256, 5))
        x = z @ rng.normal(size=(5, 12)) + 0.2 * rng.normal(size=(256, 12))
        y = z @ rng.normal(size=(5, 10)) + 0.2 * rng.normal(size=(256, 10))
        cfg = small_cfg(seed=6, epochs=3, r=3, reg=1e-9)
        model = train_dcca(x, y, cfg, audio_layers=(8, 6), visual_layers=(8, 6))
        pa = embed(model, x, "audio")
        pv = embed(model, y, "visual")
        for i in range(3):
            got = np.corrcoef(pa[:, i], pv[:, i])[0, 1]
            assert abs(got - model.cca_head.correlations[i]) < 1e-6

    def test_model_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(64, 12))
        y = rng.normal(size=(64, 10))
        model = train_dcca(x, y, small_cfg(seed=8, epochs=1), audio_layers=(8, 6), visual_layers=(8, 6))
        path = tmp_path / "deep.avdm"
        save_deep_model(model, path, extra={"method": "dcca"})
        loaded = load_deep_model(path)
        np.testing.assert_array_equal(embed(loaded, x[:4], "audio"), embed(model, x[:4], "audio"))
        np.testing.assert_array_equal(embed(loaded, y[:4], "visual"), embed(model, y[:4], "visual"))
        assert loaded.objective_history == model.objective_history
