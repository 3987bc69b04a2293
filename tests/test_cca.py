import itertools
import tracemalloc

import numpy as np
import pytest

from avembed.cca import (
    EIG_FLOOR,
    KernelModel,
    _kernel_features,
    fit_cca,
    fit_cluster_cca,
    fit_kcca,
    kernel_project,
    load_cca_model,
    project,
    save_cca_model,
)
from avembed.clustering import expand_pairs
from avembed.errors import NumericalError, ResourceLimitError, SingularityError


def shared_latent_views(n, seed, noise_var=0.25, extra_dims=3):
    """Scalar latent z in coordinate 0 of both views; population first
    canonical correlation = 1 / (1 + noise_var)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 1))
    noise = np.sqrt(noise_var)
    x = np.hstack([z + noise * rng.normal(size=(n, 1)), rng.normal(size=(n, extra_dims))])
    y = np.hstack([z + noise * rng.normal(size=(n, 1)), rng.normal(size=(n, extra_dims))])
    return x, y


def empirical_regularized_cov(m, reg):
    c = m - m.mean(axis=0)
    return c.T @ c / (m.shape[0] - 1) + reg * np.eye(m.shape[1])


def assert_whitened(model, x, y, atol, **kw):
    """Eq. 10's constraints: wx' Sxx wx = wy' Syy wy = I, each S with the model's own ridge."""
    for view, w, reg in ((x, model.wx, model.reg_x), (y, model.wy, model.reg_y)):
        np.testing.assert_allclose(w.T @ empirical_regularized_cov(view, reg) @ w, np.eye(model.r), atol=atol, **kw)


class TestFitCca:
    def test_self_correlation(self):
        x = np.random.default_rng(0).normal(size=(300, 5))
        model = fit_cca(x, x, 5, reg=1e-6)
        assert np.all(model.correlations >= 0.999)

    def test_independent_views_low_correlation(self):
        corrs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model = fit_cca(rng.normal(size=(2000, 4)), rng.normal(size=(2000, 4)), 4, reg=1e-6)
            corrs.append(model.correlations.max())
        assert np.mean(corrs) < 0.1

    def test_population_correlation_recovered(self):
        for seed in range(5):
            x, y = shared_latent_views(5000, seed)
            model = fit_cca(x, y, 2, reg=1e-6)
            assert abs(model.correlations[0] - 0.8) <= 0.03

    def test_correlations_sorted_and_clipped(self):
        rng = np.random.default_rng(1)
        model = fit_cca(rng.normal(size=(100, 6)), rng.normal(size=(100, 4)), 4)
        c = model.correlations
        assert np.all(c[:-1] >= c[1:])
        assert np.all((c >= 0) & (c <= 1))

    def test_eq10_constraints(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(50, 200))
            dx = int(rng.integers(2, 8))
            dy = int(rng.integers(2, 8))
            x = rng.normal(size=(n, dx)) @ rng.normal(size=(dx, dx))
            y = rng.normal(size=(n, dy))
            r = min(dx, dy)
            assert_whitened(fit_cca(x, y, r), x, y, atol=1e-6)

    def test_singularity_with_zero_reg(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(50, 2))
        x = np.hstack([base, base[:, :1]])  # exactly rank deficient
        with pytest.raises(SingularityError):
            fit_cca(x, rng.normal(size=(50, 3)), 2, reg=0.0)
        wide = rng.normal(size=(20, 30))  # more dimensions than rows
        with pytest.raises(SingularityError):
            fit_cca(wide, rng.normal(size=(20, 3)), 2, reg=0.0)

    def test_argument_errors(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 3))
        with pytest.raises(ValueError):
            fit_cca(x, x, 1)  # n < 2
        x = rng.normal(size=(10, 3))
        with pytest.raises(ValueError):
            fit_cca(x, x, 4)  # r > min dim
        with pytest.raises(ValueError):
            fit_cca(x, rng.normal(size=(9, 3)), 2)  # unpaired rows
        with pytest.raises(ValueError):
            fit_cca(x, x, 2, reg=-1.0)
        with pytest.raises(ValueError):
            fit_cca(x, x, 2, pairs=(np.arange(10), np.arange(1, 11)))  # pair index out of range

    def test_orthogonal_transform_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(400, 5))
        y = x @ rng.normal(size=(5, 4)) + 0.5 * rng.normal(size=(400, 4))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        m1 = fit_cca(x, y, 3, reg=1e-3)
        m2 = fit_cca(x @ q, y, 3, reg=1e-3)
        np.testing.assert_allclose(m1.correlations, m2.correlations, atol=1e-8)

    def test_rank_above_rows(self):
        # r above the data rank n - 1 still gives r columns: the trailing
        # correlations are 0 and both whitening constraints hold
        rng = np.random.default_rng(18)
        n, r = 10, 15
        x = rng.normal(size=(n, 30))
        y = rng.normal(size=(n, 20))
        model = fit_cca(x, y, r, reg=0.1)
        assert model.wx.shape == (30, r) and model.wy.shape == (20, r)
        np.testing.assert_allclose(model.correlations[n - 1 :], 0.0, atol=1e-10)
        assert_whitened(model, x, y, atol=1e-8)

    def test_rank_above_rows_builds_no_square_complement(self):
        # the complement of the rows' span needs r - k columns, not a d x d basis (72 MB here)
        rng = np.random.default_rng(20)
        n, r = 40, 45
        x = rng.normal(size=(n, 3000))
        y = rng.normal(size=(n, 60))
        tracemalloc.start()
        try:
            model = fit_cca(x, y, r, reg=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert model.wx.shape == (3000, r) and model.wy.shape == (60, r)
        np.testing.assert_allclose(model.correlations[n - 1 :], 0.0, atol=1e-10)
        for view, w, reg in ((x, model.wx, model.reg_x), (y, model.wy, model.reg_y)):
            pw = (view - view.mean(axis=0)) @ w  # w' Sxx w without forming the d x d Sxx
            np.testing.assert_allclose(pw.T @ pw / (n - 1) + reg * w.T @ w, np.eye(r), atol=1e-8)

    def test_view_swap_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(200, 4))
        y = x @ rng.normal(size=(4, 6)) + rng.normal(size=(200, 6))
        m_xy = fit_cca(x, y, 3, reg=1e-4)
        m_yx = fit_cca(y, x, 3, reg=1e-4)
        np.testing.assert_allclose(m_xy.correlations, m_yx.correlations, atol=1e-12)
        np.testing.assert_allclose(np.abs(m_xy.wx), np.abs(m_yx.wy), atol=1e-8)

    @pytest.mark.parametrize("reg", [None, 0.05], ids=["default-reg", "given-reg"])
    def test_identity_pairing_is_the_plain_formula_bit_for_bit(self, reg):
        # kcca's chance-level MAPs move with the last bit of this fit, so it is pinned exactly
        rng = np.random.default_rng(19)
        n, r = 80, 3
        x = rng.normal(size=(n, 5)) @ rng.normal(size=(5, 5))
        y = x[:, :4] + rng.normal(size=(n, 4))

        def whiten(v):
            mean = v.mean(axis=0)
            vc = v - mean
            cov = vc.T @ vc / (n - 1)
            ridge = 1e-4 * np.trace(cov) / v.shape[1] if reg is None else reg
            cov += ridge * np.eye(v.shape[1])
            evals, evecs = np.linalg.eigh(cov)
            return mean, vc, ridge, (evecs / np.sqrt(np.maximum(evals, EIG_FLOOR))) @ evecs.T

        mean_x, xc, reg_x, isx = whiten(x)
        mean_y, yc, reg_y, isy = whiten(y)
        u, s, vt = np.linalg.svd(isx @ (xc.T @ yc / (n - 1)) @ isy, full_matrices=False)
        idx = np.arange(n)
        for model in (fit_cca(x, y, r, reg), fit_cca(x, y, r, reg, pairs=(idx, idx))):
            assert np.array_equal(model.wx, isx @ u[:, :r])
            assert np.array_equal(model.wy, isy @ vt.T[:, :r])
            assert np.array_equal(model.mean_x, mean_x) and np.array_equal(model.mean_y, mean_y)
            assert np.array_equal(model.correlations, np.clip(s[:r], 0.0, 1.0))
            assert (model.reg_x, model.reg_y) == (reg_x, reg_y)


class TestProject:
    def test_training_mean_projects_to_zero(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(100, 4)) + 3.0
        y = rng.normal(size=(100, 3))
        model = fit_cca(x, y, 2)
        np.testing.assert_allclose(project(model, x.mean(axis=0), "audio"), 0.0, atol=1e-12)

    def test_projected_training_correlations_match(self):
        # definition re-check: at vanishing reg the stored values are exactly
        # the Pearson correlations of the paired projection columns
        rng = np.random.default_rng(8)
        x = rng.normal(size=(500, 5))
        y = x @ rng.normal(size=(5, 5)) + 0.8 * rng.normal(size=(500, 5))
        model = fit_cca(x, y, 3, reg=1e-9)
        px = project(model, x, "x")
        py = project(model, y, "y")
        for i in range(3):
            got = np.corrcoef(px[:, i], py[:, i])[0, 1]
            assert abs(got - model.correlations[i]) < 1e-6

    def test_whitening_constraint_on_orthonormal_input(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(64, 4)))
        x = q * np.sqrt(64 - 1)  # unit empirical covariance columns
        y = rng.normal(size=(64, 4))
        model = fit_cca(x, y, 4, reg=1e-10)
        sxx = empirical_regularized_cov(x, model.reg_x)
        np.testing.assert_allclose(model.wx.T @ sxx @ model.wx, np.eye(4), atol=1e-6)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        model = fit_cca(rng.normal(size=(50, 4)), rng.normal(size=(50, 3)), 2)
        with pytest.raises(ValueError):
            project(model, np.zeros(5), "audio")
        with pytest.raises(ValueError):
            project(model, np.zeros((10, 4)), "nope")


class TestKcca:
    def test_identical_views(self):
        x = np.random.default_rng(11).normal(size=(100, 4))
        model = fit_kcca(x, x, 2, beta=0.4, kappa=1e-5)
        assert model.correlations[0] >= 0.999

    def test_linear_kernel_matches_cca(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(300, 5))
        y = x @ rng.normal(size=(5, 5)) + rng.normal(size=(300, 5))
        kappa = 1e-3
        km = fit_kcca(x, y, 4, beta=0.4, kappa=kappa, kernel="linear")
        cm = fit_cca(x, y, 4, reg=kappa)
        np.testing.assert_allclose(km.correlations, cm.correlations, atol=1e-3)

    def test_default_beta_recorded(self):
        x = np.random.default_rng(13).normal(size=(50, 3))
        model = fit_kcca(x, x, 2)
        assert model.beta == 0.4
        assert model.kernel == "gaussian"

    def test_cap_guard(self):
        x = np.zeros((2001, 2))
        with pytest.raises(ResourceLimitError, match="exceeds the cap of 2000. Subsample the training pairs"):
            fit_kcca(x, x, 1)

    @pytest.mark.parametrize("beta, kappa, message", [
        (np.nan, 1e-3, "beta must be a finite number > 0, got nan"),
        (0.0, 1e-3, "beta must be a finite number > 0, got 0.0"),
        (0.4, np.inf, "kappa must be a finite number > 0, got inf"),
    ], ids=["beta-nan", "beta-zero", "kappa-infinite"])
    def test_kernel_settings_must_be_finite_and_positive(self, beta, kappa, message):
        x = np.random.default_rng(16).normal(size=(20, 3))
        with pytest.raises(ValueError, match=message):
            fit_kcca(x, x, 1, beta=beta, kappa=kappa)
        # the class checks them as well, as a loaded model builds one
        fields = {name: getattr(fit_kcca(x, x, 1), name) for name in KernelModel.__dataclass_fields__}
        with pytest.raises(ValueError, match=message):
            KernelModel(**{**fields, "beta": beta, "kappa": kappa})

    def test_non_psd_kernel_rejected(self):
        broken = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NumericalError):
            _kernel_features(broken)

    def test_training_projection_consistent_with_correlations(self):
        # ridge shrinks the stored values below the raw Pearson correlation,
        # so this is a wiring check; exactness is covered by the linear-kernel oracle
        rng = np.random.default_rng(14)
        x = rng.normal(size=(200, 4))
        y = np.tanh(x @ rng.normal(size=(4, 4))) + 0.3 * rng.normal(size=(200, 4))
        model = fit_kcca(x, y, 3, beta=0.4, kappa=1e-3)
        px = kernel_project(model, x, "audio")
        py = kernel_project(model, y, "visual")
        for i in range(3):
            got = np.corrcoef(px[:, i], py[:, i])[0, 1]
            assert got >= model.correlations[i] - 1e-6
            assert abs(got - model.correlations[i]) < 0.05

    def test_out_of_sample_projection_smooth(self):
        # close inputs must land close in the embedding (no centering bug)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(150, 3))
        y = x + 0.1 * rng.normal(size=(150, 3))
        model = fit_kcca(x, y, 2, beta=0.4, kappa=1e-2)
        probe = x[:5] + 1e-6
        np.testing.assert_allclose(
            kernel_project(model, probe, "x"), kernel_project(model, x[:5], "x"), atol=1e-3
        )


class TestClusterCca:
    def _clustered_views(self, n_per=40, k=4, seed=0, latent=3, noise=0.6):
        rng = np.random.default_rng(seed)
        centroids = 3.0 * rng.normal(size=(k, latent))
        labels = np.repeat(np.arange(k), n_per)
        z = centroids[labels] + noise * rng.normal(size=(k * n_per, latent))
        a_map = rng.normal(size=(latent, 6))
        b_map = rng.normal(size=(latent, 8))
        x = z @ a_map + 0.3 * rng.normal(size=(k * n_per, 6))
        y = z @ b_map + 0.3 * rng.normal(size=(k * n_per, 8))
        return x, y, labels

    def test_f0_equals_plain_cca(self):
        x, y, labels = self._clustered_views()
        m0 = fit_cluster_cca(x, y, labels, f=0.0, r=3, reg=1e-4, seed=1)
        mc = fit_cca(x, y, 3, reg=1e-4)
        np.testing.assert_array_equal(m0.wx, mc.wx)
        np.testing.assert_array_equal(m0.correlations, mc.correlations)

    def test_expansion_helps_heldout_cluster_alignment(self):
        # two separated clusters plus a per-video latent that both modalities
        # share but that does not transfer across videos; expansion must move
        # the first component from the per-video latent to the cluster axis
        def build(seed):
            rng = np.random.default_rng(seed)
            n = 400
            labels = rng.integers(0, 2, size=n)
            c = 2.0 * labels - 1.0
            w = 2.0 * rng.normal(size=n)  # dominant within-cluster shared latent
            u_c, u_w = rng.normal(size=(2, 6))
            v_c, v_w = rng.normal(size=(2, 8))
            x = np.outer(c, u_c) + np.outer(w, u_w) + 0.2 * rng.normal(size=(n, 6))
            y = np.outer(c, v_c) + np.outer(w, v_w) + 0.2 * rng.normal(size=(n, 8))
            return x, y, labels

        def heldout_cross_corr(m, x, y, labels, rows):
            pa, pv = [], []
            for c in (0, 1):
                sub = rows[labels[rows] == c]
                pa.append(project(m, x[sub], "x")[:, 0])
                pv.append(project(m, y[np.roll(sub, 1)], "y")[:, 0])
            return abs(np.corrcoef(np.concatenate(pa), np.concatenate(pv))[0, 1])

        plain_scores, full_scores = [], []
        for seed in range(5):
            x, y, labels = build(seed)
            train = np.arange(300)
            test = np.arange(300, 400)
            m_plain = fit_cluster_cca(x[train], y[train], labels[train], f=0.0, r=1, reg=1e-3, seed=seed)
            m_full = fit_cluster_cca(x[train], y[train], labels[train], f=1.0, r=1, reg=1e-3, seed=seed)
            plain_scores.append(heldout_cross_corr(m_plain, x, y, labels, test))
            full_scores.append(heldout_cross_corr(m_full, x, y, labels, test))
        assert np.mean(full_scores) > np.mean(plain_scores)

    def test_pairs_match_materialised_rows(self):
        # oracle: the same fit on the materialised rows x[a], y[v]. Weights are
        # not compared entry by entry: where neighbouring correlations nearly
        # coincide, the singular vectors are ill-conditioned on either path.
        def views(n, dx, dy, seed):
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, 4, size=n)
            z = rng.normal(size=(n, 3)) + labels[:, None]
            x = z @ rng.normal(size=(3, dx)) + rng.normal(size=(n, dx))
            y = z @ rng.normal(size=(3, dy)) + rng.normal(size=(n, dy))
            return x, y, labels

        n = 40
        shapes = [(6, 8), (60, 90), (6, 90), (90, 6)]  # d <= n, d > n, and mixed sides
        expansions = [(0.5, None), (1.0, None), (0.5, 200)]  # (f, target_count)
        for case, ((dx, dy), (f, target), reg) in enumerate(
            itertools.product(shapes, expansions, [None, 0.1])
        ):
            x, y, labels = views(n, dx, dy, case)
            pairs = expand_pairs(labels, f=f, seed=case, target_count=target)
            a, v = pairs.audio_indices, pairs.visual_indices
            r = min(dx, dy, 5)
            got = fit_cca(x, y, r, reg, pairs=(a, v))
            ref = fit_cca(x[a], y[v], r, reg)
            msg = f"dx={dx} dy={dy} f={f} target={target} reg={reg}"
            np.testing.assert_allclose(got.correlations, ref.correlations, rtol=0, atol=1e-10, err_msg=msg)
            np.testing.assert_allclose([got.reg_x, got.reg_y], [ref.reg_x, ref.reg_y], rtol=1e-12, err_msg=msg)
            np.testing.assert_allclose(got.mean_x, ref.mean_x, rtol=0, atol=1e-12, err_msg=msg)
            assert_whitened(got, x[a], y[v], atol=1e-8, err_msg=msg)
            sxy = (x[a] - x[a].mean(axis=0)).T @ (y[v] - y[v].mean(axis=0)) / (a.size - 1)
            np.testing.assert_allclose(got.wx.T @ sxy @ got.wy, np.diag(got.correlations), atol=1e-8, err_msg=msg)

    @pytest.mark.parametrize("expansion", [None, (0.5, None), (0.5, 200)], ids=["identity", "f-half", "target-count"])
    @pytest.mark.parametrize("reg", [None, 1e-3], ids=["default-reg", "given-reg"])
    def test_rank_deficient_wide_views(self, expansion, reg):
        # views of rank 6 in 90 dimensions from 40 rows: the Gram has 34 eigenvalues that are rounding
        # noise, and a direction kept from among them breaks the whitening in the view
        rng = np.random.default_rng(21)
        n, d, r = 40, 90, 5
        labels = rng.integers(0, 4, size=n)
        shared = rng.normal(size=(n, 3)) + labels[:, None]
        x = np.hstack([shared, rng.normal(size=(n, 3))]) @ rng.normal(scale=10.0, size=(6, d))
        y = np.hstack([shared, rng.normal(size=(n, 3))]) @ rng.normal(scale=10.0, size=(6, d))
        if expansion is None:
            a = v = np.arange(n)
            got = fit_cca(x, y, r, reg)
        else:
            pairs = expand_pairs(labels, f=expansion[0], seed=3, target_count=expansion[1])
            a, v = pairs.audio_indices, pairs.visual_indices
            got = fit_cca(x, y, r, reg, pairs=(a, v))
        ref = fit_cca(x[a], y[v], r, reg)
        np.testing.assert_allclose(got.correlations, ref.correlations, rtol=0, atol=1e-10)
        assert_whitened(got, x[a], y[v], atol=1e-8)

    def test_pair_count_consistency(self):
        labels = np.repeat(np.arange(10), 800)
        ps = expand_pairs(labels, f=1.0, seed=0)
        assert len(ps) == 6_400_000
        ps_half = expand_pairs(labels, f=0.5, seed=0)
        assert len(ps_half) == 3_200_000


class TestModelFiles:
    def test_linear_roundtrip(self, tmp_path):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(80, 4))
        y = rng.normal(size=(80, 5))
        model = fit_cca(x, y, 3)
        path = tmp_path / "model.avcm"
        save_cca_model(model, path, extra={"method": "cca"})
        loaded = load_cca_model(path)
        np.testing.assert_array_equal(loaded.wx, model.wx)
        np.testing.assert_array_equal(loaded.wy, model.wy)
        np.testing.assert_allclose(loaded.correlations, model.correlations, atol=1e-15)
        np.testing.assert_array_equal(project(loaded, x, "x"), project(model, x, "x"))

    def test_kernel_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(60, 3))
        y = rng.normal(size=(60, 4))
        model = fit_kcca(x, y, 2)
        path = tmp_path / "model.kcca"
        save_cca_model(model, path)
        loaded = load_cca_model(path)
        assert isinstance(loaded, KernelModel)
        probe = rng.normal(size=(7, 3))
        np.testing.assert_array_equal(
            kernel_project(loaded, probe, "x"), kernel_project(model, probe, "x")
        )
