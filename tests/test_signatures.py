from __future__ import annotations

import warnings

import numpy as np
import pytest

from disco.errors import (
    DimensionMismatch,
    InvalidConfig,
    LengthMismatch,
    RankDeficiencyWarning,
    TooFewModels,
)
from disco.selection import AnchorSubset
from disco.signatures import (
    build_signature,
    default_pca_dim,
    pca_fit,
    pca_fit_transform,
    pca_transform,
)
from conftest import tensor_from_rows


def subset_of(indices):
    return AnchorSubset(indices=np.asarray(indices, dtype=np.int64),
                        method="random", seed=0)


class TestBuildSignature:
    def test_probs_concatenation(self):
        t = tensor_from_rows([[0.3, 0.7]])
        sig = build_signature(t[[0]], subset_of([0]), "probs")
        assert np.allclose(sig, [0.3, 0.7], atol=1e-6)

    def test_onehot(self):
        t = tensor_from_rows([[0.3, 0.7]])
        sig = build_signature(t[[0]], subset_of([0]), "onehot")
        assert sig.tolist() == [0.0, 1.0]

    def test_correctness_mode_matches_argmax_oracle(self, rng):
        labels = rng.integers(0, 3, 20)
        labels[[3, 8]] = [0, 1]
        raw = rng.random((20, 3)) + 1e-6
        raw[[3, 8]] = [0.4, 0.4, 0.2]           # tied maxima
        raw /= raw.sum(axis=1, keepdims=True)
        t = tensor_from_rows(raw)
        idx = np.asarray([8, 3] + [i for i in range(0, 20, 3) if i != 3])
        sig = build_signature(t[idx], subset_of(idx), "correctness",
                              labels=labels)
        # per row: the first class of largest probability, against the label
        oracle = [float(max(range(3), key=t[i].tolist().__getitem__) == labels[i])
                  for i in idx]
        assert sig.tolist() == oracle
        assert sig[:2].tolist() == [0.0, 1.0]   # a tie goes to the lower class

    def test_subset_order_concatenation(self, rng):
        raw = rng.random((10, 2)) + 1e-6
        raw /= raw.sum(axis=1, keepdims=True)
        t = tensor_from_rows(raw)
        sig = build_signature(t[[2, 5, 9]], subset_of([2, 5, 9]), "probs")
        expected = np.concatenate([t[2], t[5], t[9]])
        assert np.array_equal(sig, expected.astype(np.float64))

    def test_rows_outside_subset_irrelevant(self, rng):
        raw = rng.random((10, 2)) + 1e-6
        raw /= raw.sum(axis=1, keepdims=True)
        t1 = tensor_from_rows(raw)
        shuffled = raw.copy()
        shuffled[[0, 1, 3]] = shuffled[[3, 0, 1]]  # permute non-anchor rows
        t2 = tensor_from_rows(shuffled)
        s = subset_of([2, 5, 9])
        assert np.array_equal(build_signature(t1[s.indices], s),
                              build_signature(t2[s.indices], s))

    @pytest.mark.parametrize("mode", ["probs", "onehot", "correctness"])
    def test_stack_equals_per_model_signatures(self, rng, mode):
        labels = rng.integers(0, 4, 30)
        idx = np.asarray([7, 2, 19, 2, 25])
        raw = rng.random((3, 2, 5, 4), dtype=np.float32)
        raw[0, 0, 1] = raw[1, 1, :] = 0.25       # tied maxima
        raw[2, 0, 3, [1, 3]] = 2.0
        stack = build_signature(raw, subset_of(idx), mode, labels=labels)
        per_model = np.stack([[build_signature(rows, subset_of(idx), mode, labels=labels)
                               for rows in block] for block in raw])
        assert stack.dtype == np.float64 and stack.flags.c_contiguous
        assert stack.shape == per_model.shape == (3, 2, 5 if mode == "correctness" else 20)
        assert stack.tobytes() == per_model.tobytes()

    def test_errors(self):
        t = tensor_from_rows([[0.5, 0.5]])
        with pytest.raises(LengthMismatch):
            build_signature(t, subset_of([0, 3]), "probs")
        with pytest.raises(InvalidConfig):
            build_signature(t, subset_of([0]), "correctness")


class TestPcaFit:
    def test_collinear_data_one_component(self, rng):
        direction = np.array([1.0, 2.0, -1.0])
        x = rng.standard_normal(12)[:, None] * direction[None, :]
        with pytest.warns(RankDeficiencyWarning):
            proj_full = pca_fit(x, 3)
        proj = pca_fit(x, 1)
        total_var = np.var(x, axis=0, ddof=1).sum()
        assert abs(proj.explained_variance.sum() - total_var) < 1e-8 * total_var
        assert proj_full.components.shape[0] == 1

    def test_full_rank_reconstruction(self, rng):
        x = rng.standard_normal((10, 6))
        proj = pca_fit(x, 6)
        z = pca_transform(proj, x)
        lifted = z @ proj.components + proj.mean
        assert np.abs(lifted - x).max() < 1e-6

    def test_matches_covariance_eigen_oracle(self, rng):
        x = rng.standard_normal((20, 50))
        proj = pca_fit(x, 5)
        cov = np.cov(x, rowvar=False)
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1][:5]
        assert np.abs(proj.explained_variance - eigvals).max() < 1e-6
        # also: variance of the projected coordinates per component
        z = pca_transform(proj, x)
        assert np.abs(np.var(z, axis=0, ddof=1) - eigvals).max() < 1e-6

    def test_orthonormal_components(self, rng):
        x = rng.standard_normal((15, 8))
        proj = pca_fit(x, 6)
        gram = proj.components @ proj.components.T
        assert np.abs(gram - np.eye(6)).max() < 1e-8

    def test_variance_ordering_and_budget(self, rng):
        x = rng.standard_normal((25, 10))
        proj = pca_fit(x, 7)
        ev = proj.explained_variance
        assert (np.diff(ev) <= 1e-12).all()
        assert ev.sum() <= np.var(x, axis=0, ddof=1).sum() + 1e-8

    def test_sign_convention_reproducible(self, rng):
        x = rng.standard_normal((12, 9))
        a = pca_fit(x, 4)
        b = pca_fit(x.copy(), 4)
        assert np.array_equal(a.components, b.components)
        # largest-magnitude entry of every component is positive
        peaks = a.components[np.arange(4), np.abs(a.components).argmax(axis=1)]
        assert (peaks > 0).all()

    def test_errors(self, rng):
        with pytest.raises(TooFewModels):
            pca_fit(rng.standard_normal((1, 5)), 1)
        with pytest.raises(DimensionMismatch):
            pca_fit(rng.standard_normal((4, 5)), 5)

    def test_default_dim(self):
        assert default_pca_dim(100, 200) == 99
        assert default_pca_dim(400, 300) == 256
        assert default_pca_dim(50, 20) == 20


class TestDefaultWidth:
    def test_reduced_to_the_rank_without_a_warning(self, rng):
        # 12 rows of rank 2: the default width 11 is an upper bound
        x = rng.standard_normal((12, 2)) @ rng.standard_normal((2, 30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proj = pca_fit(x)
        assert proj.d == 2
        with pytest.warns(RankDeficiencyWarning):
            explicit = pca_fit(x, 11)
        assert explicit.components.tobytes() == proj.components.tobytes()

    def test_full_rank_default_equals_explicit_width(self, rng):
        x = rng.standard_normal((9, 20))
        assert (pca_fit(x).components.tobytes()
                == pca_fit(x, default_pca_dim(9, 20)).components.tobytes())


class TestPcaFitTransform:
    @pytest.mark.parametrize("shape, d", [((12, 40), 5), ((30, 7), None), ((6, 6), 5)])
    def test_equals_fit_then_transform(self, rng, shape, d):
        x = rng.standard_normal(shape)
        want = pca_fit(x, d)
        centred = x.copy()
        proj, z = pca_fit_transform(centred, d)
        assert proj.mean.tobytes() == want.mean.tobytes()
        assert proj.components.tobytes() == want.components.tobytes()
        assert proj.explained_variance.tobytes() == want.explained_variance.tobytes()
        assert z.tobytes() == pca_transform(want, x).tobytes()
        assert centred.tobytes() == (x - want.mean).tobytes()

    def test_pca_fit_only_reads_its_input(self, rng):
        x = rng.standard_normal((10, 8))
        before = x.tobytes()
        pca_fit(x, 4)
        assert x.tobytes() == before

    @pytest.mark.parametrize("fit", [pca_fit, lambda x, d: pca_fit_transform(x, d)[0]],
                             ids=["pca_fit", "pca_fit_transform"])
    def test_rank_warning_names_the_caller(self, rng, fit):
        x = rng.standard_normal(12)[:, None] * np.array([1.0, 2.0, -1.0])
        with pytest.warns(RankDeficiencyWarning) as record:
            fit(x, 3)
        assert [w.filename for w in record] == [__file__]

    def test_errors(self, rng):
        with pytest.raises(TooFewModels):
            pca_fit_transform(rng.standard_normal((1, 5)), 1)
        with pytest.raises(DimensionMismatch):
            pca_fit_transform(rng.standard_normal((4, 5)), 5)


class TestPcaTransform:
    def test_training_mean_maps_to_zero(self, rng):
        x = rng.standard_normal((9, 5))
        proj = pca_fit(x, 3)
        assert np.abs(pca_transform(proj, x.mean(axis=0))).max() < 1e-9

    def test_linearity(self, rng):
        x = rng.standard_normal((9, 5))
        proj = pca_fit(x, 3)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        lhs = (pca_transform(proj, a + b) - pca_transform(proj, a)
               - pca_transform(proj, b) + pca_transform(proj, np.zeros(5)))
        assert np.abs(lhs).max() < 1e-9

    def test_full_rank_distance_preservation(self, rng):
        x = rng.standard_normal((8, 6))
        proj = pca_fit(x, 6)
        z = pca_transform(proj, x)
        for i in range(8):
            for j in range(i + 1, 8):
                d_full = np.linalg.norm(x[i] - x[j])
                d_proj = np.linalg.norm(z[i] - z[j])
                assert abs(d_full - d_proj) < 1e-6

    def test_length_mismatch(self, rng):
        proj = pca_fit(rng.standard_normal((5, 4)), 2)
        with pytest.raises(LengthMismatch):
            pca_transform(proj, np.zeros(3))

