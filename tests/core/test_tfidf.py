"""Unit tests for Tf-Idf weighting (repro.core.tfidf)."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.tfidf import TfidfModel, l2_normalize_rows
from repro.errors import NotFittedError


def _counts():
    # 3 docs x 4 terms; term 0 in every doc, term 3 in one doc
    return sparse.csr_matrix(np.array([
        [2, 1, 0, 0],
        [1, 0, 3, 0],
        [5, 0, 0, 7],
    ], dtype=float))


class TestTfidfModel:
    def test_fit_computes_smooth_idf(self):
        model = TfidfModel().fit(_counts())
        n = 3
        df = np.array([3, 1, 1, 1])
        expected = np.log((1 + n) / (1 + df)) + 1
        assert np.allclose(model.idf, expected)

    def test_transform_rows_unit_norm(self):
        model = TfidfModel().fit(_counts())
        weighted = model.transform(_counts())
        norms = np.sqrt(np.asarray(
            weighted.multiply(weighted).sum(axis=1))).ravel()
        assert np.allclose(norms, 1.0)

    def test_rare_term_upweighted(self):
        model = TfidfModel().fit(_counts())
        weighted = model.transform(_counts()).toarray()
        # doc 2: term 0 count 5 (common), term 3 count 7 (rare)
        # rare term must dominate even more after idf
        ratio_before = 7 / 5
        ratio_after = weighted[2, 3] / weighted[2, 0]
        assert ratio_after > ratio_before

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            TfidfModel().transform(_counts())

    def test_idf_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            TfidfModel().idf

    def test_dimension_mismatch_rejected(self):
        model = TfidfModel().fit(_counts())
        with pytest.raises(ValueError):
            model.transform(sparse.csr_matrix((2, 9)))

    def test_fit_transform_equivalent(self):
        a = TfidfModel().fit_transform(_counts()).toarray()
        model = TfidfModel().fit(_counts())
        b = model.transform(_counts()).toarray()
        assert np.allclose(a, b)

    def test_input_not_mutated(self):
        counts = _counts()
        original = counts.toarray().copy()
        TfidfModel().fit_transform(counts)
        assert np.array_equal(counts.toarray(), original)

    def test_weigh_is_transform_data(self):
        counts = _counts()
        model = TfidfModel().fit(counts)
        original = counts.data.copy()
        weights = model.weigh(counts)
        assert np.array_equal(weights, model.transform(counts).data)
        assert np.array_equal(counts.data, original)


class TestL2Normalize:
    def test_unit_norms(self):
        matrix = sparse.csr_matrix(np.array([[3.0, 4.0], [1.0, 0.0]]))
        out = l2_normalize_rows(matrix).toarray()
        assert np.allclose(out[0], [0.6, 0.8])
        assert np.allclose(out[1], [1.0, 0.0])

    def test_zero_row_stays_zero(self):
        matrix = sparse.csr_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        out = l2_normalize_rows(matrix).toarray()
        assert np.allclose(out[0], 0.0)

    def test_empty_matrix(self):
        out = l2_normalize_rows(sparse.csr_matrix((0, 5)))
        assert out.shape == (0, 5)
