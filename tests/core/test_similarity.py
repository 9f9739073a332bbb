"""Unit tests for cosine similarity and ranking (repro.core.similarity)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.similarity import (
    QUERY_CHUNK,
    cosine_pair,
    cosine_similarity,
    rank_of,
    top_k,
)
from repro.core.tfidf import l2_normalize_rows


def _rows(*rows):
    return sparse.csr_matrix(np.array(rows, dtype=float))


class TestCosineSimilarity:
    def test_identical_unit_rows(self):
        a = _rows([1.0, 0.0])
        sims = cosine_similarity(a, a)
        assert sims[0, 0] == pytest.approx(1.0)

    def test_orthogonal_rows(self):
        sims = cosine_similarity(_rows([1, 0]), _rows([0, 1]))
        assert sims[0, 0] == pytest.approx(0.0)

    def test_unnormalized_inputs(self):
        sims = cosine_similarity(_rows([2, 0]), _rows([5, 0]),
                                 assume_normalized=False)
        assert sims[0, 0] == pytest.approx(1.0)

    def test_shape(self):
        sims = cosine_similarity(_rows([1, 0], [0, 1]),
                                 _rows([1, 0], [0, 1], [1, 1]))
        assert sims.shape == (2, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(_rows([1, 0]), _rows([1, 0, 0]))

    def test_cosine_pair(self):
        assert cosine_pair(_rows([1, 0]), _rows([1, 0])) == \
            pytest.approx(1.0)


def _sparse_product(queries, corpus, assume_normalized=True):
    """The former implementation: one sparse ``queries @ corpus.T``."""
    q = sparse.csr_matrix(queries, dtype=np.float64)
    c = sparse.csr_matrix(corpus, dtype=np.float64)
    if not assume_normalized:
        q = l2_normalize_rows(q)
        c = l2_normalize_rows(c)
    return (q @ c.T).toarray()


def _random_counts(rng, n_rows, n_terms, density):
    """Non-negative whole-valued counts with some empty rows."""
    counts = rng.integers(1, 9, size=(n_rows, n_terms)).astype(float)
    counts[rng.random((n_rows, n_terms)) >= density] = 0.0
    counts[rng.random(n_rows) < 0.2] = 0.0
    return sparse.csr_matrix(counts)


def _shuffle_rows(matrix, rng):
    """The same matrix with each row's entries stored in random order."""
    order = np.concatenate([
        start + rng.permutation(stop - start)
        for start, stop in zip(matrix.indptr[:-1], matrix.indptr[1:])
    ] + [np.empty(0, dtype=np.int64)])
    return sparse.csr_matrix(
        (matrix.data[order], matrix.indices[order], matrix.indptr),
        shape=matrix.shape)


def _bits(array):
    return array.view(np.int64)


_QUERY_COUNTS = st.sampled_from(
    [0, 1, QUERY_CHUNK - 1, QUERY_CHUNK, QUERY_CHUNK + 1, 40])


class TestDenseQueryProduct:
    """``cosine_similarity`` is bit-identical to the sparse product."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_queries=_QUERY_COUNTS,
           n_corpus=st.integers(0, 30),
           n_terms=st.integers(0, 40),
           density=st.floats(0.0, 1.0))
    def test_normalized_bitwise_equal(self, seed, n_queries, n_corpus,
                                      n_terms, density):
        rng = np.random.default_rng(seed)
        queries = l2_normalize_rows(
            _random_counts(rng, n_queries, n_terms, density))
        corpus = l2_normalize_rows(
            _random_counts(rng, n_corpus, n_terms, density))
        assert corpus.has_sorted_indices
        got = cosine_similarity(queries, corpus)
        want = _sparse_product(queries, corpus)
        assert got.shape == (n_queries, n_corpus)
        assert np.array_equal(_bits(got), _bits(want))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_queries=_QUERY_COUNTS,
           n_corpus=st.integers(0, 30),
           n_terms=st.integers(0, 40),
           density=st.floats(0.0, 1.0))
    def test_unnormalized_bitwise_equal(self, seed, n_queries, n_corpus,
                                        n_terms, density):
        rng = np.random.default_rng(seed)
        queries = _random_counts(rng, n_queries, n_terms, density)
        corpus = _random_counts(rng, n_corpus, n_terms, density)
        got = cosine_similarity(queries, corpus, assume_normalized=False)
        want = _sparse_product(queries, corpus, assume_normalized=False)
        assert np.array_equal(_bits(got), _bits(want))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_queries=_QUERY_COUNTS,
           n_corpus=st.integers(1, 30),
           n_terms=st.integers(1, 40),
           density=st.floats(0.0, 1.0))
    def test_shuffled_corpus_equals_sorted(self, seed, n_queries,
                                           n_corpus, n_terms, density):
        rng = np.random.default_rng(seed)
        queries = l2_normalize_rows(
            _random_counts(rng, n_queries, n_terms, density))
        corpus = l2_normalize_rows(
            _random_counts(rng, n_corpus, n_terms, density))
        shuffled = _shuffle_rows(corpus, rng)
        stored = shuffled.indices.copy()
        got = cosine_similarity(queries, shuffled)
        want = _sparse_product(queries, corpus)
        assert np.array_equal(_bits(got), _bits(want))
        # The caller's matrix is scored through a sorted copy, untouched.
        assert np.array_equal(shuffled.indices, stored)

    def test_zero_row_corpus(self):
        queries = _rows([1, 0], [0, 1])
        sims = cosine_similarity(queries, sparse.csr_matrix((0, 2)))
        assert sims.shape == (2, 0)

    def test_zero_columns(self):
        sims = cosine_similarity(sparse.csr_matrix((3, 0)),
                                 sparse.csr_matrix((4, 0)))
        assert sims.shape == (3, 4)
        assert not sims.any()


class TestTopK:
    SCORES = np.array([
        [0.1, 0.9, 0.5, 0.7],
        [0.8, 0.2, 0.6, 0.4],
    ])

    def test_indices_and_values_sorted(self):
        indices, values = top_k(self.SCORES, 2)
        assert indices[0].tolist() == [1, 3]
        assert values[0].tolist() == [0.9, 0.7]
        assert indices[1].tolist() == [0, 2]

    def test_k_clamped_to_columns(self):
        indices, _ = top_k(self.SCORES, 10)
        assert indices.shape == (2, 4)

    def test_k_one(self):
        indices, values = top_k(self.SCORES, 1)
        assert indices[:, 0].tolist() == [1, 0]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_k(self.SCORES, 0)

    def test_full_k_is_argsort(self):
        indices, _ = top_k(self.SCORES, 4)
        expected = np.argsort(-self.SCORES, axis=1)
        assert np.array_equal(indices, expected)


class TestRankOf:
    def test_best_is_rank_one(self):
        row = np.array([0.2, 0.9, 0.5])
        assert rank_of(row, 1) == 1

    def test_worst_rank(self):
        row = np.array([0.2, 0.9, 0.5])
        assert rank_of(row, 0) == 3

    def test_ties_pessimistic(self):
        row = np.array([0.5, 0.5, 0.9])
        # index 1 ties with index 0 which precedes it
        assert rank_of(row, 1) == 3
        assert rank_of(row, 0) == 2
