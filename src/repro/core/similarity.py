"""Cosine similarity over sparse feature matrices (eq. 2 of the paper).

Feature vectors leave :class:`~repro.core.features.FeatureExtractor`
L2-normalized, so cosine similarity is a plain sparse dot product; the
helpers here keep that invariant explicit and provide the ranking
primitives k-attribution builds on.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import sparse

from repro.core.tfidf import l2_normalize_rows


#: Query rows densified per product in :func:`cosine_similarity`.  A
#: 16-row block over the 90k-column reduction space is about 11.5 MB.
QUERY_CHUNK = 16


def cosine_similarity(queries: sparse.spmatrix,
                      corpus: sparse.spmatrix,
                      assume_normalized: bool = True) -> np.ndarray:
    """Pairwise cosine similarities, ``queries x corpus``.

    Parameters
    ----------
    queries / corpus:
        Sparse matrices with one row per document.
    assume_normalized:
        Skip re-normalization when rows are already unit-length (the
        pipeline's default).  Set to ``False`` for raw count matrices.

    Returns
    -------
    numpy.ndarray
        Dense ``(n_queries, n_corpus)`` similarity matrix in [0, 1]
        (all pipeline features are non-negative).

    Notes
    -----
    The product is ``corpus @ dense(queries).T``, taken over
    :data:`QUERY_CHUNK` query rows at a time, so the corpus is never
    transposed.  scipy accumulates each output cell along the stored
    order of the corpus row; with ascending column indices that is the
    same ascending-``k`` sum the sparse ``queries @ corpus.T`` product
    forms, plus ``+0.0`` terms where the query has no entry, which
    leave a non-negative sum unchanged.  The scores are therefore
    bit-identical to the sparse product.  A corpus with unsorted
    indices is scored through a sorted copy.
    """
    q = sparse.csr_matrix(queries, dtype=np.float64)
    if sparse.isspmatrix_csr(corpus) and corpus.dtype == np.float64:
        # Score the caller's matrix itself so its sorted-indices flag
        # is computed once and cached on it.
        c = corpus
    else:
        c = sparse.csr_matrix(corpus, dtype=np.float64)
    if q.shape[1] != c.shape[1]:
        raise ValueError(
            f"dimension mismatch: {q.shape[1]} vs {c.shape[1]}")
    if not assume_normalized:
        q = l2_normalize_rows(q)
        c = l2_normalize_rows(c)
    if not c.has_sorted_indices:
        c = c.sorted_indices()
    scores = np.empty((q.shape[0], c.shape[0]), dtype=np.float64)
    for start in range(0, q.shape[0], QUERY_CHUNK):
        block = q[start:start + QUERY_CHUNK].toarray()
        scores[start:start + block.shape[0]] = (c @ block.T).T
    return scores


def cosine_pair(vector_a: sparse.spmatrix,
                vector_b: sparse.spmatrix) -> float:
    """Cosine similarity of two single-row sparse vectors."""
    return float(cosine_similarity(vector_a, vector_b)[0, 0])


def top_k(scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row top-*k* candidates of a score matrix.

    Returns ``(indices, values)``, both of shape ``(n_rows, k)``, with
    candidates sorted by descending score within each row.  ``k`` is
    clamped to the number of columns.

    Ties are broken by ascending column index (stable sort), making
    the selection fully deterministic — the invariant the blocked
    stage-1 fold (:func:`repro.perf.blocked.blocked_top_k`) relies on
    to be exactly equivalent to the one-shot computation.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_rows, n_cols = scores.shape
    k = min(k, n_cols)
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    values = np.take_along_axis(scores, order, axis=1)
    return order, values


def rank_of(scores_row: np.ndarray, target_index: int) -> int:
    """1-based rank of *target_index* in a descending ordering of scores.

    Used by the accuracy@k evaluations (Table III, Fig. 4): the match
    counts as correct at *k* when its rank is <= k.  Ties are resolved
    pessimistically (equal scores ahead of the target count against it).
    """
    target = scores_row[target_index]
    better = int(np.sum(scores_row > target))
    ties_before = int(np.sum(
        (scores_row == target)[:target_index]))
    return better + ties_before + 1
