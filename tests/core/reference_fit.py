"""The feature fit as it was before the fused single-sort fit.

The stable-argsort merge, the stable-argsort top-N selection, one
``searchsorted`` projection per document and family, an ``hstack`` of
the word and char blocks, and the block assembly through scipy
(dense blocks converted to CSR, scaled, ``hstack``ed and normalized).
Tests compare the fused fit in ``repro.core.ngrams`` /
``repro.core.features`` against it bit for bit.
"""

import numpy as np
from scipy import sparse

from repro.core.tfidf import l2_normalize_rows


def old_merge_counts(profiles):
    """Corpus totals: stable argsort + reduceat."""
    filled = [p for p in profiles if p.codes.size]
    if not filled:
        return (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    codes = np.concatenate([p.codes for p in filled])
    counts = np.concatenate([p.counts for p in filled])
    order = np.argsort(codes, kind="stable")
    codes, counts = codes[order], counts[order]
    boundaries = np.empty(len(codes), dtype=bool)
    boundaries[0] = True
    np.not_equal(codes[1:], codes[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    return codes[starts], np.add.reduceat(counts, starts)


def old_select_top(codes, counts, budget):
    """The first *budget* entries of a stable ``argsort(-counts)``."""
    if budget == 0 or codes.size == 0:
        return np.empty(0, dtype=np.uint64)
    if codes.size <= budget:
        return np.sort(codes)
    return np.sort(codes[np.argsort(-counts, kind="stable")[:budget]])


def old_project(codes, counts, selected):
    """One document's ``searchsorted`` projection onto *selected*."""
    if codes.size == 0 or selected.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    positions = np.minimum(np.searchsorted(selected, codes),
                           len(selected) - 1)
    hits = selected[positions] == codes
    return positions[hits], counts[hits]


def _old_counts_matrix(profiles, selected):
    indptr = [0]
    indices, data = [], []
    for profile in profiles:
        cols, counts = old_project(profile.codes, profile.counts, selected)
        indices.append(cols)
        data.append(counts.astype(np.float64))
        indptr.append(indptr[-1] + len(cols))
    if indices:
        indices_arr, data_arr = np.concatenate(indices), np.concatenate(data)
    else:
        indices_arr = np.empty(0, dtype=np.int64)
        data_arr = np.empty(0, dtype=np.float64)
    return sparse.csr_matrix(
        (data_arr, indices_arr, np.asarray(indptr, dtype=np.int64)),
        shape=(len(profiles), len(selected)))


def old_text_counts(word_profiles, char_profiles, selected_words,
                    selected_chars):
    """The word+char count matrix: two projected blocks, ``hstack``ed."""
    return sparse.csr_matrix(sparse.hstack(
        [_old_counts_matrix(word_profiles, selected_words),
         _old_counts_matrix(char_profiles, selected_chars)], format="csr"))


def old_fit_counts(word_profiles, char_profiles, budget):
    """``(selected words, selected chars, word+char count matrix)``."""
    selected_words = old_select_top(*old_merge_counts(word_profiles),
                                    budget.word_ngrams)
    selected_chars = old_select_top(*old_merge_counts(char_profiles),
                                    budget.char_ngrams)
    return selected_words, selected_chars, old_text_counts(
        word_profiles, char_profiles, selected_words, selected_chars)


def old_transform_inner(extractor, documents, counts):
    """The vectors of *documents* from their text *counts*, assembled
    with one scipy matrix per block and an ``hstack``."""
    weights, cache = extractor.weights, extractor.encoder.cache
    blocks = [extractor._tfidf.transform(counts) * weights.text]
    dense = []
    if weights.frequencies > 0:
        dense.append(([extractor.encoder.freq_features(d)
                       for d in documents], weights.frequencies))
    if extractor.use_activity and weights.activity > 0:
        dense.append(([cache.activity_row(d,
                                          extractor.budget.activity_bins)
                       for d in documents], weights.activity))
    if extractor.use_structure and weights.structure > 0:
        dense.append(([cache.structure_row(d) for d in documents],
                      weights.structure))
    for rows, weight in dense:
        block = l2_normalize_rows(sparse.csr_matrix(np.vstack(rows)),
                                  copy=False)
        blocks.append(block * weight)
    stacked = sparse.csr_matrix(sparse.hstack(blocks, format="csr"))
    return l2_normalize_rows(stacked, copy=False)
