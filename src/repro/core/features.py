"""Feature extraction: Table II made executable.

For every alias document the pipeline builds one vector made of four
blocks:

* **word n-grams** (orders 1–3), top-N by corpus frequency, Tf-Idf
  weighted;
* **character n-grams** (orders 1–5), top-N by corpus frequency,
  Tf-Idf weighted;
* **frequency features**: the relative frequencies of 11 punctuation
  marks, 10 digits and 21 special characters;
* **daily activity profile**: the 24-bin histogram of Section IV-B
  (optional — ablated in Fig. 4).

Each block is L2-normalized and scaled by a block weight before
concatenation, so the cosine similarity of two full vectors is a convex
combination of the per-block cosine similarities.  The paper
concatenates the blocks without stating a scaling; explicit block
weights make the combination reproducible and sweepable (the Fig. 4
bench ablates the activity block by zeroing its weight).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.config import FeatureBudget
from repro.core import ngrams
from repro.core.documents import AliasDocument
from repro.core.structure import STRUCTURE_DIM
from repro.core.tfidf import TfidfModel, normalize_row_data
from repro.errors import ConfigurationError, NotFittedError
from repro.perf.cache import ProfileCache
from repro.obs.metrics import counter, gauge
from repro.obs.spans import span

#: Size of the most recently fitted text feature space (words + chars).
_VOCAB_SIZE = gauge("encoder_vocab_size")
#: Feature-space fits (each stage-2 rescore fits one).
_FITS = counter("feature_fits_total")
#: Documents vectorized by transform calls.
_TRANSFORMED = counter("documents_vectorized_total")

#: The 11 punctuation marks whose frequencies are features (Table II).
PUNCTUATION_CHARS: Tuple[str, ...] = (
    ".", ",", ":", ";", "!", "?", "'", '"', "(", ")", "-",
)

#: The 10 digit features.
DIGIT_CHARS: Tuple[str, ...] = tuple("0123456789")

#: The 21 special-character features (Table II counts 21).
SPECIAL_CHARS: Tuple[str, ...] = (
    "@", "#", "$", "%", "&", "*", "+", "/", "<", ">", "=",
    "[", "]", "{", "}", "\\", "^", "_", "|", "~", "`",
)

_FREQ_CHARS = PUNCTUATION_CHARS + DIGIT_CHARS + SPECIAL_CHARS


@dataclass(frozen=True)
class FeatureWeights:
    """Relative weight of each block in the concatenated vector.

    With every block L2-normalized, the cosine similarity of two full
    vectors equals ``sum(w_i^2 * cos_i) / sum(w_i^2)`` over the blocks
    present — so these weights directly control how much say each block
    has.  ``activity=0`` reproduces the paper's text-only runs.

    The defaults are calibrated on synthetic Reddit alter-egos: the
    activity weight is the largest value that still boosts accuracy at
    small text sizes (the paper's Fig. 4 effect) without drowning the
    text signal at 1,500 words.  The structure weight only matters when
    the extractor's ``use_structure`` flag is on (off by default), so
    the paper configuration never sees the block.
    """

    text: float = 1.0
    frequencies: float = 0.35
    activity: float = 0.20
    structure: float = 0.25

    def __post_init__(self) -> None:
        for name in ("text", "frequencies", "activity", "structure"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} weight must be >= 0")
        if self.text == 0 and self.frequencies == 0 and self.activity == 0:
            raise ConfigurationError("at least one block weight must be > 0")

    def without_activity(self) -> "FeatureWeights":
        """A copy with the activity block disabled (text-only runs)."""
        return FeatureWeights(text=self.text,
                              frequencies=self.frequencies,
                              activity=0.0,
                              structure=self.structure)


def frequency_features(text: str) -> np.ndarray:
    """The 42 punctuation/digit/special-character frequencies of *text*."""
    total = len(text)
    if total == 0:
        return np.zeros(len(_FREQ_CHARS), dtype=np.float64)
    counts = np.array([text.count(char) for char in _FREQ_CHARS],
                      dtype=np.float64)
    return counts / total


class DocumentEncoder:
    """Per-document n-gram profiles over a shared word vocab.

    Both pipeline stages re-extract features on different document
    subsets; the encoder guarantees tokenized text is only encoded once
    per document.  Since the perf subsystem landed the encoder is a
    thin facade over :class:`repro.perf.cache.ProfileCache`, which owns
    the memoization (and its hit/miss/bytes telemetry); pass a shared
    cache to make several extractors — or several linkers — reuse one
    set of profiles.
    """

    def __init__(self, cache: "ProfileCache | None" = None) -> None:
        self.cache = cache if cache is not None else ProfileCache()

    @property
    def vocab(self) -> ngrams.WordVocab:
        """The shared word-interning table (lives on the cache)."""
        return self.cache.vocab

    def word_profile(self, document: AliasDocument) -> ngrams.CodeCounts:
        """Word 1–3-gram counts of *document* (cached)."""
        return self.cache.word_profile(document)

    def char_profile(self, document: AliasDocument) -> ngrams.CodeCounts:
        """Character 1–5-gram counts of *document* (cached)."""
        return self.cache.char_profile(document)

    def freq_features(self, document: AliasDocument) -> np.ndarray:
        """Frequency features of *document* (cached)."""
        return self.cache.freq_features(document)

    def drop(self, doc_ids: Iterable[str]) -> None:
        """Forget cached profiles (memory control for huge corpora)."""
        self.cache.drop(doc_ids)


#: One horizontal block of a CSR matrix under construction:
#: ``(row_nnz, column indices, data, n_columns)``, rows in order.
_Block = Tuple[np.ndarray, np.ndarray, np.ndarray, int]


def _projection_block(projection: ngrams.Projection) -> _Block:
    return (projection.row_nnz, projection.columns, projection.counts,
            projection.selected.size)


def _dense_block(rows: np.ndarray, weight: float) -> _Block:
    """Dense per-document rows as a block: their nonzero entries, each
    row scaled to unit L2 norm, times *weight*."""
    row_ids, columns = np.nonzero(rows)
    data = rows[row_ids, columns].astype(np.float64, copy=False)
    row_nnz = np.bincount(row_ids, minlength=rows.shape[0])
    indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(row_nnz, out=indptr[1:])
    normalize_row_data(data, indptr)
    return row_nnz, columns, data * weight, rows.shape[1]


def _stack_blocks(n_rows: int,
                  blocks: Sequence[_Block]) -> sparse.csr_matrix:
    """Lay *blocks* side by side in one CSR construction: each row
    holds its entries of the first block, then of the second shifted
    past the first block's columns, and so on, the layout
    ``sparse.hstack`` gives."""
    row_nnz = np.column_stack([block[0] for block in blocks])
    n_cols = sum(block[3] for block in blocks)
    nnz = int(row_nnz.sum())
    index = np.int32 if max(n_cols - 1, nnz) < 2 ** 31 else np.int64
    indptr = np.zeros(n_rows + 1, dtype=index)
    np.cumsum(row_nnz.sum(axis=1), out=indptr[1:])
    owner = np.repeat(np.tile(np.arange(len(blocks), dtype=np.int8),
                              n_rows), row_nnz.ravel())
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz, dtype=np.float64)
    offset = 0
    for number, (_, columns, values, width) in enumerate(blocks):
        slots = owner == number
        indices[slots] = columns + offset
        data[slots] = values
        offset += width
    matrix = sparse.csr_matrix((data, indices, indptr),
                               shape=(n_rows, n_cols))
    matrix.has_sorted_indices = True
    return matrix


class FeatureExtractor:
    """Fit a feature space on a corpus, then vectorize documents.

    Parameters
    ----------
    budget:
        How many word/char n-grams to keep (Table II column).
    weights:
        Block weights (see :class:`FeatureWeights`).
    use_activity:
        Append the daily activity profile block.  Documents without a
        profile get a zero block (their activity contributes nothing to
        any cosine).
    use_structure:
        Append the reply-graph/thread-structure block
        (:mod:`repro.core.structure`).  Off by default: the default
        vector is bit-identical to the paper configuration.  Documents
        without a structure vector get a zero block.
    encoder:
        Shared :class:`DocumentEncoder`; a private one is created when
        omitted.
    """

    def __init__(self, budget: FeatureBudget,
                 weights: FeatureWeights | None = None,
                 use_activity: bool = True,
                 use_structure: bool = False,
                 encoder: DocumentEncoder | None = None) -> None:
        self.budget = budget
        self.weights = weights or FeatureWeights()
        self.use_activity = use_activity
        self.use_structure = use_structure
        self.encoder = encoder or DocumentEncoder()
        self._selected_words: Optional[np.ndarray] = None
        self._selected_chars: Optional[np.ndarray] = None
        self._tfidf: Optional[TfidfModel] = None

    @property
    def is_fitted(self) -> bool:
        return self._tfidf is not None

    def fit(self, documents: Sequence[AliasDocument]) -> "FeatureExtractor":
        """Select the top-N n-grams and learn Tf-Idf weights.

        Following Section IV-I: "we extract the text features from the
        documents associated with the set of known users Z, we rank the
        n-grams by frequency, and then we select the top N".
        """
        self._fit_counts(documents)
        return self

    def _fit_counts(self, documents: Sequence[AliasDocument],
                    ) -> sparse.csr_matrix:
        """:meth:`fit`, returning the text counts it fitted the Idf on
        (so :meth:`fit_transform` need not project again).

        Each n-gram family is selected and projected by
        :func:`ngrams.fit_projection` from one sort of its occurrences.
        """
        if not documents:
            raise ConfigurationError("cannot fit on an empty corpus")
        with span("features.fit", n_documents=len(documents)):
            words = ngrams.fit_projection(
                [self.encoder.word_profile(d) for d in documents],
                self.budget.word_ngrams)
            chars = ngrams.fit_projection(
                [self.encoder.char_profile(d) for d in documents],
                self.budget.char_ngrams)
            self._selected_words = words.selected
            self._selected_chars = chars.selected
            counts = _stack_blocks(len(documents), [
                _projection_block(words), _projection_block(chars)])
            self._tfidf = TfidfModel().fit(counts)
        _FITS.inc()
        _VOCAB_SIZE.set(self._selected_words.size
                        + self._selected_chars.size)
        return counts

    def _text_counts(self, documents: Sequence[AliasDocument],
                     ) -> sparse.csr_matrix:
        words = ngrams.project_all(
            [self.encoder.word_profile(d) for d in documents],
            self._selected_words)
        chars = ngrams.project_all(
            [self.encoder.char_profile(d) for d in documents],
            self._selected_chars)
        return _stack_blocks(len(documents), [_projection_block(words),
                                              _projection_block(chars)])

    def transform(self, documents: Sequence[AliasDocument],
                  ) -> sparse.csr_matrix:
        """Vectorize documents into the fitted feature space."""
        if not self.is_fitted:
            raise NotFittedError("FeatureExtractor.fit has not been called")
        _TRANSFORMED.inc(len(documents))
        with span("features.transform", n_documents=len(documents)):
            return self._transform_inner(documents,
                                         self._text_counts(documents))

    def _transform_inner(self, documents: Sequence[AliasDocument],
                         counts: sparse.csr_matrix,
                         ) -> sparse.csr_matrix:
        text = self._tfidf.weigh(counts)
        text *= self.weights.text
        blocks: List[_Block] = [(np.diff(counts.indptr), counts.indices,
                                 text, counts.shape[1])]
        cache = self.encoder.cache
        if self.weights.frequencies > 0:
            blocks.append(_dense_block(
                np.vstack([self.encoder.freq_features(d)
                           for d in documents]),
                self.weights.frequencies))
        if self.use_activity and self.weights.activity > 0:
            blocks.append(_dense_block(
                np.vstack([cache.activity_row(d, self.budget.activity_bins)
                           for d in documents]),
                self.weights.activity))
        if self.use_structure and self.weights.structure > 0:
            blocks.append(_dense_block(
                np.vstack([cache.structure_row(d) for d in documents]),
                self.weights.structure))
        stacked = _stack_blocks(len(documents), blocks)
        normalize_row_data(stacked.data, stacked.indptr)
        return stacked

    def fit_transform(self, documents: Sequence[AliasDocument],
                      ) -> sparse.csr_matrix:
        """:meth:`fit` then :meth:`transform`, projecting each document's
        counts once: the transform reuses the count matrix the Idf was
        fitted on.  Bit-identical to the two calls, counters included.
        """
        counts = self._fit_counts(documents)
        _TRANSFORMED.inc(len(documents))
        with span("features.transform", n_documents=len(documents)):
            return self._transform_inner(documents, counts)

    def vocabulary_sizes(self) -> Dict[str, int]:
        """Actual number of selected features per text family."""
        if self._selected_words is None or self._selected_chars is None:
            raise NotFittedError("FeatureExtractor.fit has not been called")
        return {
            "word_ngrams": int(self._selected_words.size),
            "char_ngrams": int(self._selected_chars.size),
            "punctuation": len(PUNCTUATION_CHARS),
            "digits": len(DIGIT_CHARS),
            "special_chars": len(SPECIAL_CHARS),
            "activity_bins": self.budget.activity_bins
            if self.use_activity else 0,
            "structure": STRUCTURE_DIM if self.use_structure else 0,
        }
