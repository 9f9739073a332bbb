"""Fast n-gram counting with integer-coded grams.

Counting word 1–3-grams and character 1–5-grams per user with Python
``Counter`` objects is the textbook approach — and orders of magnitude
too slow for corpora with thousands of 1,500-word aliases.  This module
packs every n-gram into a single ``uint64`` code:

* characters are Latin-1 bytes (the polishing pipeline strips emoji and
  non-English text, so forum messages are effectively Latin-1); a
  5-gram is five bytes plus a 4-bit order tag,
* words are interned into a shared :class:`WordVocab` (18 bits per word
  id, three ids plus the order and kind tags).

Per-document counting then reduces to a vectorized sliding-window
encode followed by ``numpy.unique`` — about two orders of magnitude
faster than hashing strings — and per-corpus aggregation, top-N
selection and sparse-matrix construction all operate on sorted integer
arrays.

Codes are unambiguous: equal codes always mean the same n-gram, and the
original gram can be decoded back for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Bits reserved per word id; three ids (a word 3-gram) must fit below
#: the kind bit (59), so 18 bits each: vocabularies cap at 262,144
#: distinct words — ample for forum corpora after polishing.
_WORD_BITS = 18
_WORD_CAP = 1 << _WORD_BITS

#: Bits for the order tag (stored in the top nibble of the code).
_ORDER_SHIFT = 60

#: Word codes set this bit so they can never collide with char codes
#: even if profiles of both kinds are merged by mistake.
_WORD_KIND_BIT = np.uint64(1) << np.uint64(59)

#: n-gram orders used by the pipeline (Table II).
WORD_ORDERS = (1, 2, 3)
CHAR_ORDERS = (1, 2, 3, 4, 5)


class WordVocab:
    """A shared word-interning table.

    Word ids are assigned on first sight and never change, so codes
    computed at different times remain comparable.  The vocabulary is
    capped at 2**18 (262,144) entries so that three ids fit below the
    kind bit of a ``uint64`` code.
    """

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._words: List[str] = []

    def __len__(self) -> int:
        return len(self._words)

    def intern(self, word: str) -> int:
        """Return the id of *word*, assigning a new one if needed."""
        word_id = self._ids.get(word)
        if word_id is None:
            word_id = len(self._words)
            if word_id >= _WORD_CAP:
                raise ConfigurationError(
                    f"word vocabulary exceeded {_WORD_CAP} entries")
            self._ids[word] = word_id
            self._words.append(word)
        return word_id

    def encode(self, words: Sequence[str]) -> np.ndarray:
        """Intern a token sequence into an id array."""
        intern = self.intern
        return np.fromiter((intern(w) for w in words),
                           dtype=np.uint64, count=len(words))

    def word(self, word_id: int) -> str:
        """The word behind an id (for decoding)."""
        return self._words[word_id]


def _sliding_codes(ids: np.ndarray, order: int, bits: int) -> np.ndarray:
    """Pack consecutive runs of *order* ids into single codes."""
    n = len(ids) - order + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    codes = np.zeros(n, dtype=np.uint64)
    for j in range(order):
        codes |= ids[j:j + n] << np.uint64(bits * (order - 1 - j))
    codes |= np.uint64(order) << np.uint64(_ORDER_SHIFT)
    return codes


def encode_text_chars(text: str) -> np.ndarray:
    """Latin-1 byte ids of *text* (unencodable chars become ``?``)."""
    raw = text.encode("latin-1", "replace")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.uint64)


def char_ngram_codes(text: str,
                     orders: Iterable[int] = CHAR_ORDERS) -> np.ndarray:
    """All character n-gram codes of *text* (one entry per occurrence)."""
    ids = encode_text_chars(text)
    parts = [_sliding_codes(ids, order, 8) for order in orders]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(parts)


def word_ngram_codes(tokens: Sequence[str], vocab: WordVocab,
                     orders: Iterable[int] = WORD_ORDERS) -> np.ndarray:
    """All word n-gram codes of a token sequence."""
    ids = vocab.encode(tokens)
    parts = [_sliding_codes(ids, order, _WORD_BITS) | _WORD_KIND_BIT
             for order in orders]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(parts)


def count_codes(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse an occurrence array into (sorted unique codes, counts)."""
    if codes.size == 0:
        return (np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.int64))
    return np.unique(codes, return_counts=True)


@dataclass(frozen=True)
class CodeCounts:
    """A document's n-gram profile: sorted codes with their counts."""

    codes: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.codes.shape != self.counts.shape:
            raise ConfigurationError("codes/counts shape mismatch")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_occurrences(cls, codes: np.ndarray) -> "CodeCounts":
        unique, counts = count_codes(codes)
        return cls(codes=unique, counts=counts)


def _concatenate(profiles: Sequence[CodeCounts],
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The profiles' codes and counts laid end to end, with the offset
    of each profile's first entry (``len(profiles) + 1`` offsets)."""
    offsets = np.zeros(len(profiles) + 1, dtype=np.int64)
    np.cumsum([p.codes.size for p in profiles], out=offsets[1:])
    filled = [p for p in profiles if p.codes.size]
    if not filled:
        return (np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.int64), offsets)
    return (np.concatenate([p.codes for p in filled]),
            np.concatenate([p.counts for p in filled]), offsets)


def _sort_merge(codes: np.ndarray, counts: np.ndarray,
                ) -> Tuple[CodeCounts, np.ndarray, np.ndarray]:
    """Corpus totals of a non-empty occurrence array.

    Returns the merged profile together with the stable sort order of
    *codes* and the mask of sorted slots that start a new code, from
    which :func:`fit_projection` recovers every occurrence's merged
    position without sorting again.
    """
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    starts_mask = np.empty(len(sorted_codes), dtype=bool)
    starts_mask[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=starts_mask[1:])
    starts = np.flatnonzero(starts_mask)
    merged = CodeCounts(codes=sorted_codes[starts],
                        counts=np.add.reduceat(counts[order], starts))
    return merged, order, starts_mask


def merge_counts(profiles: Iterable[CodeCounts]) -> CodeCounts:
    """Aggregate several documents' profiles into corpus totals."""
    codes, counts, _ = _concatenate(list(profiles))
    if not codes.size:
        return CodeCounts(codes, counts)
    return _sort_merge(codes, counts)[0]


def document_frequencies(profiles: Iterable[CodeCounts]) -> CodeCounts:
    """Count in how many documents each code appears (for the Idf)."""
    binary = (CodeCounts(p.codes, np.ones(len(p.codes), dtype=np.int64))
              for p in profiles)
    return merge_counts(binary)


def top_positions(counts: np.ndarray, budget: int) -> np.ndarray:
    """Ascending positions of the *budget* largest *counts*, ties at
    the cut going to the lowest positions.

    These are exactly the first *budget* entries of the stable
    ``argsort(-counts)``, found in O(n): ``np.partition`` finds the
    count at the cut, every larger count is kept, and the lowest-placed
    entries equal to the cut fill the remaining slots.
    """
    size = counts.size
    if budget >= size:
        return np.arange(size)
    if budget <= 0:
        return np.empty(0, dtype=np.intp)
    cut = np.partition(counts, size - budget)[size - budget]
    mask = counts > cut
    ties = np.flatnonzero(counts == cut)
    mask[ties[:budget - np.count_nonzero(mask)]] = True
    return np.flatnonzero(mask)


def select_top(corpus: CodeCounts, budget: int) -> np.ndarray:
    """The *budget* most frequent codes of a :func:`merge_counts` output.

    *corpus* must be sorted ascending by code, as :func:`merge_counts`
    returns it.  Ties are then broken by code value, so selection is
    deterministic, and the returned codes are ascending, so that
    per-document projection can use :func:`numpy.searchsorted`.
    """
    if budget < 0:
        raise ConfigurationError("budget must be >= 0")
    return corpus.codes[top_positions(corpus.counts, budget)]


@dataclass(frozen=True)
class Projection:
    """Several profiles projected onto a selected code set.

    ``columns`` and ``counts`` hold the kept entries of every profile,
    profile after profile (``row_nnz`` of them each), with columns
    ascending within a profile: the rows of a CSR count matrix over
    ``selected``.
    """

    selected: np.ndarray
    row_nnz: np.ndarray
    columns: np.ndarray
    counts: np.ndarray


def fit_projection(profiles: Sequence[CodeCounts],
                   budget: int) -> Projection:
    """Select the top *budget* codes of *profiles* and project every
    profile onto them, with one sort.

    Equal to ``select_top(merge_counts(profiles), budget)`` followed by
    :func:`project_counts` of each profile.  The sort that builds the
    corpus totals also gives each occurrence its merged position, so
    the projection is a lookup instead of a search per profile.
    """
    if budget < 0:
        raise ConfigurationError("budget must be >= 0")
    codes, counts, offsets = _concatenate(profiles)
    if not codes.size:
        return Projection(selected=codes,
                          row_nnz=np.zeros(len(profiles), dtype=np.int64),
                          columns=np.empty(0, dtype=np.int32),
                          counts=counts)
    corpus, order, starts_mask = _sort_merge(codes, counts)
    # Each occurrence-sized array is dropped once spent: a stage-1 fit
    # holds millions of occurrences per family.
    del codes
    index = np.int32 if starts_mask.size < 2 ** 31 else np.int64
    # Merged position of each occurrence: its group number in the sort.
    group = np.cumsum(starts_mask, dtype=index)
    group -= 1
    del starts_mask
    positions = np.empty_like(group)
    positions[order] = group
    del order, group
    chosen = top_positions(corpus.counts, budget)
    column_of = np.full(corpus.codes.size, -1, dtype=index)
    column_of[chosen] = np.arange(chosen.size, dtype=index)
    columns = column_of[positions]
    del positions
    kept = np.flatnonzero(columns >= 0)
    return Projection(selected=corpus.codes[chosen],
                      row_nnz=np.diff(np.searchsorted(kept, offsets)),
                      columns=columns[kept], counts=counts[kept])


def project_all(profiles: Sequence[CodeCounts],
                selected: np.ndarray) -> Projection:
    """:func:`project_counts` of every profile onto *selected*."""
    parts = [project_counts(profile, selected) for profile in profiles]
    if not parts:
        return Projection(selected=selected,
                          row_nnz=np.empty(0, dtype=np.int64),
                          columns=np.empty(0, dtype=np.int64),
                          counts=np.empty(0, dtype=np.int64))
    return Projection(
        selected=selected,
        row_nnz=np.array([cols.size for cols, _ in parts], dtype=np.int64),
        columns=np.concatenate([cols for cols, _ in parts]),
        counts=np.concatenate([counts for _, counts in parts]))


def project_counts(profile: CodeCounts,
                   selected: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Project a document profile onto a selected code set.

    Returns ``(column_indices, counts)`` for the codes of *profile*
    present in *selected* (which must be sorted ascending).
    """
    if profile.codes.size == 0 or selected.size == 0:
        return (np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64))
    positions = np.searchsorted(selected, profile.codes)
    positions = np.minimum(positions, len(selected) - 1)
    hits = selected[positions] == profile.codes
    return positions[hits].astype(np.int64), profile.counts[hits]


def decode_char_code(code: int) -> str:
    """Recover the character n-gram behind a char code."""
    order = code >> _ORDER_SHIFT
    chars = []
    for j in range(int(order)):
        byte = (code >> (8 * (int(order) - 1 - j))) & 0xFF
        chars.append(chr(byte))
    return "".join(chars)


def decode_word_code(code: int, vocab: WordVocab) -> str:
    """Recover the word n-gram behind a word code."""
    code = int(code) & ~int(_WORD_KIND_BIT)
    order = code >> _ORDER_SHIFT
    mask = _WORD_CAP - 1
    words = []
    for j in range(int(order)):
        word_id = (code >> (_WORD_BITS * (int(order) - 1 - j))) & mask
        words.append(vocab.word(int(word_id)))
    return " ".join(words)
