"""Character n-gram language detector.

Polishing step 7 of the paper keeps only messages written in English;
the authors use the ``langdetect`` library (a port of Google's Java
language-detection project, whose profiles come from Wikipedia).  This
module reproduces the same mechanism offline:

* each supported language has a profile of character 1–3-gram
  log-probabilities built from the seed corpora in
  :mod:`repro.textproc.lang_profiles`;
* a message is scored under every profile with a naive-Bayes
  accumulation over its n-grams, and the best language wins
  (:meth:`LanguageDetector.detect_many` counts the n-grams of a whole
  batch of messages in one numpy pass);
* posterior-like confidences are produced with a softmax over the
  per-language average log-likelihoods, so callers can enforce a
  minimum-confidence floor.

The detector is deterministic (unlike ``langdetect``, which is famously
seed-dependent on short inputs).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LanguageDetectionError
from repro.textproc.lang_profiles import SEED_TEXTS, SUPPORTED_LANGUAGES

#: n-gram orders used for profiles; mirrors the Google library (1..3).
NGRAM_ORDERS = (1, 2, 3)

#: Log-probability assigned to n-grams never seen in a profile.
_UNSEEN_LOGPROB = math.log(1e-7)

#: Minimum number of alphabetic characters needed for a verdict.
MIN_DETECTABLE_CHARS = 6

#: Normalized characters whose n-grams one pass of
#: :meth:`LanguageDetector.detect_many` counts together (about 5 MB of
#: temporaries); it also bounds the packed keys, see ``_score_batch``.
BATCH_CHARS = 1 << 16


class _ProfileChars(dict):
    """``str.translate`` table of :func:`_normalize_for_profile`.

    Maps a code point to itself when it is a letter or an apostrophe
    and to a space otherwise.  Entries are computed on first use; the
    table starts over once it holds :data:`_PROFILE_CHARS_MEMO` code
    points, so text in any number of scripts cannot grow it without
    bound.
    """

    def __missing__(self, code: int) -> str:
        char = chr(code)
        value = char if char.isalpha() or char == "'" else " "
        if len(self) >= _PROFILE_CHARS_MEMO:
            self.clear()
        self[code] = value
        return value


#: Most code points :data:`_PROFILE_CHARS` remembers.
_PROFILE_CHARS_MEMO = 4096
_PROFILE_CHARS = _ProfileChars()


def _normalize_for_profile(text: str) -> str:
    """Lowercase, keep letters and apostrophes, squeeze whitespace.

    Digits, punctuation and symbols carry almost no language signal and
    would dilute the profiles, so they are collapsed to single spaces.
    The result is padded with a leading and trailing space so that
    word-boundary n-grams (" th", "he ") are represented — these carry a
    large share of the discriminative power.
    """
    collapsed = " ".join(text.lower().translate(_PROFILE_CHARS).split())
    return f" {collapsed} " if collapsed else ""


def char_ngrams(text: str, orders: Iterable[int] = NGRAM_ORDERS) -> Counter:
    """Count character n-grams of the given *orders* (each >= 1) in *text*.

    Keys appear in first-appearance order, one order after the other.
    Profiles are built from these counts; :meth:`LanguageDetector.
    detect_many` finds the same keys in the same order for the orders
    1–3 without building strings.
    """
    counts: Counter = Counter()
    for order in orders:
        # The n-grams of one order as string concatenations of shifted
        # copies of *text*: the whole scan runs in C.
        grams: Iterable[str] = text
        for shift in range(1, order):
            grams = map(operator.add, grams, text[shift:])
        counts.update(grams)
    return counts


@dataclass(frozen=True)
class LanguageProfile:
    """A fitted language profile: n-gram log-probabilities.

    Attributes
    ----------
    language:
        ISO-639-1 code (``"en"``, ``"de"``, ...).
    logprobs:
        Mapping from n-gram to its add-one-smoothed log-probability
        within the seed corpus for this language.
    """

    language: str
    logprobs: Mapping[str, float]

    @classmethod
    def from_text(cls, language: str, text: str) -> "LanguageProfile":
        """Build a profile from raw seed text."""
        normalized = _normalize_for_profile(text)
        counts = char_ngrams(normalized)
        total = sum(counts.values())
        vocab = len(counts)
        if total == 0:
            raise LanguageDetectionError(
                f"seed text for language {language!r} has no usable chars")
        logprobs = {
            gram: math.log((count + 1) / (total + vocab))
            for gram, count in counts.items()
        }
        return cls(language=language, logprobs=logprobs)


@dataclass(frozen=True)
class Detection:
    """Result of a language-detection call.

    Attributes
    ----------
    language:
        The winning language code.
    confidence:
        Softmax weight of the winner over all candidate languages, in
        (0, 1].  Values near ``1 / n_languages`` mean "no idea".
    scores:
        Per-language average log-likelihoods (diagnostics).
    """

    language: str
    confidence: float
    scores: Mapping[str, float]


class LanguageDetector:
    """Detect the language of short forum messages.

    Parameters
    ----------
    languages:
        Language codes to consider, each once.  Defaults to every
        language with a built-in seed corpus.

    Examples
    --------
    >>> detector = LanguageDetector()
    >>> detector.detect("I really think this is the best vendor here").language
    'en'
    """

    def __init__(self, languages: Iterable[str] | None = None) -> None:
        codes = tuple(languages) if languages is not None else SUPPORTED_LANGUAGES
        unknown = [c for c in codes if c not in SEED_TEXTS]
        if unknown:
            raise LanguageDetectionError(
                f"no built-in profile for language(s): {unknown}")
        if not codes:
            raise LanguageDetectionError("at least one language is required")
        repeated = sorted({c for c in codes if codes.count(c) > 1})
        if repeated:
            raise LanguageDetectionError(
                f"language code(s) given more than once: {repeated}")
        self._languages = codes
        self._profiles: Tuple[LanguageProfile, ...] = tuple(
            _built_in_profile(code) for code in codes
        )
        # One row per gram seen in any profile, holding its logprob under
        # every language; the extra last row is the unseen logprob.
        grams = sorted(set().union(*(p.logprobs for p in self._profiles)))
        self._logprobs = np.array(
            [[p.logprobs.get(g, _UNSEEN_LOGPROB) for p in self._profiles]
             for g in grams]
            + [[_UNSEEN_LOGPROB] * len(self._profiles)])
        # The profile characters get the codes 1..n in code-point order:
        # ``_char_codes[ord(c)]`` is the code of profile character c,
        # -1 for any other character (the last entry stands for every
        # code point beyond the table) and 0 for the message separator
        # NUL, which normalized text never contains.
        alphabet = sorted(set("".join(grams)))
        self._n_chars = len(alphabet)
        self._char_codes = np.full(ord(alphabet[-1]) + 2, -1, dtype=np.int64)
        self._char_codes[[ord(c) for c in alphabet]] = np.arange(
            1, self._n_chars + 1)
        self._char_codes[0] = 0
        # Gram → row tables, with W = n_chars + 2 and short grams padded
        # with code 0: the pair (c0, c1) of a gram's first two codes
        # picks a block of W rows (``_pair_blocks[c0 × W + c1]``) and
        # c2 the row in it (``_row_blocks[block × W + c2]``).  Block 0
        # and every free entry hold the unseen row.
        wide = self._n_chars + 2
        pairs = np.zeros(len(grams), dtype=np.int64)
        last = np.zeros(len(grams), dtype=np.int64)
        for i, gram in enumerate(grams):
            c0, c1, c2 = ([int(self._char_codes[ord(c)]) for c in gram]
                          + [0, 0])[:3]
            pairs[i] = c0 * wide + c1
            last[i] = c2
        used, block = np.unique(pairs, return_inverse=True)
        self._pair_blocks = np.zeros(wide ** 2, dtype=np.intp)
        self._pair_blocks[used] = np.arange(1, len(used) + 1)
        self._row_blocks = np.full((len(used) + 1) * wide, len(grams),
                                   dtype=np.min_scalar_type(len(grams)))
        self._row_blocks[(block + 1) * wide + last] = np.arange(len(grams))

    @property
    def languages(self) -> Tuple[str, ...]:
        """The language codes this detector discriminates between."""
        return self._languages

    def detect(self, text: str) -> Detection:
        """Detect the language of *text*.

        Raises
        ------
        LanguageDetectionError
            If *text* contains fewer than :data:`MIN_DETECTABLE_CHARS`
            alphabetic characters — too little evidence for a verdict.
        """
        result = self.detect_many([text])[0]
        if result is None:
            raise LanguageDetectionError(
                "not enough alphabetic characters to detect a language")
        return result

    def detect_many(self, texts: Sequence[str]) -> List[Optional[Detection]]:
        """Detect the language of each of *texts*.

        Returns one :class:`Detection` per text, in order, or ``None``
        for a text :meth:`detect` rejects.  Every result is exactly the
        one :meth:`detect` gives for the text alone: the batch only
        shares the n-gram counting (see :meth:`_score_batch`), which
        runs over at most :data:`BATCH_CHARS` normalized characters at
        a time (a longer text is scored on its own).
        """
        results: List[Optional[Detection]] = [None] * len(texts)
        batch: List[Tuple[int, str]] = []
        size = 0
        for i, text in enumerate(texts):
            normalized = _normalize_for_profile(text)
            if len(normalized) - normalized.count(" ") < MIN_DETECTABLE_CHARS:
                continue
            if batch and size + len(normalized) > BATCH_CHARS:
                self._score_batch(batch, results)
                batch, size = [], 0
            batch.append((i, normalized))
            size += len(normalized)
        if batch:
            self._score_batch(batch, results)
        return results

    def _score_batch(self, batch: Sequence[Tuple[int, str]],
                     results: List[Optional[Detection]]) -> None:
        """Score the normalized texts of *batch* into ``results[i]``.

        The score of a text is ``counts @ logprobs[rows] / counts.sum()``
        over its distinct 1–3-grams in :func:`char_ngrams` key order
        (first appearance, order 1 before 2 before 3): ``dgemv`` sums in
        that order, so the order fixes the bits.  The grams are found
        without building strings:

        * each character gets a code: a profile character its fixed
          code, any other character of the batch a code above them.
          The texts are laid end to end, each followed by two code-0
          separators, and B is one more than the largest code;
        * every position gets the key ``text × B³ + (c0 × B + c1) × B +
          c2`` of the three codes starting there.  One ``argsort`` of
          the keys puts each text's equal 3-char windows together, and
          within them its equal 2-char and 1-char prefixes, so the
          3-grams are the runs of equal keys, the 2-grams the runs of
          equal ``key // B`` among those, and the 1-grams the runs of
          equal ``key // B²``.  A run's size is the gram's count and
          its smallest position the gram's first appearance; a run
          that reaches a separator is no gram;
        * each gram's count and row are scattered to the slot of its
          first appearance in the text's :func:`char_ngrams` update
          sequence; the filled slots, in slot order, are the
          ``Counter``'s keys in key order.

        Only the final product runs per text.  The key fits in 63 bits:
        with one text, the codes are distinct code points, so B ≤
        0x110000 and the key is below B³ < 2**61; a batch of several
        texts holds at most :data:`BATCH_CHARS` characters and, at 8 or
        more per text, at most ``BATCH_CHARS // 8`` texts, so its key
        is below ``2**13 × (BATCH_CHARS + n_chars + 1)**3 < 2**62``.
        """
        texts = [text for _, text in batch]
        lengths = np.array([len(text) for text in texts], dtype=np.int64)
        points = np.frombuffer(
            ("\0\0".join(texts) + "\0\0").encode("utf-32-le"),
            dtype=np.uint32)
        table = self._char_codes
        codes = table[np.minimum(points, len(table) - 1)]
        other = codes < 0
        if other.any():
            _, inverse = np.unique(points[other], return_inverse=True)
            codes[other] = self._n_chars + 1 + inverse
        spans = lengths + 2
        text_of = np.repeat(np.arange(len(texts), dtype=np.int64), spans)
        base = max(int(codes.max()), self._n_chars) + 1
        keys = codes * base ** 2
        keys[:-1] += codes[1:] * base
        keys[:-2] += codes[2:]
        keys += text_of * base ** 3
        order = np.argsort(keys)
        keys = keys[order]
        # Per gram order and position: the row of the gram starting
        # there (every non-profile character read as n_chars + 1, which
        # no profile gram contains), and whether the gram lies in a text.
        wide = self._n_chars + 2
        narrow = np.minimum(codes, wide - 1)
        pair = narrow * wide
        block = self._pair_blocks[pair] * wide
        rows_at = [self._row_blocks[block]]
        pair[:-1] += narrow[1:]
        block = self._pair_blocks[pair] * wide
        rows_at.append(self._row_blocks[block])
        block[:-2] += narrow[2:]
        rows_at.append(self._row_blocks[block])
        # Separators come in pairs (the array ends with one), so a gram
        # lies in a text when its first and last codes are not 0.
        real = codes > 0
        inside = [real, real & np.roll(real, -1), real & np.roll(real, -2)]
        # Slot of position p of text t for gram order k in the update
        # sequence of char_ngrams: the 3L - 3 slots of the texts before
        # it, the (k - 1) L_t - (k - 1)(k - 2) / 2 of the orders before
        # k, and p - start_t.
        totals = 3 * lengths - 3
        shift = np.cumsum(totals) - totals - (np.cumsum(spans) - spans)
        counts = np.zeros(int(totals.sum()), dtype=np.float64)
        rows = np.empty(len(counts), dtype=self._row_blocks.dtype)
        first, starts = order, np.arange(len(keys))
        for k in (3, 2, 1):
            heads = np.concatenate(
                ([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))
            first = np.minimum.reduceat(first, heads)
            starts = starts[heads]
            sizes = np.diff(starts, append=len(order))
            keys = keys[heads] // base
            is_gram = inside[k - 1][first]
            at = first[is_gram]
            owner = text_of[at]
            slot = at + shift[owner] + (k - 1) * lengths[owner] \
                - (k - 1) * (k - 2) // 2
            counts[slot] = sizes[is_gram]
            rows[slot] = rows_at[k - 1][at]
        filled = np.flatnonzero(counts)
        counts = counts[filled]
        logprobs = self._logprobs[rows[filled]]
        bounds = np.append(np.searchsorted(
            filled, np.cumsum(totals) - totals), len(filled)).tolist()
        for t, ((index, _), total) in enumerate(zip(batch, totals.tolist())):
            a, b = bounds[t], bounds[t + 1]
            vector = counts[a:b] @ logprobs[a:b] / float(total)
            results[index] = self._detection(vector)

    def _detection(self, vector: np.ndarray) -> Detection:
        """The :class:`Detection` of one score vector."""
        values = vector.tolist()
        peak = max(values)
        best = values.index(peak)
        # Softmax over average log-likelihoods for a confidence figure.
        # Temperature scaling (x20) sharpens the distribution: average
        # per-gram log-likelihood differences are small in magnitude but
        # highly reliable.
        weights = [math.exp(min(0.0, (s - peak)) * 20.0) for s in values]
        return Detection(language=self._languages[best],
                         confidence=weights[best] / sum(weights),
                         scores=dict(zip(self._languages, values)))

    def is_english(self, text: str, min_confidence: float = 0.5) -> bool:
        """True when *text* is detected as English with enough confidence.

        Undetectable messages (too short, symbols only) return ``False``.
        """
        result = self.detect_many([text])[0]
        return (result is not None and result.language == "en"
                and result.confidence >= min_confidence)


@lru_cache(maxsize=None)
def _built_in_profile(language: str) -> LanguageProfile:
    """Build (and cache) the profile for a built-in language."""
    return LanguageProfile.from_text(language, SEED_TEXTS[language])


@lru_cache(maxsize=1)
def default_detector() -> LanguageDetector:
    """A process-wide detector over all built-in languages."""
    return LanguageDetector()


def detect_language(text: str) -> str:
    """Convenience wrapper: return just the language code for *text*."""
    return default_detector().detect(text).language
