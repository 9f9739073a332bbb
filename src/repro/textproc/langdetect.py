"""Character n-gram language detector.

Polishing step 7 of the paper keeps only messages written in English;
the authors use the ``langdetect`` library (a port of Google's Java
language-detection project, whose profiles come from Wikipedia).  This
module reproduces the same mechanism offline:

* each supported language has a profile of character 1–3-gram
  log-probabilities built from the seed corpora in
  :mod:`repro.textproc.lang_profiles`;
* a message is scored under every profile with a naive-Bayes
  accumulation over its n-grams, and the best language wins;
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
from itertools import repeat
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np

from repro.errors import LanguageDetectionError
from repro.textproc.lang_profiles import SEED_TEXTS, SUPPORTED_LANGUAGES

#: n-gram orders used for profiles; mirrors the Google library (1..3).
NGRAM_ORDERS = (1, 2, 3)

#: Log-probability assigned to n-grams never seen in a profile.
_UNSEEN_LOGPROB = math.log(1e-7)

#: Minimum number of alphabetic characters needed for a verdict.
MIN_DETECTABLE_CHARS = 6


def _normalize_for_profile(text: str) -> str:
    """Lowercase, keep letters and apostrophes, squeeze whitespace.

    Digits, punctuation and symbols carry almost no language signal and
    would dilute the profiles, so they are collapsed to single spaces.
    The result is padded with a leading and trailing space so that
    word-boundary n-grams (" th", "he ") are represented — these carry a
    large share of the discriminative power.
    """
    chars: List[str] = []
    prev_space = True
    for ch in text.lower():
        if ch.isalpha() or ch == "'":
            chars.append(ch)
            prev_space = False
        elif not prev_space:
            chars.append(" ")
            prev_space = True
    collapsed = "".join(chars).strip()
    return f" {collapsed} " if collapsed else ""


def char_ngrams(text: str, orders: Iterable[int] = NGRAM_ORDERS) -> Counter:
    """Count character n-grams of the given *orders* (each >= 1) in *text*.

    Keys appear in first-appearance order, one order after the other.
    :meth:`LanguageDetector.detect` sums the per-gram rows in this
    order, so it fixes the bits of every score.
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
        Language codes to consider.  Defaults to every language with a
        built-in seed corpus.

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
        self._profiles: Tuple[LanguageProfile, ...] = tuple(
            _built_in_profile(code) for code in codes
        )
        # One row per gram seen in any profile, holding its logprob under
        # every language; the extra last row is the unseen logprob.
        grams = sorted(set().union(*(p.logprobs for p in self._profiles)))
        self._rows: Dict[str, int] = {g: i for i, g in enumerate(grams)}
        self._unseen_row = len(grams)
        self._logprobs = np.array(
            [[p.logprobs.get(g, _UNSEEN_LOGPROB) for p in self._profiles]
             for g in grams]
            + [[_UNSEEN_LOGPROB] * len(self._profiles)])

    @property
    def languages(self) -> Tuple[str, ...]:
        """The language codes this detector discriminates between."""
        return tuple(p.language for p in self._profiles)

    def detect(self, text: str) -> Detection:
        """Detect the language of *text*.

        Raises
        ------
        LanguageDetectionError
            If *text* contains fewer than :data:`MIN_DETECTABLE_CHARS`
            alphabetic characters — too little evidence for a verdict.
        """
        normalized = _normalize_for_profile(text)
        if len(normalized.replace(" ", "")) < MIN_DETECTABLE_CHARS:
            raise LanguageDetectionError(
                "not enough alphabetic characters to detect a language")
        grams = char_ngrams(normalized)
        n = len(grams)
        rows = np.fromiter(
            map(self._rows.get, grams, repeat(self._unseen_row, n)),
            dtype=np.intp, count=n)
        counts = np.fromiter(grams.values(), dtype=np.float64, count=n)
        vector = counts @ self._logprobs[rows] / counts.sum()
        scores: Dict[str, float] = {
            profile.language: float(vector[i])
            for i, profile in enumerate(self._profiles)
        }
        best = max(scores, key=scores.get)
        # Softmax over average log-likelihoods for a confidence figure.
        # Temperature scaling (x20) sharpens the distribution: average
        # per-gram log-likelihood differences are small in magnitude but
        # highly reliable.
        peak = scores[best]
        weights = {
            lang: math.exp(min(0.0, (s - peak)) * 20.0)
            for lang, s in scores.items()
        }
        z = sum(weights.values())
        return Detection(language=best, confidence=weights[best] / z,
                         scores=scores)

    def is_english(self, text: str, min_confidence: float = 0.5) -> bool:
        """True when *text* is detected as English with enough confidence.

        Undetectable messages (too short, symbols only) return ``False``:
        the polishing pipeline drops what it cannot vouch for.
        """
        try:
            result = self.detect(text)
        except LanguageDetectionError:
            return False
        return result.language == "en" and result.confidence >= min_confidence


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
