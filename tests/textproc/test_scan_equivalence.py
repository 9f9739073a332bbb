"""Property tests: the fast text scans equal their plain definitions.

Each fast path in the polisher and the refiner is checked, over
arbitrary Unicode text, against a test-local reference written the
slow, obvious way.  Equality includes the key order of the n-gram
counts: the detector sums its per-gram rows in that order, so it fixes
the bits of every language score.
"""

import re
import string
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.documents import normalize_message
from repro.errors import LanguageDetectionError
from repro.textproc import patterns
from repro.textproc.langdetect import (
    _UNSEEN_LOGPROB,
    _normalize_for_profile,
    char_ngrams,
    default_detector,
)
from repro.textproc.lemmatizer import lemmatize_word
from repro.textproc.tokenizer import (
    WORD,
    count_words,
    distinct_word_ratio,
    iter_tokens,
    word_tokens,
)

# Arbitrary Unicode, with ASCII letters, the characters the patterns
# key on and whole forum fragments glued in, so that words, URLs,
# e-mails and PGP intros actually occur.
_FORUM_CHARS = string.ascii_letters + string.digits + " .,!?'’-@:/\n>"
_FRAGMENTS = ["www.Reddit.com/r/x?a=1", "https://dream.onion", "e.g.",
              "3.5g", "bob@mail.com", "my PGP key:", "gpg key below",
              "don't", "well-known", "K.K", "İ.x", "ſ", " \u00a0\n"]
texts = st.lists(
    st.one_of(st.text(st.one_of(st.characters(),
                                st.sampled_from(_FORUM_CHARS)),
                      max_size=40),
              st.sampled_from(_FRAGMENTS)),
    max_size=12).map("".join)


def reference_char_ngrams(text, orders):
    counts = Counter()
    for order in orders:
        for i in range(len(text) - order + 1):
            counts[text[i:i + order]] += 1
    return counts


def reference_normalize_message(text, use_lemmatization):
    pieces, words = [], []
    for token in iter_tokens(text):
        if token.kind == WORD:
            word = token.text.lower()
            if use_lemmatization:
                word = lemmatize_word(word)
            pieces.append(word)
            words.append(word)
        else:
            pieces.append(token.text)
    return " ".join(pieces), words


def reference_normalize_urls(text):
    def repl(match):
        if not patterns.looks_like_url(match):
            return match.group(0)
        host = match.group("host").lower()
        return host[len("www."):] if host.startswith("www.") else host
    return patterns.URL_RE.sub(repl, text)


def reference_scores(detector, text):
    """Scores from one stacked logprob row per distinct n-gram."""
    profiles = detector._profiles
    grams = reference_char_ngrams(_normalize_for_profile(text), (1, 2, 3))
    rows = [np.array([p.logprobs.get(g, _UNSEEN_LOGPROB) for p in profiles])
            for g in grams]
    counts = np.fromiter(grams.values(), dtype=np.float64, count=len(grams))
    vector = counts @ np.vstack(rows) / counts.sum()
    return {p.language: float(vector[i]) for i, p in enumerate(profiles)}


class TestCharNgrams:
    @given(texts, st.lists(st.integers(1, 5), min_size=1, max_size=5))
    def test_equals_per_position_loop_including_key_order(self, text,
                                                          orders):
        assert list(char_ngrams(text, orders).items()) \
            == list(reference_char_ngrams(text, orders).items())

    @settings(max_examples=50)
    @given(texts)
    def test_detector_scores_equal_stacked_rows(self, text):
        detector = default_detector()
        try:
            scores = detector.detect(text).scores
        except LanguageDetectionError:
            return
        assert scores == reference_scores(detector, text)


class TestWordScans:
    @given(texts)
    def test_word_tokens_equal_token_definition(self, text):
        words = [t.text for t in iter_tokens(text) if t.kind == WORD]
        assert word_tokens(text, lowercase=False) == words
        assert word_tokens(text) == [w.lower() for w in words]

    @given(texts)
    def test_count_words_equals_token_definition(self, text):
        assert count_words(text) \
            == sum(1 for t in iter_tokens(text) if t.kind == WORD)

    @given(texts)
    def test_distinct_word_ratio_unchanged(self, text):
        words = [t.text.lower() for t in iter_tokens(text)
                 if t.kind == WORD]
        expected = len(set(words)) / len(words) if words else 0.0
        assert distinct_word_ratio(text) == expected

    @given(texts, st.booleans())
    def test_normalize_message_unchanged(self, text, lemmatize):
        assert normalize_message(text, lemmatize) \
            == reference_normalize_message(text, lemmatize)


class TestPatternShortcuts:
    """Each shortcut skips a substitution that could not match."""

    @given(texts)
    def test_collapse_whitespace_equals_regex(self, text):
        assert patterns.collapse_whitespace(text) \
            == re.sub(r"\s+", " ", text).strip()

    @given(texts)
    def test_normalize_urls_equals_full_substitution(self, text):
        assert patterns.normalize_urls(text) \
            == reference_normalize_urls(text)

    @given(texts)
    def test_mask_emails_equals_full_substitution(self, text):
        assert patterns.mask_emails(text) \
            == patterns.EMAIL_RE.sub(patterns.EMAIL_TAG, text)

    @given(texts)
    def test_strip_pgp_blocks_equals_full_substitution(self, text):
        expected = patterns.PGP_INTRO_RE.sub(
            "", patterns.PGP_BLOCK_RE.sub("", text))
        assert patterns.strip_pgp_blocks(text) == expected
