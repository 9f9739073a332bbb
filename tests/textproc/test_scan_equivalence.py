"""Property tests: the fast text scans equal their plain definitions.

Each fast path in the polisher and the refiner is checked, over
arbitrary Unicode text, against a test-local reference written the
slow, obvious way.  Equality includes the key order of the n-gram
counts: the detector sums its per-gram rows in that order, so it fixes
the bits of every language score.  The batched detector is checked the
same way, batch by batch: every score it gives equals the reference
score of the text alone, bit for bit.
"""

import random
import re
import string
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.documents import normalize_message
from repro.errors import LanguageDetectionError
from repro.textproc import langdetect, patterns
from repro.textproc.langdetect import (
    _UNSEEN_LOGPROB,
    BATCH_CHARS,
    MIN_DETECTABLE_CHARS,
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


#: Letters outside the Basic Multilingual Plane (Deseret, Gothic,
#: mathematical alphanumerics).
_ASTRAL = "\U00010400\U00010428\U00010330\U0001d41a\U0001d51e"
#: Every code point that is a lowercase-stable letter, for wide alphabets.
_LETTERS = [chr(c) for c in range(sys.maxunicode + 1)
            if chr(c).isalpha() and chr(c).lower() == chr(c)]
detector_texts = st.one_of(
    texts,
    st.lists(st.sampled_from(_FRAGMENTS + ["İstanbul", "ſtraße", _ASTRAL,
                                          "the vendor", "Ärger über",
                                          "мы думаем", " ", "12", "'"]),
             max_size=12).map("".join))


def reference_normalize_for_profile(text):
    chars = []
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
    """Scores from one stacked logprob row per distinct n-gram, or
    ``None`` for a text with too few letters."""
    profiles = detector._profiles
    normalized = reference_normalize_for_profile(text)
    if len(normalized.replace(" ", "")) < MIN_DETECTABLE_CHARS:
        return None
    grams = reference_char_ngrams(normalized, (1, 2, 3))
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
            assert reference_scores(detector, text) is None
            return
        assert scores == reference_scores(detector, text)


def batch_scores(texts):
    return [None if result is None else result.scores
            for result in default_detector().detect_many(texts)]


def wide_text(seed, n_letters, n_chars):
    """About *n_chars* characters holding each of *n_letters* random
    lowercase letters at least once, in words of 1-8 letters."""
    rng = random.Random(seed)
    alphabet = rng.sample(_LETTERS, n_letters)
    letters = alphabet + rng.choices(alphabet, k=max(0, n_chars - n_letters))
    rng.shuffle(letters)
    words, start = [], 0
    while start < len(letters):
        end = start + rng.randint(1, 8)
        words.append("".join(letters[start:end]))
        start = end
    return " ".join(words)


class TestProfileNormalization:
    @given(detector_texts)
    def test_equals_per_character_loop(self, text):
        assert _normalize_for_profile(text) \
            == reference_normalize_for_profile(text)

    def test_memo_table_stays_bounded(self):
        text = "".join(_LETTERS[::20]) + "".join(
            chr(c) for c in range(0x2000, 0x2000 + 2 * len(_LETTERS[::20])))
        assert _normalize_for_profile(text) \
            == reference_normalize_for_profile(text)
        assert len(langdetect._PROFILE_CHARS) \
            <= langdetect._PROFILE_CHARS_MEMO


class TestDetectMany:
    """``detect_many`` against the per-text reference, bit for bit."""

    @settings(max_examples=50)
    @given(st.lists(detector_texts, max_size=6))
    def test_each_score_equals_the_reference(self, batch):
        detector = default_detector()
        assert batch_scores(batch) \
            == [reference_scores(detector, text) for text in batch]

    @settings(max_examples=50)
    @given(st.lists(detector_texts, min_size=1, max_size=6), st.data())
    def test_score_is_independent_of_the_batch(self, batch, data):
        i = data.draw(st.integers(0, len(batch) - 1))
        assert batch_scores([batch[i]])[0] == batch_scores(batch)[i]

    def test_empty_list(self):
        assert default_detector().detect_many([]) == []

    def test_undetectable_texts_give_none(self):
        results = default_detector().detect_many(
            ["ok", "", "!!! 123", "the vendor shipped fast", "a b c d e"])
        assert [r is None for r in results] == [True, True, True, False,
                                                 True]

    @pytest.mark.parametrize("text", [
        "İstanbul İİİ ſtraße ſſ the vendor", _ASTRAL * 3 + " the vendor",
        "мы думаем " + _ASTRAL, "\U00010400" * 40,
        "the vendor \ud800 shipped \x00 fast"])
    def test_special_letters(self, text):
        detector = default_detector()
        assert batch_scores([text, "the vendor is fine"]) == [
            reference_scores(detector, text),
            reference_scores(detector, "the vendor is fine")]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1025, 2000))
    def test_more_than_1024_distinct_letters(self, seed, n_letters):
        detector = default_detector()
        batch = [wide_text(seed, n_letters, 2 * n_letters),
                 "the vendor shipped on time", wide_text(seed + 1, 30, 200)]
        assert len(set(_normalize_for_profile(batch[0]))) > 1024
        assert batch_scores(batch) \
            == [reference_scores(detector, text) for text in batch]

    def test_text_longer_than_the_batch_bound(self):
        detector = default_detector()
        long = wide_text(7, 2000, BATCH_CHARS + 5000)
        batch = ["the vendor shipped on time", long,
                 "and the quality was fine"]
        assert len(_normalize_for_profile(long)) > BATCH_CHARS
        assert batch_scores(batch) \
            == [reference_scores(detector, text) for text in batch]

    def test_packed_keys_fit_in_63_bits(self):
        # The bound _score_batch relies on: several texts share a batch
        # only within BATCH_CHARS characters, each has at least
        # MIN_DETECTABLE_CHARS letters plus two padding spaces, and one
        # text alone has at most one code per code point.
        n_chars = default_detector()._n_chars
        most_texts = BATCH_CHARS // (MIN_DETECTABLE_CHARS + 2)
        assert most_texts * (BATCH_CHARS + n_chars + 1) ** 3 < 2**63
        assert (sys.maxunicode + 1) ** 3 < 2**63


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
