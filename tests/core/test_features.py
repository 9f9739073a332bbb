"""Unit tests for feature extraction (repro.core.features)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_fit import (old_fit_counts, old_text_counts,
                           old_transform_inner)
from repro.config import FINAL_FEATURES, FeatureBudget
from repro.core.documents import AliasDocument
from repro.core.features import (
    DIGIT_CHARS,
    PUNCTUATION_CHARS,
    SPECIAL_CHARS,
    DocumentEncoder,
    FeatureExtractor,
    FeatureWeights,
    frequency_features,
)
from repro.core.tfidf import TfidfModel
from repro.errors import ConfigurationError, NotFittedError
from repro.obs.metrics import get_registry


def _doc(doc_id, text, activity_hour=None):
    words = tuple(w for w in text.lower().split() if w.isalpha())
    activity = None
    if activity_hour is not None:
        activity = np.zeros(24)
        activity[activity_hour] = 1.0
    return AliasDocument(
        doc_id=doc_id, alias=doc_id, forum="f", text=text,
        words=words, timestamps=(), activity=activity)


DOCS = [
    _doc("a", "the quick brown fox jumps over the lazy dog", 3),
    _doc("b", "the slow green turtle walks under the happy dog", 3),
    _doc("c", "completely different vocabulary appears in here", 15),
]


class TestTableIIInventories:
    def test_punctuation_count_is_11(self):
        assert len(PUNCTUATION_CHARS) == 11

    def test_digit_count_is_10(self):
        assert len(DIGIT_CHARS) == 10

    def test_special_count_is_21(self):
        assert len(SPECIAL_CHARS) == 21

    def test_no_overlap_between_inventories(self):
        all_chars = PUNCTUATION_CHARS + DIGIT_CHARS + SPECIAL_CHARS
        assert len(all_chars) == len(set(all_chars)) == 42


class TestFrequencyFeatures:
    def test_counts_normalized_by_length(self):
        features = frequency_features("a.b.")
        dot_index = PUNCTUATION_CHARS.index(".")
        assert features[dot_index] == pytest.approx(2 / 4)

    def test_empty_text(self):
        assert np.allclose(frequency_features(""), 0.0)

    def test_digits_counted(self):
        features = frequency_features("123")
        for digit in "123":
            idx = len(PUNCTUATION_CHARS) + DIGIT_CHARS.index(digit)
            assert features[idx] > 0


def _loop_frequency_features(text):
    """The former per-character loop, kept as the reference."""
    chars = PUNCTUATION_CHARS + DIGIT_CHARS + SPECIAL_CHARS
    index = {c: i for i, c in enumerate(chars)}
    counts = np.zeros(len(chars), dtype=np.float64)
    if not text:
        return counts
    for char in text:
        idx = index.get(char)
        if idx is not None:
            counts[idx] += 1.0
    return counts / len(text)


class TestFrequencyFeaturesEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(text=st.text())
    def test_bitwise_equal_to_loop(self, text):
        got = frequency_features(text)
        want = _loop_frequency_features(text)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=50, deadline=None)
    @given(text=st.text(alphabet=st.sampled_from(
        PUNCTUATION_CHARS + DIGIT_CHARS + SPECIAL_CHARS + ("a", " ")),
        max_size=300))
    def test_feature_dense_text_bitwise_equal(self, text):
        got = frequency_features(text)
        want = _loop_frequency_features(text)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestFeatureWeights:
    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureWeights(text=-1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureWeights(text=0, frequencies=0, activity=0)

    def test_without_activity(self):
        weights = FeatureWeights().without_activity()
        assert weights.activity == 0.0


class TestDocumentEncoder:
    def test_profiles_cached(self):
        encoder = DocumentEncoder()
        first = encoder.word_profile(DOCS[0])
        second = encoder.word_profile(DOCS[0])
        assert first is second

    def test_drop_clears_cache(self):
        encoder = DocumentEncoder()
        first = encoder.word_profile(DOCS[0])
        encoder.drop([DOCS[0].doc_id])
        second = encoder.word_profile(DOCS[0])
        assert first is not second

    def test_shared_vocab_consistent(self):
        encoder = DocumentEncoder()
        profile_a = encoder.word_profile(DOCS[0])
        profile_b = encoder.word_profile(DOCS[1])
        # "the" appears in both docs: codes must intersect
        assert np.intersect1d(profile_a.codes, profile_b.codes).size > 0


class TestFeatureExtractor:
    def test_transform_before_fit_raises(self):
        extractor = FeatureExtractor(FINAL_FEATURES)
        with pytest.raises(NotFittedError):
            extractor.transform(DOCS)

    def test_fit_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureExtractor(FINAL_FEATURES).fit([])

    def test_rows_unit_norm(self):
        extractor = FeatureExtractor(FINAL_FEATURES)
        matrix = extractor.fit_transform(DOCS)
        norms = np.sqrt(np.asarray(
            matrix.multiply(matrix).sum(axis=1))).ravel()
        assert np.allclose(norms, 1.0)

    def test_similar_docs_score_higher(self):
        from repro.core.similarity import cosine_similarity

        extractor = FeatureExtractor(FINAL_FEATURES,
                                     use_activity=False)
        matrix = extractor.fit_transform(DOCS)
        sims = cosine_similarity(matrix, matrix)
        assert sims[0, 1] > sims[0, 2]

    def test_budget_caps_vocabulary(self):
        budget = FeatureBudget(word_ngrams=5, char_ngrams=7)
        extractor = FeatureExtractor(budget, use_activity=False)
        extractor.fit(DOCS)
        sizes = extractor.vocabulary_sizes()
        assert sizes["word_ngrams"] == 5
        assert sizes["char_ngrams"] == 7

    def test_activity_block_effect(self):
        from repro.core.similarity import cosine_similarity

        with_act = FeatureExtractor(
            FINAL_FEATURES,
            weights=FeatureWeights(activity=2.0)).fit_transform(DOCS)
        sims = cosine_similarity(with_act, with_act)
        # docs a and b share the activity hour, c does not
        assert sims[0, 1] > sims[0, 2]

    def test_doc_without_activity_gets_zero_block(self):
        docs = [DOCS[0], _doc("d", "no activity profile here at all")]
        extractor = FeatureExtractor(FINAL_FEATURES)
        matrix = extractor.fit_transform(docs)
        assert matrix.shape[0] == 2  # no crash, both vectorized

    def test_vocabulary_sizes_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            FeatureExtractor(FINAL_FEATURES).vocabulary_sizes()

    def test_shared_encoder_reused(self):
        encoder = DocumentEncoder()
        a = FeatureExtractor(FINAL_FEATURES, encoder=encoder)
        b = FeatureExtractor(FeatureBudget(word_ngrams=10,
                                           char_ngrams=10),
                             encoder=encoder)
        a.fit(DOCS)
        b.fit(DOCS)  # second fit reuses cached profiles
        assert a.encoder is b.encoder


def _counter(name):
    return get_registry().snapshot().get(name, {}).get("value", 0)


def _same_csr(a, b):
    return (a.shape == b.shape
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data.view(np.int64),
                               b.data.view(np.int64)))


class TestFitTransform:
    """``fit_transform`` projects once, with unchanged output and
    counters."""

    @pytest.mark.parametrize("kwargs", [
        {},
        {"use_activity": False},
        {"use_structure": True},
        {"weights": FeatureWeights(frequencies=0.0)},
    ])
    def test_bitwise_equal_to_fit_then_transform(self, kwargs):
        one_shot = FeatureExtractor(FINAL_FEATURES, **kwargs)
        two_step = FeatureExtractor(FINAL_FEATURES, **kwargs)
        assert _same_csr(one_shot.fit_transform(DOCS),
                         two_step.fit(DOCS).transform(DOCS))

    def test_bitwise_equal_on_polished_corpus(self, reddit_alter_egos):
        docs = reddit_alter_egos.originals
        one_shot = FeatureExtractor(FINAL_FEATURES).fit_transform(docs)
        two_step = FeatureExtractor(FINAL_FEATURES).fit(docs) \
            .transform(docs)
        assert one_shot.has_sorted_indices
        assert _same_csr(one_shot, two_step)

    def test_counters_move_as_fit_then_transform(self):
        def deltas(run):
            fits = _counter("feature_fits_total")
            vectorized = _counter("documents_vectorized_total")
            run(FeatureExtractor(FINAL_FEATURES))
            return (_counter("feature_fits_total") - fits,
                    _counter("documents_vectorized_total") - vectorized)

        one_shot = deltas(lambda e: e.fit_transform(DOCS))
        two_step = deltas(lambda e: e.fit(DOCS).transform(DOCS))
        assert one_shot == two_step == (1, len(DOCS))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureExtractor(FINAL_FEATURES).fit_transform([])


def _same_typed_csr(a, b):
    return (_same_csr(a, b)
            and a.indptr.dtype == b.indptr.dtype
            and a.indices.dtype == b.indices.dtype
            and a.data.dtype == b.data.dtype)


def _reference(budget, docs, **kwargs):
    """An extractor fitted by the old merge/select/project/hstack path,
    with the count matrix it fitted the Idf on."""
    ref = FeatureExtractor(budget, **kwargs)
    encoder = ref.encoder
    ref._selected_words, ref._selected_chars, counts = old_fit_counts(
        [encoder.word_profile(d) for d in docs],
        [encoder.char_profile(d) for d in docs], budget)
    ref._tfidf = TfidfModel().fit(counts)
    return ref, counts


def _old_transform(ref, docs):
    encoder = ref.encoder
    counts = old_text_counts([encoder.word_profile(d) for d in docs],
                             [encoder.char_profile(d) for d in docs],
                             ref._selected_words, ref._selected_chars)
    return old_transform_inner(ref, docs, counts)


# Few distinct words and characters: many n-grams tie at the budget
# cut.  Empty texts give empty profiles; "?" and ".." give documents
# with characters but no words.
_TEXTS = st.lists(st.sampled_from(["a", "b", "ab", "ba", "aab", "b!",
                                   "?", "..", "x"]),
                  max_size=14).map(" ".join)


_BLOCK_CONFIGS = [
    {},
    {"use_activity": False},
    {"use_structure": True},
    {"weights": FeatureWeights(frequencies=0.0)},
    {"weights": FeatureWeights(text=0.0)},
]


class TestFusedFit:
    """The fit selects and projects each n-gram family from one sort,
    bit-identical to the merge/select/project/hstack path it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(texts=st.lists(_TEXTS, min_size=1, max_size=6),
           others=st.lists(_TEXTS, min_size=1, max_size=3),
           words=st.integers(0, 30), chars=st.integers(0, 90),
           kwargs=st.sampled_from(_BLOCK_CONFIGS))
    def test_bitwise_equal_to_old_path(self, texts, others, words, chars,
                                       kwargs):
        # Hour 0 stands for "no activity profile": a zero block row.
        docs = [_doc(f"d{i}", text, (i % 3) or None)
                for i, text in enumerate(texts)]
        unseen = [_doc(f"u{i}", text) for i, text in enumerate(others)]
        budget = FeatureBudget(word_ngrams=words, char_ngrams=chars)
        ref, ref_counts = _reference(budget, docs, **kwargs)
        fused = FeatureExtractor(budget, encoder=ref.encoder, **kwargs)
        assert _same_typed_csr(fused._fit_counts(docs), ref_counts)
        assert np.array_equal(fused._selected_words, ref._selected_words)
        assert np.array_equal(fused._selected_chars, ref._selected_chars)
        assert np.array_equal(fused._tfidf.idf.view(np.int64),
                              ref._tfidf.idf.view(np.int64))
        assert _same_typed_csr(fused.fit_transform(docs),
                               old_transform_inner(ref, docs, ref_counts))
        assert _same_typed_csr(fused.transform(unseen),
                               _old_transform(ref, unseen))

    @pytest.mark.parametrize("texts", [
        ["", ""],
        ["", "a b ab"],
        ["? ..", "?"],
        ["a b a b a b"],
    ], ids=["all-empty", "one-empty", "no-words", "single-document"])
    @pytest.mark.parametrize("words,chars", [(0, 0), (2, 3), (1000, 1000)])
    def test_edge_corpora(self, texts, words, chars):
        docs = [_doc(f"d{i}", text) for i, text in enumerate(texts)]
        budget = FeatureBudget(word_ngrams=words, char_ngrams=chars)
        ref, ref_counts = _reference(budget, docs)
        fused = FeatureExtractor(budget, encoder=ref.encoder)
        assert _same_typed_csr(fused._fit_counts(docs), ref_counts)
        assert _same_typed_csr(fused.fit_transform(docs),
                               old_transform_inner(ref, docs, ref_counts))

    def test_bitwise_equal_on_polished_corpus(self, reddit_alter_egos):
        docs = reddit_alter_egos.originals
        ref, ref_counts = _reference(FINAL_FEATURES, docs)
        fused = FeatureExtractor(FINAL_FEATURES, encoder=ref.encoder)
        counts = fused._fit_counts(docs)
        assert counts.has_sorted_indices
        assert _same_typed_csr(counts, ref_counts)
        unseen = reddit_alter_egos.alter_egos
        assert _same_typed_csr(fused.transform(unseen),
                               _old_transform(ref, unseen))

    def test_counters_and_vocab_gauge(self):
        budget = FeatureBudget(word_ngrams=5, char_ngrams=40)
        ref, _ = _reference(budget, DOCS)
        expected_size = ref._selected_words.size + ref._selected_chars.size

        def deltas(run):
            fits = _counter("feature_fits_total")
            vectorized = _counter("documents_vectorized_total")
            run(FeatureExtractor(budget))
            return (_counter("feature_fits_total") - fits,
                    _counter("documents_vectorized_total") - vectorized,
                    _counter("encoder_vocab_size"))

        assert deltas(lambda e: e.fit(DOCS)) == (1, 0, expected_size)
        assert deltas(lambda e: e.fit_transform(DOCS)) == \
            (1, len(DOCS), expected_size)
