"""Unit tests for the integer-coded n-gram engine (repro.core.ngrams)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_fit import old_merge_counts, old_project, old_select_top
from repro.core import ngrams
from repro.errors import ConfigurationError


class TestWordVocab:
    def test_intern_stable(self):
        vocab = ngrams.WordVocab()
        assert vocab.intern("hello") == vocab.intern("hello")

    def test_distinct_ids(self):
        vocab = ngrams.WordVocab()
        assert vocab.intern("a") != vocab.intern("b")

    def test_word_roundtrip(self):
        vocab = ngrams.WordVocab()
        word_id = vocab.intern("vendor")
        assert vocab.word(word_id) == "vendor"

    def test_len(self):
        vocab = ngrams.WordVocab()
        vocab.encode(["a", "b", "a"])
        assert len(vocab) == 2


class TestCharCodes:
    def test_counts_match_naive(self):
        text = "hello world hello"
        codes = ngrams.char_ngram_codes(text, orders=(2,))
        unique, counts = ngrams.count_codes(codes)
        naive = Counter(text[i:i + 2] for i in range(len(text) - 1))
        decoded = {ngrams.decode_char_code(int(c)): int(n)
                   for c, n in zip(unique, counts)}
        assert decoded == dict(naive)

    def test_all_orders_present(self):
        codes = ngrams.char_ngram_codes("abcdef")
        # orders 1..5 over 6 chars: 6+5+4+3+2 = 20 occurrences
        assert codes.size == 20

    def test_empty_text(self):
        assert ngrams.char_ngram_codes("").size == 0

    def test_non_latin_replaced(self):
        codes = ngrams.char_ngram_codes("日本", orders=(1,))
        decoded = {ngrams.decode_char_code(int(c)) for c in codes}
        assert decoded == {"?"}

    def test_decode_roundtrip(self):
        codes = ngrams.char_ngram_codes("xyz", orders=(3,))
        assert ngrams.decode_char_code(int(codes[0])) == "xyz"


class TestWordCodes:
    def test_counts_match_naive(self):
        tokens = "the cat sat on the mat the cat".split()
        vocab = ngrams.WordVocab()
        codes = ngrams.word_ngram_codes(tokens, vocab, orders=(2,))
        unique, counts = ngrams.count_codes(codes)
        naive = Counter(" ".join(tokens[i:i + 2])
                        for i in range(len(tokens) - 1))
        decoded = {ngrams.decode_word_code(int(c), vocab): int(n)
                   for c, n in zip(unique, counts)}
        assert decoded == dict(naive)

    def test_order_tags_distinguish(self):
        vocab = ngrams.WordVocab()
        codes1 = ngrams.word_ngram_codes(["a"], vocab, orders=(1,))
        codes2 = ngrams.word_ngram_codes(["a", "a"], vocab, orders=(2,))
        assert set(codes1.tolist()).isdisjoint(set(codes2.tolist()))

    def test_word_and_char_codes_never_collide(self):
        vocab = ngrams.WordVocab()
        word_codes = set(ngrams.word_ngram_codes(
            ["a", "b", "c"], vocab).tolist())
        char_codes = set(ngrams.char_ngram_codes("abc").tolist())
        assert word_codes.isdisjoint(char_codes)

    def test_three_gram_fits_uint64(self):
        vocab = ngrams.WordVocab()
        # force large ids
        for i in range(1000):
            vocab.intern(f"w{i}")
        codes = ngrams.word_ngram_codes(["w999", "w998", "w997"],
                                        vocab, orders=(3,))
        assert ngrams.decode_word_code(int(codes[0]), vocab) == \
            "w999 w998 w997"


class TestCodeCounts:
    def test_from_occurrences(self):
        codes = np.array([5, 3, 5, 5], dtype=np.uint64)
        profile = ngrams.CodeCounts.from_occurrences(codes)
        assert profile.codes.tolist() == [3, 5]
        assert profile.counts.tolist() == [1, 3]
        assert profile.total == 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ngrams.CodeCounts(np.array([1], dtype=np.uint64),
                              np.array([1, 2]))


class TestMerge:
    def _profile(self, pairs):
        codes = np.array(sorted(pairs), dtype=np.uint64)
        counts = np.array([pairs[c] for c in sorted(pairs)],
                          dtype=np.int64)
        return ngrams.CodeCounts(codes, counts)

    def test_merge_counts(self):
        a = self._profile({1: 2, 2: 1})
        b = self._profile({2: 3, 5: 1})
        merged = ngrams.merge_counts([a, b])
        assert merged.codes.tolist() == [1, 2, 5]
        assert merged.counts.tolist() == [2, 4, 1]

    def test_merge_empty(self):
        merged = ngrams.merge_counts([])
        assert merged.codes.size == 0

    def test_document_frequencies_binary(self):
        a = self._profile({1: 10, 2: 1})
        b = self._profile({1: 99})
        df = ngrams.document_frequencies([a, b])
        assert dict(zip(df.codes.tolist(), df.counts.tolist())) == \
            {1: 2, 2: 1}


class TestSelectAndProject:
    def _profile(self, pairs):
        codes = np.array(sorted(pairs), dtype=np.uint64)
        counts = np.array([pairs[c] for c in sorted(pairs)],
                          dtype=np.int64)
        return ngrams.CodeCounts(codes, counts)

    def test_select_top_keeps_most_frequent(self):
        corpus = self._profile({1: 5, 2: 50, 3: 10})
        selected = ngrams.select_top(corpus, 2)
        assert sorted(selected.tolist()) == [2, 3]

    def test_select_top_returns_sorted(self):
        corpus = self._profile({9: 1, 1: 2, 5: 3})
        selected = ngrams.select_top(corpus, 3)
        assert selected.tolist() == sorted(selected.tolist())

    def test_select_all_when_budget_large(self):
        corpus = self._profile({1: 1, 2: 2})
        assert ngrams.select_top(corpus, 100).size == 2

    def test_select_deterministic_on_ties(self):
        corpus = self._profile({7: 1, 3: 1, 9: 1})
        a = ngrams.select_top(corpus, 2).tolist()
        b = ngrams.select_top(corpus, 2).tolist()
        assert a == b

    def test_select_zero_budget(self):
        corpus = self._profile({1: 1})
        assert ngrams.select_top(corpus, 0).size == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            ngrams.select_top(self._profile({1: 1}), -1)

    def test_project_counts(self):
        profile = self._profile({1: 2, 3: 4, 8: 1})
        selected = np.array([3, 8, 9], dtype=np.uint64)
        cols, counts = ngrams.project_counts(profile, selected)
        assert cols.tolist() == [0, 1]
        assert counts.tolist() == [4, 1]

    def test_project_no_overlap(self):
        profile = self._profile({1: 1})
        selected = np.array([2], dtype=np.uint64)
        cols, counts = ngrams.project_counts(profile, selected)
        assert cols.size == 0

    def test_project_empty_selection(self):
        profile = self._profile({1: 1})
        cols, _ = ngrams.project_counts(
            profile, np.empty(0, dtype=np.uint64))
        assert cols.size == 0


# -- the fused fit against the merge/select/project path it replaced ----------

# A small code pool forces shared codes across profiles; small counts
# force many ties at the budget cut.  Large codes exercise the full
# uint64 range the word and char encodings use.
_CODE_POOL = st.one_of(st.integers(0, 40),
                       st.integers(2 ** 59, 2 ** 59 + 40),
                       st.integers(2 ** 63, 2 ** 64 - 1))
_PROFILE = st.dictionaries(_CODE_POOL, st.integers(1, 4), max_size=30)


def _profiles(dicts):
    out = []
    for pairs in dicts:
        codes = sorted(pairs)
        out.append(ngrams.CodeCounts(np.array(codes, dtype=np.uint64),
                                     np.array([pairs[c] for c in codes],
                                              dtype=np.int64)))
    return out


def _assert_fit_equals_reference(profiles, budget):
    merged_codes, merged_counts = old_merge_counts(profiles)
    selected = old_select_top(merged_codes, merged_counts, budget)
    fused = ngrams.fit_projection(profiles, budget)
    assert fused.selected.dtype == np.uint64
    assert np.array_equal(fused.selected, selected)
    assert fused.row_nnz.tolist() == [
        old_project(p.codes, p.counts, selected)[0].size
        for p in profiles]
    start = 0
    for profile, nnz in zip(profiles, fused.row_nnz):
        cols, counts = old_project(profile.codes, profile.counts, selected)
        assert np.array_equal(fused.columns[start:start + nnz], cols)
        assert np.array_equal(fused.counts[start:start + nnz], counts)
        start += nnz
    assert start == fused.columns.size == fused.counts.size


class TestFusedFitEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(dicts=st.lists(_PROFILE, max_size=8),
           budget=st.integers(0, 80))
    def test_fit_projection_equals_old_path(self, dicts, budget):
        _assert_fit_equals_reference(_profiles(dicts), budget)

    @settings(max_examples=100, deadline=None)
    @given(dicts=st.lists(_PROFILE, max_size=8),
           budget=st.integers(0, 80))
    def test_merge_and_select_equal_old_path(self, dicts, budget):
        profiles = _profiles(dicts)
        codes, counts = old_merge_counts(profiles)
        merged = ngrams.merge_counts(profiles)
        assert np.array_equal(merged.codes, codes)
        assert np.array_equal(merged.counts, counts)
        assert np.array_equal(ngrams.select_top(merged, budget),
                              old_select_top(codes, counts, budget))

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(0, 3), max_size=60),
           budget=st.integers(0, 70))
    def test_top_positions_is_stable_argsort_head(self, counts, budget):
        counts = np.array(counts, dtype=np.int64)
        expected = np.sort(np.argsort(-counts, kind="stable")[:budget])
        assert np.array_equal(ngrams.top_positions(counts, budget),
                              expected)

    def test_all_ties_at_the_cut(self):
        profiles = _profiles([{c: 1 for c in range(0, 40, 2)},
                              {c: 1 for c in range(1, 40, 2)}])
        for budget in (1, 7, 20, 39):
            _assert_fit_equals_reference(profiles, budget)
        # Ties go to the lowest codes.
        assert ngrams.fit_projection(profiles, 3).selected.tolist() == \
            [0, 1, 2]

    def test_empty_profiles(self):
        empty = ngrams.CodeCounts(np.empty(0, dtype=np.uint64),
                                  np.empty(0, dtype=np.int64))
        fused = ngrams.fit_projection([empty, empty], 5)
        assert fused.selected.size == 0
        assert fused.row_nnz.tolist() == [0, 0]
        assert fused.columns.size == 0
        assert ngrams.fit_projection([], 5).row_nnz.size == 0
        profiles = [empty] + _profiles([{3: 2, 9: 1}]) + [empty]
        _assert_fit_equals_reference(profiles, 1)
        assert ngrams.fit_projection(profiles, 1).row_nnz.tolist() == \
            [0, 1, 0]

    def test_budget_zero_and_beyond_merged_size(self):
        profiles = _profiles([{1: 2, 5: 1}, {5: 3, 7: 1}])
        assert ngrams.fit_projection(profiles, 0).columns.size == 0
        for budget in (3, 4, 100):
            fused = ngrams.fit_projection(profiles, budget)
            assert fused.selected.tolist() == [1, 5, 7]
            assert fused.columns.tolist() == [0, 1, 1, 2]
            assert fused.counts.tolist() == [2, 1, 3, 1]

    def test_single_document(self):
        profiles = _profiles([{4: 1, 8: 5, 9: 5, 12: 2}])
        for budget in range(6):
            _assert_fit_equals_reference(profiles, budget)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            ngrams.fit_projection(_profiles([{1: 1}]), -1)
