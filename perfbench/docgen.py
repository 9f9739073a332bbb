"""Seeded generator of refined alias documents for the index workloads.

``wide-index`` and ``grow-and-query`` need thousands of known aliases.
Generating them as raw forums and polishing them would make both
workloads measure polishing again, so this module writes the
already-refined :class:`~repro.core.documents.AliasDocument` a forum
alias turns into: a normalized text of the word budget default
refinement uses (:data:`repro.config.WORDS_PER_ALIAS`), its word stream
and its posting timestamps.

Every author has its own

* word preferences: a Zipf law over the generator's word lists
  (:mod:`repro.synth.wordlists`) with a per-author log-normal tilt,
* punctuation habits: how often a word is followed by a mark, and which
  marks it uses,
* 24-bin daily activity profile: one or two peaks on the clock.

An unknown document is a drifted resample: either of a known author (a
planted true pair the linker should find) or of an author absent from
the known side, where abstaining is the correct answer.  The same seed
always gives the same documents.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.config import WORDS_PER_ALIAS
from repro.core.activity import try_activity_profile
from repro.core.calendars import is_excluded
from repro.core.documents import AliasDocument
from repro.core.features import PUNCTUATION_CHARS
from repro.forums.models import DAY, HOUR
from repro.synth.wordlists import CONTENT_WORDS, FUNCTION_WORDS, SLANG

VOCAB: Tuple[str, ...] = tuple(dict.fromkeys(
    FUNCTION_WORDS + CONTENT_WORDS + SLANG))
_N_MARKS = len(PUNCTUATION_CHARS)
# Token table: row w, column 0 is the bare word, column 1 + m the word
# followed by mark m.  A document is one fancy-index into it.
_TOKENS = np.array([[w] + [f"{w} {m}" for m in PUNCTUATION_CHARS]
                    for w in VOCAB], dtype=object)
_WORDS = np.array(VOCAB, dtype=object)
_ZIPF = 1.0 / np.arange(1, len(VOCAB) + 1) ** 1.05

#: Log-normal sigma by which an unknown's habits are tilted away from
#: its author's.
DRIFT = 0.35
#: Noon of every 2017 day the activity profile counts (no weekends or
#: holidays).
_DAYS = np.array([t for t in (
    int(dt.datetime(2017, 1, 1, 12, tzinfo=dt.timezone.utc).timestamp())
    + d * DAY for d in range(365)) if not is_excluded(t)]) - 12 * HOUR


@dataclass(frozen=True)
class Author:
    word_p: np.ndarray
    mark_rate: float
    mark_p: np.ndarray
    hour_p: np.ndarray


def _normalize(weights: np.ndarray) -> np.ndarray:
    return weights / weights.sum()


def make_author(rng: np.random.Generator) -> Author:
    hours = np.arange(24)
    hour_w = np.full(24, 0.02)
    for _ in range(int(rng.integers(1, 3))):
        peak = rng.uniform(0, 24)
        gap = np.minimum(np.abs(hours - peak), 24 - np.abs(hours - peak))
        hour_w += np.exp(-0.5 * (gap / rng.uniform(1.5, 4.0)) ** 2)
    return Author(
        word_p=_normalize(_ZIPF * rng.lognormal(0.0, 1.0, len(VOCAB))),
        mark_rate=float(rng.uniform(0.05, 0.25)),
        mark_p=rng.dirichlet(np.full(_N_MARKS, 0.5)),
        hour_p=_normalize(hour_w),
    )


def drift(author: Author, rng: np.random.Generator) -> Author:
    """The same author writing somewhere else: every habit tilted."""
    def tilt(p: np.ndarray) -> np.ndarray:
        return _normalize(p * rng.lognormal(0.0, DRIFT, p.shape))
    return Author(word_p=tilt(author.word_p),
                  mark_rate=author.mark_rate * float(
                      rng.lognormal(0.0, DRIFT / 2)),
                  mark_p=tilt(author.mark_p),
                  hour_p=tilt(author.hour_p))


def write_document(author: Author, rng: np.random.Generator,
                   forum: str, alias: str) -> AliasDocument:
    n = WORDS_PER_ALIAS
    words = rng.choice(len(VOCAB), size=n, p=author.word_p)
    marks = rng.choice(_N_MARKS, size=n, p=author.mark_p) + 1
    marks[rng.random(n) >= author.mark_rate] = 0
    n_posts = int(rng.integers(60, 120))
    timestamps = np.sort(
        rng.choice(_DAYS, size=n_posts)
        + rng.choice(24, size=n_posts, p=author.hour_p) * HOUR
        + rng.integers(0, HOUR, size=n_posts))
    stamps = tuple(int(t) for t in timestamps)
    return AliasDocument(
        doc_id=f"{forum}/{alias}", alias=alias, forum=forum,
        text=" ".join(_TOKENS[words, marks].tolist()),
        words=tuple(_WORDS[words].tolist()),
        timestamps=stamps,
        activity=try_activity_profile(stamps))


@dataclass
class Corpus:
    """Known documents, unknown documents and the planted pairs."""

    known: List[AliasDocument]
    unknown: List[AliasDocument]
    truth: Dict[str, str]


def make_corpus(seed: int, n_known: int, n_planted: int,
                n_absent: int) -> Corpus:
    """*n_known* known authors; *n_planted* unknowns written by distinct
    known authors and *n_absent* by authors nobody knows, shuffled."""
    if n_planted > n_known:
        raise ValueError("more planted pairs than known authors")
    rng = np.random.default_rng([seed, 0x1a5])
    authors = [make_author(rng) for _ in range(n_known)]
    known = [write_document(a, rng, "known", f"k{i:06d}")
             for i, a in enumerate(authors)]
    sources = [int(i) for i in rng.choice(n_known, n_planted,
                                          replace=False)]
    sources += [-1] * n_absent
    rng.shuffle(sources)
    unknown: List[AliasDocument] = []
    truth: Dict[str, str] = {}
    for j, source in enumerate(sources):
        author = authors[source] if source >= 0 else make_author(rng)
        doc = write_document(drift(author, rng), rng, "dark", f"u{j:06d}")
        unknown.append(doc)
        if source >= 0:
            truth[doc.doc_id] = known[source].doc_id
    return Corpus(known=known, unknown=unknown, truth=truth)


@dataclass
class Growth:
    """A known base, one batch of new known aliases per round, and one
    query per round (asked after that round's batch was added)."""

    base: List[AliasDocument]
    batches: List[List[AliasDocument]]
    queries: List[AliasDocument]
    truth: Dict[str, str]
    #: Queries whose true match arrived in one of the batches.
    via_add: Set[str]


def make_growth(seed: int, n_base: int, rounds: int,
                batch: int) -> Growth:
    """Round ``r`` queries, in turn, an absent author, an author added
    in rounds ``0..r`` (visible only through the grown index) and an
    author of the base."""
    rng = np.random.default_rng([seed, 0x960])
    authors = [make_author(rng) for _ in range(n_base + rounds * batch)]
    known = [write_document(a, rng, "known", f"k{i:06d}")
             for i, a in enumerate(authors)]
    queries: List[AliasDocument] = []
    truth: Dict[str, str] = {}
    via_add: Set[str] = set()
    for r in range(rounds):
        kind = r % 3
        if kind == 0:
            source, author = -1, make_author(rng)
        else:
            lo, hi = (n_base, n_base + (r + 1) * batch) if kind == 1 \
                else (0, n_base)
            source = int(rng.integers(lo, hi))
            author = authors[source]
        doc = write_document(drift(author, rng), rng, "dark", f"q{r:06d}")
        queries.append(doc)
        if source >= 0:
            truth[doc.doc_id] = known[source].doc_id
        if kind == 1:
            via_add.add(doc.doc_id)
    batches = [known[n_base + r * batch:n_base + (r + 1) * batch]
               for r in range(rounds)]
    return Growth(base=known[:n_base], batches=batches, queries=queries,
                  truth=truth, via_add=via_add)
