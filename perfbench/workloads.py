"""The three workloads, each a seeded set-up plus a timed pass.

Every call into the program goes through a module or class attribute
(``storage.load_forum``, ``snapshot.save_index``, ``AliasLinker.fit``),
so the traced run's wrappers see exactly the calls timed here.  All
library objects are built with their defaults: no worker count, no
stage-1 strategy, no shard count.

A pass records one ``link_s`` sample per link request, so the reported
figure is a median over many requests.  README.md explains the sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Set, Tuple

import docgen
from repro import pipeline
from repro.core import incremental, linker
from repro.forums import storage
from repro.resilience import snapshot
from repro.synth import world as synth_world

Pair = Tuple[str, str]


@dataclass
class Pass:
    """What one timed pass did and produced."""

    truth: Dict[str, str]
    wall_s: float = 0.0
    link_s: List[float] = field(default_factory=list)
    matches: List[Pair] = field(default_factory=list)
    accepted: Set[Pair] = field(default_factory=set)
    attempted: int = 0
    answered: int = 0
    failed: int = 0
    #: Submitted aliases that refinement dropped before linking.
    dropped: int = 0
    #: Unknowns whose true match arrived through ``add_known``.
    via_add: Set[str] = field(default_factory=set)
    repeats_agree: bool = True
    #: Extra per-request samples: ``index_build_s``, ``cold_start_s``,
    #: ``query_ms``, ``add_ms``.
    phases: Dict[str, List[float]] = field(default_factory=dict)

    def collect(self, result: Any, submitted: int,
                repeat: bool = False) -> None:
        """Record the :class:`~repro.core.linker.LinkResult` of one
        request for *submitted* unknowns.  A *repeat* of an earlier
        request must accept the same pairs."""
        accepted = {(m.unknown_id, m.candidate_id)
                    for m in result.accepted()}
        self.attempted += submitted
        self.answered += len(result.matches)
        self.failed += len(result.skipped)
        if repeat:
            self.repeats_agree &= accepted == self.accepted
            return
        self.matches.extend((m.unknown_id, m.candidate_id)
                            for m in result.matches)
        self.accepted |= accepted


class Workload:
    """A seeded set-up and a timed pass; see the subclasses."""

    name = ""
    #: Passes a run makes at least (each after its own set-up).
    min_passes = 1
    #: Top-1 recall of the true pairs below this means linking is
    #: broken: the generated documents are linked perfectly.
    min_recall = 0.9
    sizes: Dict[str, Any] = {}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        #: Planted pairs of the latest set-up: unknown -> known doc id.
        self.truth: Dict[str, str] = {}

    def setup(self, index: int) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Pass:
        raise NotImplementedError


# Every user posts 60-100 messages: enough for most to pass refinement,
# and narrow enough that worlds of different seeds are equal work.
_LOAD = {"heavy_fraction": 1.0, "heavy_messages": (60, 100)}
# 3 of the 7 tmg aliases have a reddit alter ego; the other 4 (one of
# them also on dm) should be answered "no match".
_WORLD = {"reddit_users": 8, "tmg_users": 7, "dm_users": 1,
          "tmg_dm_overlap": 1, "reddit_dark_overlap": 3}


class ForumLink(Workload):
    """Raw ``reddit`` and ``tmg`` dumps through ``link_forums``.

    One pass links one small seeded world; a run links ``min_passes``
    of them, so ``link_s`` is a median of that many jobs and ``f1``
    pools their true pairs.
    """

    name = "forum-link"
    min_passes = 15
    # The default linker gets 73-93% of these worlds' true pairs right.
    min_recall = 0.6
    sizes = {"worlds": min_passes, **_WORLD, **_LOAD}

    def setup(self, index: int) -> Tuple[Path, Path]:
        config = synth_world.WorldConfig(
            seed=self.seed * 1000 + index % self.min_passes,
            reddit_load=synth_world.ForumLoad(**_LOAD),
            tmg_load=synth_world.ForumLoad(**_LOAD,
                                           message_length_factor=1.6),
            **_WORLD)
        built = synth_world.build_world(config)
        paths = (self.workdir / "reddit.jsonl", self.workdir / "tmg.jsonl")
        for forum, path in zip(("reddit", "tmg"), paths):
            storage.save_forum(built.forums[forum], path)
        self.truth = {f"tmg/{dark}": f"reddit/{open_}" for dark, open_
                      in built.linked_aliases("tmg", "reddit").items()}
        return paths

    def run(self, state: Tuple[Path, Path]) -> Pass:
        out = Pass(truth=self.truth)
        start = time.perf_counter()
        reddit = storage.load_forum(state[0])
        tmg = storage.load_forum(state[1])
        linking = pipeline.LinkingPipeline()
        result = linking.link_forums(reddit, tmg)
        out.wall_s = time.perf_counter() - start
        out.link_s.append(out.wall_s)
        # Every tmg alias is attempted; those refinement drops (too few
        # words or timestamps) never reach the linker.
        out.collect(result, len(tmg.users))
        out.dropped = len(tmg.users) - linking.report.refined_unknown
        return out


class WideIndex(Workload):
    """``index build`` then ``link --index`` on a wide known corpus.

    The pass fits and saves the index once, then makes :attr:`links`
    cold starts, each followed by one batched link of every unknown.
    """

    name = "wide-index"
    links = 4
    sizes = {"n_known": 600, "n_planted": 40, "n_absent": 20}

    def setup(self, index: int) -> docgen.Corpus:
        corpus = docgen.make_corpus(self.seed, **self.sizes)
        self.truth = corpus.truth
        return corpus

    def run(self, corpus: docgen.Corpus) -> Pass:
        out = Pass(truth=self.truth)
        path = self.workdir / "wide.snap"
        start = time.perf_counter()
        fitted = linker.AliasLinker().fit(corpus.known)
        snapshot.save_index(fitted, path)
        out.phases["index_build_s"] = [time.perf_counter() - start]
        del fitted
        for repeat in range(self.links):
            t0 = time.perf_counter()
            loaded = snapshot.load_index(path)
            t1 = time.perf_counter()
            result = loaded.link(corpus.unknown)
            t2 = time.perf_counter()
            del loaded
            out.phases.setdefault("cold_start_s", []).append(t1 - t0)
            out.link_s.append(t2 - t1)
            out.collect(result, len(corpus.unknown), repeat=repeat > 0)
        out.wall_s = time.perf_counter() - start
        return out


# Each index grows from 120 to 220 known aliases, one per round.
_GROWTH = {"n_base": 120, "rounds": 100, "batch": 1}


class GrowAndQuery(Workload):
    """A closed loop of one client: add a small batch, link one unknown.

    One pass grows one seeded index; a run grows ``min_passes`` of
    them, so the query and add timings pool that many rounds.
    """

    name = "grow-and-query"
    min_passes = 3
    sizes = {"indexes": min_passes, **_GROWTH}

    def setup(self, index: int,
              ) -> Tuple[docgen.Growth, incremental.IncrementalLinker]:
        growth = docgen.make_growth(
            self.seed * 1000 + index % self.min_passes, **_GROWTH)
        self.truth = growth.truth
        return growth, incremental.IncrementalLinker().fit(growth.base)

    def run(self, state: Tuple[docgen.Growth,
                               incremental.IncrementalLinker]) -> Pass:
        growth, grown = state
        out = Pass(truth=self.truth, via_add=growth.via_add)
        add = out.phases.setdefault("add_ms", [])
        start = time.perf_counter()
        for batch, query in zip(growth.batches, growth.queries):
            t0 = time.perf_counter()
            grown.add_known(batch)
            t1 = time.perf_counter()
            result = grown.link([query])
            t2 = time.perf_counter()
            add.append((t1 - t0) * 1e3)
            out.link_s.append(t2 - t1)
            out.collect(result, 1)
        out.wall_s = time.perf_counter() - start
        out.phases["query_ms"] = [s * 1e3 for s in out.link_s]
        return out


WORKLOADS = {w.name: w for w in (ForumLink, WideIndex, GrowAndQuery)}
