"""Timing wrappers around the public calls of each layer, from outside.

:class:`LayerTracer` replaces a function at the place its callers look
it up (a module global such as ``repro.pipeline.polish_forum``, or a
method on its class) with a wrapper that records a span.  Nothing in
the program changes; :meth:`LayerTracer.restore` puts the originals
back.  Spans stay in memory until :meth:`LayerTracer.write`.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import incremental, kattribution, linker
from repro.forums import storage
from repro.resilience import snapshot
from repro import pipeline
from repro.synth import world as synth_world

#: ``on_exit(args, kwargs, result) -> attrs`` adds counts to a span.
OnExit = Callable[[tuple, dict, Any], Dict[str, Any]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class LayerTracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run_id = ""
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, Any]] = []

    def patch(self, owner: object, attr: str, name: str,
              on_exit: Optional[OnExit] = None) -> None:
        """Time every call to ``owner.attr`` as a span called *name*."""
        original = vars(owner)[attr]
        tracer = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent,
                        tracer.run_id)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if on_exit is not None:
                span.attrs.update(on_exit(args, kwargs, result))
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def of_run(self, run_id: str) -> List[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)},
                                    sort_keys=True) + "\n")


def self_time(spans: List[Span], index: int) -> float:
    """A span's duration minus what its direct children cover
    (*index* is the span's position in the tracer's full list)."""
    children = sum(s.duration for s in spans if s.parent == index)
    return spans[index].duration - children


def covered(spans: List[Span], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by at least one span."""
    total, reach = 0.0, start
    for span in sorted(spans, key=lambda s: s.start):
        lo, hi = max(span.start, reach), min(span.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def install(tracer: LayerTracer, truth: Callable[[], Dict[str, str]],
            ) -> None:
    """Patch every timed layer call; *truth* gives the planted pairs
    (unknown doc id -> known doc id) stage-1 recall is scored on."""
    def recall(args, kwargs, result):
        pairs = truth()
        planted = [c for c in result if c.unknown.doc_id in pairs]
        found = sum(1 for c in planted if pairs[c.unknown.doc_id]
                    in {d.doc_id for d in c.documents})
        return {"unknowns": len(result), "planted": len(planted),
                "recalled": found}

    def linked(args, kwargs, result):
        return {"matches": len(result.matches),
                "accepted": len(result.accepted()),
                "pairs": sum(1 for _ in result.all_scored_pairs())}

    tracer.patch(synth_world, "build_world", "synth.build_world",
                 lambda a, k, world: {"messages": sum(
                     f.n_messages for f in world.forums.values())})
    tracer.patch(storage, "load_forum", "forums.load_forum")
    tracer.patch(pipeline, "polish_forum", "textproc.polish_forum",
                 lambda a, k, out: {"messages_in": a[0].n_messages,
                                    "messages_out": out[0].n_messages})
    tracer.patch(pipeline, "refine_forum", "documents.refine_forum",
                 lambda a, k, docs: {"documents": len(docs)})
    tracer.patch(linker.AliasLinker, "fit", "linker.fit",
                 lambda a, k, _: {"documents": len(
                     _arg(a, k, 1, "known"))})
    tracer.patch(linker.AliasLinker, "link", "linker.link", linked)
    tracer.patch(kattribution.KAttributor, "reduce",
                 "kattribution.reduce", recall)
    tracer.patch(snapshot, "save_index", "snapshot.save_index",
                 lambda a, k, info: {"bytes": info["bytes"],
                                     "aliases": info["n_known"]})
    tracer.patch(snapshot, "load_index", "snapshot.load_index")
    tracer.patch(incremental.IncrementalLinker, "add_known",
                 "incremental.add_known",
                 lambda a, k, _: {"added": len(
                     _arg(a, k, 1, "documents"))})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Span], run_ids: Tuple[str, ...],
                  ) -> Dict[str, float]:
    """Per-layer totals over the spans of *run_ids*."""
    mine = [(i, s) for i, s in enumerate(spans) if s.run_id in run_ids]

    def total(name: str, key: Optional[str] = None) -> float:
        return sum(s.attrs.get(key, 0) if key else s.duration
                   for _, s in mine if s.name == name)

    def count(name: str) -> int:
        return sum(1 for _, s in mine if s.name == name)

    restage = sum(self_time(spans, i) for i, s in mine
                  if s.name == "linker.link")
    build, polish = total("synth.build_world"), \
        total("textproc.polish_forum")
    fit, reduce_ = total("linker.fit"), total("kattribution.reduce")
    add = total("incremental.add_known")
    return {
        "synth.build_s": build,
        "synth.messages_per_s": _ratio(
            total("synth.build_world", "messages"), build),
        "forums.load_s": total("forums.load_forum"),
        "textproc.polish_s": polish,
        "textproc.messages_per_s": _ratio(
            total("textproc.polish_forum", "messages_in"), polish),
        "textproc.kept_frac": _ratio(
            total("textproc.polish_forum", "messages_out"),
            total("textproc.polish_forum", "messages_in")),
        "documents.refine_s": total("documents.refine_forum"),
        "documents.aliases_kept": total("documents.refine_forum",
                                        "documents"),
        "linker.fit_s": fit,
        "linker.fit_docs_per_s": _ratio(
            total("linker.fit", "documents"), fit),
        "kattribution.reduce_s": reduce_,
        "kattribution.ms_per_unknown": _ratio(
            1e3 * reduce_, total("kattribution.reduce", "unknowns")),
        "kattribution.calls": count("kattribution.reduce"),
        "kattribution.recall_at_k": _ratio(
            total("kattribution.reduce", "recalled"),
            total("kattribution.reduce", "planted")),
        "linker.restage_s": restage,
        "linker.pairs_per_s": _ratio(total("linker.link", "pairs"),
                                     restage),
        "linker.accept_frac": _ratio(total("linker.link", "accepted"),
                                     total("linker.link", "matches")),
        "snapshot.save_s": total("snapshot.save_index"),
        "snapshot.load_s": total("snapshot.load_index"),
        "snapshot.bytes_per_alias": _ratio(
            total("snapshot.save_index", "bytes"),
            total("snapshot.save_index", "aliases")),
        "incremental.add_s": add,
        "incremental.ms_per_added_alias": _ratio(
            1e3 * add, total("incremental.add_known", "added")),
    }
