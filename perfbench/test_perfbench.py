"""The benchmark's own tests: ``python -m pytest perfbench``."""

import json
from pathlib import Path

import numpy as np

import bench
import docgen
import layertrace
import workloads
from repro.config import WORDS_PER_ALIAS
from repro.core.kattribution import KAttributor


def _same(a, b):
    return (a.doc_id, a.text, a.words, a.timestamps) == \
        (b.doc_id, b.text, b.words, b.timestamps) and \
        np.array_equal(a.activity, b.activity)


def test_same_seed_same_documents():
    one = docgen.make_corpus(5, n_known=12, n_planted=4, n_absent=2)
    two = docgen.make_corpus(5, n_known=12, n_planted=4, n_absent=2)
    other = docgen.make_corpus(6, n_known=12, n_planted=4, n_absent=2)
    assert all(map(_same, one.known + one.unknown,
                   two.known + two.unknown))
    assert one.truth == two.truth
    assert not _same(one.known[0], other.known[0])
    grown = docgen.make_growth(5, n_base=6, rounds=6, batch=2)
    again = docgen.make_growth(5, n_base=6, rounds=6, batch=2)
    assert all(map(_same, grown.queries, again.queries))


def test_documents_pass_refinement_floors():
    corpus = docgen.make_corpus(1, n_known=5, n_planted=2, n_absent=1)
    for doc in corpus.known + corpus.unknown:
        assert doc.n_words == WORDS_PER_ALIAS
        assert doc.activity is not None


def test_stage1_recalls_the_planted_pairs():
    corpus = docgen.make_corpus(3, n_known=60, n_planted=20, n_absent=10)
    candidates = KAttributor().fit(corpus.known).reduce(corpus.unknown)
    planted = [c for c in candidates if c.unknown.doc_id in corpus.truth]
    recalled = sum(corpus.truth[c.unknown.doc_id]
                   in {d.doc_id for d in c.documents} for c in planted)
    assert len(planted) == 20
    assert recalled >= 19


def test_growth_queries_only_ask_for_visible_authors():
    growth = docgen.make_growth(2, n_base=10, rounds=9, batch=2)
    visible = {d.doc_id for d in growth.base}
    for batch, query in zip(growth.batches, growth.queries):
        visible.update(d.doc_id for d in batch)
        if query.doc_id in growth.truth:
            assert growth.truth[query.doc_id] in visible
    added = {d.doc_id for b in growth.batches for d in b}
    assert growth.via_add
    assert {growth.truth[q] for q in growth.via_add} <= added
    assert len(growth.truth) < len(growth.queries)


def test_self_time_and_coverage():
    spans = [layertrace.Span("outer", 0.0, 10.0, None, "r"),
             layertrace.Span("inner", 2.0, 5.0, 0, "r"),
             layertrace.Span("later", 12.0, 14.0, None, "r")]
    assert layertrace.self_time(spans, 0) == 7.0
    assert layertrace.covered(spans, 0.0, 20.0) == 12.0
    assert layertrace.covered(spans, 4.0, 13.0) == 7.0


def test_patch_times_calls_and_restores():
    class Thing:
        def work(self, n):
            return n * 2

    tracer = layertrace.LayerTracer()
    tracer.run_id = "r"
    tracer.patch(Thing, "work", "thing.work",
                 lambda args, kwargs, out: {"out": out})
    assert Thing().work(3) == 6
    tracer.restore()
    assert Thing().work(4) == 8
    assert [(s.name, s.attrs) for s in tracer.spans] == \
        [("thing.work", {"out": 6})]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    for key, reported in (("end_to_end", bench.END_TO_END),
                          ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == reported
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)


def test_quality_check_scores_added_aliases_on_their_own():
    # Two of three true pairs found: pooled recall 0.67, but the one
    # whose match arrived through add_known was missed.
    p = workloads.Pass(truth={"q0": "k0", "q1": "k1", "q2": "k9"},
                       via_add={"q2"})
    p.matches = [("q0", "k0"), ("q1", "k1"), ("q2", "k3")]
    quality = bench.score([p])
    assert quality["top1_recall"] == 2 / 3
    assert quality["via_add_recall"] == 0.0
    workload = workloads.GrowAndQuery(0, Path("."))
    workload.min_recall = 0.5
    checks = []
    bench.check_quality(workload, [p], checks)
    assert checks == ["via_add_recall 0.000 < 0.5"]


def test_pass_check_accounts_for_every_attempted_alias():
    p = workloads.Pass(truth={}, attempted=5, answered=3, dropped=1)
    checks = []
    bench.check_pass(p, checks)
    assert checks == ["3 answers + 0 failed + 1 dropped != 5 attempted"]
    p.failed = 1
    checks = []
    bench.check_pass(p, checks)
    assert checks == []
