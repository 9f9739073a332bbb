"""Golden gate: polishing output is pinned bit for bit.

``polish_golden.json`` was recorded from the per-position n-gram loop,
the per-gram row stack and the ``Token``-based word counts that the
indexed detector and the word scans replaced.  It holds, for the reddit
and tmg forums of one small seeded world (the ``forum-link`` benchmark
size):

* the sha256 of ``(alias, message_id, cleaned text)`` of every kept
  message, and the :class:`PolishReport` counters;
* the sha256 of the ``Detection.scores`` floats (as ``float.hex``) of
  every detectable transformed message of both forums;
* the exact ``Detection.scores`` of the ten ``TestDetection`` texts.

A faster polisher must reproduce all of them exactly.  The score bits
come from numpy's float64 ``dgemv`` and were recorded with the x86-64
OpenBLAS that numpy wheels ship; a BLAS that sums in another order
gives other last bits.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import LanguageDetectionError
from repro.synth import world as synth_world
from repro.textproc.cleaning import MessagePolisher, polish_forum
from repro.textproc.langdetect import default_detector

GOLDEN = json.loads((Path(__file__).parent / "polish_golden.json")
                    .read_text(encoding="utf-8"))

_LOAD = {"heavy_fraction": 1.0, "heavy_messages": (60, 100)}


@pytest.fixture(scope="module")
def forums():
    config = synth_world.WorldConfig(
        seed=GOLDEN["world"]["seed"],
        reddit_load=synth_world.ForumLoad(**_LOAD),
        tmg_load=synth_world.ForumLoad(**_LOAD, message_length_factor=1.6),
        reddit_users=8, tmg_users=7, dm_users=1,
        tmg_dm_overlap=1, reddit_dark_overlap=3)
    return synth_world.build_world(config).forums


@pytest.mark.parametrize("name", ["reddit", "tmg"])
def test_polished_forum_matches_golden(forums, name):
    polished, report = polish_forum(forums[name])
    digest = hashlib.sha256()
    for alias, record in polished.users.items():
        for message in record.messages:
            digest.update(json.dumps(
                [alias, message.message_id, message.text]).encode() + b"\n")
    assert report.as_dict() == GOLDEN["forums"][name]["report"]
    assert digest.hexdigest() == GOLDEN["forums"][name]["sha256"]


def test_detection_scores_of_every_message_match_golden(forums):
    detector = default_detector()
    polisher = MessagePolisher()
    digest = hashlib.sha256()
    count = 0
    for name in ("reddit", "tmg"):
        for record in forums[name].users.values():
            for message in record.messages:
                try:
                    scores = detector.detect(
                        polisher.transform(message.text)).scores
                except LanguageDetectionError:
                    continue
                count += 1
                digest.update(json.dumps(
                    {lang: s.hex() for lang, s in scores.items()}
                ).encode() + b"\n")
    assert count == GOLDEN["detections"]["count"]
    assert digest.hexdigest() == GOLDEN["detections"]["sha256"]


@pytest.mark.parametrize("text", sorted(GOLDEN["scores"]))
def test_fixture_scores_are_bit_identical(text):
    assert default_detector().detect(text).scores == GOLDEN["scores"][text]
