"""Shared fixtures: one small world per test session.

World generation and polishing are the expensive steps, so they are
session-scoped; tests must treat these fixtures as read-only.

The ``ci`` hypothesis profile (``--hypothesis-profile=ci``) runs every
property test without an explicit example count on 500 examples, with
no deadline.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.eval.alterego import build_alter_ego_dataset
from repro.synth.world import small_world
from repro.textproc.cleaning import polish_forum

settings.register_profile("ci", max_examples=500, deadline=None)


@pytest.fixture(scope="session")
def world():
    """A tiny but fully featured synthetic world (read-only)."""
    return small_world(seed=7)


@pytest.fixture(scope="session")
def polished_reddit(world):
    """The world's Reddit forum after the 12-step polishing."""
    forum, _ = polish_forum(world.forums["reddit"])
    return forum


@pytest.fixture(scope="session")
def polished_tmg(world):
    forum, _ = polish_forum(world.forums["tmg"])
    return forum


@pytest.fixture(scope="session")
def polished_dm(world):
    forum, _ = polish_forum(world.forums["dm"])
    return forum


@pytest.fixture(scope="session")
def reddit_alter_egos(polished_reddit):
    """Alter-ego dataset of the polished Reddit forum (read-only)."""
    return build_alter_ego_dataset(polished_reddit, seed=3,
                                   words_per_alias=600)


@pytest.fixture(scope="session")
def episode_suite(world):
    """A small deterministic episode suite over the session world
    (read-only): ``(episodes, config)``."""
    from repro.eval.episodes import EpisodeConfig, sample_episodes

    config = EpisodeConfig(seed=5, n_way=4, episodes_per_cell=4,
                           buckets=(300,))
    return sample_episodes(world, config), config
