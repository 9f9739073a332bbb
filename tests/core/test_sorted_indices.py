"""Every matrix the linker scores stores its rows in ascending column
order.

:func:`repro.core.similarity.cosine_similarity` is bit-identical to the
sparse ``queries @ corpus.T`` product because it sums each cell along
the corpus row's stored order; that order must be ascending.  These
tests pin the precondition on the known matrix after ``fit``, after
``add_known`` and after ``load_index``, and on the stage-2 candidate
matrices.  Sortedness is checked on the index arrays themselves, not
only through scipy's cached ``has_sorted_indices`` flag.
"""

import numpy as np
import pytest

from repro.core.incremental import IncrementalLinker
from repro.core.linker import AliasLinker
from repro.resilience.snapshot import load_index, save_index


def _assert_sorted(matrix):
    assert matrix.has_sorted_indices
    steps = np.diff(matrix.indices)
    # Steps across a row boundary are free; steps inside a row must
    # be strictly increasing column ids.
    boundaries = matrix.indptr[1:-1] - 1
    inside = np.ones(steps.size, dtype=bool)
    inside[boundaries[(boundaries >= 0) & (boundaries < steps.size)]] = \
        False
    assert np.all(steps[inside] > 0)


@pytest.fixture(scope="module")
def fitted(reddit_alter_egos):
    return AliasLinker(threshold=0.4).fit(reddit_alter_egos.originals)


def test_known_matrix_after_fit(fitted):
    _assert_sorted(fitted.reducer._known_matrix)


def test_known_matrix_after_add_known(reddit_alter_egos):
    originals = reddit_alter_egos.originals
    cut = max(4, len(originals) * 3 // 4)
    linker = IncrementalLinker().fit(originals[:cut])
    linker.add_known(originals[cut:cut + 1])
    linker.add_known(originals[cut + 1:])
    _assert_sorted(linker._linker.reducer._known_matrix)


def test_known_matrix_after_load_index(fitted, tmp_path):
    path = tmp_path / "known.snap"
    save_index(fitted, path)
    matrix = load_index(path).reducer._known_matrix
    # load_index asserts the flag; check the stored arrays directly.
    _assert_sorted(matrix)
    assert np.array_equal(matrix.indices,
                          fitted.reducer._known_matrix.indices)


def test_stage2_matrices(fitted, reddit_alter_egos):
    for unknown in reddit_alter_egos.alter_egos[:4]:
        candidates = fitted.reducer.reduce([unknown])[0]
        candidate_matrix, unknown_matrix = fitted._stage2_vectors(
            unknown, candidates.documents)
        _assert_sorted(candidate_matrix)
        _assert_sorted(unknown_matrix)
