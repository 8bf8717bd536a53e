"""Acceptance gate: every criterion row must pass at its pinned tolerance."""

import pytest

from fbmcf.acceptance import ALL_CRITERIA

CRITERION_IDS = [fn.__name__.split("_")[1] for fn in ALL_CRITERIA]


@pytest.fixture(scope="module")
def acceptance_rows(artifact_cache):
    """Every criterion, evaluated on the session's shared reference histories."""
    rows = [fn(artifact_cache) for fn in ALL_CRITERIA]
    print()
    for r in rows:
        print(r.row())
    return {r.id: r for r in rows}


@pytest.mark.parametrize("cid", CRITERION_IDS)
def test_criterion(acceptance_rows, cid):
    row = acceptance_rows[cid]
    assert row.passed, row.row()


def test_all_twelve_present(acceptance_rows):
    assert sorted(acceptance_rows, key=int) == [str(i) for i in range(1, 13)]
