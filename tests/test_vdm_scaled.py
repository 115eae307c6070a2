"""Scaled synthetic VDM: 1,000+ stacked views in one catalog.

The paper's S/4HANA numbers (§2) put the VDM at hundreds of thousands of
views; this test scales the Fig. 14 generator until the catalog holds
over a thousand stacked views (each generated index contributes a
consumption view plus two extension stacks) and asserts the two things
that must stay bounded at that population size: per-statement optimize
time, and plan-cache memory under a steady stream of distinct shapes.
"""

from __future__ import annotations

import time

import pytest

from repro import Database
from repro.vdm.generator import SyntheticVdm

VIEW_INDEXES = 340  # 3 catalog views per index -> 1020 views
CACHE_CAPACITY = 64


@pytest.fixture(scope="module")
def scaled_vdm():
    db = Database(wal_enabled=False, plan_cache_size=CACHE_CAPACITY)
    views = SyntheticVdm(db, seed=42).build_views(
        count=VIEW_INDEXES, min_rows=2, max_rows=4,
        min_dims=2, max_dims=2, dim_rows=5,
    )
    return db, views


def test_catalog_holds_over_1000_views(scaled_vdm):
    db, views = scaled_vdm
    assert len(views) == VIEW_INDEXES
    assert sum(1 for _ in db.catalog.views()) >= 1000


def test_optimize_time_stays_bounded(scaled_vdm):
    """Optimizing against a 1,000-view catalog must cost no more than the
    view stack actually referenced — catalog size must not leak into
    per-statement planning time."""
    db, views = scaled_vdm
    sample = views[::VIEW_INDEXES // 20][:20]
    timings = []
    for view in sample:
        start = time.perf_counter()
        db.plan_for(f"select * from {view.extended_case} limit 5")
        timings.append(time.perf_counter() - start)
    timings.sort()
    median = timings[len(timings) // 2]
    assert median < 0.5, f"median optimize {median:.3f}s over 1,020 views"
    assert timings[-1] < 2.0, f"worst optimize {timings[-1]:.3f}s"


def test_plan_cache_stays_bounded_under_distinct_shapes(scaled_vdm):
    """200 distinct view shapes, each cached (two runs), against a
    64-entry cache: entry count and approximate memory must respect the
    capacity, with the overflow surfacing as evictions."""
    db, views = scaled_vdm
    cache = db.plan_cache
    for view in views[:200]:
        sql = f"select fkey, amount from {view.name} where fkey = 1"
        db.query(sql)
        db.query(sql)  # second run plans and stores the generic plan
    assert len(cache) <= CACHE_CAPACITY
    assert cache.evictions > 0
    approx = cache.approx_bytes()
    # ~512 bytes per plan node; 64 stacked-view plans must stay in the
    # single-digit-MB range, not grow with the 1,000-view catalog.
    assert approx < 8 * 1024 * 1024, f"plan cache approx {approx} bytes"
    assert approx > 0


def test_scaled_views_still_answer_correctly(scaled_vdm):
    db, views = scaled_vdm
    for view in (views[0], views[-1]):
        first = db.query(f"select count(*) as n from {view.name}")
        second = db.query(f"select count(*) as n from {view.name}")
        # the draft pattern unions extra draft rows onto the fact rows
        assert first.scalar() == second.scalar()
        assert first.scalar() >= view.rows
