import concurrent.futures

import pytest


@pytest.fixture
def counted_pools(monkeypatch):
    """The process pools started while the test runs, as [max_workers,
    shares mapped] per pool. sse.map_shares imports ProcessPoolExecutor when
    it starts a pool, so it gets this counting subclass."""
    real, pools = concurrent.futures.ProcessPoolExecutor, []

    class CountedPool(real):
        def __init__(self, *args, **kwargs):
            self.counts = [kwargs["max_workers"], 0]
            pools.append(self.counts)
            super().__init__(*args, **kwargs)

        def map(self, fn, shares, **kwargs):
            shares = list(shares)
            self.counts[1] += len(shares)
            return super().map(fn, shares, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountedPool)
    return pools
