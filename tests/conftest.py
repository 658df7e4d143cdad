"""Session-scoped Ray bootstrap: init ONCE per pytest session."""

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
    )
    yield
    ray.shutdown()


@pytest.fixture
def skew_plans(monkeypatch):
    """Every plan `exchange.skew_plan` returns while the test runs: one
    list of (first, end) block runs per partition, for each side that a
    partition of an exchange may split. A partition with more than one
    run was split into sub-reduces."""
    from crawlray.ops import exchange

    plans = []
    plan = exchange.skew_plan
    monkeypatch.setattr(exchange, "skew_plan", lambda counts: plans.append(plan(counts)) or plans[-1])
    return plans
