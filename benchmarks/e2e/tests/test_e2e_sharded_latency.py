"""Why ``sharded-2pc`` reports no request latency.

``ShardedDeployment`` dispatches requests in arrival order but never
advances an idle shard's clock to a request's arrival time, so a request
can complete at a shard-clock reading earlier than its arrival: below
saturation, latencies come out negative (p50 of -159,792 cycles in this
configuration).  The test is a strict xfail; once the deployment fixes
the clock, it passes, pytest reports the XPASS as a failure, and the fix
can remove the mark and add latency metrics to ``sharded-2pc``.
"""

import pytest

from repro.service.tm import GroupCommitPolicy
from repro.shard.deployment import ShardedConfig, ShardedDeployment


@pytest.mark.xfail(strict=True, reason="idle shard clocks never advance to arrival times")
def test_sharded_request_latency_is_never_negative():
    dep = ShardedDeployment(
        ShardedConfig(
            num_shards=4,
            workload="hashtable",
            scheme="SLPMT",
            num_clients=6,
            requests_per_client=300,
            value_bytes=32,
            num_keys=256,
            theta=0.6,
            mix={"put": 0.40, "get": 0.20, "scan": 0.05, "txn": 0.35},
            txn_keys=4,
            arrival_cycles=6000,
            batch=GroupCommitPolicy(batch_size=8),
            seed=2023,
        )
    )
    result = dep.run()
    latencies = sorted(r.completed_at - r.submitted_at for r in result.responses)
    p50 = latencies[len(latencies) // 2]
    assert p50 >= 0, f"p50 latency {p50} cycles"
    assert latencies[0] >= 0, f"minimum latency {latencies[0]} cycles"
