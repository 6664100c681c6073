"""Chaos soak harness: the full schedule, when slow.

The chaos schedule spawns worker processes, so it runs under
``REPRO_SLOW=1`` (the CI ``soak`` job).  This test holds every gate of
the schedule; ``SOAK_PR10.json`` records one run at full size.
"""

import pytest

from repro.experiments import soakbench


@pytest.mark.slow
class TestChaosSoak:
    def test_smoke_soak_passes_every_gate(self, tmp_path):
        results = soakbench.run_soak_bench(
            store_root=tmp_path / "soak",
            seed=1,
            repetitions=soakbench.SMOKE_REPETITIONS,
        )
        assert all(results["gates"].values()), results["gates"]
        counters = results["counters"]["cluster"]
        assert counters["breaker.opened"] > 0
        assert counters["cluster.hedges"] > 0
        assert counters["requests.shed"] > 0
        assert results["counters"]["store_quarantined"] > 0
