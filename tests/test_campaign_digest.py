"""Pin what a campaign computes, independent of how it is chunked.

Each case runs one ``default_campaign`` in a fresh store and checks the
``generate`` and ``fuzz`` stage digests plus :func:`store_unit_digest` of
the store it leaves behind.  The digests cover unit payloads and fuzz
outcomes only, so they hold for any chunk size and any campaign id; a
change to the orchestrator that claims to keep behaviour has to keep them.

A fuzz outcome records how many conformance checks its program ran, so the
``fuzz`` digest also moves when a seam is added to or removed from the
conformance engine.
"""

from __future__ import annotations

import pytest

from repro.campaign.checkpoint import store_unit_digest
from repro.campaign.config import CampaignConfig
from repro.campaign.orchestrator import CampaignOrchestrator
from repro.campaign.spec import default_campaign

CASES = {
    "default": (
        {},
        "b74f2bae96e56c69f18b68dd128384ba446efc20374f10cc4358f0625cb8f553",
        "f361b787d7f458fa004e029fcdb7525977153b000aa8703f279ddfa3e351ef05",
        "fa2b313f5e9c2fa62ac995c39e3b965967175d495a1392e737e1ce55df7498e3",
    ),
    "small": (
        {"samples": 1, "fuzz_programs": 2, "seed": 3},
        "51f15c837be79fcabc814649c20c9d92136d07dabc31e9ced642c183b22b5eb7",
        "a6e5e6bd420f759a7c9215c721230445052b3e57c098f4870deed49904426b04",
        "7d9bd620f5578a971c4b15133e4ee7ec8c000846773d0b87278d033304756b47",
    ),
}


@pytest.mark.parametrize("chunk_size", [1, 4])
@pytest.mark.parametrize("case", sorted(CASES))
def test_campaign_digests(tmp_path, case, chunk_size):
    kwargs, generate, fuzz, units = CASES[case]
    config = CampaignConfig(store_path=str(tmp_path / "store"), chunk_size=chunk_size)
    result = CampaignOrchestrator(default_campaign(**kwargs), config).run()
    assert result.status == "complete"
    assert result.stage("generate")["result"]["digest"] == generate
    assert result.stage("fuzz")["result"]["digest"] == fuzz
    assert store_unit_digest(config.store_path) == units
