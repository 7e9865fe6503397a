"""Behaviour lock: the shipped scenarios must keep byte-identical outputs.

The constants are the sha256 digests recorded for the same runs in
``bench/golden.json`` (labels ``merge/0`` and ``partition/7``).  A change that
only makes the simulator faster or smaller must leave them untouched; one that
alters the logs on purpose updates both places and says so.
"""
import hashlib

import pytest

from meshsdn.simulation import run_scenario

from support import builtin_scenario

GOLDEN = {
    ("merge", 0): (
        "eaa3ba4381c9c47190ab24ad366d9f6522bfe2f9b7270497bf58c98d1ca0e18e",
        "523eeb2c9a0acaf182e6a0fcc932d2ddbe2158c7e7d1ecff1f18b3ef40c8f032",
    ),
    ("partition", 7): (
        "0b79040abc1e9acdde53b4d6a47f9e841b242f8c0cf7d8634592ac9d76527ef6",
        "da6b7e120e7c391141546aabecced9c856f170f331f866eb92d1490cb78accf5",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, seed", sorted(GOLDEN))
def test_log_and_summary_digests(name, seed):
    result = run_scenario(builtin_scenario(name), seed)
    log_digest, summary_digest = GOLDEN[(name, seed)]
    assert sha256(result.log.to_ndjson()) == log_digest
    assert sha256(result.summary.as_csv_line()) == summary_digest
