import random

import pytest

from prif.energy import EnergyParams, InterEnergyRecord, IntraEnergyRecord
from prif.routing import Carrier, PrifRouter


@pytest.fixture
def energy_params():
    return EnergyParams(alpha=0.3, beta=0.3, gamma=0.98, window=30.0)


def make_plain_router(node, community, params=None):
    """Router with injectable state and no crypto, for decision-layer tests."""
    return PrifRouter(node=node, community=community, cert=None, auth_ctx=None,
                      energy_params=params or EnergyParams())


def make_plain_carrier(node, community, capacity=10_000_000, params=None,
                       ttl_min=600.0):
    """A carrier over ``make_plain_router``, for message-layer tests."""
    return Carrier(make_plain_router(node, community, params), capacity, ttl_min)


def set_inter(router, peer, value, now):
    """Pin the effective inter energy toward a peer to an exact value."""
    router.energy.inter[peer] = InterEnergyRecord(
        peer=peer, value=value, prev_value=value,
        last_encounter_end=now, last_aged_at=now, encounter_count=1)


def set_intra(router, community, value, now):
    """Pin the effective intra energy toward a community to an exact value."""
    router.energy.intra[community] = IntraEnergyRecord(
        community=community, value=value, prev_value=value,
        cumulative_count=1, first_encounter=now, last_aged_at=now)


def random_nonce(rng: random.Random) -> bytes:
    """A 12-byte sealing nonce drawn from ``rng``."""
    return rng.getrandbits(96).to_bytes(12, "big")


def link_sessions(a, b):
    a.sessions[b.node] = b.community
    b.sessions[a.node] = a.community


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the sweep's process pool with an in-process one; the returned
    list records the ``max_workers`` of every pool the sweep starts."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    return sizes
