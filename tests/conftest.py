import random

import pytest

from ddnsim import (
    DeletionPolicy,
    DeviceKind,
    Geometry,
    NvmController,
    NvmDevice,
    parse_policy,
)

# 2 slots per page, 32 slots total, 12-bit (3 hex digit) payloads
SMALL = Geometry(
    blocks=4,
    pages_per_block=4,
    cells_per_page=8,
    bits_per_cell=3,
    cells_per_cache_slot=4,
)


@pytest.fixture
def small_geometry():
    return SMALL


@pytest.fixture
def make_device():
    def build(geometry=SMALL, kind=DeviceKind.NON_OVERWRITABLE, **kwargs):
        return NvmDevice(geometry=geometry, kind=kind, **kwargs)

    return build


def build_controller(policy="DdnRandom", seed=7, geometry=SMALL,
                     kind=DeviceKind.NON_OVERWRITABLE, nop_limit=4, t_secure=None):
    """A controller of the named policy (with ``t_secure``, in secure mode)
    on a fresh device. A plain function, so ``@given`` tests call it too."""
    device = NvmDevice(geometry=geometry, kind=kind, nop_limit=nop_limit)
    pol = parse_policy(policy)
    if t_secure is not None:
        pol = DeletionPolicy(pol.kind, pol.fill, t_secure)
    return NvmController(device, pol, random.Random(seed))


@pytest.fixture
def make_controller():
    return build_controller
