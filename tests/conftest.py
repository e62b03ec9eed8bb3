"""Shared fixtures: small parameter sets and seeded rngs for fast tests, and
the reference inverse-CDF kernel."""

import math

import numpy as np
import pytest

from pkeet.errors import InternalError
from pkeet.params import derive_int_params, derive_ring_params
from pkeet.rng import XofRng


@pytest.fixture(scope="session")
def ring_small():
    """Ring parameters at n=64: full structure, fraction of the cost."""
    return derive_ring_params(128, 64, "toy")


@pytest.fixture(scope="session")
def ring_toy():
    return derive_ring_params(128, 256, "toy")


@pytest.fixture(scope="session")
def int_small():
    """Integer-lattice parameters at n=16 (m=896): fast trapdoor tests."""
    return derive_int_params(128, 16, "toy")


@pytest.fixture(scope="session")
def int_toy():
    return derive_int_params(128, 32, "toy")


@pytest.fixture
def rng():
    return XofRng(b"\x42" * 32)


def seeded(label: str) -> XofRng:
    import hashlib

    return XofRng(hashlib.shake_256(b"pkeet-tests:" + label.encode()).digest(32))


def cdt_batch_reference(width, centers, rng, tail_cut):
    """Row-major inverse-CDF kernel, one window per center, kept as the
    exactness reference (and to rebuild the retired nonzero-center draws)."""
    reach = tail_cut * width
    span = min(reach, 5.5 * width)
    lo = np.ceil(centers - span).astype(np.int64)
    window = int(math.floor(2.0 * span)) + 1
    offsets = np.arange(window, dtype=np.int64)
    cand = lo[:, None] + offsets[None, :]
    delta = cand.astype(np.float64) - centers[:, None]
    logp = -math.pi * delta * delta / (width * width)
    np.exp(logp, out=logp)
    if reach < span + 1.0:
        logp[np.abs(delta) > reach] = 0.0
    cdf = np.cumsum(logp, axis=1)
    totals = cdf[:, -1]
    if not (totals > 0).all():
        raise InternalError("empty discrete Gaussian window")
    u = rng.uniform01(centers.size) * totals
    idx = (cdf < u[:, None]).sum(axis=1)
    idx = np.minimum(idx, window - 1)
    return cand[np.arange(centers.size), idx]
