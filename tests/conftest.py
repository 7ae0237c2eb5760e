import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from sqglab import spectral
from sqglab.sampling import random_mean_zero_field
from sqglab.spectral import FrequencyLattice, SpectralField


@pytest.fixture(scope="session")
def lattice32():
    return FrequencyLattice(m=32, h_xi=0.25)


@pytest.fixture(scope="session")
def lattice128():
    return FrequencyLattice(m=128, h_xi=0.25)


@pytest.fixture
def field_pair(lattice32):
    rng = np.random.default_rng(11)
    f = random_mean_zero_field(lattice32, rng, decay=1.0)
    g = random_mean_zero_field(lattice32, rng, decay=1.0)
    return f, g


@pytest.fixture
def transform_sizes(monkeypatch):
    """The largest axis of every array the pocketfft binding transforms, one
    entry per call, while the test runs."""
    binding = spectral._pocketfft
    sizes = []

    def counted(transform):
        def run(a, *args):
            sizes.append(max(a.shape))
            return transform(a, *args)

        return run

    monkeypatch.setattr(spectral, "_pocketfft", SimpleNamespace(
        c2c=counted(binding.c2c), r2c=counted(binding.r2c), c2r=counted(binding.c2r)))
    return sizes


class LiveFields:
    """SpectralFields counted as they are made and freed: ``now`` are alive,
    ``most`` were alive at once, ``made`` were made in all.  ``alive()``
    gives the order in which each live field was made, 0 for the first."""

    def __init__(self):
        self.now = self.most = self.made = 0
        self._alive = set()

    def add(self, field):
        order = self.made
        self.made += 1
        self.now += 1
        self.most = max(self.most, self.now)
        self._alive.add(order)
        weakref.finalize(field, self._freed, order)

    def _freed(self, order):
        self.now -= 1
        self._alive.discard(order)

    def alive(self) -> list[int]:
        return sorted(self._alive)


@pytest.fixture
def live_fields(monkeypatch):
    """A :class:`LiveFields` counting every SpectralField made while the test runs."""
    counter = LiveFields()
    freeze = SpectralField._freeze

    def counted(self, c):
        freeze(self, c)
        counter.add(self)

    monkeypatch.setattr(SpectralField, "_freeze", counted)
    return counter
