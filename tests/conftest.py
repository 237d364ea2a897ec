"""Shared fixtures for the test suite.

Statistical tests use fixed seeds so the suite is deterministic; accuracy
assertions use generous tolerances derived from the estimators' theory
rather than tuned-to-pass magic numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.family import SketchFamily, SketchSpec
from repro.core.sketch import SketchHashes, SketchShape


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def numpy_oracle(monkeypatch):
    """Run the test on the numpy paths the compiled kernel is checked
    against (what every caller gets when no C compiler is available)."""
    from repro.core import _kernel

    monkeypatch.setattr(_kernel, "LIB", None)


@pytest.fixture
def small_shape() -> SketchShape:
    return SketchShape(domain_bits=20, num_second_level=8, independence=4)


@pytest.fixture
def small_spec(small_shape: SketchShape) -> SketchSpec:
    return SketchSpec(num_sketches=16, shape=small_shape, seed=99)


@pytest.fixture
def hashes(rng: np.random.Generator, small_shape: SketchShape) -> SketchHashes:
    return SketchHashes.draw(rng, small_shape)


def build_family(
    spec: SketchSpec, elements, counts=None
) -> SketchFamily:
    """Build a family and feed it one batch."""
    family = spec.build()
    family.update_batch(np.asarray(elements, dtype=np.uint64), counts)
    return family
