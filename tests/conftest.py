from random import Random

import pytest

from ellschub.elliptic import ComplexContext, ExactContext, sample_point
from ellschub.weyl import group


@pytest.fixture(scope="session")
def exact_ctx():
    return ExactContext(order=6)


@pytest.fixture(scope="session")
def complex_ctx():
    return ComplexContext(order=8, q=0.3)


@pytest.fixture
def rng():
    return Random("ellschub-tests")


def make_point(label, ctx, seed):
    return sample_point(group(label).rank, ctx, Random(seed))
