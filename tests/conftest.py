import random

import pytest


@pytest.fixture
def rng():
    return random.Random(0xF5617AB)
