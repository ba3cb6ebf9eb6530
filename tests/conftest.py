import sys

import pytest


@pytest.fixture
def recursion_limit():
    """A recursion limit low enough that instances just past it stay small."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    yield sys.getrecursionlimit()
    sys.setrecursionlimit(old)
