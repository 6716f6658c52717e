import os
import sys

import pytest

# make the shared dense-reference helpers importable as `oracles`
sys.path.insert(0, os.path.dirname(__file__))

from sisqo import kernels  # noqa: E402


@pytest.fixture(params=kernels.available_backends())
def backend(request):
    """Each available kernel backend in turn, bound for the test."""
    previous = kernels.active_backend()
    kernels.use_backend(request.param)
    yield request.param
    kernels.use_backend(previous)
