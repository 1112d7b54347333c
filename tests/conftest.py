import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# nblab before numpy or scipy, so this process factors on one OpenBLAS thread
# with the same rounding as the CLI subprocesses the tests start.
from nblab.arith import sieve_moebius
from nblab.criterion import GramStore, assemble_gram


@pytest.fixture(scope="session")
def shared_store():
    """One Gram store for the whole run.

    The closed-form fill of every pair of keys up to 300 takes well under a
    second on one thread; sharing it spares each distance test its own
    fill. Tests that use it read slices of the filled store, as a warm
    cache does; the fill path itself is exercised by tests with stores of
    their own.
    """
    store = GramStore()
    assemble_gram(300, store)
    return store


@pytest.fixture(scope="session")
def moebius_table():
    return sieve_moebius(10_000)
