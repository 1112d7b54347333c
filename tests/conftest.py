import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from nblab import BasisKind, BasisSelection, GramStore, assemble_gram, sieve_moebius


@pytest.fixture(scope="session")
def shared_store():
    """One Gram store for the whole run.

    The closed-form fill of the full-basis pairs up to 300 takes well under
    a second on one thread; sharing it spares each distance test its own
    fill, while every test still exercises the real assembly path (cache
    hits go through the same ensure()).
    """
    store = GramStore()
    assemble_gram(300, BasisSelection(BasisKind.ALL), store)
    return store


@pytest.fixture(scope="session")
def moebius_table():
    return sieve_moebius(10_000)
