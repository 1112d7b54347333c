import os
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# nblab before numpy or scipy, so this process factors on one OpenBLAS thread
# with the same rounding as the CLI subprocesses the tests start.
from nblab import cli
from nblab.arith import sieve_moebius
from nblab.criterion import GramStore, assemble_gram


def child_env():
    """The environment for a child Python process: this one's, with the
    checkout's src first on PYTHONPATH. pyproject.toml's `pythonpath`
    reaches only the pytest process, so without it a child finds nblab
    only when it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


@pytest.fixture
def main_cli(capsys):
    """`nblab args` in this process: `cli.main(args)`, its exit code
    (returned, or raised by argparse as SystemExit) and captured output in
    the fields of a finished subprocess."""
    def run(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return SimpleNamespace(returncode=code, stdout=out, stderr=err)

    return run


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
def mu():
    """The Moebius values of 0..10_000."""
    return sieve_moebius(10_000)
