"""Numerics for a weighted sequence-space distance test of the Riemann hypothesis.

The package measures how well the constant sequence (1, 1, ...) can be
approximated by dilated fractional-part sequences in a weighted square-summable
space, tracks the decay of the squared distance as the dilation cutoff grows,
and cross-checks the analytic identities that make the closed-form Gram
entries and Mellin-side transforms trustworthy.

Import from the modules; the package itself exports nothing:

    nblab.criterion   Gram store and its cache, distance sweeps, Moebius residual
    nblab.seqspace    step-function sequences and their inner products
    nblab.specfun     Euler's constant, digamma, log-gamma, zeta, xi
    nblab.analytic    Mellin-side transforms and the verification suites
    nblab.arith       Moebius sieve
    nblab.summation   compensated summation
    nblab.errors      the exception hierarchy, exit codes and exit path
    nblab.cli         the `nblab` command line

Importing nblab before numpy pins numpy's OpenBLAS to one thread unless
OPENBLAS_NUM_THREADS is already set.
"""

import os

# Every Gram block nblab factors is small enough that a second OpenBLAS
# thread costs more than it saves: the worker spins on another core, stalls
# a factorization now and then, and rounds the Cholesky factor differently
# from one thread, so stdout would depend on the core count. OpenBLAS reads
# the variable once, when numpy loads it, so this must run before any nblab
# module imports numpy; an operator's own setting is left as it is.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
