"""Numerics for a weighted sequence-space distance test of the Riemann hypothesis.

The package measures how well the constant sequence (1, 1, ...) can be
approximated by dilated fractional-part sequences in a weighted square-summable
space, tracks the decay of the squared distance as the dilation cutoff grows,
and cross-checks the analytic identities that make the closed-form Gram
entries and Mellin-side transforms trustworthy.

Import from the modules; the package itself exports nothing:

    nblab.criterion   Gram store, distance sweeps, Moebius residual
    nblab.seqspace    step-function sequences and their inner products
    nblab.specfun     Euler's constant, digamma, log-gamma, zeta, xi
    nblab.analytic    Mellin-side transforms and the verification suites
    nblab.arith       Moebius sieve
    nblab.summation   compensated summation
    nblab.errors      the exception hierarchy
    nblab.cli         the `nblab` command line
"""
