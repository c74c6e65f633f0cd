"""Randomized verification of numerical-radius inequalities for G1 operators.

The package computes the numerical radius with a certified witness,
evaluates Herglotz-class functions of matrices by two independent routes,
generates certified growth-condition operators, and property-tests a
catalog of operator inequalities on seeded random instances. Names are
imported from their modules (`g1rad.wradius`, `g1rad.runner`, ...); the
package root exports nothing.

Importing any g1rad module runs this file first, which pins OpenBLAS,
OpenMP and MKL to one thread unless the caller set OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS: the package's solves and eigensolves
are on matrices small enough that extra BLAS threads only add
synchronisation. The pin takes effect only if numpy has not been imported
yet, so this file imports nothing else.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var
