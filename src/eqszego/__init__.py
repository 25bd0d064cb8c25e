"""Exact equivariant kernels on model geometries and their scaling limits.

The package computes isotypic components of reproducing kernels for a
torus action on two model spaces (the affine Bargmann space and
projective space), together with the closed-form leading prediction for
their near-diagonal scaling, and a harness of convergence experiments
that certify the prediction against the exact kernels.
"""

__version__ = "0.1.0"
