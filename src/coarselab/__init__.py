"""coarse-lab: a computational laboratory for sublinear coarse geometry.

Graph-realized geodesic spaces, sublinear gauge functions, empirical
Morse/contraction testers, free-product (relatively hyperbolic) machinery,
and seeded random-walk statistics, all at desk scale.
"""

import os

# The package calls no BLAS routine, yet importing numpy starts an OpenBLAS
# worker pool whose idle thread burns CPU on a second core.  OpenBLAS reads
# this variable once, when numpy first loads, so it must be set before any
# submodule imports numpy; a value the user already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

SCHEMA_VERSION = 1

def csv_header() -> str:
    """Header comment line stamped on every CSV this package writes."""
    return f"# coarse-lab v{__version__} schema={SCHEMA_VERSION}"
