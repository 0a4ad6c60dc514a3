"""Exact counts of nodal plane curves with tangency conditions.

The engine computes degrees of generalized Severi varieties (nodal plane
curves with prescribed line contact) by degeneration, rational curve
counts by Kontsevich's recursion, and certifies both against structural
identities (WDVV, Getzler) and classical geometry (intersection theory,
Euler characteristics, two independent derivations of the 12 nodal
cubics through 8 general points).  All arithmetic is exact.
"""

import sys
from contextlib import contextmanager

__version__ = "0.1.0"


@contextmanager
def exact_decimals():
    """Lift Python's int<->str digit cap inside the block and restore it
    after, so counts of any size convert exactly."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)
