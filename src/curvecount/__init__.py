"""Exact counts of nodal plane curves with tangency conditions.

The engine computes degrees of generalized Severi varieties (nodal plane
curves with prescribed line contact) by degeneration, rational curve
counts by Kontsevich's recursion, and certifies both against structural
identities (WDVV, Getzler) and classical geometry (intersection theory,
Euler characteristics, two independent derivations of the 12 nodal
cubics through 8 general points).  All arithmetic is exact.
"""

import sys

__version__ = "0.1.0"


class exact_decimals:
    """Lift Python's int<->str digit cap inside the block and restore it
    after, so counts of any size convert exactly.  A class, not a generator:
    past the address space, a generator left suspended is finalized while
    memory is still full, and its error is printed as unraisable."""

    def __enter__(self):
        self.saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        sys.set_int_max_str_digits(self.saved)
