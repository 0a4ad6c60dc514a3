"""Exact counts of nodal plane curves with tangency conditions.

The engine computes degrees of generalized Severi varieties (nodal plane
curves with prescribed line contact) by degeneration, rational curve
counts by Kontsevich's recursion, and certifies both against structural
identities (WDVV, Getzler) and classical geometry (intersection theory,
Euler characteristics, two independent derivations of the 12 nodal
cubics through 8 general points).  All arithmetic is exact.
"""

__version__ = "0.1.0"
