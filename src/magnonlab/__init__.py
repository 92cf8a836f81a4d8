"""Exact-diagonalization and ideal-magnon cross checks for the
low-temperature free energy of the ferromagnetic Heisenberg chain.

Import the layer modules (`magnonlab.spectra`, `magnonlab.magnongas`,
...) directly; the package namespace re-exports nothing, so importing
one layer loads only the scipy that layer needs.  No layer imports the
`scipy.linalg` or `scipy.special` package: every dense solve goes
through `magnonlab.lapack`, which loads scipy's LAPACK extension alone.
"""

__version__ = "0.1.0"
