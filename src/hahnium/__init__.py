"""Coulomb bound-state expectation values via Hahn-polynomial closed forms.

The package computes energies, radial wavefunctions and radial moments
<r^p> for the nonrelativistic and the Dirac Coulomb problem, together
with the Laguerre-product integrals and angular algebra they rest on.
Every closed form is backed by an independent brute-force oracle
(adaptive quadrature or exact rational summation).
"""

__version__ = "0.1.0"

__all__ = [
    "angular",
    "checks",
    "cli",
    "hydrogen_nr",
    "hydrogen_rel",
    "laguerre_integrals",
    "oracle",
    "orthopoly",
    "specfun",
]
