"""Exact integer arithmetic on Cayley's cubic surface and its relatives.

The central object is the equation s*(x^2 + y^2 + z^2) - s^3 - 2xyz = 0
over positive integers.  Solutions come in chains driven by scaled
Chebyshev recurrences, are connected by conjugation moves, solve two
families of Pell equations, and contrast with Markov triples through the
continuant calculus.  Everything is computed exactly; no floats anywhere.
"""

from . import errors, markov, pell, search, sequences, triples
from .errors import *
from .markov import *
from .pell import *
from .search import *
from .sequences import *
from .triples import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, markov, pell, search, sequences, triples) for name in module.__all__]
