"""Inaccuracy measures between record-value distributions and their parents.

The package provides a small catalog of parametric distributions, the
distributions of upper and lower k-record values drawn from them, a family
of information-theoretic inaccuracy measures (log-based and extropy-based,
density-level and cumulative), closed forms and quadrature paths for the
record-value specializations, and simulation oracles that check everything
against brute-force sampling.

Each module's ``__all__`` is its public surface, and the package re-exports
exactly those names.
"""

from . import distributions, errors, measures, numerics, oracle, record_measures, records
from .distributions import *
from .errors import *
from .measures import *
from .numerics import *
from .oracle import *
from .record_measures import *
from .records import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (distributions, errors, measures, numerics, oracle, record_measures, records)
    for name in module.__all__
]
