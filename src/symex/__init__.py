"""Exact elementary symmetric polynomials by binomial-product extraction.

Pure integer arithmetic throughout: the direct definition, the classical
product recurrence, and the alternating binomial sieve all live here,
together with verifiers for every identity the sieve rests on.  The
command-line entry point is ``symex``; the submodules hold the rest of the
library.
"""

from .esp import ExtractionBreakdown, esp_all, esp_direct, esp_extraction
from .rootset import RootSet

__version__ = "0.1.0"

__all__ = [
    "ExtractionBreakdown",
    "RootSet",
    "esp_all",
    "esp_direct",
    "esp_extraction",
]
