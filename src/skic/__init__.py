"""skic: a symbolic compression compiler for a minimal functional language.

Programs are parsed into a lambda-calculus IR, type-specialized by
energy-based inference, compressed into SKI combinator (GAEL) form
under an MDL objective, verified by probe-based behavioral equivalence,
measured for token compression and information density, and explained
through an exactly invertible controlled-English mapping.
"""

from .ski_core import parse_gael_program  # noqa: F401  perfbench/worker.py reads it

__version__ = "0.1.0"
