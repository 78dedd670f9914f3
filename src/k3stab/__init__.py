"""Exact K3 attractor backgrounds, the lattice mirror map, and wall certificates."""

__version__ = "0.1.0"
