"""Benchmark harness for aerodynamic-style black-box design optimization."""

__version__ = "0.2.0"
