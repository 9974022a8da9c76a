"""Benchmark harness for aerodynamic-style black-box design optimization."""

__version__ = "0.4.0"
