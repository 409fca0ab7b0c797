"""Exact difference calculus on the integers and exterior calculus on graphs."""

__version__ = "0.1.0"
