"""Local LM extraction pipeline for diagnostic reports, with a benchmark harness."""

__version__ = "0.1.0"
