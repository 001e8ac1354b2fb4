"""Benchmark for the OptiLog reproduction: see README.md."""
