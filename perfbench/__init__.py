"""Benchmark harness for ptgraph; see run.py for how to run it."""
