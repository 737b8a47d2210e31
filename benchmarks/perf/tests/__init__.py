"""Tests of the benchmark itself; run explicitly, not by tier-1:

``PYTHONPATH=src python -m pytest benchmarks/perf/tests -q``
"""
