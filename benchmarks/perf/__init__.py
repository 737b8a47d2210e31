"""The benchmark spine: one command, four workloads, one metric vocabulary.

``PYTHONPATH=src python -m benchmarks.perf`` drives the real socket path
(the benchmark's own keep-alive HTTP client -> ``FrontendServer`` ->
``AsyncViewServer`` -> ``ViewServer``/``ShardRouter`` -> evaluator ->
driver -> serializer -> socket write) and prints every metric by name.
``README.md`` in this directory has the workload and metric tables;
``BENCHMARK.json`` at the repository root is the machine-readable
contract the package validates its own output against.

Nothing here changes ``src/``: per-layer numbers are measured from
outside, by spans recorded in this package around calls into each
layer's public functions.
"""
