"""The repository benchmark: end-to-end and per-layer measurements.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout and prints, as its last
line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``BENCHMARK.json`` at the repository root
names the workloads and metrics; ``perfbench/README.md`` explains them.
"""
