"""Benchmark of the minla CLI: workloads, output gate and layer tracer.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
