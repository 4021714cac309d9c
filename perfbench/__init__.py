"""Benchmark of qcp's command-line workloads; see README.md."""
