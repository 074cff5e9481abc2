"""Benchmark of oqrisk: workloads, tracing and the model generator."""
