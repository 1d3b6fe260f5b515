"""Benchmark for resguard; entry point ``perfbench/run.py``."""
