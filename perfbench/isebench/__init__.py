"""Internals of the end-to-end benchmark driven by ``perfbench/run.py``."""
