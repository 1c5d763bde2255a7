"""Test-only oracles: from-scratch recomputations that the incremental fast
paths in ``src/`` are checked against."""
