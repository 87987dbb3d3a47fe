"""The ledger benchmark: where this simulator's *host* time goes.

Six workloads, five end-to-end metrics measured untraced, and a
per-layer trace taken from outside the program. See README.md.
"""
