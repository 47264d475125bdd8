"""End-to-end experiment benchmark with a per-layer split (see README.md)."""
