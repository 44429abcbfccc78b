"""Harness of the repository benchmark (see ../README.md)."""
