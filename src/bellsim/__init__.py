"""Desk-scale simulator and analysis toolkit for an atom-photon CHSH experiment."""

__version__ = "0.1.0"

# Finest bounds.tsirelson_scan grid, kept here so the CLI checks ``lhv --grid`` without
# loading bounds.  Work arrays hold (N + 1)^2 floats (34 MB each at N = 2048); cost ~ N^3.
_MAX_GRID = 2048
