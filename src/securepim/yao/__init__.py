"""Garbled-circuit subsystem: circuits, garbling, and switching with an ideal OT."""
