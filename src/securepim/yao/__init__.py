"""Garbled-circuit subsystem: circuits, garbling, ideal OT, and switching."""
