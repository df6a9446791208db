"""Shared pieces of the workloads: operations and carrier renaming."""

from __future__ import annotations

from dataclasses import dataclass

from fraisse_forge import structures


@dataclass
class Op:
    """One timed operation: a kind (used to group timings) and its inputs."""

    kind: str
    args: tuple


def renamed(s, tag: str):
    """The same structure with every carrier id prefixed by `tag`."""
    return structures.FiniteStructure(s.class_tag, tuple(tag + x for x in s.carrier),
                                      s.table)

