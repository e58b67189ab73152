"""Immutable records: the value classes of the package.

A record class derives from Record and from a collections.namedtuple of
its fields, and declares `__slots__ = ()`.  It keeps the contract of a
frozen dataclass: it equals only a record of its own class with equal
fields, hashes as the tuple of its fields, prints as Name(field=value,
...), refuses assignment, and copies and pickles by value.  Unlike a
dataclass it is a tuple, so it iterates over its fields, and
dataclasses.is_dataclass is False for it.  Building such a class
generates one small function where a dataclass generates and compiles
several, which a fresh process pays for on every run.
"""

from __future__ import annotations


class Record:
    """Class-aware equality and the field-tuple hash for a namedtuple
    subclass; tuple's own equality would make Add(a, b) == Mul(a, b)."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other
