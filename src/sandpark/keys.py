"""Prefix keys of a family with parts, and its members read off them.

A family with parts is listed in two passes (``enumeration._by_keys``).
Its representative walk records the key of every prefix it admits, the
multiset of values each part holds.  A member prefix passes every check
exactly when the representative with its key does (``enumeration._search``),
so what it admits depends only on its key, and the second pass reads the
members off the recorded keys with no fixpoint.

The second pass builds each key's block once, off the blocks of the
next position, and keeps it in a memo dropped with its generator.  A
block's rows are made of a cell per value and an end: tuples for
``iter_class``, and for ``--output list|json`` the listing's text, so
each row's text is built once per key, not per member.  So beside the
recorded keys a listing holds at most one block per key, tuples or text,
whatever its length.
"""

from __future__ import annotations

from typing import Iterator

# the last positions read as one block per prefix key
_TAIL = 3


def _prefix_units(groups, low: int) -> list:
    """Per position, the increment of a prefix key for each value.

    The key of a prefix sums its positions' increments, one field per
    group: a group of ``c > 1`` positions and ``d`` values has a subfield
    per value, of ``c.bit_length()`` bits, counting the group's positions
    that hold the value; a group of one position holds its value's index
    plus one, so a field costs ``d.bit_length()`` bits, not ``d``.  Equal
    keys are equal multisets of values inside every group, and keys of
    prefixes of different lengths differ.  The positions of a group share
    one list, indexed by value.
    """
    units: list = []
    shift = 0
    for d, c in groups:
        if c == 1:
            units.append([0] * low + [(i + 1) << shift for i in range(d)])
            shift += d.bit_length()
        else:
            w = c.bit_length()
            units += [[0] * low + [1 << (shift + w * i) for i in range(d)]] * c
            shift += w * d
    return units


def _keyed_members(units: list, low: int, seen: set, cell, end
                   ) -> Iterator[tuple[tuple, list]]:
    """The members all of whose prefix keys are in ``seen``,
    lexicographically, as ``(prefix, block)`` pairs: a member prefix of
    key ``K`` admits ``x`` exactly when ``K + unit[x]`` is in ``seen``.

    The first position and those before the last ``_TAIL`` are walked one
    by one, and each prefix takes the block of its key (``_block``), built
    once: the rows ``cell(x) + ... + end`` of the later values ``x`` that
    end a member after it.  A block may be empty.
    """
    head = max(len(units) - _TAIL, 1)    # the positions walked one by one
    blocks: dict = {}    # key -> its block, once built
    vals = [0] * head
    keys = [0] * head    # keys[t]: the key of the prefix 0..t-1
    # options[t]: the admitted values position t has still to take, set
    # as t is reached
    options = [iter([x for x in range(low, len(units[0]))
                     if units[0][x] in seen])] * head
    t = 0
    while True:
        x = next(options[t], None)
        if x is None:
            if t == 0:
                return
            t -= 1
            continue
        vals[t] = x
        key = keys[t] + units[t][x]
        if t + 1 < head:
            t += 1
            keys[t], unit = key, units[t]
            options[t] = iter([y for y in range(low, len(unit))
                               if key + unit[y] in seen])
            continue
        yield tuple(vals), (blocks[key] if key in blocks else _block(
            blocks, units, low, seen, head, key, cell, end))


def _block(blocks: dict, units: list, low: int, seen: set, t: int, key: int,
           cell, end) -> list:
    """Build and keep in ``blocks`` the block of key ``key``: the admitted
    rows of the positions ``t`` to the last, lexicographically, each
    ``cell(x)`` followed by a row of the block of ``t + 1`` it reaches.
    Past the last position the block is the one row ``end``, not kept."""
    if t == len(units):
        return [end]
    unit = units[t]
    block = blocks[key] = [
        c + rest for x in range(low, len(unit))
        if (later := key + unit[x]) in seen
        for c in (cell(x),)
        for rest in (blocks[later] if later in blocks else
                     _block(blocks, units, low, seen, t + 1, later, cell, end))]
    return block
