"""Counting a family's classes from the states of Dhar's burning.

A family's degree groups decide its counts: no graph is built and no
configuration is walked.  ``enumeration._plan`` routes every count on a
family here, and the walks of ``enumeration`` stay the reference.
"""

from __future__ import annotations

import math
from itertools import product
from operator import mul, sub

from .families import _FAMILY_TABLE, FamilySpec

# the classes counted from the drain of one burning start
_SEEDED = ("sr-forall", "sr-exists", "ppf", "ppf-inc")


def _burning_count(target: FamilySpec, groups, cls: str) -> int:
    """Members of ``cls`` on a family, from the states of Dhar's burning
    (Dhar 1990) and no graph: a configuration is recurrent exactly when,
    from the sink, every vertex burns, a vertex burning once it holds at
    least its edges to the unburnt ones.  A parking candidate is its degree
    complement, so ``pf`` counts as ``recurrent``, ``ppf`` as ``sr-forall``
    and an increasing class as the configurations whose grains never rise
    inside a part.  ``stable`` needs no burning: every vertex takes any of
    its d values, so a family counts prod d^c over its ``(d, c)`` groups.

    A wheel's rim (values 0..2, the hub the sink) holds a forbidden set
    exactly when it holds a forbidden arc, as the hub is in none and each
    arc of a set sees only its own vertices: the whole rim with no 2 (two
    neighbours inside each), or an arc of two or more vertices with zeros
    at both ends (one inside) and no 2 between them.  Read the rim with two
    states, whether a 2 has followed the last zero: 1 or 2 keeps the first
    (two ways), 0 leaves it, 2 returns to it, 1 keeps the second, and a 0
    in the second closes a forbidden arc, so T = [[2, 1], [1, 1]].  A
    cyclic word with a zero fixes its states and closes around the rim
    exactly when it has no forbidden arc; one without zero closes in the
    first state when it holds a 2, and in both when it is all ones, the
    whole rim with no 2.  So W_n counts tr(T^n) - 2.

    Level 0 of W_n holds one grain per rim edge, n grains on n vertices,
    so the rim holds as many 0s as 2s.  A recurrent rim has a 2 between
    every two cyclically consecutive zeros (and a 2 when it has no zero),
    so it has a zero and the values that are not 1 alternate 0, 2 around
    it.  Read the rim with two states, whether the last value that is not
    1 was a 0: a 1 keeps either, a 2 leaves the first and a 0 the second,
    so M = [[1, 1], [1, 1]], and a cyclic word closes exactly when it
    alternates or is all ones, which closes in both states.  So
    ``min-recurrent`` counts tr(M^n) - 2.  A 2x2 matrix of trace t and
    determinant e has A^2 = tA - eI, so tr(A^j) = t tr(A^(j-1)) -
    e tr(A^(j-2)), from 2 and t: (3, 1) for T, (2, 0) for M, whose count
    is 2^n - 2.

    A recurrent rim holds a burning start, the first vertex to burn, which
    holds its 2 edges into the rim.  The drain of a start v is the rim cut
    open at v: a path, v its sink at both ends, whose vertices hold c - 1
    grains against 2 edges each.  A vertex holding 0 (-1 in the drain) is
    a forbidden set alone; otherwise a forbidden set holds a forbidden arc,
    two or more vertices with 1s at both ends (0 grains, one edge inside).
    So the drain is recurrent exactly when no vertex holds 0 and at most
    one holds 1: two 1s, with the 2s between them, form a forbidden arc.
    That reads the whole rim, v being a 2, so every other start drains the
    same way: ``sr-forall``, ``sr-exists`` and ``ppf`` count n + 1, all 2s
    or exactly one 1.

    In a family with parts a vertex sees every non-sink vertex outside its
    part and the sink unless it shares the sink's part, so a clique group
    (vertices in parts of their own) has degree N, the non-sink total, and
    an independent part of c vertices N - c plus its sink edges (0 or 1).
    Burn in rounds (``_burn_out``).  With u_X of group X unburnt (U in
    all), a vertex of X sees e_X(u) = U - u_X unburnt neighbours, or U - 1
    in a clique group, so one that burns in round r holds a value in
    [e_X(u_r), e_X(u_(r-1))), u_r being the vector round r starts from.
    After a round that burnt k_X of X, K in all, that window has width
    w_X = K - k_X in an independent part and K in a clique group; round 1's
    width is X's sink edges.  Summing over the sequences of unburnt vectors
    down to zero, a round burning k_X of each X weighs prod C(u_X, k_X) *
    w_X^k_X, or, choosing the multisets of an increasing class, prod
    C(w_X + k_X - 1, k_X).  The states are ``(u, w)``, by unburnt total.
    A rest counts zero exactly when every group left has width 0: burning
    every group of positive width leaves at most the one independent part
    that alone burnt last, whose width then is positive.  Such rests are
    skipped before the weight is formed.

    ``min-recurrent`` holds one grain per non-sink edge (level 0).  Each
    vertex holds at least the bottom of its window, and summed over the
    vertices those bottoms count every non-sink edge once, and once more
    for each edge inside a round.  So a level-0 configuration burns each
    vertex at the bottom of its window, which then has width at least 1,
    and no round holds an edge: each round burns some vertices of one
    group, one of a clique group, and weighs C(u_X, k_X).

    The drain of a burning start v (``sandpile.drain_except``) is Dhar's
    burning of G - sink from v as its sink: the groups become
    ``(d_X - s_X, c_X)``, v's group Z ``(d_Z - 1, c_Z - 1)``, and a round-1
    window is X's edges to v, 1 but for an independent Z (0).  On a complete
    multipartite graph the drains of any two starts are recurrent together.
    Two starts of one part are twins holding its top value d - 1, so
    swapping them maps one drain onto the other.  A set forbidden in y's
    drain misses y, which keeps d_y - 1 grains and so burns at once.  It
    also misses a start v of another part: v holds d_v - 2 grains there, at
    least its edges into a set that misses its neighbour y.  On a set that
    misses both starts the two drains agree, so a set forbidden in one is
    forbidden in the other.  A drain lies below
    the configuration but at its start, which burns once the sink fires, so
    a recurrent drain makes the configuration recurrent.  So one start's
    drain decides ``sr-forall`` and ``sr-exists`` alike, and the two count
    the same.

    Each configuration is counted at the first sink-adjacent group Z, in
    declaration order, holding a start, from the drain of one start v in
    Z.  A sink-adjacent group declared before Z holds no start, and its
    round-1 window in the drain is exactly a start's value, its top, so it
    burns nothing in round 1.  The starts of Z hold Z's top value, whose
    window is round 1 for a clique Z and round 2 for an independent Z (its
    round-1 width is 0).  There Z's k burners and v are k + 1 of Z's c_Z
    vertices in a window of width w, at least one at the top: they weigh
    C(c_Z, k + 1) * (w^(k + 1) - (w - 1)^(k + 1)), or as multisets
    C(w + k - 1, k).  So the first round, or the first two, run from the
    drain alone, the round of Z's top weighing Z so (``_round`` with
    ``top``), and the loop runs on.  A Z of one vertex holds only v, at its
    one value, and drops out.
    """
    if cls == "stable":
        return math.prod(d ** c for d, c in groups)
    if not _FAMILY_TABLE[target.family].parts:
        n = groups[0][1]
        if cls in _SEEDED:
            return n + 1
        t, e = (2, 0) if cls == "min-recurrent" else (3, 1)
        a, b = 2, t
        for _ in range(n - 1):
            a, b = b, t * b - e * a
        return b - 2
    inc = cls.endswith("-inc")
    total = sum(c for _, c in groups)
    clique = [d == total for d, _ in groups]
    sink = tuple(d - total + (1 if q else c)
                 for (d, c), q in zip(groups, clique))
    sizes = tuple(c for _, c in groups)
    if cls not in _SEEDED:
        states: list = [{} for _ in range(total + 1)]   # by unburnt total
        states[total][sizes, sink] = 1
        return _burn_out(states, clique, inc, cls == "min-recurrent")
    count = 0
    for z, c in enumerate(sizes):
        if not sink[z]:
            continue
        # v's drain: G - sink burnt from v, every group but an independent
        # Z seeing v, and the sink-adjacent groups before Z holding no
        # start, so their round-1 windows have width 0
        u = tuple(x - (i == z) for i, x in enumerate(sizes))
        w = tuple(int((i != z or clique[z]) and not (i < z and s))
                  for i, s in enumerate(sink))
        states = [{} for _ in range(total)]
        states[-1][u, w] = 1
        # Z's top value has the window of round 1, or of round 2 for an
        # independent Z, which sees no v
        for top in ((z,) if clique[z] else (None, z)) if c > 1 else ():
            layers, states = states, [{} for _ in range(total)]
            for layer in layers:
                _round(layer, states, clique, inc, top)
        count += _burn_out(states, clique, inc)
    return count


def _burn_out(states: list, clique, inc: bool, level: bool = False) -> int:
    """Burn every ``(u, w)`` state of ``states`` (indexed by unburnt total)
    down to nothing, round by round (``_round``, given ``level``), and sum
    the weights of the sequences that burn everything.
    """
    for left in range(len(states) - 1, 0, -1):
        _round(states[left], states, clique, inc, None, level)
    return sum(states[0].values())


def _round(layer: dict, states: list, clique, inc: bool, top=None,
           level: bool = False) -> None:
    """One round of Dhar's burning from each ``(u, w)`` state of ``layer``,
    adding the states it leaves to ``states`` by unburnt total.  With
    ``top`` the round is the window of group ``top``'s top value, its
    burners joining the start among its vertices; with ``level`` it burns
    one group, each burner at the bottom of its window.
    """
    for (u, w), f in layer.items():
        moves = _moves(u, w, clique, level)
        if level:
            w = (1,) * len(u)    # one value in each window
        left = sum(u)
        for k in moves:
            burnt = sum(k)
            if not burnt:
                continue
            rest = tuple(map(sub, u, k))
            nxt = tuple(burnt if q else burnt - j for q, j in zip(clique, k))
            if any(rest) and not any(map(mul, rest, nxt)):
                continue     # nothing more burns
            weight, plain = f, k
            if top is not None and not inc:
                x, j, y = u[top], k[top], w[top]
                weight *= (math.comb(x + 1, j + 1)
                           * (y ** (j + 1) - (y - 1) ** (j + 1)))
                plain = k[:top] + (0,) + k[top + 1:]
            for x, j, y in zip(u, plain, w):
                if j:
                    weight *= (math.comb(y + j - 1, j) if inc
                               else math.comb(x, j) * y ** j)
            out = states[left - burnt]
            out[rest, nxt] = out.get((rest, nxt), 0) + weight


def _moves(u, w, clique, level: bool):
    """The ``k`` vectors a round from ``(u, w)`` tries: any number of each
    group with width, or with ``level`` some of one group, one of a clique
    group."""
    if level:
        return [(0,) * i + (j,) + (0,) * (len(u) - i - 1)
                for i, (x, y) in enumerate(zip(u, w)) if x and y
                for j in range(1, 2 if clique[i] else x + 1)]
    return product(*[range(x + 1) if y else (0,) for x, y in zip(u, w)])
