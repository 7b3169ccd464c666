"""Counting a family's classes from the states of Dhar's burning.

A family's degree groups decide its counts: no graph is built and no
configuration is walked.  ``enumeration._plan`` routes every count on a
family here, and the walks of ``enumeration`` stay the reference.
"""

from __future__ import annotations

import math

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
    Burn in rounds (``_burn``).  With u_X of group X unburnt (U in
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
    that alone burnt last, whose width then is positive.  A group left has
    width 0 only when it is an independent part that alone burnt, so a rest
    counts zero exactly when a lone unburnt independent part burns only
    partly, and such a part burns whole (``_moves``).

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
    drain alone, the round of Z's top weighing Z so (``_moves`` with
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
    # a state (u, w) is the integer sum of u_X a_X + w_X b_X in radix
    # total + 1, the widths low, so a move k leaves the unburnt digits
    # shifted by sum k_X d_X, d_X = sum b - a_X - b_X [X independent]
    n1 = total + 1
    span = n1 ** len(sizes)
    shape = span, n1, tuple(
        (span * b, b, (span - 1) // total - span * b - (not q) * b, q)
        for b, q in zip((n1 ** i for i in range(len(sizes))), clique))
    # v's drain: G - sink burnt from v, every group but an independent Z
    # seeing v, and the sink-adjacent groups before Z holding no start, so
    # their round-1 windows have width 0
    starts = [(sizes, sink, ())] if cls not in _SEEDED else [
        (tuple(x - (i == z) for i, x in enumerate(sizes)),
         tuple(int((i != z or clique[z]) and not (i < z and s))
               for i, s in enumerate(sink)),
         # Z's top value has the window of round 1, or of round 2 for an
         # independent Z, which sees no v
         ((z,) if clique[z] else (None, z)) if c > 1 else ())
        for z, c in enumerate(sizes) if sink[z]]
    count = 0
    for u, w, tops in starts:
        states: list = [{} for _ in range(total + 1)]   # by unburnt total
        states[sum(u)][sum(x * a + y * b for x, y, (a, b, _, _)
                           in zip(u, w, shape[2]))] = 1
        for top in tops:
            states = _burn(states, shape, inc, top, out=[{} for _ in states])
        count += sum(_burn(states, shape, inc, None,
                           cls == "min-recurrent")[0].values())
    return count


def _burn(states: list, shape, inc: bool, top=None, level: bool = False,
          out=None) -> list:
    """Add the moves (``_moves``) of each state of ``states`` (integer
    keys by unburnt total) to ``out`` by the total they leave and return
    it: one round from every state, or with ``out`` None into ``states``
    itself, which burns everything down to its layer 0.
    """
    out = states if out is None else out
    for left in range(len(states) - 1, 0, -1):
        for key, f in states[left].items():
            for burnt, rest, weight in _moves(key, f, shape, inc, top, level):
                if burnt:
                    layer = out[left - burnt]
                    layer[rest] = layer.get(rest, 0) + weight
    return out


def _moves(key: int, f: int, shape, inc: bool, top=None,
           level: bool = False) -> list:
    """The ``(burnt, key, weight)`` moves of one round from state ``key``
    of weight ``f``, folded group by group from the ``(k_X, k_X d_X,
    factor)`` options of each group with width: any k_X, or all of a lone
    independent part.  With ``top`` the round is the window of group
    ``top``'s top value, its burners joining the start; with ``level`` it
    burns some of one group, one of a clique group, at the window bottom.
    """
    span, n1, groups = shape
    xs = [key // a % n1 for a, _, _, _ in groups]
    lone = xs.count(0) == len(xs) - 1
    moves = [(0, key - key % span, f)]
    for i, (x, (_, b, d, q)) in enumerate(zip(xs, groups)):
        y = key // b % n1
        if not (x and y):
            continue
        y = 1 if level else y    # one value in each window
        s = i == top and not inc    # the start joins this group's burners
        m = x + s
        if lone and not q:
            opts = [(x, x * d, math.comb(y + x - 1, x) if inc else
                     y ** m - (y - 1) ** m if s else y ** x)]
        else:
            # C(x, k) y^k, C(y + k - 1, k) as multisets, or at the top
            # C(x + 1, k + 1) (y^(k + 1) - (y - 1)^(k + 1)), over k
            opts, hi, lo = [] if s else [(0, 0, 1)], 1, 1
            for j in range(1, 2 if level and q else m + 1):
                hi = hi * (y + j - 1 if inc else (m - j + 1) * y) // j
                lo = lo * (m - j + 1) * (y - 1) // j if s else 0
                opts.append((j - s, (j - s) * d, hi - lo))
        if level:
            moves += [(k, moves[0][1] + t, f * p) for k, t, p in opts if k]
        else:
            moves = [(burnt + k, r + t, p * g) for burnt, r, p in moves
                     for k, t, g in opts]
    return moves
