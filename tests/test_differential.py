"""Fast paths against reference oracles on graphs beyond the small pool.

Seeded random multigraphs with 7 to 10 non-sink vertices are too large for
exhaustive sweeps, so configurations are sampled from the grain-dropping
chain started at the maximal stable configuration, whose states are all
recurrent.  Recurrence is also checked on uniform stable configurations and
on chain states with one grain removed, which fall on both sides of the
recurrent boundary.
"""

import random

import pytest

from sandpark import (
    failing_boost_vertex,
    is_prime,
    is_prime_bruteforce,
    is_recurrent,
    is_recurrent_burning,
    is_strongly_recurrent,
    markov_run,
    pf_from_config,
    random_connected_multigraph,
)
from conftest import boost_witness

SEEDS = range(16)


def sampled_recurrent(seed):
    """A seeded graph, an rng, and up to 30 recurrent configurations."""
    rng = random.Random(seed)
    g = random_connected_multigraph(rng, rng.randint(8, 11), max_mult=2,
                                    extra_edges=14)
    top = tuple(d - 1 for d in g.nonsink_degrees)
    states = sorted({c for _, _, c in markov_run(g, top, 300, seed=seed).trace})
    rng.shuffle(states)
    return g, rng, states[:30]


@pytest.mark.parametrize("seed", SEEDS)
def test_recurrence_oracles_agree_on_sampled_stable_configs(seed):
    g, rng, states = sampled_recurrent(seed)
    assert 7 <= len(g.nonsink) <= 10
    samples = [tuple(rng.randrange(d) for d in g.nonsink_degrees)
               for _ in range(50)]
    for c in states:
        i = rng.randrange(len(c))
        samples.append(c[:i] + (max(c[i] - 1, 0),) + c[i + 1:])
    for c in samples:
        assert is_recurrent(g, c) == is_recurrent_burning(g, c), c


@pytest.mark.parametrize("seed", SEEDS)
def test_primality_routes_agree_on_sampled_parking_functions(seed):
    g, _, states = sampled_recurrent(seed)
    for c in states:
        p = pf_from_config(g, c)
        prime = is_prime(g, p)
        assert prime == is_prime_bruteforce(g, p), p
        assert prime == is_strongly_recurrent(g, c), p
        witness = failing_boost_vertex(g, p)
        assert (witness is None) == prime, p
        assert witness == boost_witness(g, p), p
