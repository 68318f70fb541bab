"""One key protocol across the kinds of relation on the naturals.

``SmallEq``, ``AutomaticEq`` and a keyed ``DeciderEq`` each carry ``key``, a
callable whose kernel is the relation; a black-box ``DeciderEq`` has ``key``
None.  A keyed relation of any kind enters the decider layer through
``DeciderEq.from_key(rel.key)``, so the decider combinators take mixed pairs.
For every pair of kinds this harness checks that restriction to {0..n-1}
commutes with ``restrict``, ``meet_combinator``, ``leq``, the least-element
complement and ``bounded_join``.  The oracles are the black-box pairwise scan,
brute force over the relations' own ``decide``/``related``, the partition
lattice on the restrictions, and the exact automatic join certificate.
"""
import random
from functools import reduce
from itertools import product

import pytest

from equlat import decider as dc
from equlat.automatic import AutomaticEq, corpus, singleton_family
from equlat.partition import Partition, SmallEq, random_partition
from equlat.verify import _random_smalleq

SIZES = (1, 7, 64)


def _kinds():
    rng = random.Random(11)
    folds = [rng.sample(range(1, 40), rng.randint(2, 5)) for _ in range(4)]
    return {
        "smalleq": [SmallEq.top(), SmallEq.singular({1, 3, 4}, 6)]
        + [_random_smalleq(rng) for _ in range(3)],
        "automatic": list(corpus().values()),
        "folded": [reduce(AutomaticEq.meet, map(singleton_family, f)) for f in folds],
        "keyed": [
            dc.parity_decider(),
            dc.DeciderEq.from_key(lambda x: x // 3, cost_note="thirds"),
            dc.from_partition(random_partition(10, rng)),
            dc.singular_from_predicate(lambda x: x % 5 == 2, cost_note="2 mod 5"),
        ],
        "blackbox": [
            dc.DeciderEq(lambda m, n: m % 3 == n % 3, cost_note="mod 3"),
            dc.DeciderEq(lambda m, n: m.bit_length() == n.bit_length(), cost_note="bit length"),
            dc.DeciderEq(lambda m, n: m == n or min(m, n) >= 5, cost_note="upper set at 5"),
        ],
    }


KINDS = _kinds()


def _decide(rel):
    return rel.related if isinstance(rel, SmallEq) else rel.decide


def _lift(rel) -> dc.DeciderEq:
    """Into the decider layer: keyed kinds through their key."""
    if isinstance(rel, dc.DeciderEq):
        return rel
    return dc.DeciderEq.from_key(rel.key, cost_note=f"key of {rel!r}")


def _scan(fn, n) -> Partition:
    """The black-box pairwise scan of ``fn`` on {0..n-1}."""
    return dc.DeciderEq(fn, check_bound=0).restrict(n)


def _queries(rng, part: Partition, count: int):
    """``count`` points x of ``part``'s universe, each with a random y and a
    y drawn from x's class."""
    n, labels = part.universe_size, part.labels
    for _ in range(count):
        x = rng.randrange(n)
        yield x, rng.randrange(n)
        yield x, rng.choice([y for y in range(n) if labels[y] == labels[x]])


def _related_in_bounds(d1, d2, m, n, universe) -> bool:
    found = dc.bounded_join(d1, d2, m, n, universe, universe)
    if isinstance(found, dc.RelatedWitness):
        assert dc.verify_chain(d1, d2, found, universe, universe)
        return True
    return False


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_restrict_is_the_kernel_of_the_key(kind):
    for rel, n in product(KINDS[kind], SIZES):
        part = rel.restrict(n)
        assert part == _scan(_decide(rel), n)
        if kind == "blackbox":
            assert rel.key is None
            continue
        assert part == Partition.from_key(n, rel.key) == _lift(rel).restrict(n)
        assert dc.least_element_complement(_lift(rel)).restrict(n) == (
            part.least_element_complement()
        )


@pytest.mark.parametrize("left,right", list(product(sorted(KINDS), repeat=2)))
def test_operations_commute_with_restriction(left, right):
    rng = random.Random(f"{left}/{right}")
    for n in SIZES:
        for _ in range(4):
            a, b = rng.choice(KINDS[left]), rng.choice(KINDS[right])
            ra, rb = a.restrict(n), b.restrict(n)
            la, lb = _lift(a), _lift(b)
            da, db = _decide(a), _decide(b)
            meet = dc.meet_combinator(la, lb)
            assert (meet.key is None) == (la.key is None or lb.key is None)
            assert meet.restrict(n) == ra.meet(rb) == _scan(lambda x, y: da(x, y) and db(x, y), n)
            if type(a) is type(b) and not isinstance(a, dc.DeciderEq):
                assert a.meet(b).restrict(n) == ra.meet(rb)
            implies = all(db(x, y) for x, y in product(range(n), repeat=2) if da(x, y))
            assert ra.leq(rb) == implies == (ra.meet(rb) == ra)
            assert ra.meet(rb).leq(ra) and ra.leq(ra.join(rb))
            assert dc.least_element_complement(meet).restrict(n) == (
                ra.meet(rb).least_element_complement()
            )
            join = ra.join(rb)
            for x, y in _queries(rng, join, 2):
                assert _related_in_bounds(la, lb, x, y, n) == join.related(x, y)


def test_bounded_join_of_lifts_is_the_exact_join():
    rng = random.Random(4)
    automatic = KINDS["automatic"] + KINDS["folded"]
    assert all(isinstance(rel, AutomaticEq) for rel in automatic)
    queries = 0
    for a, b in product(automatic, repeat=2):
        cert = a.join_certificate(b)
        universe = max(64, cert.cutoff())
        la, lb = _lift(a), _lift(b)
        for x, y in _queries(rng, cert.result.restrict(universe), 2):
            expect = cert.result.decide(x, y)
            assert _related_in_bounds(la, lb, x, y, universe) == expect, (a, b, x, y)
            queries += 1
    assert queries == 4 * len(automatic) ** 2
