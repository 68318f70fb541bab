"""Equivalence relations given as total decision procedures on pairs of
naturals.

Totality and the equivalence axioms are undecidable for black-box
procedures, so registration runs a sampled axiom check over a finite window
(default {0..31}) and refuses procedures that fail it.  A *keyed* relation is
the kernel of a computable key (m ~ n iff key(m) == key(n)); it is an
equivalence by construction, needs no sampled check, and lets the join search
and restriction group values by key instead of testing pairs.  The join of two
decidable equivalences need not be decidable at all, which is why only a
bounded, witness-producing join search is offered: its negative answer means
"not found within the bounds", never "unrelated".
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from .partition import Partition

REGISTRATION_BOUND = 32


class NotAnEquivalence(ValueError):
    """A decision procedure violated an equivalence axiom on the sample."""


class DeciderEq:
    """A decision procedure (m, n) -> bool plus a free-text cost note.

    ``key`` is the class key whose kernel the procedure decides, as on the
    other kinds (``from_key(rel.key)`` lifts them), or None for a black box.
    """

    __slots__ = ("_fn", "key", "cost_note", "universe_hint")

    def __init__(
        self,
        fn: Callable[[int, int], bool],
        cost_note: str = "",
        universe_hint: int | None = None,
        check_bound: int = REGISTRATION_BOUND,
    ):
        self._fn = fn
        self.key = None
        self.cost_note = cost_note
        self.universe_hint = universe_hint
        if check_bound:
            found = axiom_counterexamples(fn, check_bound)
            for axiom, where in zip(("reflexive", "symmetric", "transitive"), found):
                if where is not None:
                    raise NotAnEquivalence(f"not {axiom} at {where}")

    @classmethod
    def from_key(cls, key: Callable[[int], Hashable], cost_note: str = "") -> "DeciderEq":
        """The kernel of ``key``: m ~ n iff key(m) == key(n).  An equivalence
        by construction, so the sampled registration check is skipped."""
        d = cls(lambda m, n: m == n or key(m) == key(n), cost_note, check_bound=0)
        d.key = key
        return d

    def decide(self, m: int, n: int) -> bool:
        if m < 0 or n < 0:
            raise ValueError("naturals only")
        return bool(self._fn(m, n))

    def restrict(self, n: int) -> Partition:
        """Materialize on {0..n-1}; raises if a black-box procedure is not
        an equivalence there."""
        if self.key is not None:
            return Partition.from_key(n, self.key)
        labels = []
        for x in range(n):
            for y in range(x + 1):
                if self._fn(y, x):
                    labels.append(labels[y] if y < x else x)
                    break
            else:
                raise NotAnEquivalence(f"not reflexive at {x}")
        return Partition(labels)

    def __repr__(self) -> str:
        return f"DeciderEq({self.cost_note!r})"


def axiom_counterexamples(
    fn: Callable[[int, int], bool], bound: int
) -> tuple[int | None, tuple[int, int] | None, tuple[int, int, int] | None]:
    """Brute force over {0..bound-1} from one table, each value's set of
    related values with equal sets stored once: the first counterexample to
    reflexivity (m), symmetry (m, n) and transitivity (m, n, p), each None
    where that axiom holds on the window.  Related values of an equivalence
    share one set, so there transitivity costs B² identity tests in all."""
    window, stored = range(bound), {}
    sets = (frozenset(n for n in window if fn(m, n)) for m in window)
    rows = [stored.setdefault(r, r) for r in sets]
    refl = next((m for m in window if m not in rows[m]), None)
    sym = next(
        ((m, n) for m in window for n in range(m) if (n in rows[m]) != (m in rows[n])), None
    )
    trans = next(
        (
            (m, n, min(rows[n] - rows[m]))
            for m in window
            for n in sorted(rows[m])
            if rows[n] is not rows[m] and not rows[n] <= rows[m]
        ),
        None,
    )
    return refl, sym, trans


def bottom_decider() -> DeciderEq:
    return DeciderEq.from_key(lambda x: x, cost_note="constant-time equality")


def top_decider() -> DeciderEq:
    return DeciderEq.from_key(lambda x: 0, cost_note="constant-time")


def parity_decider() -> DeciderEq:
    return DeciderEq.from_key(lambda x: x % 2, cost_note="constant-time parity")


def singular_from_predicate(p: Callable[[int], bool], cost_note: str = "") -> DeciderEq:
    """m ~ n iff m == n or both satisfy the predicate."""
    # -1 is no natural, so it cannot collide with the singleton keys.
    return DeciderEq.from_key(
        lambda x: -1 if p(x) else x, cost_note=cost_note or "predicate singular"
    )


def from_partition(part: Partition) -> DeciderEq:
    """Extend a finite partition to all naturals, with singletons above it."""
    n = part.universe_size
    labels = part.labels
    # Labels lie below n and singleton keys at or above it.
    return DeciderEq.from_key(lambda x: labels[x] if x < n else x, f"table lookup below {n}")


def meet_combinator(d1: DeciderEq, d2: DeciderEq) -> DeciderEq:
    """Decides the conjunction; always again an equivalence, so the sampled
    registration check is skipped, and keyed by the pair of keys when both
    sides are keyed."""
    cost_note = f"({d1.cost_note}) && ({d2.cost_note})"
    if d1.key is not None and d2.key is not None:
        k1, k2 = d1.key, d2.key
        return DeciderEq.from_key(lambda x: (k1(x), k2(x)), cost_note=cost_note)
    return DeciderEq(lambda m, n: d1._fn(m, n) and d2._fn(m, n), cost_note, check_bound=0)


def least_element_complement(d: DeciderEq) -> DeciderEq:
    """The singular relation grouping the least element of every class of
    ``d``; always a complement of ``d``.

    m ~ n iff m == n or neither has a smaller d-related number (both are
    least in their classes).  For a black-box ``d`` each x scans all smaller
    numbers; for a keyed ``d`` one ascending pass, up to the largest x asked,
    reads each number's key once and keeps the least number of each key and a
    flag per number, so memory follows that x.  Either way the time is
    exponential in the input length.  The result is keyed for every ``d``
    (least elements share one key, the rest are singletons), so ``restrict``
    and ``bounded_join`` group by key.
    """
    cost_note = (
        f"least-element complement of ({d.cost_note}); "
        "scans all smaller values: linear space, exponential time"
    )
    if d.key is None:
        return singular_from_predicate(
            lambda x: not any(d._fn(k, x) for k in range(x)), cost_note
        )
    key, first, is_least = d.key, {}, bytearray()  # first: key -> least number scanned

    def least(x: int) -> bool:
        if x < 0:  # is_least[x] would read from the end
            raise ValueError("naturals only")
        for y in range(len(is_least), x + 1):
            is_least.append(first.setdefault(key(y), y) == y)
        return is_least[x] == 1

    return singular_from_predicate(least, cost_note)


@dataclass(frozen=True)
class RelatedWitness:
    """A verified alternating chain from m to n through the two relations."""

    chain: tuple[int, ...]
    links: tuple[str, ...]  # "left"/"right" per consecutive pair


@dataclass(frozen=True)
class NotWithinBounds:
    """Search exhausted the bounds; says nothing about unrelatedness."""

    explored: int


def bounded_join(
    d1: DeciderEq,
    d2: DeciderEq,
    m: int,
    n: int,
    universe: int | Iterable[int],
    chain_bound: int,
) -> RelatedWitness | NotWithinBounds:
    """Breadth-first search for an alternating chain m ~ a1 ~ ... ~ n.

    ``universe`` is either a bound U (candidates are 0..U-1) or an explicit
    finite collection of naturals; every chain element is drawn from it.  The
    chain uses at most ``chain_bound`` links, each holding under d1 or d2.

    Each point is expanded once, its new neighbours visited in ascending
    order.  A keyed relation yields a point's whole key class at once, so two
    keyed relations cost O(U log U) per search, except that endpoints one
    link apart cost two key comparisons; a black-box relation tests the point
    against every unvisited candidate, O(U^2) in all.
    """
    allowed = range(universe) if isinstance(universe, int) else set(universe)
    candidates = allowed if isinstance(allowed, range) else sorted(allowed)  # ascending
    if candidates and candidates[0] < 0:
        raise ValueError("naturals only")
    if m not in allowed or n not in allowed:
        raise ValueError("endpoints must lie in the search universe")
    if m == n:
        return RelatedWitness((m,), ())
    if chain_bound < 1:
        return NotWithinBounds(explored=1)
    if d1.key is not None and d2.key is not None:
        # The first level is m's two classes: an n in either ends this chain.
        if d1._fn(m, n):
            return RelatedWitness((m, n), ("left",))
        if d2._fn(m, n):
            return RelatedWitness((m, n), ("right",))
    parent: dict[int, int] = {m: m}
    near = (_neighbours(d1, candidates), _neighbours(d2, candidates))
    level, depth = [m], 0
    while level and depth < chain_bound:
        depth += 1
        found = []
        for x in level:
            new = []
            for fn, buckets in near:
                if buckets is None:
                    ys = [y for y in candidates if y not in parent and fn(x, y)]
                else:
                    ys = buckets.pop(fn(x), ())
                for y in ys:
                    if y not in parent:
                        parent[y] = x
                        new.append(y)
            if n in parent:
                chain = [n]
                while chain[-1] != m:
                    chain.append(parent[chain[-1]])
                chain.reverse()
                links = tuple(
                    "left" if d1._fn(a, b) else "right" for a, b in zip(chain, chain[1:])
                )
                return RelatedWitness(tuple(chain), links)
            found += sorted(new)
        level = found
    return NotWithinBounds(explored=len(parent))


def _neighbours(d: DeciderEq, candidates: Sequence[int]) -> tuple[Callable, dict | None]:
    """(key, key -> its candidates ascending), or (the black-box test, None).
    An expanded point drops its key bucket, whose members are all visited."""
    if d.key is None:
        return d._fn, None
    buckets: dict[Hashable, list[int]] = {}
    for y, k in zip(candidates, map(d.key, candidates)):
        buckets.setdefault(k, []).append(y)
    return d.key, buckets


def verify_chain(
    d1: DeciderEq,
    d2: DeciderEq,
    witness: RelatedWitness,
    universe: int | Iterable[int],
    chain_bound: int,
) -> bool:
    """Re-check a witness link by link against the stated bounds; a link's
    tag names its relation, "left" or "right"."""
    chain = witness.chain
    if len(chain) - 1 > chain_bound:
        return False
    allowed = (
        range(universe) if isinstance(universe, int) else set(universe)
    )
    if any(x < 0 or x not in allowed for x in chain):
        return False
    for (a, b), tag in zip(zip(chain, chain[1:]), witness.links):
        d = d1 if tag == "left" else d2 if tag == "right" else None
        if d is None or not d._fn(a, b):
            return False
    return len(witness.links) == len(chain) - 1
