"""Truncated versions of the infinite meet and join constructions.

Any set I of naturals is the intersection of the tail classes of a family of
small singular equivalences cut at an increasing sequence of thresholds; and
the singular relation grouping a finite I is the join of a star of atoms.
Here both constructions run exactly, up to an explicit truncation index.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .partition import Atom, InvalidPartition, Partition, SmallEq


@dataclass(frozen=True)
class SingularFamilySpec:
    """A target membership predicate plus strictly increasing cut points."""

    predicate: Callable[[int], bool]
    cuts: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if not self.cuts:
            raise ValueError("need at least one cut")
        if any(a >= b for a, b in zip(self.cuts, self.cuts[1:])) or self.cuts[0] < 1:
            raise ValueError("cuts must be strictly increasing and positive")


def default_cuts(count: int) -> tuple[int, ...]:
    """Exponential cut sequence 2, 4, 8, ...; keeps indices small while the
    tails still move."""
    return tuple(2 ** (i + 1) for i in range(count))


def family_member(spec: SingularFamilySpec, i: int) -> SmallEq:
    """The i-th member: small and singular, with big class
    (predicate-members below cut i) together with the upper set at cut i."""
    if not 0 <= i < len(spec.cuts):
        raise IndexError(f"family has cuts only up to index {len(spec.cuts) - 1}")
    cut = spec.cuts[i]
    members = [x for x in range(cut) if spec.predicate(x)]
    return SmallEq.singular(members, cut)


def truncated_family_meet(spec: SingularFamilySpec, k: int) -> SmallEq:
    """Meet of the family members 0..k; exactly the small singular relation
    whose big class is (predicate-members below cut k) plus that cut's
    upper set."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    acc = family_member(spec, 0)
    for i in range(1, k + 1):
        acc = acc.meet(family_member(spec, i))
    return acc


def closed_form_meet(spec: SingularFamilySpec, k: int) -> SmallEq:
    """What the truncated meet must equal, computed directly."""
    return family_member(spec, k)


def star_atoms(members: Iterable[int], n: int) -> list[Atom]:
    """Atoms pairing the least member with every other member."""
    members = sorted(set(members))
    if len(members) < 2:
        raise InvalidPartition("need at least two members")
    if members[0] < 0 or members[-1] >= n:
        raise InvalidPartition(f"members must lie in the universe of size {n}")
    least = members[0]
    return [Atom(least, x, n) for x in members[1:]]


def atoms_to_singular(members: Iterable[int], n: int) -> Partition:
    """Join of the star atoms over ``members``: the singular partition whose
    non-singleton class is exactly that set."""
    result = Partition.bottom(n)
    for atom in star_atoms(members, n):
        result = result.join(atom.as_partition())
    return result


# predicate builtins for the command line

def is_even(x: int) -> bool:
    return x % 2 == 0


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    d = 3
    while d * d <= x:
        if x % d == 0:
            return False
        d += 2
    return True


def bitmask_predicate(mask: str) -> Callable[[int], bool]:
    """Membership by a 0/1 string: character i decides i (whitespace ignored,
    anything past the end is out)."""
    bits = "".join(mask.split())
    if set(bits) - {"0", "1"}:
        raise ValueError("bitmask must contain only 0 and 1")
    return lambda x: x < len(bits) and bits[x] == "1"


BUILTIN_PREDICATES: dict[str, Callable[[int], bool]] = {
    "even": is_even,
    "odd": lambda x: x % 2 == 1,
    "prime": is_prime,
}
