"""Equivalence relations on a finite universe {0..n-1} and their lattice.

A Partition stores, for every element, the least element of its class
("canonical labeling").  With that normal form, structural equality is
semantic equality: two Partition values compare equal iff they describe the
same equivalence relation.

SmallEq carries the same idea over to relations on all of the naturals that
have finitely many classes: an explicit partition below a threshold, plus one
distinguished class that additionally contains every number >= threshold.

All values are immutable after construction and all operations are pure.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, mul, ne
from typing import Callable, Hashable, Iterable, Iterator, Sequence


class InvalidUniverse(ValueError):
    """Raised when a universe size is zero or negative."""


class InvalidPartition(ValueError):
    """Raised when class data does not describe a partition of {0..n-1}."""


class UniverseMismatch(ValueError):
    """Raised when an operation mixes relations on different universes."""


class NotSingular(ValueError):
    """Raised when a relation does not have exactly one non-singleton class."""


class Partition:
    """An equivalence relation on {0..n-1}, canonically labeled.

    ``labels[x]`` is the least element of the class of ``x``.
    """

    __slots__ = ("labels",)

    def __init__(self, labels: Sequence[int]):
        labels = tuple(labels)
        if not labels:
            raise InvalidUniverse("universe must contain at least one element")
        for x, lab in enumerate(labels):
            if not 0 <= lab <= x or labels[lab] != lab:
                raise InvalidPartition(
                    f"labeling is not canonical at element {x} (label {lab})"
                )
        self.labels = labels

    @classmethod
    def _mk(cls, labels: tuple[int, ...]) -> "Partition":
        # Fast path for internal construction of already-canonical labelings.
        p = object.__new__(cls)
        p.labels = labels
        return p

    @classmethod
    def bottom(cls, n: int) -> "Partition":
        """The finest relation: every element is its own class."""
        if n < 1:
            raise InvalidUniverse(f"invalid universe size {n}")
        return cls._mk(tuple(range(n)))

    @classmethod
    def top(cls, n: int) -> "Partition":
        """The coarsest relation: one class containing everything."""
        if n < 1:
            raise InvalidUniverse(f"invalid universe size {n}")
        return cls._mk((0,) * n)

    @classmethod
    def from_classes(cls, classes: Iterable[Iterable[int]]) -> "Partition":
        """Build from explicit classes, which must tile {0..n-1} exactly."""
        seen: dict[int, int] = {}
        for block in classes:
            block = sorted(set(block))
            if not block:
                raise InvalidPartition("empty class")
            lab = block[0]
            for x in block:
                if x < 0:
                    raise InvalidPartition(f"negative element {x}")
                if x in seen:
                    raise InvalidPartition(f"element {x} appears in two classes")
                seen[x] = lab
        if not seen:
            raise InvalidUniverse("no classes given")
        n = max(seen) + 1
        if len(seen) != n:
            # The seen elements are distinct naturals, so one below len(seen)
            # is missing: were all of them seen, n would equal len(seen).
            missing = next(x for x in range(len(seen)) if x not in seen)
            raise InvalidPartition(f"element {missing} is not covered")
        return cls._mk(tuple(map(seen.__getitem__, range(n))))

    @classmethod
    def from_key(cls, n: int, key: Callable[[int], Hashable]) -> "Partition":
        """The kernel of ``key`` on {0..n-1}: x ~ y iff key(x) == key(y)."""
        if n < 1:
            raise InvalidUniverse(f"invalid universe size {n}")
        first: dict[Hashable, int] = {}
        return cls._mk(tuple(map(first.setdefault, map(key, range(n)), range(n))))

    @property
    def universe_size(self) -> int:
        return len(self.labels)

    def related(self, x: int, y: int) -> bool:
        """True iff x and y are in the same class."""
        n = len(self.labels)
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"element out of range for universe {n}")
        return self.labels[x] == self.labels[y]

    def _require_same_universe(self, other: "Partition") -> None:
        if len(self.labels) != len(other.labels):
            raise UniverseMismatch(
                f"universe sizes differ: {len(self.labels)} vs {len(other.labels)}"
            )

    def leq(self, other: "Partition") -> bool:
        """Refinement order: every class of self sits inside a class of other."""
        self._require_same_universe(other)
        ol = other.labels
        return all(ol[x] == ol[lab] for x, lab in enumerate(self.labels))

    def meet(self, other: "Partition") -> "Partition":
        """Greatest lower bound: classes are the non-empty pairwise intersections."""
        self._require_same_universe(other)
        n = len(self.labels)
        first: dict[int, int] = {}
        return Partition._mk(
            tuple(map(first.setdefault, _pair_keys(self.labels, other.labels), range(n)))
        )

    def join(self, other: "Partition") -> "Partition":
        """Least upper bound: the connected classes of the coarser side."""
        self._require_same_universe(other)
        a, b, classes = _coarser_first(self.labels, other.labels)
        parent, _ = _merge_classes(a, b, classes)
        # Parents precede their children, so in ascending order each
        # parent already points at its root.
        for c in sorted(classes):
            parent[c] = parent[parent[c]]
        return Partition._mk(tuple(map(parent.__getitem__, a)))

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """All classes, each sorted ascending, ordered by their labels."""
        groups: dict[int, list[int]] = {}
        for x, lab in enumerate(self.labels):
            groups.setdefault(lab, []).append(x)
        return tuple(tuple(g) for g in groups.values())

    @property
    def class_count(self) -> int:
        return len(self.classes())

    def is_singular(self) -> bool:
        """True iff exactly one class has two or more elements."""
        return sum(1 for c in self.classes() if len(c) >= 2) == 1

    def non_singleton_class(self) -> tuple[int, ...]:
        big = [c for c in self.classes() if len(c) >= 2]
        if len(big) != 1:
            raise NotSingular(f"{len(big)} non-singleton classes, expected exactly 1")
        return big[0]

    def is_complement(self, other: "Partition") -> bool:
        """True iff the meet is bottom and the join is top.

        Builds neither: the meet is bottom iff no two elements share both
        labels, and the join is top iff merging ends with one class.
        """
        self._require_same_universe(other)
        n = len(self.labels)
        if len(set(_pair_keys(self.labels, other.labels))) != n:
            return False
        a, b, classes = _coarser_first(self.labels, other.labels)
        _, merges = _merge_classes(a, b, classes)
        return merges == len(classes) - 1

    def least_element_complement(self) -> "Partition":
        """The singular relation grouping the least element of every class.

        This is always a complement of ``self``.  Degenerate inputs stay
        consistent: bottom maps to top (every element is least in its own
        class) and top maps to bottom (the group is just {0}).
        """
        label_set = set(self.labels)
        return Partition._mk(
            tuple(0 if x in label_set else x for x in range(len(self.labels)))
        )

    def atoms(self) -> list["Atom"]:
        """Decompose into atoms: (least, other) pairs inside each class.

        The join of the returned atoms as partitions reproduces ``self``;
        bottom decomposes into the empty list.
        """
        labels = self.labels
        n = len(labels)
        # Every element that is not its class minimum, by class, then ascending.
        members = list(compress(range(n), map(ne, labels, range(n))))
        members.sort(key=labels.__getitem__)
        # Trusted construction, as in Partition._mk: the range check of
        # Atom.__post_init__ holds by construction, so the slots are filled
        # directly, field by field (a deque of length 0 runs the map and
        # keeps nothing).
        out = list(map(object.__new__, repeat(Atom, len(members))))
        for field, values in (
            (Atom.a, map(labels.__getitem__, members)),
            (Atom.b, members),
            (Atom.universe_size, repeat(n)),
        ):
            deque(map(field.__set__, out, values), maxlen=0)
        return out

    def to_text(self) -> str:
        """One line per class: ``class: 0 1``."""
        return "".join(
            "class: " + " ".join(str(x) for x in block) + "\n"
            for block in self.classes()
        )

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        blocks = []
        for lineno, _, kind, rest in field_lines(text):
            if kind != "class":
                raise ValueError(f"line {lineno}: expected 'class: <elements>'")
            # A negative numeral passes here and is refused by element.
            try:
                block = list(map(numeral, rest.split()))
            except ValueError:
                raise ValueError(f"line {lineno}: elements must be decimal naturals") from None
            if not block:
                raise ValueError(f"line {lineno}: empty class")
            blocks.append(block)
        if not blocks:
            raise ValueError("no class lines found")
        return cls.from_classes(blocks)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        body = " | ".join(" ".join(str(x) for x in c) for c in self.classes())
        return f"Partition[{body}]"


@dataclass(frozen=True)
class Atom:
    """The equivalence whose only non-singleton class is {a, b}."""

    # Slots let ``Partition.atoms`` fill fields through their descriptors.
    # They are declared by hand: ``slots=True`` rebuilds the class, and its
    # frozen __setattr__ then raises TypeError instead of FrozenInstanceError
    # for names that are not fields (Python 3.10 and 3.11).  Copies and
    # pickles of a frozen class with slots need the state methods below.
    __slots__ = ("a", "b", "universe_size")
    a: int
    b: int
    universe_size: int

    def __post_init__(self):
        if not 0 <= self.a < self.b < self.universe_size:
            raise InvalidPartition(
                f"atom ({self.a}, {self.b}) out of range for universe {self.universe_size}"
            )

    def __getstate__(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.universe_size)

    def __setstate__(self, state: tuple[int, int, int]) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def as_partition(self) -> Partition:
        labels = list(range(self.universe_size))
        labels[self.b] = self.a
        return Partition._mk(tuple(labels))


def _pair_keys(a: Sequence[int], b: Sequence[int]) -> Iterator[int]:
    """One int per element, ``a[x]·n + b[x]``: equal iff both labels are."""
    return map(add, map(mul, a, repeat(len(a))), b)


def _coarser_first(
    e: tuple[int, ...], f: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], set[int]]:
    """The labeling with fewer classes first, the other second, then the
    first one's class labels."""
    ce, cf = set(e), set(f)
    return (e, f, ce) if len(ce) <= len(cf) else (f, e, cf)


def _merge_classes(
    a: tuple[int, ...], b: tuple[int, ...], classes: set[int]
) -> tuple[dict[int, int], int]:
    """Union-find over the classes of ``a``: the class of x is merged with the
    class of ``b[x]`` for every x, which joins ``a`` with ``b``.

    Returns the forest, as each class label's parent, and the number of
    merges made; merging stops once one class is left.  The larger root is
    always linked under the smaller, so every parent is less than its child
    and every root is the least label, and so the least element, of its
    component.
    """
    parent = dict(zip(classes, classes))
    merges = 0
    last = len(classes) - 1
    ab = list(map(a.__getitem__, b))
    for u, v in set(compress(zip(a, ab), map(ne, a, ab))):
        # Find both roots, halving the paths on the way; inline, because
        # this loop is the whole cost of joining two fine partitions.
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            if u < v:
                parent[v] = u
            else:
                parent[u] = v
            merges += 1
            if merges == last:
                break
    return parent, merges


def singular_complement_valid(e: Partition, f: Partition) -> bool:
    """Check the counting characterization of complements of a singular relation:

    every class of ``f`` must contain exactly one element of the non-singleton
    class of ``e``.
    """
    e._require_same_universe(f)
    big = set(e.non_singleton_class())
    return all(sum(1 for x in block if x in big) == 1 for block in f.classes())


def all_partitions(n: int) -> Iterator[Partition]:
    """Enumerate every partition of {0..n-1} (Bell(n) of them), canonically."""
    if n < 1:
        raise InvalidUniverse(f"invalid universe size {n}")
    labels = [0] * n

    def extend(x: int, used: list[int]) -> Iterator[Partition]:
        if x == n:
            yield Partition._mk(tuple(labels))
            return
        for lab in used:
            labels[x] = lab
            yield from extend(x + 1, used)
        labels[x] = x
        used.append(x)
        yield from extend(x + 1, used)
        used.pop()

    labels[0] = 0
    yield from extend(1, [0])


def random_partition(n: int, rng: random.Random) -> Partition:
    """A random partition drawn by uniform class choice per element."""
    labels = [0] * n
    used = [0]
    for x in range(1, n):
        pick = rng.randrange(len(used) + 1)
        if pick == len(used):
            labels[x] = x
            used.append(x)
        else:
            labels[x] = used[pick]
    return Partition._mk(tuple(labels))


class SmallEq:
    """An equivalence on all naturals with finitely many classes.

    Elements below ``threshold`` are partitioned explicitly; every element at
    or above the threshold belongs to the class labeled ``tail_label``.
    Canonical form uses least-member labels and the least threshold, so
    structural equality is semantic equality.
    """

    __slots__ = ("threshold", "labels", "tail_label")

    def __init__(self, threshold: int, labels: Sequence[int], tail_label: int):
        keys = [*labels, tail_label]
        if threshold < 0 or len(keys) != threshold + 1:
            raise InvalidPartition("labels must cover exactly {0..threshold-1}")
        self._canonical(Partition.from_key(threshold + 1, keys.__getitem__))

    def _canonical(self, p: Partition) -> "SmallEq":
        """Fill in from ``p`` on {0..t}, t standing for every number >= t,
        less the redundant trailing members of the tail class (its largest
        ones, so least-member labels stay least)."""
        labels = p.labels
        threshold = len(labels) - 1
        while threshold > 0 and labels[threshold - 1] == labels[-1]:
            threshold -= 1
        self.threshold, self.labels, self.tail_label = threshold, labels[:threshold], labels[-1]
        return self

    def _padded(self, threshold: int) -> Partition:
        """This relation on {0..threshold}, for a threshold at least its own."""
        return Partition._mk(self.labels + (self.tail_label,) * (threshold + 1 - self.threshold))

    @classmethod
    def top(cls) -> "SmallEq":
        return cls(0, (), 0)

    @classmethod
    def singular(cls, members_below: Iterable[int], threshold: int) -> "SmallEq":
        """The singular relation whose big class is members_below plus the
        upper set at ``threshold``; everything else is a singleton."""
        members = set(members_below)
        if any(x < 0 or x >= threshold for x in members):
            raise InvalidPartition("members must lie below the threshold")
        # `threshold` itself is a safe temporary id for the tail class.
        labels = [threshold if x in members else x for x in range(threshold)]
        return cls(threshold, labels, threshold)

    def key(self, x: int) -> int:
        """The least member of x's class: the relation is this key's kernel."""
        if x < 0:
            raise ValueError("naturals only")
        return self.labels[x] if x < self.threshold else self.tail_label

    def related(self, x: int, y: int) -> bool:
        return self.key(x) == self.key(y)

    @property
    def class_count(self) -> int:
        return len(set(self.labels) | {self.tail_label})

    def is_singular(self) -> bool:
        """True iff every class other than the (infinite) tail is a singleton."""
        others = [lab for lab in self.labels if lab != self.tail_label]
        return len(others) == len(set(others))

    def meet(self, other: "SmallEq") -> "SmallEq":
        """Exact meet; the tails intersect, so the result is again a SmallEq."""
        threshold = max(self.threshold, other.threshold)
        meet = self._padded(threshold).meet(other._padded(threshold))
        return object.__new__(SmallEq)._canonical(meet)

    def restrict(self, n: int) -> Partition:
        """Materialize the relation on {0..n-1} as an explicit Partition."""
        return Partition.from_key(n, self.key)

    def to_text(self) -> str:
        head = f"threshold: {self.threshold}\ntail: {self.tail_label}\n"
        return head + (Partition._mk(self.labels).to_text() if self.threshold else "")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SmallEq)
            and self.threshold == other.threshold
            and self.labels == other.labels
            and self.tail_label == other.tail_label
        )

    def __hash__(self) -> int:
        return hash((self.threshold, self.labels, self.tail_label))

    def __repr__(self) -> str:
        return (
            f"SmallEq(threshold={self.threshold}, labels={self.labels}, "
            f"tail={self.tail_label})"
        )


def numeral(text: str) -> int:
    """int(text) for an ASCII decimal numeral, a leading minus allowed; int()
    alone also reads "+1", "1_0" and non-ASCII digits."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not a decimal numeral: {text!r}")
    return int(text)


def field_lines(text: str) -> Iterator[tuple[int, str, str | None, str]]:
    """The line syntax of every text format: each non-blank line, stripped,
    as (line number from 1, line, field before the first colon or None if
    the line has no colon, the rest after that colon)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            field, colon, rest = line.partition(":")
            yield lineno, line, field if colon else None, rest
