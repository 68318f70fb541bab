"""Independent verdict oracles for the benchmark.

Each oracle re-derives an answer without calling the operation it checks:
label-pair counting for meets, a breadth-first search over the bipartite
label graph for joins, closed-form class keys for the automatic relations,
brute-force decision matrices for black-box deciders, and direct simulation
for halting.  They run outside the timed region.
"""
from __future__ import annotations

import re
from collections import deque
from typing import Callable, Hashable, Sequence

WELL_FORMED_PAIR = re.compile(r"(0|1[01]*)B(0|1[01]*)")


def canonical(keys: Sequence[Hashable]) -> tuple[int, ...]:
    """Least-member labeling of the classes "same key"."""
    first: dict[Hashable, int] = {}
    return tuple(first.setdefault(k, x) for x, k in enumerate(keys))


def meet_labels_ok(e: Sequence[int], f: Sequence[int], out: Sequence[int]) -> bool:
    """``out`` is the meet of ``e`` and ``f``: it is canonical, refines both,
    and has exactly as many classes as there are distinct label pairs."""
    if len(out) != len(e):
        return False
    for x, lab in enumerate(out):
        if not (0 <= lab <= x and out[lab] == lab and e[lab] == e[x] and f[lab] == f[x]):
            return False
    return len(set(out)) == len(set(zip(e, f)))


def join_labels(e: Sequence[int], f: Sequence[int]) -> tuple[int, ...]:
    """Join by connected components of the bipartite graph whose nodes are the
    classes of ``e`` and of ``f`` and whose edges are the elements."""
    n = len(e)
    adj: dict[int, list[int]] = {}
    for a, b in set(zip(e, f)):
        adj.setdefault(a, []).append(n + b)
        adj.setdefault(n + b, []).append(a)
    comp: dict[int, int] = {}
    for root in adj:
        if root in comp:
            continue
        comp[root] = root
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for nxt in adj[node]:
                if nxt not in comp:
                    comp[nxt] = root
                    queue.append(nxt)
    return canonical([comp[a] for a in e])


def leq_labels(a: Sequence[int], b: Sequence[int]) -> bool:
    """Every class of ``a`` lies inside one class of ``b``."""
    image: dict[int, int] = {}
    return all(image.setdefault(la, lb) == lb for la, lb in zip(a, b))


def class_minima(labels: Sequence[int]) -> dict[int, int]:
    """Least element of every class, keyed by label."""
    least: dict[int, int] = {}
    for x, lab in enumerate(labels):
        least.setdefault(lab, x)
    return least


def least_element_complement_labels(labels: Sequence[int]) -> tuple[int, ...]:
    minima = set(class_minima(labels).values())
    return tuple(0 if x in minima else x for x in range(len(labels)))


def is_complement_labels(e: Sequence[int], f: Sequence[int]) -> bool:
    """Meet is bottom (all label pairs distinct) and join is top."""
    n = len(e)
    return len(set(zip(e, f))) == n and set(join_labels(e, f)) == {0}


def atoms_ok(labels: Sequence[int], atoms) -> bool:
    """Atoms pair each non-least element with its class minimum, once each."""
    n = len(labels)
    least = class_minima(labels)
    if len(atoms) != n - len(least):
        return False
    seen = set()
    for atom in atoms:
        if atom.universe_size != n or atom.b in seen:
            return False
        seen.add(atom.b)
        if atom.a == atom.b or least[labels[atom.b]] != atom.a:
            return False
    return True


def labels_from_decide(decide: Callable[[int, int], bool], n: int) -> tuple[int, ...]:
    """Restriction to {0..n-1} from the full upper triangle of a decision
    procedure; refuses anything that is not an equivalence there."""
    rel = [[decide(x, y) for y in range(n)] for x in range(n)]
    labels = []
    for x in range(n):
        lab = next(y for y in range(x + 1) if rel[y][x])
        labels.append(lab)
    for x in range(n):
        for y in range(n):
            if rel[x][y] != (labels[x] == labels[y]):
                raise ValueError(f"not an equivalence on {{0..{n - 1}}} at ({x}, {y})")
    return tuple(labels)


def chain_distance(
    d1: Callable[[int, int], bool],
    d2: Callable[[int, int], bool],
    m: int,
    n: int,
    universe: int,
) -> int | None:
    """Fewest links from m to n through either relation inside the universe,
    by breadth-first search over the brute-force union matrix."""
    adj = [
        [y for y in range(universe) if y != x and (d1(x, y) or d2(x, y))]
        for x in range(universe)
    ]
    dist = {m: 0}
    queue = deque([m])
    while queue:
        x = queue.popleft()
        if x == n:
            return dist[x]
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return None


def malformed(word: str) -> bool:
    return WELL_FORMED_PAIR.fullmatch(word) is None

