"""Language oracles for the DFA tests: reachability by a plain breadth-first
search, emptiness, and equality as emptiness of the symmetric difference."""
from equlat.dfa import Dfa, product


def reachable_states(d: Dfa) -> list[int]:
    """States reachable from the start, in BFS discovery order."""
    order, seen = [d.start], {d.start}
    for s in order:
        for t in d.delta[s]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order


def is_empty(d: Dfa) -> bool:
    return not any(s in d.accepting for s in reachable_states(d))


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality via emptiness of the symmetric difference."""
    return is_empty(product(a, b, lambda x, y: x != y))
