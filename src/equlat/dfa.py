"""Finite automata over the pair alphabet {0, 1, B}.

Words are plain strings; "B" is the separator between the two binary numbers
of a pair word, so the pair (m, n) is spelled ``binary(m) + "B" + binary(n)``.
Binary representations are canonical: no leading zeros, and 0 is "0".

Dfa values are total by construction (one transition per state and symbol)
and immutable; every function here returns fresh values.
"""
from __future__ import annotations

from itertools import chain, compress
from typing import Callable, Hashable, Iterable, Sequence

from .partition import field_lines, numeral

ALPHABET = ("0", "1", "B")
_IDX = {"0": 0, "1": 1, "B": 2}


def binary(n: int) -> str:
    """Canonical binary representation; binary(0) == "0"."""
    if n < 0:
        raise ValueError("naturals only")
    return format(n, "b")


def pair_word(m: int, n: int) -> str:
    return binary(m) + "B" + binary(n)


def _states_below(n: int, states: Iterable) -> bool:
    """True iff every one of ``states`` is an int in range(n), for n >= 1."""
    states = list(states)
    return {int}.issuperset(map(type, states)) and (
        0 <= min(states, default=0) and max(states, default=0) < n
    )


class Dfa:
    """Deterministic automaton; ``delta[state][symbol_index]`` is the target."""

    __slots__ = ("delta", "start", "accepting")

    def __init__(self, delta, start: int, accepting: Iterable[int]):
        delta = tuple(tuple(row) for row in delta)
        n = len(delta)
        if n == 0:
            raise ValueError("need at least one state")
        if set(map(len, delta)) != {3} or not _states_below(n, chain.from_iterable(delta)):
            s = next(s for s, row in enumerate(delta) if len(row) != 3 or not _states_below(n, row))
            raise ValueError(f"bad transition row for state {s}")
        if not _states_below(n, (start,)):
            raise ValueError("start state out of range")
        accepting = frozenset(accepting)
        if not _states_below(n, accepting):
            raise ValueError("accepting state out of range")
        self.delta = delta
        self.start = start
        self.accepting = accepting

    @classmethod
    def _mk(cls, delta: tuple[tuple[int, ...], ...], start: int, accepting: frozenset) -> "Dfa":
        # Fast path for internal construction of tables built total and in range.
        d = object.__new__(cls)
        d.delta, d.start, d.accepting = delta, start, accepting
        return d

    @property
    def state_count(self) -> int:
        return len(self.delta)

    def run(self, word: str) -> int:
        state = self.start
        for ch in word:
            state = self.delta[state][_IDX[ch]]
        return state

    def accepts(self, word: str) -> bool:
        return self.run(word) in self.accepting

    def __repr__(self) -> str:
        return f"Dfa(states={self.state_count}, start={self.start}, accepting={sorted(self.accepting)})"


class _Index(dict):
    """Numbers each key on its first lookup; ``order`` lists the keys so
    numbered, which a BFS walks while it grows."""

    __slots__ = ("order",)

    def __init__(self, first):
        super().__init__({first: 0})
        self.order = [first]

    def __missing__(self, key) -> int:
        self.order.append(key)
        number = self[key] = len(self)
        return number


def _reach(delta, start: int) -> _Index:
    index = _Index(start)
    for s in index.order:
        for t in delta[s]:
            index[t]  # numbers t on first sight
    return index


def product_table(
    a: tuple[Sequence[Sequence[int]], int], b: tuple[Sequence[Sequence[int]], int]
) -> tuple[tuple[tuple[int, ...], ...], list[tuple[int, int]]]:
    """Transition table of the reachable pairs of states of two ``(delta,
    start)`` automata of one row width, numbered in BFS order from the pair
    of starts, and the list of those pairs."""
    (da, sa), (db, sb) = a, b
    index = _Index((sa, sb))
    lookup = index.__getitem__
    delta = tuple(tuple(map(lookup, zip(da[p], db[q]))) for p, q in index.order)
    return delta, index.order


def product(a: Dfa, b: Dfa, op: Callable[[bool, bool], bool]) -> Dfa:
    """Product automaton accepting op(a-accepts, b-accepts), reachable part only."""
    delta, pairs = product_table((a.delta, a.start), (b.delta, b.start))
    fa, fb = a.accepting, b.accepting
    accepting = frozenset(i for i, (sa, sb) in enumerate(pairs) if op(sa in fa, sb in fb))
    return Dfa._mk(delta, 0, accepting)


def refine(delta, start: int, label: Callable[[int], Hashable]) -> tuple[tuple, list]:
    """Moore refinement of the states reachable from ``start``, rows of any
    width: renumbered in BFS order for ``moore``, which numbers the blocks by
    first state.  Returns (rows, labels)."""
    index = _reach(delta, start)
    rows = map(delta.__getitem__, index.order)
    return moore([list(map(index.__getitem__, c)) for c in zip(*rows)], list(map(label, index.order)))


def moore(columns: Sequence[Sequence[int]], labels: Sequence[Hashable]) -> tuple[tuple, list]:
    """Moore refinement of a table's columns, its states all reachable and
    numbered in BFS order from 0: blocks start as labels and split on
    successors' blocks, each round labelling a block by its first state (one
    hash per state), until a round splits none.  Returns (rows, labels)."""
    states, first, count = range(len(labels)), {}, 0
    block = list(map(first.setdefault, labels, states))
    while len(first) != count:  # a signature holds its own block: rounds only split
        count, first = len(first), {}
        signatures = zip(block, *(map(block.__getitem__, col) for col in columns))
        block = list(map(first.setdefault, signatures, states))
    # Stable: a signature is (own block, successors' blocks), each by first state.
    number = dict(zip(first.values(), states))
    _, *successors = zip(*first)
    rows = tuple(zip(*(map(number.__getitem__, col) for col in successors)))
    return rows, list(map(labels.__getitem__, first.values()))


def minimize(d: Dfa) -> Dfa:
    """Minimal DFA for the same language (Moore partition refinement); each
    block is numbered by its first reachable state in BFS order."""
    delta, final = refine(d.delta, d.start, d.accepting.__contains__)
    return Dfa._mk(delta, 0, frozenset(compress(range(len(final)), final)))


class Nfa:
    """Nondeterministic automaton over the same alphabet; states are any
    hashable values.  Symbol None denotes an epsilon transition."""

    def __init__(self):
        self.transitions: dict[tuple[object, str | None], set] = {}
        self.starts: set = set()
        self.accepting: set = set()

    def add(self, src, symbol: str | None, dst) -> None:
        self.transitions.setdefault((src, symbol), set()).add(dst)

    def _closure(self, states: Iterable) -> frozenset:
        out = set(states)
        stack = list(out)
        while stack:
            s = stack.pop()
            for t in self.transitions.get((s, None), ()):
                if t not in out:
                    out.add(t)
                    stack.append(t)
        return frozenset(out)

    def determinize(self) -> Dfa:
        """The subset construction over the reachable subsets, numbered in
        BFS order from the closure of the starts."""
        get = self.transitions.get
        index = _Index(self._closure(self.starts))
        delta = [
            [index[self._closure(chain.from_iterable(get((s, ch), ()) for s in cur))]
             for ch in ALPHABET]
            for cur in index.order  # BFS: the list grows as it is read
        ]
        return Dfa(delta, 0, [i for i, cur in enumerate(index.order) if cur & self.accepting])


def pair_format_dfa() -> Dfa:
    """Accepts exactly words ``u B v`` with u, v canonical binary numerals."""
    # states: 0 empty, 1 first="0", 2 first="1...", 3 after B,
    #         4 second="0", 5 second="1...", 6 dead
    return Dfa(
        [
            (1, 2, 6),
            (6, 6, 3),
            (2, 2, 3),
            (4, 5, 6),
            (6, 6, 6),
            (5, 5, 6),
            (6, 6, 6),
        ],
        0,
        {4, 5},
    )


def dfa_to_text(d: Dfa) -> str:
    lines = [
        f"states: {d.state_count}",
        f"start: {d.start}",
        "accept: " + " ".join(str(s) for s in sorted(d.accepting)),
    ]
    for s in range(d.state_count):
        for i, ch in enumerate(ALPHABET):
            lines.append(f"trans: {s} {ch} {d.delta[s][i]}")
    return "\n".join(lines) + "\n"


def dfa_from_text(text: str) -> Dfa:
    """Parse the DFA text format, verifying the transition table is total."""
    return _read_written(text) or _read_lines(text)


def _read_written(text: str) -> Dfa | None:
    """The automaton of a text laid out exactly as dfa_to_text writes it, read
    in whole-text passes; None for any other text, which _read_lines reads."""
    try:
        states, start, accept, body = text.split("\n", 3)
    except ValueError:  # fewer than four lines
        return None
    # The state count must match the transition lines before anything of
    # that size is built, and each of those lines starts with "trans: ".
    n, extra = divmod(body.count("\n"), 3)
    if (
        extra
        or not body.endswith("\n")
        or states != f"states: {n}"
        or text.count("\ntrans: ") != 3 * n
        or not start.startswith("start: ")
        or not accept.startswith("accept: ")
    ):
        return None
    # A number is read by looking up its canonical numeral, so "007", "-0",
    # "+1" and any state out of range are not found.
    names = list(map(str, range(n)))
    number = dict(zip(names, range(n)))
    start = number.get(start[7:])
    accepting = list(map(number.get, accept[8:].split(" "))) if accept != "accept: " else []
    if start is None or None in accepting or accepting != sorted(set(accepting)):
        return None
    # Every line break in the body is followed by "trans: " (counted above),
    # and no other field may read "trans:", so with the breaks read as spaces
    # line 3s + i is still four fields: "trans:", s, the i-th symbol, target.
    body = body.replace("\n", " ")
    fields = body.split(" ")
    del body
    if (
        len(fields) != 12 * n + 1
        or fields[1::4] != list(chain.from_iterable(zip(names, names, names)))
        or fields[2::4] != list(ALPHABET) * n
    ):
        return None
    targets = list(map(number.get, fields[3::4]))
    del fields
    if None in targets:
        return None
    return Dfa._mk(tuple(zip(*[iter(targets)] * 3)), start, frozenset(accepting))


def _read_lines(text: str) -> Dfa:
    """Any layout, line by line; the source of every parse error."""
    states = start = None
    accepting: list[int] = []
    rules: dict[int, int] = {}  # 3 * state + symbol index -> target
    for lineno, line, kind, rest in field_lines(text):
        try:
            if kind == "trans":
                src, sym, dst = rest.split()
                if sym not in _IDX:
                    raise ValueError
                key = 3 * numeral(src) + _IDX[sym]
                if key in rules:
                    raise ValueError(f"line {lineno}: duplicate transition {(numeral(src), sym)}")
                rules[key] = numeral(dst)
            elif kind == "states":
                states = numeral(rest.strip())
            elif kind == "start":
                start = numeral(rest.strip())
            elif kind == "accept":
                accepting = [numeral(tok) for tok in rest.split()]
            else:
                raise ValueError
        except ValueError as exc:
            if exc.args and str(exc).startswith("line"):
                raise
            raise ValueError(f"line {lineno}: cannot parse {line!r}") from None
    if states is None or start is None:
        raise ValueError("missing 'states:' or 'start:' header")
    # Keys ascend as (state, symbol) pairs do, and the first state missing a
    # transition is at most len(rules) // 3.
    targets = list(map(rules.get, range(3 * min(states, len(rules) // 3 + 1))))
    if None in targets:
        s, i = divmod(targets.index(None), 3)
        raise ValueError(f"transition table not total: missing ({s}, {ALPHABET[i]})")
    if len(rules) != states * 3:
        extra = [(k // 3, ALPHABET[k % 3]) for k in sorted(rules) if k >= 3 * states]
        raise ValueError(f"transitions reference unknown states: {extra}")
    return Dfa(zip(*[iter(targets)] * 3), start, accepting)  # rows of three targets
