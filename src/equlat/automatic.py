"""Automatic equivalence relations: DFAs deciding the pair language of a
relation on the naturals.

A relation is *automatic* when some DFA over {0,1,B} accepts exactly the
words ``binary(m) B binary(n)`` with m related to n.  Such a relation always
has finitely many classes: reading a canonical numeral and the separator
lands the automaton in a state that fully determines the class, so there are
at most as many classes as states.

``AutomaticEq.from_dfa`` admits a DFA only after certifying, exactly, that
its language is well-formatted and that the decided relation is reflexive,
symmetric and transitive.  All three axioms are read from one class table
built on the automaton itself (no sampling): the relation is the union of
K_r x L_r over the classes r.  One numeral BFS through the start and every
class entry at once records which classes' members each class accepts; it
finds no more state tuples than there are numeral states unless the DFA is
no equivalence's, and then one breadth-first pass over state pairs records
the same.  One more BFS per overlapping pair of classes checks that their
languages nest.  The work is polynomial in the state count, and validation
is a proof for the whole infinite relation.

An ``AutomaticEq`` is worked on as its *classifier* ``(delta, start,
labels)``, a Moore machine over the digits: the state after a canonical
numeral is labelled with its class, numbered by least member.  ``meet`` is
a product of classifiers, ``join`` and ``coarsen`` relabel and refine one,
and the pair DFA is built from the classifier only when asked for.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, compress
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .dfa import (
    Dfa,
    _Index,
    binary,
    minimize,
    moore,
    pair_format_dfa,
    product,
    product_table,
    refine,
)
from .partition import Partition


class ValidationError(ValueError):
    """A DFA failed one of the admission checks for an equivalence."""

    def __init__(self, axiom: str, message: str):
        super().__init__(f"{axiom}: {message}")
        self.axiom = axiom


_FORMAT = pair_format_dfa()


def _format_product(d: Dfa) -> tuple[bool, Dfa]:
    """One product of d with the format automaton gives both the format
    verdict (no reachable pair accepts in d and rejects in the format
    automaton) and, unminimized, the clean automaton: the same pairs, in BFS
    order from 0, with "and" acceptance, which decides the same relation as d."""
    delta, pairs = product_table((d.delta, d.start), (_FORMAT.delta, _FORMAT.start))
    ours, theirs = [list(map(f.accepting.__contains__, s)) for f, s in zip((d, _FORMAT), zip(*pairs))]
    clean = frozenset(compress(range(len(pairs)), map(operator.and_, ours, theirs)))
    return not any(map(operator.gt, ours, theirs)), Dfa._mk(delta, 0, clean)


def _numerals(
    *automata: tuple[Sequence[Sequence[int]], int], limit: float = math.inf
) -> dict[tuple[int, ...], int] | None:
    """Read one canonical numeral through every ``(delta, start)`` automaton
    (over the digits, or the pair alphabet) at once and map each tuple of
    states so reached to the least value reaching it; None once more than
    ``limit`` tuples are found, so a caller that knows how many there should
    be stops a search that could grow as the product of the automata.

    A shortlex BFS: "0" cannot be extended, "1" can by any digits, and values
    are found in increasing order, so the first one kept is the least and
    the keys come out in increasing order of their values.
    """
    deltas = [delta for delta, _ in automata]
    zero, one, *_ = zip(*[delta[start] for delta, start in automata])
    found = {one: 1}
    order = [one]
    for t in order:
        if len(order) > limit:
            return None
        v = 2 * found[t]
        # A list, not the bare map: unpacking an iterator of unknown length
        # builds the argument tuple by resizing, and CPython's free list for
        # each final width (c + 1 here) then keeps up to 2,000 of them.
        t0, t1, *_ = zip(*list(map(operator.getitem, deltas, t)))
        if t0 not in found:
            found[t0] = v
            order.append(t0)
        if t1 not in found:
            found[t1] = v + 1
            order.append(t1)
    found.pop(zero, None)
    least = {zero: 0}
    least.update(found)
    return least if len(least) <= limit else None


class _ClassTable:
    """The classes of a minimized, format-clean DFA and which relate to which.

    A numeral u reaching state s has class r = delta(s, B): minimized, the
    DFA has one state per class language.  ``state_class`` numbers the class
    of each numeral-reachable state by least member, and ``entries`` lists
    the classes' states r.  Let K_r be the numerals of class r and L_r the
    numerals accepted from r; the relation is exactly the union of K_r x L_r.
    The axioms read ``answers[i][j]``, built on first use: bit 1 is set when
    some v in K_i lies outside L_j, bit 2 when some v in K_i lies in L_j.

    One numeral BFS through the start and every class entry at once fills
    the table.  For an equivalence the state a numeral v reaches from the
    start fixes the state it reaches from every entry: both languages are
    set by which extensions vx are canonical and which classes they lie
    in, and a minimal DFA has one state per language.  So that BFS finds
    no more tuples than there are numeral states.  Finding more proves the
    DFA is no equivalence's; the joint search could then grow as the
    product of c + 1 copies, so one breadth-first pass over pairs of
    states fills the table instead (``_pair_answers``).
    """

    def __init__(self, d: Dfa):
        self.dfa = d
        entered: dict[int, int] = {}  # class entry state -> class number
        state_class = self.state_class = {}
        for (s,) in _numerals((d.delta, d.start)):
            state_class[s] = entered.setdefault(d.delta[s][2], len(entered))
        self.entries = list(entered)

    @cached_property
    def answers(self) -> list[list[int]]:
        d, state_class = self.dfa, self.state_class
        joint = _numerals(*[(d.delta, s) for s in (d.start, *self.entries)], limit=len(state_class))
        if joint is None:
            return self._pair_answers()
        answer = [2 if s in d.accepting else 1 for s in range(d.state_count)]
        answers = [[0] * len(self.entries) for _ in self.entries]
        for p, *qs in joint:
            row = answers[state_class[p]]
            row[:] = map(operator.or_, row, map(answer.__getitem__, qs))
        return answers

    def _pair_answers(self) -> list[list[int]]:
        """The same table from one FIFO pass over pairs (p, q), the states a
        numeral reaches from the start and from a class entry, each with a
        bitset of the entries reaching it.  A queued pair carries only the
        bits new to it, so each (pair, entry) is expanded once.  The numeral
        "0" is not extended: its pairs are only read, as ``ends``."""
        d, entries = self.dfa, self.entries
        delta, n = d.delta, d.state_count
        zero, one = delta[d.start][:2]
        waiting: dict[int, int] = {}  # queued p * n + q -> its bits not yet expanded
        for j, e in enumerate(entries):
            waiting[one * n + delta[e][1]] = waiting.get(one * n + delta[e][1], 0) | 1 << j
        reached, queue = dict(waiting), list(waiting)  # the queue grows as it is read
        for key in queue:
            bits, (p, q) = waiting.pop(key), divmod(key, n)
            for to in (delta[p][0] * n + delta[q][0], delta[p][1] * n + delta[q][1]):
                old = reached.get(to, 0)
                if bits & ~old:
                    reached[to] = old | bits
                    if to not in waiting:
                        queue.append(to)
                    waiting[to] = waiting.get(to, 0) | bits & ~old
        seen = [[0, 0] for _ in entries]  # class -> entries rejecting, accepting a member
        ends = [(zero * n + delta[e][0], 1 << j) for j, e in enumerate(entries)]
        for key, bits in chain(reached.items(), ends):
            seen[self.state_class[key // n]][key % n in d.accepting] |= bits
        return [[rej >> j & 1 | (acc >> j & 1) << 1 for j in range(len(seen))] for rej, acc in seen]

    def reflexive(self) -> bool:
        """Every u in K_r lies in L_r."""
        return all(row[i] == 2 for i, row in enumerate(self.answers))

    def symmetric(self) -> bool:
        """For u in K_i and v in K_j, "v in L_i" (u ~ v) must equal "u in
        L_j" (v ~ u): both answers are one value, the same value."""
        answers = self.answers
        return all(3 not in row for row in answers) and answers == list(map(list, zip(*answers)))

    def transitive(self) -> bool:
        """If u ~ v for some u in K_j and v in K_i, every w with v ~ w
        must satisfy u ~ w: L_i is contained in L_j.  An equivalence has
        no such pair with i != j.  Both languages hold canonical numerals
        only, so one numeral BFS from their entries decides the containment."""
        delta, accepting, entries = self.dfa.delta, self.dfa.accepting, self.entries
        return all(
            all(q in accepting for p, q in _numerals((delta, entries[i]), (delta, entries[j]))
                if p in accepting)
            for i, row in enumerate(self.answers)
            for j, cell in enumerate(row)
            if i != j and cell & 2
        )


def _admission(d: Dfa) -> Iterator[tuple[str, bool, str, _ClassTable | None]]:
    """Every admission row ``(axiom, holds, message, table)`` in ``from_dfa``'s
    order, each computed when asked for; ``table`` is the clean automaton's
    class table, None on the format row.  The axioms are read even when the
    format check fails."""
    well_formed, clean = _format_product(d)
    yield "format", well_formed, "accepts words outside 'numeral B numeral'", None
    accepted = list(map(clean.accepting.__contains__, range(clean.state_count)))
    delta, final = moore(list(zip(*clean.delta)), accepted)
    table = _ClassTable(Dfa._mk(delta, 0, frozenset(compress(range(len(final)), final))))
    yield "reflexivity", table.reflexive(), "some w B w is rejected", table
    yield "symmetry", table.symmetric(), "language differs from its swap", table
    yield "transitivity", table.transitive(), "class languages are not nested", table


def _row(d: Dfa, axiom: str) -> bool:
    return next(holds for name, holds, _, _ in _admission(d) if name == axiom)


def check_format(d: Dfa) -> bool:
    """True iff every accepted word has the shape ``numeral B numeral``."""
    return _row(d, "format")


def check_reflexive(d: Dfa) -> bool:
    """True iff the automaton accepts ``w B w`` for every canonical numeral w.

    Exact: read from the class table, where it says every class relates to
    all of its own members.
    """
    return _row(d, "reflexivity")


def check_symmetric(d: Dfa) -> bool:
    """True iff the decided relation is symmetric.

    Exact: read from the class table, where every pair of classes must give
    one answer each way, the same both ways.
    """
    return _row(d, "symmetry")


def check_transitive(d: Dfa) -> bool:
    """True iff the decided relation is transitive.

    Exact: read from the class table; a class r2 with a member accepted
    from class r must accept no more than r does (one numeral BFS per such
    pair).
    """
    return _row(d, "transitivity")


def admission_checks(d: Dfa) -> list[tuple[str, bool]]:
    """Every admission check by axiom name, in ``from_dfa``'s order, from one
    format product and one class table; the axioms are read on the clean
    automaton even when the format check fails."""
    return [(axiom, holds) for axiom, holds, _, _ in _admission(d)]


class AutomaticEq:
    """A certified automatic equivalence relation, worked on as its classifier."""

    __slots__ = ("_dfa", "_table", "_classifier", "_operands")

    def __init__(self, dfa: Dfa | None, _trusted: bool = False, _table=None, _classifier=None):
        if not _trusted:
            raise TypeError("use AutomaticEq.from_dfa()")
        self._dfa, self._table, self._classifier, self._operands = dfa, _table, _classifier, ()

    @classmethod
    def from_dfa(cls, d: Dfa) -> "AutomaticEq":
        """Validate and wrap a DFA; raises ValidationError naming the failed
        axiom otherwise."""
        for axiom, holds, message, table in _admission(d):
            if not holds:
                raise ValidationError(axiom, message)
        return cls(table.dfa, True, table)

    @classmethod
    def _from_classifier(cls, delta, raw: Sequence[Hashable]) -> "AutomaticEq":
        """For outputs that are equivalences by construction: a digit table in
        BFS order from 0 and its states' labels, the start's on exactly the
        states no canonical numeral reaches.  Those get -1, and the classes
        are numbered in BFS order, which meets each first at its least member."""
        number = dict(zip(dict.fromkeys(raw), range(-1, len(raw))))
        return cls(None, True, None, (delta, 0, list(map(number.__getitem__, raw))))

    @property
    def dfa(self) -> Dfa:
        """The minimized, format-clean pair DFA, built on first use if needed; a
        meet's from its operands', as its classifier's kernel can be far larger."""
        if self._operands:
            d, *rest = [rel.dfa for rel in self._operands]
            for other in rest:
                d = minimize(product(d, other, operator.and_))
            self._dfa, self._operands = d, ()
        elif self._dfa is None:
            delta, start, labels = self._classes()
            self._dfa = minimize(kernel_pair_dfa(delta, start, dict(enumerate(labels))))
        return self._dfa

    def _classes(self) -> tuple:
        """The classifier, read off the class table on first use."""
        if self._classifier is None:
            d, state_class = self._dfa, self._table.state_class
            labels = [state_class.get(s, -1) for s in range(d.state_count)]
            self._classifier = (tuple(row[:2] for row in d.delta), d.start, labels)
        return self._classifier

    def decide(self, m: int, n: int) -> bool:
        """m and n lie in one class."""
        return self.key(m) == self.key(n)

    def representatives(self) -> list[int]:
        """The least member of every class, ascending."""
        delta, start, labels = self._classes()
        least = {labels[s]: v for (s,), v in reversed(_numerals((delta, start)).items())}
        return sorted(least.values())

    @property
    def class_count(self) -> int:
        return max(self._classes()[2]) + 1

    def meet(self, other: "AutomaticEq") -> "AutomaticEq":
        """Conjunction of the two relations: the product of the classifiers,
        labelled by pairs of classes.  Minimal operands give a minimal product:
        a word telling two states of one apart tells their pairs apart."""
        (da, sa, la), (db, sb, lb) = self._classes(), other._classes()
        delta, pairs = product_table((da, sa), (db, sb))
        rel = AutomaticEq._from_classifier(delta, [(la[p], lb[q]) for p, q in pairs])
        rel._operands = (*(self._operands or (self,)), *(other._operands or (other,)))
        return rel

    def join_certificate(self, other: "AutomaticEq") -> "JoinCertificate":
        """Join, together with the finite evidence it is built from.

        Classes of the two relations are nodes of a bipartite graph with an
        edge whenever they share a value; the join's classes are the
        connected components.  One numeral BFS through both classifiers
        finds every edge with its least shared value as a witness.
        """
        (da, sa, la), (db, sb, lb) = self._classes(), other._classes()
        least: dict[tuple[int, int], int] = {}
        for (p, q), v in _numerals((da, sa), (db, sb)).items():
            least.setdefault((la[p], lb[q]), v)
        edges = sorted(least)
        # Every left class has an edge: its least value lies in a right class.
        components = Partition.from_key(len(edges), lambda e: edges[e][0]).join(
            Partition.from_key(len(edges), lambda e: edges[e][1])
        )
        # left class -> its component, in class order; its edges share one
        label = {i: c for (i, _), c in zip(edges, components.labels)}
        number: dict[int, int] = {}
        left_components = tuple(number.setdefault(c, len(number)) for c in label.values())
        # Every value lies on an edge: a class's least member is its least witness.
        reps = [{k[side]: v for k, v in reversed(least.items())} for side in (0, 1)]
        joined = [left_components[c] if c >= 0 else -1 for c in la]
        return JoinCertificate(
            result=AutomaticEq._from_classifier(*refine(da, sa, joined.__getitem__)),
            left_representatives=tuple(sorted(reps[0].values())),
            right_representatives=tuple(sorted(reps[1].values())),
            edges=tuple(edges),
            witnesses={e: least[e] for e in edges},
            left_components=left_components,
        )

    def join(self, other: "AutomaticEq") -> "AutomaticEq":
        """Smallest automatic equivalence above both relations."""
        return self.join_certificate(other).result

    def coarsen(self, blocks: Sequence[Iterable[int]]) -> "AutomaticEq":
        """Merge whole classes: ``blocks`` partitions the class indices, and
        the result relates m, n iff their classes fall in the same block."""
        delta, start, labels = self._classes()
        count = max(labels) + 1
        block_of: dict[int, int] = {}
        for b, block in enumerate(blocks):
            block = list(block)
            if not block:
                raise ValueError(f"block {b} is empty")
            for idx in block:
                if idx in block_of or not 0 <= idx < count:
                    raise ValueError(f"bad class grouping at index {idx}")
                block_of[idx] = b
        if len(block_of) != count:
            raise ValueError("grouping must cover every class exactly once")
        grouped = [block_of.get(c, -1) for c in labels]
        return AutomaticEq._from_classifier(*refine(delta, start, grouped.__getitem__))

    def key(self, x: int) -> int:
        """The class number of x: the relation is this key's kernel."""
        delta, s, labels = self._classes()
        for digit in binary(x):
            s = delta[s][digit == "1"]
        return labels[s]

    def restrict(self, n: int) -> Partition:
        """Materialize the relation on {0..n-1} for cross-checking."""
        delta, start, labels = self._classes()
        states = list(delta[start][:n])  # past 1, x's numeral is x // 2's and a digit
        for x in range(2, n):
            states.append(delta[states[x >> 1]][x & 1])
        return Partition.from_key(n, [labels[s] for s in states].__getitem__)

    def __repr__(self) -> str:
        # The classifier only: the pair DFA may be far larger, and slow to build.
        return f"AutomaticEq(classes={self.class_count}, states={len(self._classes()[0])})"


@dataclass(frozen=True)
class JoinCertificate:
    result: AutomaticEq
    left_representatives: tuple[int, ...]
    right_representatives: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    witnesses: dict[tuple[int, int], int]
    left_components: tuple[int, ...]

    def cutoff(self) -> int:
        """A bound strictly above every representative and witness; restricting
        both sides to at least this many values makes the join exact."""
        return max(chain(
            self.left_representatives, self.right_representatives, self.witnesses.values()
        )) + 1


# canonicality tracker used inside kernel_pair_dfa: 0 empty, 1 "0", 2 "1...", 3 dead
_TRK = ((1, 2), (3, 3), (2, 2), (3, 3))
_TRK_DONE = (1, 2)


def kernel_pair_dfa(
    delta01: Sequence[tuple[int, int]],
    start: int,
    key_of: Mapping[int, Hashable],
    accept: Callable[[Hashable, Hashable], bool] = operator.eq,
) -> Dfa:
    """Pair DFA for a relation defined through a classifier automaton.

    ``delta01`` is a total automaton over the digits; reading a canonical
    numeral w from ``start`` ends in some state s, and ``key_of[s]`` is the
    feature assigned to the value of w.  The returned DFA accepts
    ``u B v`` (u, v canonical) iff ``accept(key(u), key(v))``.

    States the classifier cannot reach on canonical numerals may be omitted
    from ``key_of``.
    """
    missing, left = object(), object()

    def key(s: int) -> Hashable:
        return key_of.get(s, missing)

    index = _Index(None)  # state 0 is dead
    index[start, 0, left]  # state 1, the start; a node is (state, tracker, want)
    rows, accepting = [], set()
    for i, node in enumerate(index.order):  # BFS: the list grows as it is read
        if node is None:
            rows.append((0, 0, 0))
            continue
        s, trk, want = node
        row = [0 if t == 3 else index[u, t, want] for u, t in zip(delta01[s], _TRK[trk])]
        if want is left:
            rows.append((*row, index[start, 0, key(s)] if trk in _TRK_DONE else 0))
        else:
            rows.append((*row, 0))
            if trk in _TRK_DONE and key(s) is not missing and want is not missing:
                if accept(want, key(s)):
                    accepting.add(i)
    return Dfa._mk(tuple(rows), 1, frozenset(accepting))


def kernel_relation(
    delta01: Sequence[tuple[int, int]],
    start: int,
    key_of: Mapping[int, Hashable],
) -> AutomaticEq:
    """Automatic relation "same classifier feature"; an equivalence by
    construction (kernel of a function)."""
    # New start, "0" and dead states; wrapped, no feature equals their label ().
    n = len(delta01)
    delta = [*delta01, (n + 1, n + 1), (n + 1, n + 1), (n, delta01[start][1])]
    labels = [(key_of.get(s),) for s in range(n)] + [(key_of[delta01[start][0]],), (), ()]
    return AutomaticEq._from_classifier(*refine(delta, n + 2, labels.__getitem__))


def universal_relation() -> AutomaticEq:
    """The single-class relation on all naturals."""
    return kernel_relation(((0, 0),), 0, {0: 0})


def value_mod_relation(modulus: int) -> AutomaticEq:
    """Congruence modulo ``modulus``."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    delta = tuple(((2 * s) % modulus, (2 * s + 1) % modulus) for s in range(modulus))
    return kernel_relation(delta, 0, {s: s for s in range(modulus)})


def bitlength_relation(cap: int) -> AutomaticEq:
    """Same bit length, with lengths >= cap merged into one class."""
    if cap < 1:
        raise ValueError("cap must be positive")
    delta = tuple((min(s + 1, cap), min(s + 1, cap)) for s in range(cap + 1))
    return kernel_relation(delta, 0, {s: s for s in range(cap + 1)})


def bitlength_parity_relation() -> AutomaticEq:
    """Values whose numerals have the same length parity."""
    return kernel_relation(((1, 1), (0, 0)), 0, {0: 0, 1: 1})


def low_threshold_relation() -> AutomaticEq:
    """Two classes: values below 2 and values at least 2."""
    delta = ((1, 1), (2, 2), (2, 2))
    return kernel_relation(delta, 0, {0: "na", 1: "low", 2: "high"})


def prefix_relation() -> AutomaticEq:
    """Classes by the first two numeral symbols: {0}, {1}, 10..., 11... ."""
    # states: 0 empty, 1 "0", 2 "1", 3 "10...", 4 "11...", 5 junk
    delta = ((1, 2), (5, 5), (3, 4), (3, 3), (4, 4), (5, 5))
    return kernel_relation(delta, 0, {s: s for s in range(6)})


def singleton_family(i: int) -> AutomaticEq:
    """The two-class relation separating {i} from everything else."""
    if i < 0:
        raise ValueError("naturals only")
    word = binary(i)
    n = len(word)
    # states 0..n track a matched prefix, and n + 1 is a mismatch: so is any
    # digit after the whole word
    delta = [tuple(p + 1 if bit == int(c) else n + 1 for bit in (0, 1)) for p, c in enumerate(word)]
    delta += [(n + 1, n + 1)] * 2
    return kernel_relation(delta, 0, {s: s == n for s in range(n + 2)})


def family_meet_demo(k: int) -> list[int]:
    """Fold meets of the singleton families 1..k and report the class count
    after each step; the counts grow without bound as k grows."""
    if k < 1:
        raise ValueError("k must be at least 1")
    acc = singleton_family(1)
    counts = [acc.class_count]
    for i in range(2, k + 1):
        acc = acc.meet(singleton_family(i))
        counts.append(acc.class_count)
    return counts


@lru_cache(maxsize=1)
def corpus() -> dict:
    """The shipped collection of certified automatic relations."""
    return {
        "universal": universal_relation(),
        "parity": value_mod_relation(2),
        "mod3": value_mod_relation(3),
        "mod4": value_mod_relation(4),
        "bitlen3": bitlength_relation(3),
        "bitlen4": bitlength_relation(4),
        "bitlen_parity": bitlength_parity_relation(),
        "prefix2": prefix_relation(),
        "low2": low_threshold_relation(),
        "single1": singleton_family(1),
        "single3": singleton_family(3),
    }


def first_bit_differs_dfa() -> Dfa:
    """Pair DFA relating m, n iff their numerals start with different digits.
    Not reflexive; kept as a negative control for the checkers."""
    delta = ((1, 2), (1, 1), (2, 2))
    key = {0: "na", 1: "zero", 2: "one"}
    return kernel_pair_dfa(delta, 0, key, accept=operator.ne)


def shorter_than_dfa(cap: int = 4) -> Dfa:
    """Pair DFA for "m's numeral is strictly shorter than n's" with lengths
    capped; asymmetric, a negative control for check_symmetric."""
    delta = tuple((min(s + 1, cap), min(s + 1, cap)) for s in range(cap + 1))
    key = {s: s for s in range(cap + 1)}
    return kernel_pair_dfa(delta, 0, key, accept=operator.lt)


def shared_feature_dfa() -> Dfa:
    """Pair DFA relating m, n iff they share their last digit or their capped
    numeral length.  Reflexive and symmetric but not transitive; a negative
    control for check_transitive."""
    # classifier tracks (last digit, min(length, 2)); start length component 0
    states = [(b, l) for b in (0, 1) for l in (0, 1, 2)]
    idx = {st: i for i, st in enumerate(states)}
    delta = tuple(
        (idx[(0, min(l + 1, 2))], idx[(1, min(l + 1, 2))]) for (b, l) in states
    )
    key = {idx[st]: st for st in states}

    def overlap(k1, k2):
        return k1[0] == k2[0] or k1[1] == k2[1]

    return kernel_pair_dfa(delta, idx[(0, 0)], key, accept=overlap)
