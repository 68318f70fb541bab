import copy
import pickle
import random
import re
import tracemalloc
from collections import deque
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from equlat.partition import (
    Atom,
    InvalidPartition,
    InvalidUniverse,
    NotSingular,
    Partition,
    UniverseMismatch,
    all_partitions,
    random_partition,
    singular_complement_valid,
)
from equlat.dfa import dfa_from_text
from equlat.tm import tm_from_text


def _partition_of(n):
    @st.composite
    def build(draw):
        labels = [0]
        used = [0]
        for x in range(1, n):
            pick = draw(st.integers(0, len(used)))
            if pick == len(used):
                labels.append(x)
                used.append(x)
            else:
                labels.append(used[pick])
        return Partition(labels)

    return build()


@st.composite
def partitions(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    return draw(_partition_of(n))


@st.composite
def partition_pairs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    return draw(_partition_of(n)), draw(_partition_of(n))


class TestConstructors:
    def test_bottom(self):
        assert Partition.bottom(3).classes() == ((0,), (1,), (2,))
        assert Partition.bottom(1).classes() == ((0,),)
        assert Partition.bottom(8).class_count == 8

    def test_top(self):
        assert Partition.top(3).classes() == ((0, 1, 2),)
        assert Partition.top(8).class_count == 1
        assert Partition.top(1) == Partition.bottom(1)

    def test_empty_universe_rejected(self):
        with pytest.raises(InvalidUniverse):
            Partition.bottom(0)
        with pytest.raises(InvalidUniverse):
            Partition.top(0)

    def test_from_classes(self):
        p = Partition.from_classes([{0, 1}, {2}])
        assert p.labels == (0, 0, 2)
        assert Partition.from_classes([{1, 0}, {2}]) == p

    def test_from_classes_rejects_overlap(self):
        with pytest.raises(InvalidPartition):
            Partition.from_classes([{0, 1}, {1, 2}])

    def test_from_classes_rejects_gap(self):
        with pytest.raises(InvalidPartition):
            Partition.from_classes([{0}, {2}])

    def test_gap_named_without_materializing_the_range(self):
        # The first uncovered element is found by scanning below the number
        # of elements seen, not by building every number up to the largest.
        tracemalloc.start()
        try:
            with pytest.raises(InvalidPartition, match="element 1 is not covered"):
                Partition.from_text("class: 0 1000000000000\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_gap_is_the_least_uncovered_element(self):
        with pytest.raises(InvalidPartition, match="element 2 is not covered"):
            Partition.from_classes([{0, 5}, {1, 3}, {4}, {7, 6}])

    def test_from_classes_rejects_empty_class(self):
        with pytest.raises(InvalidPartition):
            Partition.from_classes([{0, 1}, set()])

    def test_noncanonical_labels_rejected(self):
        with pytest.raises(InvalidPartition):
            Partition((1, 1))  # label must be the least member


class TestRelatedAndOrder:
    def test_related(self):
        assert Partition.top(3).related(0, 2)
        assert not Partition.bottom(3).related(0, 2)

    @given(partitions())
    def test_reflexive(self, e):
        assert all(e.related(x, x) for x in range(e.universe_size))

    @given(partitions())
    def test_bounds(self, e):
        n = e.universe_size
        assert Partition.bottom(n).leq(e)
        assert e.leq(Partition.top(n))

    def test_leq_antisymmetric_exhaustive(self):
        for n in range(1, 5):
            parts = list(all_partitions(n))
            for e in parts:
                for f in parts:
                    if e.leq(f) and f.leq(e):
                        assert e == f

    def test_related_out_of_range(self):
        with pytest.raises(ValueError):
            Partition.top(3).related(0, 3)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            Partition.top(3).meet(Partition.top(4))


class TestMeetJoin:
    def test_meet_crossing_pairs_is_bottom(self):
        e = Partition.from_classes([{0, 1}, {2, 3}])
        f = Partition.from_classes([{0, 2}, {1, 3}])
        assert e.meet(f) == Partition.bottom(4)

    def test_join_chains_to_top(self):
        e = Partition.from_classes([{0, 1}, {2, 3}])
        f = Partition.from_classes([{1, 2}, {0}, {3}])
        assert e.join(f) == Partition.top(4)

    @given(partitions())
    def test_identities(self, e):
        n = e.universe_size
        assert e.meet(Partition.top(n)) == e
        assert e.join(Partition.bottom(n)) == e
        assert e.meet(e) == e
        assert e.join(e) == e

    @given(partition_pairs())
    def test_meet_is_conjunction(self, pair):
        e, f = pair
        m = e.meet(f)
        n = e.universe_size
        for x in range(n):
            for y in range(n):
                assert m.related(x, y) == (e.related(x, y) and f.related(x, y))

    @given(partition_pairs())
    def test_order_compatibility(self, pair):
        e, f = pair
        assert e.leq(f) == (e.meet(f) == e) == (e.join(f) == f)

    @given(partition_pairs())
    def test_absorption(self, pair):
        e, f = pair
        assert e.meet(e.join(f)) == e
        assert e.join(e.meet(f)) == e


class TestSingular:
    def test_top_is_singular(self):
        assert Partition.top(3).is_singular()
        assert Partition.top(3).non_singleton_class() == (0, 1, 2)

    def test_bottom_is_not(self):
        assert not Partition.bottom(3).is_singular()
        with pytest.raises(NotSingular):
            Partition.bottom(3).non_singleton_class()

    def test_explicit(self):
        e = Partition.from_classes([{0, 2}, {1}, {3}])
        assert e.is_singular()
        assert e.non_singleton_class() == (0, 2)


class TestComplements:
    def test_bounds_are_complements(self):
        for n in (1, 2, 5):
            assert Partition.bottom(n).is_complement(Partition.top(n))

    def test_self_is_not_complement(self):
        for n in range(2, 6):
            for e in all_partitions(n):
                if e not in (Partition.bottom(n), Partition.top(n)):
                    assert not e.is_complement(e)

    def test_singular_example(self):
        e = Partition.from_classes([{0, 2}, {1}])
        f = Partition.from_classes([{0, 1}, {2}])
        assert e.is_complement(f)

    def test_counting_rule_examples(self):
        e2 = Partition.from_classes([{0, 1}])
        assert singular_complement_valid(e2, Partition.bottom(2))
        e3 = Partition.top(3)
        f3 = Partition.from_classes([{0, 1}, {2}])
        assert not singular_complement_valid(e3, f3)

    def test_counting_rule_agrees_exhaustively(self):
        for n in range(2, 5):
            parts = list(all_partitions(n))
            for e in parts:
                if not e.is_singular():
                    continue
                for f in parts:
                    assert e.is_complement(f) == singular_complement_valid(e, f)


class TestLeastElementComplement:
    def test_top_maps_to_bottom(self):
        for n in range(1, 7):
            assert Partition.top(n).least_element_complement() == Partition.bottom(n)

    def test_bottom_maps_to_top(self):
        for n in range(1, 7):
            assert Partition.bottom(n).least_element_complement() == Partition.top(n)

    def test_two_pair_example(self):
        e = Partition.from_classes([{0, 1}, {2, 3}])
        c = e.least_element_complement()
        assert c.is_singular() and c.non_singleton_class() == (0, 2)
        assert e.is_complement(c)

    @given(partitions())
    def test_always_a_complement(self, e):
        assert e.is_complement(e.least_element_complement())


class TestAtoms:
    def test_bottom_decomposes_to_nothing(self):
        assert Partition.bottom(5).atoms() == []

    def test_top3(self):
        assert [(a.a, a.b) for a in Partition.top(3).atoms()] == [(0, 1), (0, 2)]

    def test_atom_validation(self):
        with pytest.raises(InvalidPartition):
            Atom(2, 1, 4)
        with pytest.raises(InvalidPartition):
            Atom(0, 4, 4)
        with pytest.raises(InvalidPartition):
            Atom(-1, 0, 3)

    def test_atom_rejects_assignment(self):
        atom = Partition.top(3).atoms()[0]
        with pytest.raises(FrozenInstanceError):
            atom.a = 1
        with pytest.raises(FrozenInstanceError):
            atom.extra = 1
        with pytest.raises(FrozenInstanceError):
            del atom.b
        assert (atom.a, atom.b, atom.universe_size) == (0, 1, 3)

    def test_atom_copies_and_pickles(self):
        atom = Partition.top(3).atoms()[1]
        assert copy.copy(atom) == copy.deepcopy(atom) == atom
        assert pickle.loads(pickle.dumps(atom)) == atom == Atom(0, 2, 3)

    def test_atom_is_not_a_tuple(self):
        for atom in (Atom(0, 1, 3), Partition.top(3).atoms()[0]):
            assert atom != (0, 1, 3)
            assert (0, 1, 3) != atom
            assert atom == Atom(0, 1, 3)
            assert hash(atom) == hash(Atom(0, 1, 3))
            assert repr(atom) == "Atom(a=0, b=1, universe_size=3)"
            assert atom.as_partition() == Partition.from_classes([{0, 1}, {2}])

    @given(partitions())
    def test_recomposition(self, e):
        acc = Partition.bottom(e.universe_size)
        for atom in e.atoms():
            acc = acc.join(atom.as_partition())
        assert acc == e


class TestEnumeration:
    def test_bell_numbers(self):
        assert [sum(1 for _ in all_partitions(n)) for n in range(1, 6)] == [
            1,
            2,
            5,
            15,
            52,
        ]

    def test_all_canonical_and_distinct(self):
        seen = set(all_partitions(4))
        assert len(seen) == 15


class TestTextFormat:
    def test_round_trip_example(self):
        e = Partition.from_classes([{0, 1}, {2, 3}])
        assert Partition.from_text(e.to_text()) == e

    @given(partitions())
    def test_round_trip(self, e):
        assert Partition.from_text(e.to_text()) == e

    def test_malformed_line_names_the_line(self):
        with pytest.raises(ValueError, match="line 2"):
            Partition.from_text("class: 0 1\nclss: 2\n")

    def test_non_numeric_elements(self):
        with pytest.raises(ValueError, match="line 1"):
            Partition.from_text("class: zero\n")

    @pytest.mark.parametrize("one", ["+1", "0_1", "\u0661"])
    def test_elements_are_ascii_numerals(self, one):
        # int() reads each of these as 1.
        text = f"class: 0 {one}\n"
        parse = Partition.from_text
        assert parse(text.replace(one, "1")) == parse(text.replace(one, "01"))
        with pytest.raises(ValueError, match="^line 1: elements must be decimal naturals$"):
            parse(text)

    @pytest.mark.parametrize(
        "parse, head, bad, message",
        [
            (Partition.from_text, "class: 0 1", "clss: 2", "expected 'class: <elements>'"),
            (dfa_from_text, "states: 1", "trans: 0 0", "cannot parse 'trans: 0 0'"),
            (tm_from_text, "states: s", "rule: s _ -> s", "expected 'rule: q a -> q2 b M'"),
        ],
        ids=["partition", "dfa", "machine"],
    )
    def test_bad_line_after_blank_and_indented_lines_is_numbered(self, parse, head, bad, message):
        # All three formats read lines through field_lines: line 1 is empty,
        # line 2 indented, line 3 blank, and the bad line 4 indented too.
        text = f"\n  {head}\t\n \t\n\t{bad}  \n"
        with pytest.raises(ValueError, match=f"^{re.escape(f'line 4: {message}')}$"):
            parse(text)

    def test_overlong_numeral_is_a_line_error(self):
        with pytest.raises(ValueError, match="^line 2: elements must be decimal naturals$"):
            Partition.from_text("class: 0\nclass: 1" + "0" * 5000 + "\n")

    def test_seeded_mutations(self):
        rng = random.Random(23)
        outcomes = set()
        for _ in range(4000):
            e = random_partition(rng.randint(1, 10), rng)
            text = _mutate_text(rng, e.to_text())
            bad = _first_bad_line(text)
            try:
                p = Partition.from_text(text)
            except ValueError as exc:  # only ValueError may escape
                message = str(exc)
                assert message.startswith(f"line {bad}: ") == (bad is not None), (text, message)
                outcomes.add(message.split(":")[1] if bad else type(exc).__name__)
                continue
            assert bad is None
            lines = filter(None, map(str.strip, text.splitlines()))
            blocks = [set(map(int, line[len("class:"):].split())) for line in lines]
            assert sorted(map(set, p.classes()), key=min) == sorted(blocks, key=min)
            assert Partition.from_text(p.to_text()) == p
            outcomes.add("ok")
        # Successes, every line error and each whole-text error occur.
        assert outcomes == {
            "ok", " expected 'class", " elements must be decimal naturals", " empty class",
            "InvalidPartition", "ValueError",
        }


_JUNK_LINES = ("", "   ", "clss: 1", "class:", "class 0", "# note", "class: 0 x", "class: -1")
_BAD_ELEMENTS = ("x", "", "-1", "1.5", "0x3", "+1", "1_0", "\u0662", "10**9", "12")


def _mutate_text(rng, text):
    """One to three line edits of partition text: junk lines, deletions,
    duplicates, bad or extra elements, whitespace and broken keywords."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(7) if lines else 0
        i = rng.randrange(len(lines)) if lines else 0
        if op == 0:
            lines.insert(i, rng.choice(_JUNK_LINES))
        elif op == 1:
            del lines[i]
        elif op == 2:
            lines.insert(i, lines[i])
        elif op == 3:
            fields = lines[i].split() or [""]
            fields[rng.randrange(len(fields))] = rng.choice(_BAD_ELEMENTS + tuple("0123456789"))
            lines[i] = " ".join(fields)
        elif op == 4:
            lines[i] += " " + str(rng.randrange(12))
        elif op == 5:
            lines[i] = rng.choice(("  ", "\t")) + lines[i] + rng.choice(("", " ", "\t"))
        else:
            lines[i] = lines[i].replace(":", rng.choice((" :", "::", "")), 1)
    return "\n".join(lines) + rng.choice(("\n", "", "\r\n"))


def _first_bad_line(text):
    """The number of the first non-blank line that is not ``class:`` and one
    or more ASCII decimal numerals, each perhaps negated, or None."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line[len("class:"):].split()
        if not line.startswith("class:") or not tokens:
            return lineno
        if not all(tok.isascii() and tok.removeprefix("-").isdigit() for tok in tokens):
            return lineno
    return None


# -- the kernels against element-level oracles ---------------------------------


def _canonical(keys):
    first = {}
    return tuple(first.setdefault(k, x) for x, k in enumerate(keys))


def _pair_meet(e, f):
    """Label-pair counting: x ~ y iff both labels agree."""
    return _canonical(zip(e.labels, f.labels))


def _bfs_join(e, f):
    """Components of the bipartite graph on the classes of e and of f, with
    one edge per element, found breadth first."""
    n = e.universe_size
    adj = {}
    for a, b in set(zip(e.labels, f.labels)):
        adj.setdefault(a, []).append(n + b)
        adj.setdefault(n + b, []).append(a)
    comp = {}
    for root in adj:
        if root in comp:
            continue
        comp[root] = root
        queue = deque([root])
        while queue:
            for nxt in adj[queue.popleft()]:
                if nxt not in comp:
                    comp[nxt] = root
                    queue.append(nxt)
    return _canonical(comp[a] for a in e.labels)


def _element_union_find_join(e, f):
    """Disjoint-set union over the elements, each linked to its label in
    both relations."""
    n = e.universe_size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for labels in (e.labels, f.labels):
        for x in range(n):
            rx, ry = find(x), find(labels[x])
            if rx != ry:
                parent[rx] = ry
    return _canonical(find(x) for x in range(n))


def _class_minimum_atoms(e):
    n = e.universe_size
    return [Atom(block[0], x, n) for block in e.classes() for x in block[1:]]


def _random_labels(rng, n, classes):
    return Partition(_canonical(rng.choices(range(classes), k=n)))


def _shapes(n, seed):
    """The bounds, then seeded partitions from a few classes to nearly n."""
    rng = random.Random(seed)
    shapes = [Partition.top(n), Partition.bottom(n)]
    for classes in sorted({2, 3, round(n**0.5), n // 2, n - 1} - {0, 1}):
        shapes.append(_random_labels(rng, n, classes))
    return shapes


def _check_pair(e, f):
    n = e.universe_size
    joined = _bfs_join(e, f)
    assert e.meet(f).labels == _pair_meet(e, f)
    assert e.join(f).labels == joined == _element_union_find_join(e, f)
    assert e.is_complement(f) == (
        len(set(zip(e.labels, f.labels))) == n and joined == (0,) * n
    )


class TestKernelDifferential:
    def test_all_shape_pairs_small(self):
        for n in (1, 2, 3, 5, 10, 64, 1000):
            shapes = _shapes(n, seed=n)
            for e in shapes:
                for f in shapes:
                    _check_pair(e, f)

    def test_large_shapes(self):
        n = 100_000
        top, bottom, few, _, root, _, fine = _shapes(n, seed=7)
        # coarse x fine in both argument orders: join walks the coarser side
        for e, f in [(top, bottom), (few, fine), (fine, few), (root, fine), (fine, fine)]:
            _check_pair(e, f)

    def test_complements_fail_where_expected(self):
        rng = random.Random(3)
        for n in (4, 10, 1000, 100_000):
            e = _random_labels(rng, n, max(2, round(n**0.5)))
            assert e not in (Partition.top(n), Partition.bottom(n))
            bottom, top = Partition.bottom(n).labels, Partition.top(n).labels
            cases = [
                (e.least_element_complement(), True, True),  # fails through neither
                (Partition.top(n), False, True),  # through the meet only
                (Partition.bottom(n), True, False),  # through the join only
            ]
            for f, meet_bottom, join_top in cases:
                assert (_pair_meet(e, f) == bottom) == meet_bottom
                assert (_bfs_join(e, f) == top) == join_top
                assert e.is_complement(f) == f.is_complement(e) == (meet_bottom and join_top)

    def test_atoms_are_class_minimum_atoms(self):
        for n in (1, 2, 3, 10, 1000, 100_000):
            for e in _shapes(n, seed=n + 1)[::2]:
                atoms = e.atoms()
                expected = _class_minimum_atoms(e)
                assert atoms == expected
                assert [(a.a, a.b, a.universe_size) for a in atoms] == [
                    (a.a, a.b, a.universe_size) for a in expected
                ]

    def test_from_key_is_the_kernel(self):
        keys = (lambda x: x % 7, lambda x: x // 3, lambda x: 0, str, int.bit_length)
        for n in (1, 2, 10, 1000, 100_000):
            for key in keys:
                labels = Partition.from_key(n, key).labels
                assert labels == _canonical(key(x) for x in range(n))
