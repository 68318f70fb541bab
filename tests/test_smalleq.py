import random

import pytest
from hypothesis import given, strategies as st

from equlat.partition import InvalidPartition, Partition, SmallEq


@st.composite
def small_eqs(draw, max_threshold=12):
    threshold = draw(st.integers(0, max_threshold))
    ids = [draw(st.integers(0, threshold)) for _ in range(threshold)]
    tail = draw(st.integers(0, threshold))
    return SmallEq(threshold, ids, tail)


def test_canonical_shrink():
    # explicit members at the top that sit in the tail are redundant
    a = SmallEq(4, [0, 1, 9, 9], 9)
    b = SmallEq(2, [0, 1], 7)
    assert a == b
    assert a.threshold == 2


def test_top_form():
    assert SmallEq.singular(range(3), 3) == SmallEq.top()
    assert SmallEq.top().class_count == 1
    assert SmallEq.top().related(0, 10**9)


def test_singular_constructor():
    a = SmallEq.singular([0, 2], 4)
    assert a.is_singular()
    assert [x for x in range(a.threshold) if a.key(x) == a.tail_label] == [0, 2]
    assert a.related(0, 2) and a.related(2, 100) and not a.related(1, 3)
    assert a.class_count == 3  # {0,2}+tail, {1}, {3}


def test_singular_rejects_out_of_range():
    with pytest.raises(InvalidPartition):
        SmallEq.singular([5], 4)


def test_class_of_total():
    a = SmallEq.singular([1], 3)
    assert a.key(10**12) == a.tail_label


@given(small_eqs())
def test_meet_idempotent(a):
    assert a.meet(a) == a


@given(small_eqs(), small_eqs())
def test_meet_is_conjunction_pointwise(a, b):
    m = a.meet(b)
    for x in range(20):
        for y in range(20):
            assert m.related(x, y) == (a.related(x, y) and b.related(x, y))


@given(small_eqs(), small_eqs(), st.integers(1, 64))
def test_meet_commutes_with_restriction(a, b, n):
    assert a.meet(b).restrict(n) == a.restrict(n).meet(b.restrict(n))


def test_restrict_materializes():
    a = SmallEq.singular([0, 2], 4)
    assert a.restrict(6) == Partition.from_classes([{0, 2, 4, 5}, {1}, {3}])
    assert SmallEq.top().restrict(4) == Partition.top(4)


def test_tails_always_intersect():
    rng = random.Random(7)
    for _ in range(100):
        t1, t2 = rng.randrange(0, 10), rng.randrange(0, 10)
        a = SmallEq.singular([x for x in range(t1) if rng.random() < 0.4], t1)
        b = SmallEq.singular([x for x in range(t2) if rng.random() < 0.4], t2)
        m = a.meet(b)
        top = max(t1, t2)
        assert m.related(top, top + 5)  # the merged tail is nonempty


def test_text_format_shape():
    a = SmallEq.singular([0, 2], 4)
    text = a.to_text()
    assert text.splitlines()[0] == "threshold: 4"
    assert text.splitlines()[1] == "tail: 0"


# -- the partition-kernel canonical form and meet against the old loops ---------

def _old_canonical(threshold, labels, tail_label):
    """The constructor's old shrink-and-relabel, as (threshold, labels, tail)."""
    labels = list(labels)
    while threshold > 0 and labels[threshold - 1] == tail_label:
        threshold -= 1
        labels.pop()
    relabel = {}
    for x, lab in enumerate(labels):
        relabel.setdefault(lab, x)
    canon_tail = relabel.setdefault(tail_label, threshold)
    return threshold, tuple(relabel[lab] for lab in labels), canon_tail


def _old_meet(a, b):
    """The old meet: pair ids over max(threshold) elements, then the old
    constructor."""
    threshold = max(a.threshold, b.threshold)
    pair_ids = {}
    pid = lambda key: pair_ids.setdefault(key, len(pair_ids))  # noqa: E731
    labels = [pid((a.key(x), b.key(x))) for x in range(threshold)]
    return _old_canonical(threshold, labels, pid((a.tail_label, b.tail_label)))


def _fields(e):
    return e.threshold, e.labels, e.tail_label


def _raw(fields):
    """A SmallEq holding the given fields, without the constructor."""
    e = object.__new__(SmallEq)
    e.threshold, e.labels, e.tail_label = fields
    return e


def test_canonical_form_and_meet_match_old_loops():
    rng = random.Random(20261019)
    made = []
    for _ in range(600):
        threshold = rng.randrange(0, 25)
        spread = rng.randrange(1, threshold + 3)
        ids = [rng.randrange(spread) for _ in range(threshold)]
        tail = rng.randrange(spread + 2)
        if threshold and rng.random() < 0.3:  # a run of tail members at the top
            cut = rng.randrange(threshold)
            ids[cut:] = [tail] * (threshold - cut)
        got = SmallEq(threshold, ids, tail)
        assert _fields(got) == _old_canonical(threshold, ids, tail)
        made.append(got)
    assert any(e.threshold == 0 for e in made) and any(e.is_singular() for e in made)
    for _ in range(1500):
        a, b = rng.choice(made), rng.choice(made)
        assert _fields(a.meet(b)) == _old_meet(a, b)


def test_truncated_family_meets_match_old_meet():
    from equlat import constructions as cs

    rng = random.Random(20261020)
    preds = (cs.is_even, cs.is_prime, lambda x: x % 3 == 0, lambda x: x in (1, 4, 9, 16))
    for _ in range(200):
        cuts = tuple(sorted(rng.sample(range(1, 200), rng.randint(1, 7))))
        spec = cs.SingularFamilySpec(rng.choice(preds), cuts)
        k = rng.randrange(len(cuts))
        acc = cs.family_member(spec, 0)
        for i in range(1, k + 1):
            acc = _raw(_old_meet(acc, cs.family_member(spec, i)))
        assert _fields(cs.truncated_family_meet(spec, k)) == _fields(acc)
