import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from equlat.partition import InvalidPartition, Partition, SmallEq, _parse_class_lines


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


@given(small_eqs())
def test_text_round_trip(a):
    assert SmallEq.from_text(a.to_text()) == a


def test_text_format_shape():
    a = SmallEq.singular([0, 2], 4)
    text = a.to_text()
    assert text.splitlines()[0] == "threshold: 4"
    assert text.splitlines()[1] == "tail: 0"


def test_text_missing_header():
    with pytest.raises(ValueError, match="threshold"):
        SmallEq.from_text("class: 0\n")


def test_text_bad_tail_label():
    with pytest.raises(ValueError, match="tail"):
        SmallEq.from_text("threshold: 2\ntail: 1\nclass: 0 1\n")


def _old_from_text(text):
    """The parser that allocated a label per element below the threshold
    before checking coverage, kept as the oracle for texts of naturals."""
    lines = text.splitlines()
    threshold = tail = None
    body_start = 0
    for i, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("threshold:") and threshold is None:
            threshold = int(line.split(":", 1)[1])
        elif line.startswith("tail:") and tail is None:
            tail = int(line.split(":", 1)[1])
        else:
            body_start = i
            break
    else:
        body_start = len(lines)
    if threshold is None or tail is None:
        raise ValueError("missing 'threshold:' or 'tail:' header")
    body = lines[body_start:]
    if threshold == 0:
        if any(line.strip() for line in body):
            raise ValueError("threshold 0 admits no class lines")
        return SmallEq(0, (), tail)
    blocks = _parse_class_lines(body, body_start)
    labels = [-1] * threshold
    for block in blocks:
        block = sorted(block)
        for x in block:
            if x >= threshold or labels[x] != -1:
                raise InvalidPartition(f"element {x} misplaced below threshold")
            labels[x] = block[0]
    if any(l == -1 for l in labels):
        raise InvalidPartition("classes do not cover {0..threshold-1}")
    if tail != threshold and (tail >= threshold or labels[tail] != tail):
        raise ValueError(f"tail label {tail} does not name a class")
    return SmallEq(threshold, labels, tail)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


def _malformed_texts(rng, count):
    """Texts of naturals near the SmallEq format: valid ones and ones with a
    dropped, repeated or out-of-range element, a bad tail, a junk or empty
    line, a missing header or a negative threshold."""
    for _ in range(count):
        threshold = rng.randrange(0, 9)
        classes: list[list[int]] = []
        for x in range(threshold):
            pick = rng.randrange(len(classes) + 1)
            if pick == len(classes):
                classes.append([x])
            else:
                classes[pick].append(x)
        tail = rng.randrange(0, threshold + 3)
        if classes and rng.random() < 0.6:
            tail = rng.choice(classes)[0]
        fault = rng.randrange(8)
        if fault == 1 and threshold:
            rng.choice(classes).append(rng.randrange(threshold))
        elif fault == 2:
            classes.append([threshold + rng.randrange(3)])
        elif fault == 3 and classes:
            block = rng.choice(classes)
            block.remove(rng.choice(block))
        elif fault == 4:
            threshold = -rng.randrange(1, 4)
        for block in classes:
            rng.shuffle(block)
        rng.shuffle(classes)
        lines = [f"threshold: {threshold}", f"tail: {tail}"]
        lines += ["class: " + " ".join(map(str, block)) for block in classes]
        if fault == 5:
            lines.insert(rng.randrange(2, len(lines) + 1), rng.choice(["", "clss: 1", "class:"]))
        elif fault == 6:
            del lines[rng.randrange(2)]
        elif fault == 7:
            lines.append("class: " + str(rng.randrange(threshold + 2)))
        yield "\n".join(lines) + "\n"


def test_text_parser_matches_old_parser():
    rng = random.Random(41)
    outcomes = set()
    for text in _malformed_texts(rng, 3000):
        new, old = _outcome(SmallEq.from_text, text), _outcome(_old_from_text, text)
        assert new == old, text
        outcomes.add(new[1] if new[0] != "ok" else "ok")
    # Every error message the parser has, and successes, were reached.
    assert "ok" in outcomes
    assert {"classes do not cover {0..threshold-1}", "threshold 0 admits no class lines",
            "missing 'threshold:' or 'tail:' header", "no class lines found"} <= outcomes
    assert any(o.endswith("misplaced below threshold") for o in outcomes)
    assert any(o.startswith("tail label") for o in outcomes)


def test_text_header_does_not_size_memory():
    # The header asks for ten million labels; the class lines cover one.
    text = "threshold: 10000000\ntail: 0\nclass: 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(InvalidPartition, match="do not cover"):
            SmallEq.from_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_text_negative_elements_and_tails_rejected():
    # Negative numbers once indexed the label list from its end.
    with pytest.raises(InvalidPartition, match="element -2 misplaced"):
        SmallEq.from_text("threshold: 3\ntail: 3\nclass: -2 0\nclass: 1\nclass: 2\n")
    with pytest.raises(InvalidPartition, match="element -5 misplaced"):
        SmallEq.from_text("threshold: 2\ntail: 2\nclass: -5\n")
    with pytest.raises(ValueError, match="tail label -3 does not name a class"):
        SmallEq.from_text("threshold: 2\ntail: -3\nclass: 0 1\n")


@pytest.mark.parametrize(
    "field, other", [("threshold", "+2"), ("threshold", "\u0662"), ("tail", "0_2")]
)
def test_text_headers_are_ascii_numerals(field, other):
    # int() reads each other numeral as 2.
    text = "threshold: 2\ntail: 2\nclass: 0\nclass: 1\n"
    assert SmallEq.from_text(text) == SmallEq(2, (0, 1), 2)
    with pytest.raises(ValueError, match=re.escape(f"not a decimal numeral: {other!r}")):
        SmallEq.from_text(text.replace(f"{field}: 2", f"{field}: {other}"))


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
