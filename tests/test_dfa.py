import operator
import random
from collections import deque

import pytest
from hypothesis import given, strategies as st

from equlat import dfa as dfa_module
from equlat.dfa import (
    Dfa,
    Nfa,
    binary,
    dfa_from_text,
    dfa_to_text,
    minimize,
    pair_format_dfa,
    pair_word,
    product,
)
from dfa_oracle import equivalent, is_empty, reachable_states


@given(st.integers(0, 10**9))
def test_binary_is_canonical(n):
    w = binary(n)
    assert w == "0" or (w.startswith("1") and set(w) <= {"0", "1"})
    assert int(w, 2) == n


def test_pair_word():
    assert pair_word(5, 2) == "101B10"
    assert pair_word(0, 0) == "0B0"


def test_pair_format_dfa():
    d = pair_format_dfa()
    for m in range(8):
        for n in range(8):
            assert d.accepts(pair_word(m, n))
    for bad in ("", "B", "0", "01B1", "1B01", "0B0B0", "10", "B0"):
        assert not d.accepts(bad)


def _word_dfa(word):
    """Accepts exactly one word; used as a tiny language constructor."""
    L = len(word)
    delta = []
    for p in range(L):
        row = []
        for ch in ("0", "1", "B"):
            row.append(p + 1 if ch == word[p] else L + 1)
        delta.append(row)
    delta.append([L + 1] * 3)
    delta.append([L + 1] * 3)
    return Dfa(delta, 0, {L})


def test_word_dfa_helper():
    d = _word_dfa("0B0")
    assert d.accepts("0B0")
    assert not d.accepts("0B1")
    assert not d.accepts("0B00")


def test_product_and_emptiness():
    a = _word_dfa("0B0")
    b = _word_dfa("1B1")
    assert is_empty(product(a, b, operator.and_))
    union = product(a, b, operator.or_)
    assert union.accepts("0B0") and union.accepts("1B1") and not union.accepts("0B1")


def subset_of(a, b):
    """True iff L(a) is a subset of L(b): the containment test the class
    table's transitivity check replaced, kept here as its oracle."""
    return is_empty(product(a, b, lambda x, y: x and not y))


def test_subset_and_equivalence():
    a = _word_dfa("0B0")
    assert subset_of(a, pair_format_dfa())
    assert not subset_of(pair_format_dfa(), a)
    assert equivalent(a, a)
    assert not equivalent(a, _word_dfa("1B1"))


def test_minimize_preserves_language_and_shrinks():
    fmt = pair_format_dfa()
    # product with itself inflates the state count but not the language
    inflated = product(fmt, fmt, operator.and_)
    small = minimize(inflated)
    assert equivalent(small, fmt)
    assert small.state_count <= inflated.state_count
    assert minimize(small).state_count == small.state_count


def test_minimize_idempotent_on_corpus_like_dfa():
    d = minimize(pair_format_dfa())
    assert equivalent(d, pair_format_dfa())
    assert minimize(d).state_count == d.state_count


def test_two_builds_of_the_same_language_are_equivalent():
    # same-length-of-numeral tracking built two different ways
    from equlat.automatic import bitlength_relation

    a = bitlength_relation(3).dfa
    b = minimize(a)
    padded = product(b, pair_format_dfa(), operator.and_)
    assert equivalent(a, padded)
    assert padded.state_count >= b.state_count


def test_nfa_determinize():
    nfa = Nfa()
    nfa.starts.add("s")
    nfa.add("s", None, "a")
    nfa.add("a", "0", "b")
    nfa.add("s", "0", "c")
    nfa.accepting.update({"b", "c"})
    d = nfa.determinize()
    assert d.accepts("0")
    assert not d.accepts("1")
    assert not d.accepts("00")


def _old_determinize(nfa):
    """The subset construction with its own queue and numbering, kept as the
    oracle for Nfa.determinize."""
    start = nfa._closure(nfa.starts)
    index = {start: 0}
    queue = deque([start])
    delta = []
    accepting = set()
    while queue:
        cur = queue.popleft()
        row = []
        for ch in "01B":
            nxt = set()
            for s in cur:
                nxt |= nfa.transitions.get((s, ch), set())
            nxt = nfa._closure(nxt)
            if nxt not in index:
                index[nxt] = len(index)
                queue.append(nxt)
            row.append(index[nxt])
        delta.append(row)
        if cur & nfa.accepting:
            accepting.add(index[cur])
    return Dfa(delta, 0, accepting)


def test_nfa_determinize_matches_old_loop():
    rng = random.Random(20261021)
    sizes = []
    for _ in range(400):
        n = rng.randint(1, 7)
        nfa = Nfa()
        nfa.starts.update(rng.sample(range(n), rng.randint(0, min(n, 2))))
        nfa.accepting.update(s for s in range(n) if rng.random() < 0.3)
        for _ in range(rng.randrange(4 * n)):
            # None is an epsilon move, one in four
            nfa.add(rng.randrange(n), rng.choice(("0", "1", "B", None)), rng.randrange(n))
        new, old = nfa.determinize(), _old_determinize(nfa)
        assert (new.delta, new.start, new.accepting) == (old.delta, old.start, old.accepting)
        sizes.append(new.state_count)
    assert max(sizes) > 7  # more subsets than NFA states


def test_dfa_validation():
    cases = [
        ([], 0, set(), "need at least one state"),
        ([(0, 0)], 0, set(), "bad transition row for state 0"),  # row too short
        ([(0, 0, 0, 0)], 0, set(), "bad transition row for state 0"),  # too long
        ([(0, 0, 5)], 0, set(), "bad transition row for state 0"),  # target too big
        ([(0, 0, 0), (0, -1, 1)], 0, set(), "bad transition row for state 1"),
        ([(0, 0, 0), (1, 1), (9, 9, 9)], 0, set(), "bad transition row for state 1"),
        ([(0, 0, 0), (1, 1, 1), (0, 1, 3)], 0, set(), "bad transition row for state 2"),
        ([(0, 0, 0)], 3, set(), "start state out of range"),
        ([(0, 0, 0)], -1, set(), "start state out of range"),
        ([(0, 0, 0)], 0, {1}, "accepting state out of range"),
        ([(0, 0, 0)], 0, {0, -1}, "accepting state out of range"),
        # in range but not ints: each used to pass and fail later in run
        ([(0.5, 0, 0)], 0, set(), "bad transition row for state 0"),
        ([(1.0, 0, 0), (0, 0, 0)], 0, set(), "bad transition row for state 0"),
        ([(0, 0, 0)], 0.0, set(), "start state out of range"),
        ([(0, 0, 0)], 0, {0.0}, "accepting state out of range"),
        ([(0, "0", 0)], 0, set(), "bad transition row for state 0"),  # was a TypeError
    ]
    for delta, start, accepting, message in cases:
        with pytest.raises(ValueError) as exc:
            Dfa(delta, start, accepting)
        assert str(exc.value) == message


def test_dfa_validation_order():
    # Rows are checked before the start state, the start before acceptance.
    with pytest.raises(ValueError, match="^bad transition row for state 0$"):
        Dfa([(0, 0, 2)], 5, {7})
    with pytest.raises(ValueError, match="^start state out of range$"):
        Dfa([(0, 0, 0)], 5, {7})


class TestTextFormat:
    def test_round_trip(self):
        d = pair_format_dfa()
        assert equivalent(dfa_from_text(dfa_to_text(d)), d)

    def test_totality_enforced(self):
        text = "states: 1\nstart: 0\naccept: 0\ntrans: 0 0 0\ntrans: 0 1 0\n"
        with pytest.raises(ValueError, match="not total"):
            dfa_from_text(text)

    def test_duplicate_transition_rejected(self):
        text = (
            "states: 1\nstart: 0\naccept:\n"
            "trans: 0 0 0\ntrans: 0 0 0\ntrans: 0 1 0\ntrans: 0 B 0\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            dfa_from_text(text)

    def test_bad_line_is_named(self):
        with pytest.raises(ValueError, match="line 2"):
            dfa_from_text("states: 1\nnonsense\n")


# -- the kernel against the loops it replaced ----------------------------------


def _old_product(a, b, op):
    """Pair BFS with a queue, one dict probe per symbol."""
    index = {(a.start, b.start): 0}
    queue = deque([(a.start, b.start)])
    delta = []
    accepting = set()
    while queue:
        sa, sb = queue.popleft()
        row = []
        for i in range(3):
            nxt = (a.delta[sa][i], b.delta[sb][i])
            if nxt not in index:
                index[nxt] = len(index)
                queue.append(nxt)
            row.append(index[nxt])
        delta.append(row)
        if op(sa in a.accepting, sb in b.accepting):
            accepting.add(index[(sa, sb)])
    return Dfa(delta, 0, accepting)


def _moore_loop(d):
    """Moore refinement one state at a time, renumbered by first occurrence."""
    order = reachable_states(d)
    pos = {s: i for i, s in enumerate(order)}
    block = [1 if s in d.accepting else 0 for s in order]
    if max(block, default=0) == 0 or min(block) == 1:
        block = [0] * len(order)
    while True:
        signature = {}
        new_block = []
        for i, s in enumerate(order):
            sig = (block[i],) + tuple(block[pos[t]] for t in d.delta[s])
            new_block.append(signature.setdefault(sig, len(signature)))
        if new_block == block:
            break
        block = new_block
    renum = {}
    for b in block:
        renum.setdefault(b, len(renum))
    block = [renum[b] for b in block]
    delta = [None] * len(renum)
    accepting = set()
    for i, s in enumerate(order):
        delta[block[i]] = [block[pos[t]] for t in d.delta[s]]
        if s in d.accepting:
            accepting.add(block[i])
    return Dfa(delta, block[pos[d.start]], accepting)


def _old_check_format(d):
    return is_empty(_old_product(d, pair_format_dfa(), lambda x, y: x and not y))


def _old_format_clean(d):
    return _moore_loop(_old_product(d, pair_format_dfa(), operator.and_))


def _fields(d):
    return d.delta, d.start, d.accepting


def _random_dfa(rng, mode):
    """States 0..n-1 with a start that may leave some of them unreachable."""
    n = rng.randint(1, 30)
    delta = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(n)]
    if mode == "all":
        accepting = set(range(n))
    elif mode == "none":
        accepting = set()
    else:
        accepting = {s for s in range(n) if rng.random() < 0.3}
    return Dfa(delta, rng.randrange(n), accepting)


def _pair_dfa(rng):
    """A random pair automaton: mostly format-clean words, sometimes more."""
    from equlat.automatic import kernel_pair_dfa

    k = rng.randint(1, 6)
    delta01 = tuple(tuple(rng.randrange(k) for _ in range(2)) for _ in range(k))
    key = {s: rng.randrange(3) for s in range(k)}
    near = lambda x, y: abs(x - y) <= 1  # reflexive, symmetric, not transitive
    d = kernel_pair_dfa(delta01, 0, key, accept=rng.choice((operator.eq, operator.le, near)))
    if rng.random() < 0.5:
        d = product(d, _random_dfa(rng, "some"), operator.or_)
    return d


def _kernel_inputs():
    from equlat.automatic import corpus, singleton_family

    rng = random.Random(20261018)
    out = [rel.dfa for rel in corpus().values()]
    out += [product(rel.dfa, pair_format_dfa(), operator.and_) for rel in corpus().values()]
    out += [_random_dfa(rng, mode) for mode in ("all", "none", "some") for _ in range(60)]
    out += [_pair_dfa(rng) for _ in range(80)]
    for _ in range(12):
        indices = rng.sample(range(40), rng.randint(2, 12))
        acc = singleton_family(indices[0]).dfa
        for i in indices[1:]:
            acc = product(acc, singleton_family(i).dfa, operator.and_)
            out.append(acc)
    return out


class TestKernelMatchesOldLoops:
    def test_inputs_cover_the_shapes(self):
        inputs = _kernel_inputs()
        assert any(len(reachable_states(d)) < d.state_count for d in inputs)
        assert any(d.accepting == frozenset(range(d.state_count)) for d in inputs)
        assert any(not d.accepting for d in inputs)
        assert any(not _old_check_format(d) for d in inputs)
        from equlat.automatic import admission_checks

        first_failures = {
            next((a for a, passed in admission_checks(d) if not passed), None) for d in inputs
        }
        assert first_failures == {None, "format", "reflexivity", "symmetry", "transitivity"}
        assert max(d.state_count for d in inputs) > 100

    def test_minimize(self):
        for d in _kernel_inputs():
            assert _fields(minimize(d)) == _fields(_moore_loop(d))

    def test_product(self):
        rng = random.Random(7)
        inputs = _kernel_inputs()
        for _ in range(150):
            a, b = rng.choice(inputs), rng.choice(inputs)
            for op in (operator.and_, operator.or_, operator.ne):
                assert _fields(product(a, b, op)) == _fields(_old_product(a, b, op))

    def test_format_product(self):
        from equlat import automatic as am

        axioms = ("format", "reflexivity", "symmetry", "transitivity")
        separate = (am.check_format, am.check_reflexive, am.check_symmetric, am.check_transitive)
        for d in _kernel_inputs():
            assert am.check_format(d) == _old_check_format(d)
            assert _fields(minimize(am._format_product(d)[1])) == _fields(_old_format_clean(d))
            rows = am.admission_checks(d)
            assert rows == [(a, check(d)) for a, check in zip(axioms, separate)]
            # from_dfa names the first failing row, or admits the clean automaton.
            try:
                admitted = _fields(am.AutomaticEq.from_dfa(d).dfa)
            except am.ValidationError as exc:
                admitted = exc.axiom
            first_failure = next((a for a, passed in rows if not passed), None)
            assert admitted == (first_failure or _fields(_old_format_clean(d)))

    def test_trusted_tables_pass_validation(self):
        # Every table built without checks would pass them.
        for d in _kernel_inputs():
            for out in (minimize(d), product(d, pair_format_dfa(), operator.and_)):
                assert _fields(Dfa(*_fields(out))) == _fields(out)
                assert all(type(row) is tuple for row in out.delta)
                assert type(out.accepting) is frozenset


# -- refine against the Moore loop it replaced ----------------------------------

def _old_refine(delta, start, label):
    """Moore refinement numbering every block densely in every round, with
    two hashes of each signature per round."""
    index = dfa_module._reach(delta, start)
    order = index.order
    columns = [list(map(index.__getitem__, col)) for col in zip(*map(delta.__getitem__, order))]
    labels = list(map(label, order))
    signatures, block = labels, None
    while True:
        distinct = dict.fromkeys(signatures)
        number = dict(zip(distinct, range(len(distinct))))
        new_block = list(map(number.__getitem__, signatures))
        if new_block == block:
            break
        block = new_block
        at = block.__getitem__
        signatures = list(zip(block, *(map(at, col) for col in columns)))
    return tuple(sig[1:] for sig in number), list(dict(zip(block, labels)).values())


def _random_table(rng, width):
    """Up to 40 states, a start that may leave some unreachable, and labels
    of mixed kinds drawn from a few values."""
    n = rng.randint(1, 40)
    delta = [tuple(rng.randrange(n) for _ in range(width)) for _ in range(n)]
    values = rng.choice(([0, 1], [-1, 0, 1, 2], [(), ("a",), (0, 1)], [True]))
    labels = [rng.choice(values) for _ in range(n)]
    return delta, rng.randrange(n), labels.__getitem__


def _refine_inputs():
    from equlat.automatic import (
        corpus, first_bit_differs_dfa, shared_feature_dfa, shorter_than_dfa, singleton_family,
    )

    rng = random.Random(20261020)
    tables = [_random_table(rng, width) for width in (2, 3) for _ in range(150)]
    relations = list(corpus.__wrapped__().values())
    for _ in range(10):
        indices = rng.sample(range(40), rng.randint(2, 16))
        acc = singleton_family(indices[0])
        for i in indices[1:]:
            acc = acc.meet(singleton_family(i))
        relations.append(acc)
    for rel in relations:
        delta, start, labels = rel._classes()
        tables.append((delta, start, labels.__getitem__))
        tables.append((delta, start, [x % 3 for x in labels].__getitem__))
    controls = [first_bit_differs_dfa(), shorter_than_dfa(), shared_feature_dfa()]
    for d in controls + [rel.dfa for rel in relations]:
        tables.append((d.delta, d.start, d.accepting.__contains__))
    return tables


def test_refine_matches_old_moore_loop():
    tables = _refine_inputs()
    assert any(len(dfa_module._reach(delta, start)) < len(delta) for delta, start, _ in tables)
    assert {start for _, start, _ in tables} - {0} and {len(t[0][0]) for t in tables} == {2, 3}
    for delta, start, label in tables:
        rows, labels = dfa_module.refine(delta, start, label)
        assert (rows, labels) == _old_refine(delta, start, label)
        assert all(type(row) is tuple for row in rows) and type(rows) is tuple


# -- the text parser against the one it replaced -------------------------------


def _old_validated(delta, start, accepting):
    """The constructor's checks, one row at a time."""
    delta = tuple(tuple(row) for row in delta)
    n = len(delta)
    if n == 0:
        raise ValueError("need at least one state")
    for s, row in enumerate(delta):
        if len(row) != 3 or any(not 0 <= t < n for t in row):
            raise ValueError(f"bad transition row for state {s}")
    if not 0 <= start < n:
        raise ValueError("start state out of range")
    accepting = frozenset(accepting)
    if any(not 0 <= s < n for s in accepting):
        raise ValueError("accepting state out of range")
    return delta, start, accepting


def _old_int(text):
    """int() of an ASCII decimal numeral, possibly negative: int() alone also
    reads "+1", "1_0" and non-ASCII digits."""
    text = text.strip()
    if not text.isascii() or not text.removeprefix("-").isdigit():
        raise ValueError
    return int(text)


def _old_dfa_from_text(text):
    """The prefix-cascade parser, returning the validated fields; numbers are
    ASCII decimal numerals."""
    states = start = None
    accepting = []
    rules = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("states:"):
                states = _old_int(line.split(":", 1)[1])
            elif line.startswith("start:"):
                start = _old_int(line.split(":", 1)[1])
            elif line.startswith("accept:"):
                accepting = [_old_int(tok) for tok in line.split(":", 1)[1].split()]
            elif line.startswith("trans:"):
                src, sym, dst = line[len("trans:"):].split()
                if sym not in ("0", "1", "B"):
                    raise ValueError
                key = (_old_int(src), sym)
                if key in rules:
                    raise ValueError(f"line {lineno}: duplicate transition {key}")
                rules[key] = _old_int(dst)
            else:
                raise ValueError
        except ValueError as exc:
            if exc.args and str(exc).startswith("line"):
                raise
            raise ValueError(f"line {lineno}: cannot parse {line!r}") from None
    if states is None or start is None:
        raise ValueError("missing 'states:' or 'start:' header")
    delta = []
    for s in range(states):
        row = []
        for ch in ("0", "1", "B"):
            if (s, ch) not in rules:
                raise ValueError(f"transition table not total: missing ({s}, {ch})")
            row.append(rules[(s, ch)])
        delta.append(row)
    if len(rules) != states * 3:
        extra = sorted(k for k in rules if k[0] >= states)
        raise ValueError(f"transitions reference unknown states: {extra}")
    return _old_validated(delta, start, accepting)


_BAD_FIELDS = ("x", "", "1.5", "0x3", "٣", "+1", "-1", "1_0", "B", "10**9")


def _mutate_field(rng, line, n):
    """Replace one whitespace-separated field after the line's keyword."""
    kind, _, rest = line.partition(":")
    fields = rest.split()
    if not fields:
        return line + " " + rng.choice(_BAD_FIELDS + (str(n),))
    i = rng.randrange(len(fields))
    if kind == "trans" and i == 1:
        fields[i] = rng.choice(("2", "b", "BB", "", "01", "0"))
    else:
        fields[i] = rng.choice(_BAD_FIELDS + (str(n), str(n + 3), "-1", "0", str(n - 1)))
    return kind + ": " + " ".join(fields)


def _mutate(rng, text, n):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(9)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            lines[i] = _mutate_field(rng, lines[i], n)
        elif op == 4:
            header = rng.choice(("states:", "start:", "accept:"))
            lines = [line for line in lines if not line.startswith(header)]
        elif op == 5:
            junk = ("", "   ", "# note", "trans 0 0 0", "states : 2", "start:")
            lines.insert(i, rng.choice(junk))
        elif op == 6:
            lines[i] = rng.choice(("  ", "\t")) + lines[i] + rng.choice(("", " ", "\t"))
        elif op == 7:
            lines[i] = lines[i].replace(":", rng.choice((" :", "::", "")), 1)
        else:
            s = rng.randrange(n + 2)
            lines.insert(i, f"trans: {s} {rng.choice('01B')} {rng.randrange(-1, n + 2)}")
        if not lines:
            break
    return "\n".join(lines) + rng.choice(("\n", "", "\r\n"))


def _written_inputs():
    """Every corpus relation, folded singleton meets and the three controls."""
    from equlat import automatic as am

    out = [rel.dfa for rel in am.corpus().values()]
    acc = am.singleton_family(0)
    for i in (3, 5, 8, 13, 21):
        acc = acc.meet(am.singleton_family(i))
        out.append(acc.dfa)
    return out + [am.first_bit_differs_dfa(), am.shorter_than_dfa(), am.shared_feature_dfa()]


def _layout_variants(text):
    """Other layouts of ``text``, and breaks of it, that only the line loop reads."""
    lines = text.splitlines()
    body = "\n".join(lines[3:]) + "\n"
    accept = lines[2]
    first, second, last = lines[3], lines[4], lines[-1]
    variants = {
        "crlf": text.replace("\n", "\r\n"),
        "tab": text.replace("trans: ", "trans:\t", 1),
        "double space": text.replace(first, first.replace(" ", "  "), 1),
        "padded headers": "".join(f"  {line} \n" for line in lines[:3]) + body,
        "no final newline": text[:-1],
        "a word after the final newline": text + "x",
        "headers reordered": "\n".join([lines[1], lines[0]] + lines[2:]) + "\n",
        "transitions reordered": text.replace(f"{first}\n{second}", f"{second}\n{first}", 1),
        "blank lines": text.replace("\n", "\n\n", 3) + "\n",
        "007 source": text.replace("trans: 0 ", "trans: 007 ", 1),
        "-0 source": text.replace("trans: 0 ", "trans: -0 ", 1),
        "007 target": text[: -len(last) - 1] + last.replace(" B ", " B 00") + "\n",
        "4,301-digit target": text[: -len(last) - 1] + last.rpartition(" ")[0] + " " + "1" * 4301 + "\n",
        "start: misspelt": text.replace("start: ", "strat: ", 1),
        "states: 0": "states: 0" + text[len(lines[0]):],
        "states: 0 and no transitions": "states: 0\nstart: 0\naccept: \n",
        "missing target": text.replace(first, first.rpartition(" ")[0], 1),
        "line break moved into a line": text.replace(f"{first}\ntrans: ", f"{first} trans:\n", 1),
        "line break moved into the next line": text.replace(f"{first}\ntrans: 0 ", f"{first[:-2]}\n{first[-1]} trans: 0 ", 1),
        "accept without its space": text.replace("accept: ", "accept:", 1),
        "accepting states reversed": text.replace(accept, "accept: " + " ".join(accept.split()[:0:-1]), 1),
    }
    for ch in "\x1c\x85\u2028":
        variants[f"U+{ord(ch):04X} inside accept:"] = text.replace(accept, accept + ch + "0", 1)
        variants[f"U+{ord(ch):04X} ending accept:"] = text.replace(accept + "\n", accept + ch, 1)
    return variants


def _parse_outcome(parse, text):
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return "error", str(exc)


class TestParserMatchesOldParser:
    def test_seeded_mutations(self):
        rng = random.Random(9)
        inputs = _kernel_inputs()
        outcomes = set()
        for _ in range(3000):
            d = rng.choice(inputs)
            text = _mutate(rng, dfa_to_text(d), d.state_count)
            new = _parse_outcome(lambda t: _fields(dfa_from_text(t)), text)
            assert new == _parse_outcome(_old_dfa_from_text, text), text
            outcomes.add(new[0] if new[0] == "ok" else new[1].split(":")[0].split(" ")[0])
        # Both parses, and each kind of error, occur.
        kinds = {"line", "missing", "transition", "transitions", "bad", "start", "accepting"}
        assert {"ok"} | kinds <= outcomes

    def test_unmutated_round_trip(self):
        for d in _kernel_inputs() + _written_inputs():
            text = dfa_to_text(d)
            assert _fields(dfa_from_text(text)) == _fields(d) == _old_dfa_from_text(text)

    def test_whole_text_read_is_taken(self, monkeypatch):
        # A read that always declined would pass every other test here.
        def line_loop(text):
            raise AssertionError("the line loop was reached")

        monkeypatch.setattr(dfa_module, "_read_lines", line_loop)
        for d in _written_inputs():
            assert _fields(dfa_from_text(dfa_to_text(d))) == _fields(d)

    def test_other_layouts_reach_the_line_loop(self):
        outcomes = set()
        for d in _written_inputs():
            for name, text in _layout_variants(dfa_to_text(d)).items():
                assert dfa_module._read_written(text) is None, name
                new = _parse_outcome(lambda t: _fields(dfa_from_text(t)), text)
                assert new == _parse_outcome(_old_dfa_from_text, text), name
                outcomes.add(new[0])
        assert outcomes == {"ok", "error"}

    @pytest.mark.parametrize("field", ["+1", "1_0", "٣", "١", "+1_2"])
    def test_numbers_are_ascii_decimal_numerals(self, field):
        text = "states: 2\nstart: 0\naccept: 1\ntrans: 0 0 1\ntrans: 0 1 0\ntrans: 0 B 0\n"
        text += "trans: 1 0 1\ntrans: 1 1 1\ntrans: 1 B 1\n"
        assert _fields(dfa_from_text(text)) == (((1, 0, 0), (1, 1, 1)), 0, frozenset({1}))
        lines = text.splitlines()
        for i, line in enumerate(lines):
            # Each number of each line in turn, not the symbol of a transition.
            kind, _, rest = line.partition(":")
            for j in range(len(rest.split())):
                if not (kind == "trans" and j == 1):
                    fields = rest.split()
                    fields[j] = field
                    bad = lines[:i] + [f"{kind}: {' '.join(fields)}"] + lines[i + 1:]
                    with pytest.raises(ValueError, match=rf"^line {i + 1}: cannot parse"):
                        dfa_from_text("\n".join(bad))

    def test_duplicate_found_before_a_bad_target(self):
        # The repeated transition (0, 1) is refused before its target is read.
        text = "states: 1\nstart: 0\naccept:\ntrans: 0 0 0\ntrans: 0 1 0\ntrans: 0 B 0\n"
        text += "trans: 0 1 0+\n"
        for parse in (dfa_from_text, _old_dfa_from_text):
            with pytest.raises(ValueError, match=r"^line 7: duplicate transition \(0, '1'\)$"):
                parse(text)

    def test_padded_header_with_a_later_bad_numeral(self):
        # A header's padding is no error in a text that holds a "+"; only the
        # bad numeral on line 6 is.
        text = "states:  1\nstart:  0\naccept:\ntrans: 0 0 0\ntrans: 0 1 0\ntrans: 0 B {}\n"
        assert _fields(dfa_from_text(text.format("0"))) == (((0, 0, 0),), 0, frozenset())
        for parse in (dfa_from_text, _old_dfa_from_text):
            with pytest.raises(ValueError, match=r"^line 6: cannot parse"):
                parse(text.format("+0"))

    def test_huge_state_header_fails_fast(self):
        text = "states: 1000000000000\nstart: 0\naccept:\ntrans: 0 0 0\n"
        with pytest.raises(ValueError, match=r"^transition table not total: missing \(0, 1\)$"):
            dfa_from_text(text)
