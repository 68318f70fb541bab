import operator

import pytest
from hypothesis import given, strategies as st

from equlat.dfa import (
    Dfa,
    Nfa,
    binary,
    dfa_from_text,
    dfa_to_text,
    equivalent,
    is_canonical_number,
    is_empty,
    minimize,
    pair_format_dfa,
    pair_word,
    product,
    subset_of,
)


@given(st.integers(0, 10**9))
def test_binary_is_canonical(n):
    w = binary(n)
    assert is_canonical_number(w)
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


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa([(0, 0)], 0, set())  # row too short
    with pytest.raises(ValueError):
        Dfa([(0, 0, 5)], 0, set())  # target out of range
    with pytest.raises(ValueError):
        Dfa([(0, 0, 0)], 3, set())  # start out of range


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
