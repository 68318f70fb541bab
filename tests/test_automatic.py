import math
import operator
import random

import pytest

from equlat import automatic as am
from equlat.automatic import (
    AutomaticEq,
    ValidationError,
    bitlength_relation,
    check_format,
    check_reflexive,
    check_symmetric,
    check_transitive,
    corpus,
    family_meet_demo,
    first_bit_differs_dfa,
    kernel_pair_dfa,
    shared_feature_dfa,
    shorter_than_dfa,
    singleton_family,
    universal_relation,
)
from equlat.dfa import Dfa, binary, minimize, pair_word, product, refine
from equlat.partition import Partition
from equlat.verify import _brute_axioms
from dfa_oracle import equivalent, is_empty


def _single_word_dfa(word):
    L = len(word)
    delta = []
    for p in range(L):
        delta.append(
            tuple(p + 1 if ch == word[p] else L + 1 for ch in ("0", "1", "B"))
        )
    delta.append((L + 1,) * 3)
    delta.append((L + 1,) * 3)
    return Dfa(delta, 0, {L})


class TestDecide:
    def test_reflexivity_on_samples(self):
        rel = corpus()["mod3"]
        assert all(rel.decide(m, m) for m in range(200))

    def test_symmetry_on_samples(self):
        rel = corpus()["bitlen4"]
        assert all(
            rel.decide(m, n) == rel.decide(n, m) for m in range(40) for n in range(40)
        )

    def test_same_bitlength_against_direct_comparison(self):
        rel = bitlength_relation(4)
        assert rel.decide(4, 7)
        assert not rel.decide(3, 4)
        for m in range(256):
            for n in range(0, 256, 7):
                expect = min(len(format(m, "b")), 4) == min(len(format(n, "b")), 4)
                assert rel.decide(m, n) == expect


class TestCheckFormat:
    def test_single_pair_word(self):
        assert check_format(_single_word_dfa("0B0"))

    def test_bare_separator_rejected(self):
        assert not check_format(_single_word_dfa("B"))

    def test_leading_zero_rejected(self):
        assert not check_format(_single_word_dfa("01B1"))


class TestCheckReflexive:
    def test_universal_is_reflexive(self):
        from equlat.dfa import pair_format_dfa

        assert check_reflexive(pair_format_dfa())

    def test_first_bit_differs_is_not(self):
        assert not check_reflexive(first_bit_differs_dfa())

    def test_agrees_with_enumeration_to_512(self):
        for dfa in (corpus()["parity"].dfa, first_bit_differs_dfa()):
            exact = check_reflexive(dfa)
            sampled = all(dfa.accepts(pair_word(m, m)) for m in range(512))
            assert exact == sampled


class TestCheckSymmetric:
    def test_same_length_is_symmetric(self):
        assert check_symmetric(bitlength_relation(3).dfa)

    def test_strict_order_is_not(self):
        assert not check_symmetric(shorter_than_dfa())

    def test_agrees_with_brute_force_to_128(self):
        for dfa in (corpus()["prefix2"].dfa, shorter_than_dfa()):
            brute = all(
                dfa.accepts(pair_word(m, n)) == dfa.accepts(pair_word(n, m))
                for m in range(128)
                for n in range(128)
            )
            assert check_symmetric(dfa) == brute


class TestCheckTransitive:
    def test_kernel_relation_is_transitive(self):
        assert check_transitive(bitlength_relation(3).dfa)

    def test_shared_feature_is_not(self):
        dfa = shared_feature_dfa()
        assert not check_transitive(dfa)
        # find an explicit witness by brute force
        witness = None
        for m in range(64):
            for n in range(64):
                if not dfa.accepts(pair_word(m, n)):
                    continue
                for p in range(64):
                    if dfa.accepts(pair_word(n, p)) and not dfa.accepts(pair_word(m, p)):
                        witness = (m, n, p)
                        break
                if witness:
                    break
            if witness:
                break
        assert witness is not None

    def test_agrees_with_brute_force(self):
        for dfa in (corpus()["mod3"].dfa, shared_feature_dfa()):
            assert _certified(dfa) == _brute_axioms(dfa)
        # u ~ v iff M[f(u)][f(v)] for a classifier f whose every feature is
        # realized below 64: the matrix's own axioms are the exact verdicts.
        rng = random.Random(20261017)
        verdicts = set()
        for kind in ("equivalence", "random", "symmetric-reflexive", "preorder") * 12:
            delta, start, key = _small_classifier(rng)
            realized = sorted({key[_classify(delta, start, v)] for v in range(64)})
            matrix = _feature_matrix(kind, realized, rng)
            dfa = kernel_pair_dfa(delta, start, key, accept=lambda a, b: matrix[a, b])
            expected = _matrix_axioms(matrix, realized)
            assert _certified(dfa) == expected, (kind, delta, key, matrix)
            assert _brute_axioms(dfa) == expected
            verdicts.add(expected)
        # every axiom both holds and fails somewhere in the sample
        assert all({v[i] for v in verdicts} == {True, False} for i in range(3))

    def test_perturbed_equivalences_sound(self):
        # one accepting state flipped or one digit edge retargeted: whatever
        # axiom the certifier accepts must hold on {0..63}
        rng = random.Random(20261018)
        rejected = 0
        for _ in range(60):
            delta, start, key = _small_classifier(rng)
            d = kernel_pair_dfa(delta, start, key)
            rows = [list(row) for row in d.delta]
            accepting = set(d.accepting)
            if rng.random() < 0.5:
                accepting ^= {rng.randrange(len(rows))}
            else:
                rows[rng.randrange(len(rows))][rng.randrange(2)] = rng.randrange(len(rows))
            perturbed = Dfa(rows, d.start, accepting)
            got = _certified(perturbed)
            brute = _brute_axioms(perturbed)
            assert all(b for g, b in zip(got, brute) if g), (rows, accepting)
            rejected += not all(got)
        assert rejected > 0


def _certified(dfa):
    return check_reflexive(dfa), check_symmetric(dfa), check_transitive(dfa)


def _small_classifier(rng):
    """Value mod k, capped numeral length, or both; features merged at random."""
    k = rng.randrange(1, 6)
    cap = rng.randrange(1, 7)
    mode = rng.choice(("mod", "len", "both"))
    if mode == "mod":
        cap = 0
    elif mode == "len":
        k = 1
    # state (residue, length); length 0 is the start and never a feature
    states = [(r, n) for r in range(k) for n in range(cap + 1)]
    idx = {st: i for i, st in enumerate(states)}
    delta = tuple(
        tuple(idx[((2 * r + bit) % k, min(n + 1, cap))] for bit in (0, 1))
        for r, n in states
    )
    merge = rng.randrange(2, len(states) + 2)
    key = {i: rng.randrange(merge) for i in range(len(states))}
    return delta, idx[(0, 0)], key


def _classify(delta, start, value):
    s = start
    for ch in format(value, "b"):
        s = delta[s][int(ch)]
    return s


def _feature_matrix(kind, feats, rng):
    if kind == "equivalence":
        label = {a: rng.randrange(len(feats)) for a in feats}
        return {(a, b): label[a] == label[b] for a in feats for b in feats}
    if kind == "random":
        return {(a, b): rng.random() < 0.5 for a in feats for b in feats}
    if kind == "preorder":
        rank = {a: rng.randrange(len(feats)) for a in feats}
        return {(a, b): rank[a] <= rank[b] for a in feats for b in feats}
    matrix = {}
    for i, a in enumerate(feats):
        for b in feats[i:]:
            matrix[a, b] = matrix[b, a] = a == b or rng.random() < 0.5
    return matrix


def _matrix_axioms(matrix, feats):
    refl = all(matrix[a, a] for a in feats)
    sym = all(matrix[a, b] == matrix[b, a] for a in feats for b in feats)
    trans = all(
        matrix[a, c]
        for a in feats
        for b in feats
        for c in feats
        if matrix[a, b] and matrix[b, c]
    )
    return refl, sym, trans


class TestValidation:
    def test_rejects_named_axiom(self):
        with pytest.raises(ValidationError) as err:
            AutomaticEq.from_dfa(shared_feature_dfa())
        assert err.value.axiom == "transitivity"

    def test_rejects_bad_format(self):
        with pytest.raises(ValidationError) as err:
            AutomaticEq.from_dfa(_single_word_dfa("01B1"))
        assert err.value.axiom == "format"

    def test_accepts_corpus(self):
        for rel in corpus().values():
            again = AutomaticEq.from_dfa(rel.dfa)
            assert equivalent(again.dfa, rel.dfa)


class TestRepresentatives:
    def test_universal(self):
        assert universal_relation().representatives() == [0]

    def test_bitlength_capped(self):
        assert bitlength_relation(4).representatives() == [0, 2, 4, 8]

    def test_class_count_bounded_by_states(self):
        for rel in corpus().values():
            assert rel.class_count <= rel.dfa.state_count

    def test_representatives_are_least(self):
        rel = corpus()["mod3"]
        reps = rel.representatives()
        for r in reps:
            assert all(not rel.decide(r, smaller) for smaller in range(r))


class TestMeet:
    def test_meet_with_universal_is_identity(self):
        a = corpus()["mod3"]
        assert equivalent(a.meet(universal_relation()).dfa, a.dfa)

    def test_meet_commutes_with_restriction(self):
        a, b = corpus()["parity"], corpus()["bitlen3"]
        assert a.meet(b).restrict(64) == a.restrict(64).meet(b.restrict(64))

    def test_state_bound(self):
        a, b = corpus()["parity"], corpus()["mod3"]
        raw = product(a.dfa, b.dfa, operator.and_)
        assert a.meet(b).dfa.state_count <= a.dfa.state_count * b.dfa.state_count
        assert raw.state_count <= a.dfa.state_count * b.dfa.state_count


class TestJoin:
    def test_join_idempotent(self):
        a = corpus()["bitlen3"]
        assert equivalent(a.join(a).dfa, a.dfa)

    def test_join_commutes_with_restriction(self):
        a, b = corpus()["mod4"], corpus()["bitlen4"]
        cert = a.join_certificate(b)
        assert cert.cutoff() <= 64
        assert cert.result.restrict(64) == a.restrict(64).join(b.restrict(64))

    def test_parity_low2_components_match_brute_force(self):
        a, b = corpus()["parity"], corpus()["low2"]
        joined = a.join(b)
        # brute force: the union graph on {0..63} is fully connected here
        assert joined.restrict(64) == Partition.top(64)
        assert joined.class_count == 1

    def test_chain_witnesses_imply_membership(self):
        a, b = corpus()["parity"], corpus()["bitlen3"]
        joined = a.join(b)
        # any explicit alternating chain forces the join to relate endpoints
        for m in range(16):
            for n in range(16):
                for mid in range(16):
                    if a.decide(m, mid) and b.decide(mid, n):
                        assert joined.decide(m, n)


# canonical numerals over {0,1,B}: 0 empty, 1 read "0", 2 read "1...", 3 dead
_CANONICAL = Dfa([(1, 2, 3), (3, 3, 3), (2, 2, 3), (3, 3, 3)], 0, {1, 2})


def _shortest_accepted(d):
    """Shortlex-least accepted word (symbol order 0 < 1 < B), or None."""
    words = {d.start: ""}
    queue = [d.start]
    for s in queue:
        if s in d.accepting:
            return words[s]
        for ch, t in zip("01B", d.delta[s]):
            if t not in words:
                words[t] = words[s] + ch
                queue.append(t)
    return None


def _pairwise_join(a, b):
    """The join as the per-class-pair search builds it: one minimized class
    language per class, a product and a shortest word per class pair, a
    union-find over the bipartite class graph, then the component kernel."""

    def languages(rel):
        d = rel.dfa
        seps = [d.run(binary(r) + "B") for r in rel.representatives()]
        return [
            minimize(product(
                Dfa(d.delta, d.start, {s for s in range(d.state_count) if d.delta[s][2] == r}),
                _CANONICAL, operator.and_,
            ))
            for r in seps
        ], seps

    left, seps = languages(a)
    right, _ = languages(b)
    edges, witnesses = [], {}
    for i, li in enumerate(left):
        for j, rj in enumerate(right):
            word = _shortest_accepted(product(li, rj, operator.and_))
            if word is not None:
                edges.append((i, j))
                witnesses[i, j] = int(word, 2)
    parent = list(range(len(left) + len(right)))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in edges:
        parent[root(i)] = root(len(left) + j)
    number = {}
    components = tuple(number.setdefault(root(i), len(number)) for i in range(len(left)))
    d = a.dfa
    key_of = {
        s: components[seps.index(d.delta[s][2])]
        for s in range(d.state_count) if d.delta[s][2] in seps
    }
    delta01 = tuple((row[0], row[1]) for row in d.delta)
    return {
        "left_representatives": tuple(a.representatives()),
        "right_representatives": tuple(b.representatives()),
        "edges": tuple(edges),
        "witnesses": list(witnesses.items()),
        "left_components": components,
        "result": minimize(kernel_pair_dfa(delta01, d.start, key_of)),
    }


def _certificate_fields(cert):
    return {
        "left_representatives": cert.left_representatives,
        "right_representatives": cert.right_representatives,
        "edges": cert.edges,
        "witnesses": list(cert.witnesses.items()),
        "left_components": cert.left_components,
        "result": cert.result.dfa,
    }


def _folded_singletons(indices):
    acc = singleton_family(indices[0])
    for i in indices[1:]:
        acc = acc.meet(singleton_family(i))
    return acc


def _fresh_relations(rng):
    """Corpus relations and seeded folded singleton meets, built anew."""
    out = dict(corpus.__wrapped__())
    for t in range(8):
        indices = rng.sample(range(1, 40), rng.randint(1, 6))
        out[f"singletons{t}"] = _folded_singletons(indices)
    return out


class TestJoinDifferential:
    def test_matches_pairwise_search(self):
        names = sorted(_fresh_relations(random.Random(5)))
        pairs = [(x, y) for x in names for y in names]
        new = _fresh_relations(random.Random(5))
        old = _fresh_relations(random.Random(5))
        for x, y in pairs:
            expected = _pairwise_join(old[x], old[y])
            got = _certificate_fields(new[x].join_certificate(new[y]))
            result, want = got.pop("result"), expected.pop("result")
            assert got == expected, (x, y)
            assert (result.delta, result.start, result.accepting) == (
                want.delta, want.start, want.accepting
            ), (x, y)


class TestCoarsen:
    def test_singleton_grouping_is_identity(self):
        a = corpus()["mod3"]
        grouped = a.coarsen([[0], [1], [2]])
        assert equivalent(grouped.dfa, a.dfa)

    def test_single_block_is_universal(self):
        a = corpus()["mod3"]
        assert equivalent(a.coarsen([[0, 1, 2]]).dfa, universal_relation().dfa)

    def test_coarsening_is_above_and_counts_blocks(self):
        a = corpus()["mod4"]
        grouped = a.coarsen([[0, 2], [1, 3]])
        assert grouped.class_count == 2
        assert a.restrict(128).leq(grouped.restrict(128))

    def test_bad_groupings_rejected(self):
        a = corpus()["mod3"]
        with pytest.raises(ValueError):
            a.coarsen([[0, 1]])  # class 2 missing
        with pytest.raises(ValueError):
            a.coarsen([[0, 1], [1, 2]])  # duplicate
        with pytest.raises(ValueError):
            a.coarsen([[0, 1, 2], []])  # empty block


class TestSingletonFamily:
    def test_membership(self):
        rel = singleton_family(3)
        assert not rel.decide(3, 5)
        assert rel.decide(4, 5)
        assert rel.decide(3, 3)

    def test_growth_counts(self):
        assert family_meet_demo(1) == [2]
        assert family_meet_demo(4) == [2, 3, 4, 5]

    def test_family_members_have_two_classes(self):
        for i in (1, 2, 5, 9):
            assert singleton_family(i).class_count == 2
            assert singleton_family(i).representatives() == sorted({0 if i else 1, i})


class TestMinimizeEquivalent:
    def test_minimize_idempotent(self):
        d = corpus()["prefix2"].dfa
        assert minimize(minimize(d)).state_count == minimize(d).state_count

    def test_equivalent_to_minimized(self):
        d = corpus()["low2"].dfa
        assert equivalent(d, minimize(d))

    def test_two_constructions_same_language(self):
        injected = kernel_pair_dfa(
            # a wasteful tracker with duplicated states, same capped length
            tuple((min(s + 1, 6), min(s + 1, 6)) for s in range(7)),
            0,
            {s: min(s, 3) for s in range(7)},
        )
        assert equivalent(minimize(injected), bitlength_relation(3).dfa)


class TestUpwardClosure:
    def test_coarsenings_stay_automatic(self):
        # any union of classes is again decided by some DFA; coarsen builds it
        a = corpus()["mod4"]
        for blocks in ([[0, 1], [2], [3]], [[0, 3], [1, 2]], [[0, 1, 2, 3]]):
            grouped = a.coarsen(blocks)
            again = AutomaticEq.from_dfa(grouped.dfa)  # passes all axioms
            assert again.class_count == len(blocks)


def _queue_kernel_pair_dfa(delta01, start, key_of, accept=operator.eq):
    """The queue-and-intern construction ``kernel_pair_dfa`` replaced, with
    ``accept`` given the left numeral's key first."""
    from collections import deque

    from equlat.automatic import _TRK, _TRK_DONE

    missing = object()

    def key(s):
        return key_of.get(s, missing)

    dead = ("dead",)
    index = {dead: 0, ("l", start, 0): 1}
    queue = deque([dead, ("l", start, 0)])
    rows = [None, None]
    accepting = set()

    def intern(node):
        if node not in index:
            index[node] = len(index)
            rows.append(None)
            queue.append(node)
        return index[node]

    while queue:
        node = queue.popleft()
        i = index[node]
        if rows[i] is not None:
            continue
        if node == dead:
            rows[i] = [0, 0, 0]
            continue
        if node[0] == "l":
            _, s, trk = node
            row = [
                0 if t == 3 else intern(("l", delta01[s][b], t)) for b, t in enumerate(_TRK[trk])
            ]
            row.append(intern(("r", start, 0, key(s))) if trk in _TRK_DONE else 0)
        else:
            _, s, trk, want = node
            row = [
                0 if t == 3 else intern(("r", delta01[s][b], t, want))
                for b, t in enumerate(_TRK[trk])
            ]
            row.append(0)
            if trk in _TRK_DONE and key(s) is not missing and want is not missing:
                if accept(want, key(s)):
                    accepting.add(i)
        rows[i] = row
    return Dfa(rows, 1, accepting)


class TestKernelPairDfaMatchesQueue:
    def test_seeded_classifiers(self):
        rng = random.Random(44)
        near = lambda x, y: abs(x - y) <= 1  # noqa: E731
        for _ in range(150):
            delta, start, key = _small_classifier(rng)
            if rng.random() < 0.3:  # states left out of key_of
                key = {s: f for s, f in key.items() if rng.random() < 0.7}
            for accept in (operator.eq, operator.ne, operator.lt, near):
                got = kernel_pair_dfa(delta, start, key, accept)
                want = _queue_kernel_pair_dfa(delta, start, key, accept)
                assert (got.delta, got.start, got.accepting) == (
                    want.delta, want.start, want.accepting
                )


def test_numerals_keep_zero_least_when_reached_again():
    # "0" and "10" both end in state 1; 0 stays its least value and first key.
    from equlat.automatic import _numerals

    delta = ((1, 2, 0), (1, 1, 0), (1, 2, 0))
    least = _numerals((delta, 0))
    assert list(least.items()) == [((1,), 0), ((2,), 1)]


# -- the one class table against the loops it replaced --------------------------

_OLD_MESSAGES = {
    "format": "accepts words outside 'numeral B numeral'",
    "reflexivity": "some w B w is rejected",
    "symmetry": "language differs from its swap",
    "transitivity": "class languages are not nested",
}


def _old_subset_of(a, b):
    """The containment test transitivity used: a product and a reachability
    scan over the whole pair alphabet."""
    return is_empty(product(a, b, lambda x, y: x and not y))


def _old_classes(d):
    """The class loop ``AutomaticEq._classes`` ran on its own numeral BFS."""
    from equlat.automatic import _numerals

    index, reps, state_class = {}, [], {}
    for (s,), least in _numerals((d.delta, d.start)).items():
        r = d.delta[s][2]
        if r not in index:
            index[r] = len(reps)
            reps.append(least)
        state_class[s] = index[r]
    return state_class, tuple(reps)


def _old_axioms(clean):
    """Reflexivity, symmetry and transitivity as the class table read them
    before, with one ``_old_subset_of`` product per overlapping class pair."""
    from equlat.automatic import _numerals

    class_of = [row[2] for row in clean.delta]
    classes = {class_of[s] for (s,) in _numerals((clean.delta, clean.start))}
    answers = {}
    for r in classes:
        for (p, q) in _numerals((clean.delta, clean.start), (clean.delta, r)):
            answers.setdefault((class_of[p], r), set()).add(q in clean.accepting)
    at = lambda s: Dfa(clean.delta, s, clean.accepting)  # noqa: E731
    return [
        ("reflexivity", all(answers[r, r] == {True} for r in classes)),
        ("symmetry", all(
            len(seen) == 1 and seen == answers[r, r2] for (r2, r), seen in answers.items()
        )),
        ("transitivity", all(
            _old_subset_of(at(r2), at(r))
            for (r2, r), seen in answers.items()
            if r2 != r and True in seen
        )),
    ]


def _old_admission(d):
    """The parent's rows, and its ``from_dfa`` outcome: the first failing
    axiom with its message, or the clean automaton's fields."""
    from equlat.automatic import _format_product

    well_formed, clean = _format_product(d)
    clean = minimize(clean)
    rows = [("format", well_formed)] + _old_axioms(clean)
    failed = next((axiom for axiom, holds in rows if not holds), None)
    outcome = (failed, _OLD_MESSAGES[failed]) if failed else (clean.delta, clean.start, clean.accepting)
    return rows, outcome, clean


def _perturbed_dfas(seed, count):
    """Kernel and matrix pair automata from small classifiers, each with one
    accepting state flipped or one edge (digit or separator) retargeted."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        delta, start, key = _small_classifier(rng)
        if i % 2:
            d = kernel_pair_dfa(delta, start, key)
        else:
            realized = sorted({key[_classify(delta, start, v)] for v in range(64)})
            kind = rng.choice(("equivalence", "random", "symmetric-reflexive", "preorder"))
            matrix = _feature_matrix(kind, realized, rng)
            d = kernel_pair_dfa(delta, start, key, accept=lambda a, b, m=matrix: m.get((a, b), False))
        rows = [list(row) for row in d.delta]
        accepting = set(d.accepting)
        roll = rng.random()
        if roll < 0.3:
            accepting ^= {rng.randrange(len(rows))}
        elif roll < 0.6:
            rows[rng.randrange(len(rows))][rng.randrange(3)] = rng.randrange(len(rows))
        out.append(Dfa(rows, d.start, accepting))
    return out


def _table_inputs():
    from equlat.automatic import corpus as fresh_corpus

    controls = [first_bit_differs_dfa(), shorter_than_dfa(), shared_feature_dfa()]
    corpus_dfas = [rel.dfa for rel in fresh_corpus.__wrapped__().values()]
    return corpus_dfas + controls + _perturbed_dfas(20261019, 160)


class TestClassTableMatchesOldLoops:
    def test_inputs_fail_every_axiom(self):
        outcomes = {_old_admission(d)[1][0] for d in _table_inputs()}
        assert {"format", "reflexivity", "symmetry", "transitivity"} <= outcomes
        assert any(type(o) is tuple for o in outcomes)  # and some are admitted

    def test_rows_outcomes_and_representatives(self):
        from equlat.automatic import admission_checks, check_format

        separate = (check_format, check_reflexive, check_symmetric, check_transitive)
        for d in _table_inputs():
            rows, outcome, clean = _old_admission(d)
            assert admission_checks(d) == rows
            assert [check(d) for check in separate] == [holds for _, holds in rows]
            try:
                rel = AutomaticEq.from_dfa(d)
            except ValidationError as exc:
                got = (exc.axiom, str(exc).split(": ", 1)[1])
            else:
                got = (rel.dfa.delta, rel.dfa.start, rel.dfa.accepting)
                state_class, reps = _old_classes(clean)
                assert rel._table.state_class == state_class
                assert rel.representatives() == list(reps)
            assert got == outcome

    def test_trusted_results_build_their_dfa_once(self):
        rels = list(corpus.__wrapped__().values())
        for a in rels:
            admitted = AutomaticEq.from_dfa(a.dfa)
            assert admitted._table is not None  # the certified one, kept
            assert admitted._classifier is None  # read off it on first use
            for b in rels[:4]:
                meet = a.meet(b)
                assert meet._dfa is None and meet._table is None
                d = meet.dfa
                assert meet.dfa is d
                assert _fields(d) == _fields(_old_meet(a, b))
                assert _view(meet) == _old_view(d)

    def test_repr_reads_only_the_classifier(self, monkeypatch):
        rels = corpus.__wrapped__()
        a, b = rels["parity"], rels["bitlen3"]
        monkeypatch.setattr(am, "kernel_pair_dfa", None)  # any call would raise
        for rel in (a.join(b), a.meet(b)):
            states = len(rel._classes()[0])
            assert repr(rel) == f"AutomaticEq(classes={rel.class_count}, states={states})"
            assert rel._dfa is None

    def test_join_certificates_on_admitted_relations(self):
        admitted = []
        for d in _table_inputs():
            try:
                admitted.append(AutomaticEq.from_dfa(d))
            except ValidationError:
                pass
        assert len(admitted) > 20
        rng = random.Random(3)
        for _ in range(60):
            a, b = rng.choice(admitted), rng.choice(admitted)
            expected = _pairwise_join(a, b)
            got = _certificate_fields(a.join_certificate(b))
            result, want = got.pop("result"), expected.pop("result")
            assert got == expected
            assert (result.delta, result.start, result.accepting) == (
                want.delta, want.start, want.accepting
            )


# -- the joint numeral BFS and its per-class fallback ---------------------------

def _clean(d):
    from equlat.automatic import _format_product

    return minimize(_format_product(d)[1])


def _answers(clean, joint):
    """The class table's answers, and whether the joint BFS filled them.
    With ``joint=False`` every bounded search reports an overflow, so the
    pass over pairs of states fills the table."""
    import equlat.automatic as am

    real, took = am._numerals, []

    def numerals(*automata, limit=math.inf):
        out = real(*automata, limit=limit) if joint or limit == math.inf else None
        if limit < math.inf:
            took.append(out is not None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(am, "_numerals", numerals)
        answers = am._ClassTable(clean).answers
    assert len(took) == 1
    return answers, took[0]


def _mod3_target_dfa():
    """u ~ v iff v = 0 (mod 3), by hand: whatever u is, B enters one class
    whose part counts v mod 3.  Not reflexive (1 is not related to 1)."""
    # 0 start, 1 u = 0, 2 u = 1..., 3 the class entry, 4 v = 0,
    # 5/6/7 v = 1... with v mod 3 = 0/1/2, 8 dead
    delta = [
        (1, 2, 8), (8, 8, 3), (2, 2, 3), (4, 6, 8), (8, 8, 8),
        (5, 6, 8), (7, 5, 8), (6, 7, 8), (8, 8, 8),
    ]
    return Dfa(delta, 0, {4, 5})


def _per_class_answers(table):
    """The table as the pass over pairs of states replaced it: one pair BFS
    from (start, entry) per class, each through ``_numerals``."""
    from equlat.automatic import _numerals

    d = table.dfa
    answers = [[0] * len(table.entries) for _ in table.entries]
    for j, entry in enumerate(table.entries):
        for p, q in _numerals((d.delta, d.start), (d.delta, entry)):
            answers[table.state_class[p]][j] |= 2 if q in d.accepting else 1
    return answers


class TestJointAnswers:
    def test_joint_and_per_class_tables_agree(self):
        for d in _table_inputs() + _perturbed_dfas(7, 500):
            clean = _clean(d)
            joint, _ = _answers(clean, joint=True)
            pairs, took_joint = _answers(clean, joint=False)
            assert not took_joint and joint == pairs == _per_class_answers(am._ClassTable(clean))

    def test_pair_pass_on_random_dfas_to_the_cli_limit(self):
        from equlat.cli import LIMITS

        limit = LIMITS["dfa"].value
        rng = random.Random(20261020)
        sizes = [rng.randint(2, 64) for _ in range(30)] + [limit]
        overflowed = 0
        for n in sizes:
            delta = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(n)]
            d = Dfa(delta, rng.randrange(n), {s for s in range(n) if rng.random() < 0.3})
            table = am._ClassTable(_clean(d))
            pairs, took_joint = _answers(table.dfa, joint=True)
            overflowed += not took_joint
            assert pairs == _per_class_answers(table)
        assert overflowed > 20 and max(sizes) == limit

    def test_only_non_equivalences_fall_back(self):
        # Every admitted input takes the joint path, which is where the
        # saving lies.  The count of rejected inputs that fall back is
        # pinned for these seeded inputs (of 1,137 rejected); the pair
        # automata of asymmetric matrices accept(key(u), key(v)) on u B v.
        fallbacks = admitted = 0
        for d in _table_inputs() + _perturbed_dfas(7, 1500):
            _, took_joint = _answers(_clean(d), joint=True)
            try:
                AutomaticEq.from_dfa(d)
            except ValidationError:
                fallbacks += not took_joint
            else:
                admitted += 1
                assert took_joint
        assert (admitted, fallbacks) == (537, 236)

    def test_mod3_target_overflows_and_fails_reflexivity(self):
        from equlat.automatic import _ClassTable, _numerals, admission_checks

        d = _mod3_target_dfa()
        assert minimize(d).state_count == 9 and equivalent(d, _clean(d))
        table = _ClassTable(_clean(d))
        assert len(table.state_class) == 2 and len(table.entries) == 1
        automata = [(table.dfa.delta, s) for s in (table.dfa.start, *table.entries)]
        assert len(_numerals(*automata)) == 4 and _numerals(*automata, limit=2) is None
        assert _answers(table.dfa, joint=True) == ([[3]], False)
        assert admission_checks(d) == [
            ("format", True), ("reflexivity", False), ("symmetry", False), ("transitivity", True)
        ]
        assert [(u, v) for u in range(7) for v in range(7) if d.accepts(pair_word(u, v))] == [
            (u, v) for u in range(7) for v in (0, 3, 6)
        ]

    def test_numerals_limit(self):
        from equlat.automatic import _numerals

        rng = random.Random(5)
        cases = [[((1, 2, 0), (1, 1, 0), (1, 2, 0))]]  # "0" and "10" share a state
        for _ in range(40):
            n = rng.randrange(1, 7)
            cases.append([
                tuple(tuple(rng.randrange(n) for _ in range(3)) for _ in range(n))
                for _ in range(rng.randrange(1, 4))
            ])
        for deltas in cases:
            automata = [(delta, 0) for delta in deltas]
            full = _numerals(*automata)
            for limit in range(len(full) + 2):
                bounded = _numerals(*automata, limit=limit)
                assert bounded == (None if len(full) > limit else full)


# -- classifiers against the pair-DFA path they replaced -------------------------

def _old_meet(a, b):
    """The pair-DFA meet: the product of the two automata, minimized."""
    return minimize(product(a.dfa, b.dfa, operator.and_))


def _old_coarsen(rel, blocks):
    """The pair-DFA coarsen: the kernel pair automaton of the automaton's
    digit columns, each numeral state keyed by its class's block."""
    state_class, _ = _old_classes(rel.dfa)
    block_of = {c: b for b, block in enumerate(blocks) for c in block}
    key_of = {s: block_of[c] for s, c in state_class.items()}
    return minimize(kernel_pair_dfa(tuple(row[:2] for row in rel.dfa.delta), rel.dfa.start, key_of))


def _fields(d):
    return d.delta, d.start, d.accepting


def _old_view(d):
    """Representatives, class count and the class numbers of 0..63, read off
    a pair automaton by the old class loop."""
    state_class, reps = _old_classes(d)
    return list(reps), len(reps), [state_class[d.run(binary(x))] for x in range(64)]


def _view(rel):
    return rel.representatives(), rel.class_count, [rel.key(x) for x in range(64)]


def _is_minimal(rel):
    """Moore refinement leaves the classifier as it is: meets skip it."""
    delta, start, labels = rel._classes()
    return refine(delta, start, labels.__getitem__) == (tuple(delta), labels)


def _groupings(count):
    """Identity, neighbouring pairs, all in one, and the last class alone."""
    out = [[[c] for c in range(count)], [list(range(c, min(c + 2, count))) for c in range(0, count, 2)]]
    out.append([list(range(count))])
    if count > 1:
        out.append([list(range(count - 1)), [count - 1]])
    return out


class TestClassifiersMatchPairDfaPath:
    def test_corpus_meets_and_joins(self):
        rels = corpus.__wrapped__()
        for x, a in rels.items():
            for y, b in rels.items():
                meet, want = a.meet(b), _old_meet(a, b)
                assert _is_minimal(meet)
                assert equivalent(meet.dfa, want) and _fields(meet.dfa) == _fields(want), (x, y)
                assert meet.restrict(64) == a.restrict(64).meet(b.restrict(64))
                assert _view(meet) == _old_view(want), (x, y)
                cert = a.join_certificate(b)
                expected = _pairwise_join(a, b)
                got = _certificate_fields(cert)
                result, want = got.pop("result"), expected.pop("result")
                assert got == expected, (x, y)
                assert equivalent(result, want) and _fields(result) == _fields(want), (x, y)
                assert cert.result.restrict(64) == a.restrict(64).join(b.restrict(64))
                assert _view(cert.result) == _old_view(want), (x, y)

    def test_corpus_coarsenings(self):
        for name, rel in corpus.__wrapped__().items():
            assert _view(rel) == _old_view(rel.dfa), name
            for blocks in _groupings(rel.class_count):
                got, want = rel.coarsen(blocks), _old_coarsen(rel, blocks)
                assert equivalent(got.dfa, want) and _fields(got.dfa) == _fields(want)
                assert got.restrict(64) == Partition.from_key(64, _old_view(want)[2].__getitem__)
                assert _view(got) == _old_view(want), (name, blocks)

    def test_folded_singleton_meets_to_64(self):
        acc, old = singleton_family(1), singleton_family(1).dfa
        counts = [acc.class_count]
        for i in range(2, 65):
            acc = acc.meet(singleton_family(i))
            assert _is_minimal(acc)
            old = minimize(product(old, singleton_family(i).dfa, operator.and_))
            counts.append(len(_old_classes(old)[1]))
            if i % 16 == 0:
                assert _fields(acc.dfa) == _fields(old) and _view(acc) == _old_view(old)
        assert counts == family_meet_demo(64) == list(range(2, 66))

    def test_seeded_join_certificates(self):
        # Constructed meets and the same relations admitted from their pair
        # automata: the two kinds of classifier, mixed in every pair.
        rng = random.Random(21)
        rels = _fresh_relations(rng)
        names = sorted(rels)
        for _ in range(12):
            x, y = rng.choice(names), rng.choice(names)
            rels[f"{x}^{y}"] = rels[x].meet(rels[y])
        pool = list(rels.values()) + [AutomaticEq.from_dfa(r.dfa) for r in rels.values()]
        assert all(_is_minimal(a.meet(b)) for a in pool[::3] for b in pool[1::3])
        for _ in range(80):
            a, b = rng.choice(pool), rng.choice(pool)
            expected = _pairwise_join(a, b)
            got = _certificate_fields(a.join_certificate(b))
            result, want = got.pop("result"), expected.pop("result")
            assert got == expected
            assert _fields(result) == _fields(want)
            assert expected["left_representatives"] == tuple(_old_view(a.dfa)[0])
            assert expected["right_representatives"] == tuple(_old_view(b.dfa)[0])


def test_kernel_pair_dfa_reads_the_left_numeral_first():
    d = shorter_than_dfa()
    assert d.accepts(pair_word(1, 4)) and not d.accepts(pair_word(4, 1))
    assert not d.accepts(pair_word(3, 3))  # still no reflexive control
