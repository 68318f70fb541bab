import random
from functools import lru_cache

import pytest

from equlat.automatic import corpus
from equlat.cli import parse_decider_expr
from equlat.constructions import BUILTIN_PREDICATES
from equlat.decider import (
    DeciderEq,
    NotAnEquivalence,
    NotWithinBounds,
    RelatedWitness,
    axiom_counterexamples,
    bottom_decider,
    bounded_join,
    from_partition,
    least_element_complement,
    meet_combinator,
    parity_decider,
    singular_from_predicate,
    top_decider,
    verify_chain,
)
from equlat.partition import Partition, SmallEq, random_partition
from equlat.tm import zoo


def _stripped(d: DeciderEq) -> DeciderEq:
    """The same relation as a black box: no key, so the generic scans run."""
    return DeciderEq(d.decide, check_bound=0)


def _keyed_builtins() -> dict[str, DeciderEq]:
    rng = random.Random(8)
    out = {
        "bottom": bottom_decider(),
        "top": top_decider(),
        "parity": parity_decider(),
        "from_partition": from_partition(random_partition(9, rng)),
    }
    for name, pred in BUILTIN_PREDICATES.items():
        out[f"singular({name})"] = singular_from_predicate(pred)
    out["meet"] = meet_combinator(out["parity"], out["singular(prime)"])
    return out


class TestRegistration:
    def test_non_equivalence_is_a_construction_error(self):
        with pytest.raises(NotAnEquivalence) as exc:
            DeciderEq(lambda m, n: abs(m - n) <= 1, cost_note="near")
        assert str(exc.value) == "not transitive at (0, 1, 2)"

    def test_asymmetric_rejected(self):
        with pytest.raises(NotAnEquivalence) as exc:
            DeciderEq(lambda m, n: m <= n)
        assert str(exc.value) == "not symmetric at (1, 0)"

    def test_irreflexive_rejected(self):
        with pytest.raises(NotAnEquivalence) as exc:
            DeciderEq(lambda m, n: m != n)
        assert str(exc.value) == "not reflexive at 0"

    def test_sampled_check_function(self):
        d = singular_from_predicate(lambda x: x % 2 == 0)
        assert axiom_counterexamples(d.decide, 64) == (None, None, None)

    def test_sampled_check_flags_near_relation(self):
        # skip the registration gate to probe the checker itself
        near = DeciderEq(lambda m, n: abs(m - n) <= 1, check_bound=0)
        assert axiom_counterexamples(near.decide, 32) == (None, None, (0, 1, 2))  # 0~1~2 but not 0~2


class TestBuiltins:
    def test_bottom_top(self):
        assert bottom_decider().decide(4, 4)
        assert not bottom_decider().decide(4, 5)
        assert top_decider().decide(4, 5)

    def test_restrict_of_top(self):
        assert top_decider().restrict(4) == Partition.top(4)

    def test_singular_from_predicate(self):
        even = singular_from_predicate(lambda x: x % 2 == 0)
        assert even.decide(2, 4)
        assert not even.decide(1, 3)
        assert even.decide(3, 3)

    def test_predicate_extremes(self):
        nothing = singular_from_predicate(lambda x: False)
        everything = singular_from_predicate(lambda x: True)
        assert nothing.restrict(5) == Partition.bottom(5)
        assert everything.restrict(5) == Partition.top(5)


class TestMeetCombinator:
    def test_meet_with_top_is_identity_on_samples(self):
        d = parity_decider()
        m = meet_combinator(d, top_decider())
        assert all(
            m.decide(x, y) == d.decide(x, y) for x in range(30) for y in range(30)
        )

    def test_meet_self(self):
        d = parity_decider()
        m = meet_combinator(d, d)
        assert all(
            m.decide(x, y) == d.decide(x, y) for x in range(20) for y in range(20)
        )

    def test_meet_commutes_with_restriction(self):
        rng = random.Random(11)
        for _ in range(30):
            p1 = random_partition(12, rng)
            p2 = random_partition(12, rng)
            d = meet_combinator(from_partition(p1), from_partition(p2))
            assert d.restrict(12) == p1.meet(p2)

    def test_black_box_meet_runs_no_registration_check(self):
        calls = []

        def counting(d):
            return DeciderEq(lambda m, n: calls.append(d) or d.decide(m, n))

        a = counting(parity_decider())
        b = counting(singular_from_predicate(BUILTIN_PREDICATES["prime"]))
        calls.clear()
        meet = meet_combinator(a, b)
        assert calls == []
        assert meet.restrict(40) == a.restrict(40).meet(b.restrict(40))


class TestLeastElementComplement:
    def test_of_top_is_bottom(self):
        c = least_element_complement(top_decider())
        assert c.restrict(8) == Partition.bottom(8)
        assert not c.decide(0, 5)
        assert c.decide(5, 5)

    def test_of_bottom_is_top(self):
        c = least_element_complement(bottom_decider())
        assert c.restrict(8) == Partition.top(8)

    def test_matches_partition_construction(self):
        rng = random.Random(5)
        for _ in range(25):
            p = random_partition(rng.randrange(1, 11), rng)
            d = least_element_complement(from_partition(p))
            n = p.universe_size
            assert d.restrict(n) == p.least_element_complement()

    def test_output_is_complement_of_source(self):
        rng = random.Random(6)
        for _ in range(10):
            p = random_partition(8, rng)
            d = least_element_complement(from_partition(p))
            assert axiom_counterexamples(d.decide, 24) == (None, None, None)
            assert p.is_complement(d.restrict(8))


class TestBoundedJoin:
    def test_reflexive_trivial_chain(self):
        d = parity_decider()
        res = bounded_join(d, d, 5, 5, 10, 3)
        assert isinstance(res, RelatedWitness)
        assert res.chain == (5,)

    def test_bottom_pair_not_within_bounds(self):
        b = bottom_decider()
        res = bounded_join(b, b, 0, 1, 10, 10)
        assert isinstance(res, NotWithinBounds)

    def test_oracle_against_partition_join(self):
        rng = random.Random(3)
        for _ in range(15):
            u = rng.randrange(2, 9)
            p1 = random_partition(u, rng)
            p2 = random_partition(u, rng)
            d1, d2 = from_partition(p1), from_partition(p2)
            joined = p1.join(p2)
            for m in range(u):
                for n in range(u):
                    res = bounded_join(d1, d2, m, n, u, 2 * u)
                    if joined.related(m, n):
                        assert isinstance(res, RelatedWitness)
                        assert verify_chain(d1, d2, res, u, 2 * u)
                    else:
                        assert isinstance(res, NotWithinBounds)

    def test_chain_elements_stay_in_universe(self):
        d1 = from_partition(Partition.from_classes([{0, 5}, {1}, {2}, {3}, {4}]))
        d2 = from_partition(Partition.from_classes([{5, 3}, {0}, {1}, {2}, {4}]))
        res = bounded_join(d1, d2, 0, 3, 6, 4)
        assert isinstance(res, RelatedWitness)
        assert all(x < 6 for x in res.chain)
        assert len(res.chain) - 1 <= 4

    def test_explicit_candidate_collection(self):
        d = parity_decider()
        res = bounded_join(d, d, 2, 8, [2, 8, 5], 3)
        assert isinstance(res, RelatedWitness)

    def test_endpoints_must_be_in_universe(self):
        with pytest.raises(ValueError):
            bounded_join(parity_decider(), parity_decider(), 5, 1, [1, 2], 3)

    def test_universe_of_naturals_only(self):
        with pytest.raises(ValueError, match="naturals only"):
            bounded_join(parity_decider(), parity_decider(), 1, 2, [-1, 1, 2], 3)


class TestKeyed:
    def test_which_relations_carry_keys(self):
        for name, d in _keyed_builtins().items():
            assert d.key is not None, name
        assert least_element_complement(parity_decider()).key is not None
        thirds = DeciderEq(lambda m, n: m % 3 == n % 3)
        assert thirds.key is None
        # The complement of a black box is keyed too, and so is its meet.
        complement = least_element_complement(thirds)
        assert complement.key is not None
        assert meet_combinator(parity_decider(), complement).key is not None
        assert meet_combinator(thirds, complement).key is None

    def test_from_key_decides_the_kernel(self):
        d = DeciderEq.from_key(lambda x: x // 3, cost_note="thirds")
        assert d.decide(3, 5) and not d.decide(2, 3)
        assert axiom_counterexamples(d.decide, 40) == (None, None, None)
        assert d.restrict(7) == Partition.from_classes([{0, 1, 2}, {3, 4, 5}, {6}])

    def test_builtins_decide_as_before(self):
        # The closed-form predicates the keyed builtins replace.
        rng = random.Random(9)
        part = random_partition(9, rng)
        even = BUILTIN_PREDICATES["even"]
        cases = [
            (bottom_decider(), lambda m, n: m == n),
            (top_decider(), lambda m, n: True),
            (parity_decider(), lambda m, n: m % 2 == n % 2),
            (singular_from_predicate(even), lambda m, n: m == n or (even(m) and even(n))),
            (
                from_partition(part),
                lambda m, n: m == n or (m < 9 and n < 9 and part.related(m, n)),
            ),
        ]
        for d, expect in cases:
            assert all(d.decide(m, n) == expect(m, n) for m in range(20) for n in range(20))

    def test_restrict_equals_scan_for_every_builtin(self):
        relations = dict(_keyed_builtins())
        relations["complement"] = least_element_complement(parity_decider())
        for name, d in relations.items():
            for n in (1, 2, 9, 40):
                assert d.restrict(n) == _stripped(d).restrict(n), (name, n)

    def test_smalleq_and_automatic_restrict_equal_scan(self):
        rng = random.Random(10)
        for _ in range(20):
            s = SmallEq.singular(rng.sample(range(12), rng.randrange(6)), 12)
            n = rng.randrange(1, 30)
            assert s.restrict(n) == DeciderEq(s.related, check_bound=0).restrict(n)
        for name, rel in corpus().items():
            assert rel.restrict(100) == DeciderEq(rel.decide, check_bound=0).restrict(100), name

    def test_scan_still_rejects_non_equivalences(self):
        with pytest.raises(NotAnEquivalence, match="not reflexive"):
            DeciderEq(lambda m, n: m != n, check_bound=0).restrict(3)


def _scan_join(d1, d2, m, n, universe, chain_bound):
    """The pairwise-scanning search that the bucketed one replaced, kept as
    the oracle: level by level, each point tests every unvisited candidate
    in ascending order."""
    candidates = list(range(universe)) if isinstance(universe, int) else sorted(set(universe))
    if m == n:
        return RelatedWitness((m,), ())
    parent = {m: m}
    frontier = [m]
    for _ in range(chain_bound):
        next_frontier = []
        for x in frontier:
            for y in candidates:
                if y not in parent and (d1.decide(x, y) or d2.decide(x, y)):
                    parent[y] = x
                    if y == n:
                        chain = [y]
                        while chain[-1] != m:
                            chain.append(parent[chain[-1]])
                        chain.reverse()
                        links = tuple(
                            "left" if d1.decide(a, b) else "right"
                            for a, b in zip(chain, chain[1:])
                        )
                        return RelatedWitness(tuple(chain), links)
                    next_frontier.append(y)
        frontier = next_frontier
    return NotWithinBounds(explored=len(parent))


def _join_variants(d1: DeciderEq, d2: DeciderEq, *args):
    """The oracle's answer, then bounded_join on the keyed pair, both mixed
    pairs and the black-box pair."""
    s1, s2 = _stripped(d1), _stripped(d2)
    pairs = ((d1, d2), (d1, s2), (s1, d2), (s1, s2))
    return [_scan_join(d1, d2, *args)] + [bounded_join(a, b, *args) for a, b in pairs]


class TestKeyedJoinMatchesScan:
    """Bucketed, mixed and scanning searches return the oracle's chain, links
    and explored count."""

    def test_seeded_random_keys(self):
        rng = random.Random(12)
        for _ in range(200):
            top = rng.randrange(2, 60)
            # Few classes, so points have several paths and the visiting
            # order decides which chain is found.
            classes = max(1, top // rng.choice((2, 3, 4)))
            tables = [[rng.randrange(classes) for _ in range(top)] for _ in "ab"]
            d1 = DeciderEq.from_key(tables[0].__getitem__)
            d2 = DeciderEq.from_key(tables[1].__getitem__)
            if rng.random() < 0.5:
                universe = top
                pool = list(range(top))
            else:
                pool = rng.sample(range(top), rng.randrange(1, top + 1))
                universe = pool
            m, n = rng.choice(pool), rng.choice(pool)
            results = _join_variants(d1, d2, m, n, universe, rng.randrange(0, 8))
            assert all(r == results[0] for r in results), results

    def test_builtin_pairs(self):
        rng = random.Random(13)
        relations = list(_keyed_builtins().values())
        for _ in range(60):
            d1, d2 = rng.choice(relations), rng.choice(relations)
            u = rng.randrange(2, 80)
            m, n = rng.randrange(u), rng.randrange(u)
            results = _join_variants(d1, d2, m, n, u, rng.randrange(1, 6))
            assert all(r == results[0] for r in results)

    def test_int_universe_matches_its_list(self):
        # An int universe is walked as its range, unsorted; the equal list
        # must give the same result and make the same black-box tests, in
        # the same order.
        def logged(d, log):
            def fn(a, b):
                log.append((a, b))
                return d.decide(a, b)

            return DeciderEq(fn, check_bound=0)

        rng = random.Random(15)
        relations = list(_keyed_builtins().values())
        for _ in range(80):
            d1, d2 = rng.choice(relations), rng.choice(relations)
            u = rng.randrange(1, 80)
            m, n, bound = rng.randrange(u), rng.randrange(u), rng.randrange(0, 8)
            for boxed in ((), (1,), (0, 1)):
                runs = []
                for universe in (u, list(range(u))):
                    log = []
                    pair = [logged(d, log) if i in boxed else d for i, d in enumerate((d1, d2))]
                    runs.append((bounded_join(*pair, m, n, universe, bound), log))
                assert runs[0] == runs[1]

    def test_black_box_test_counts(self):
        # The search order fixes how many tests each black box receives, the
        # link labels included.  The totals are those the closure-per-point
        # search made before this loop replaced it.
        def counted(d, tests):
            def fn(a, b):
                tests[0] += 1
                return d.decide(a, b)

            return DeciderEq(fn, check_bound=0)

        rng = random.Random(14)
        relations = list(_keyed_builtins().values())
        totals = {"left": [0, 0], "right": [0, 0], "both": [0, 0]}
        for case in range(80):
            d1, d2 = rng.choice(relations), rng.choice(relations)
            u = rng.randrange(2, 80)
            universe = u if case % 2 else rng.sample(range(u + 10), u)
            pool = range(u) if case % 2 else universe
            m, n, bound = rng.choice(pool), rng.choice(pool), rng.randrange(0, 8)
            for kind, boxed in (("left", (0,)), ("right", (1,)), ("both", (0, 1))):
                tests = [0]
                pair = [counted(d, tests) if i in boxed else d for i, d in enumerate((d1, d2))]
                bounded_join(*pair, m, n, universe, bound)
                totals[kind][0] += tests[0]
                totals[kind][1] += case * tests[0]
        assert totals == {
            "left": [8666, 314647],
            "right": [7967, 287344],
            "both": [16633, 601991],
        }


class TestAdjacentKeyedEndpoints:
    """Endpoints one link apart under two keyed relations are answered from
    their own keys, without bucketing the universe."""

    @staticmethod
    def _counting_pair():
        calls = [0, 0]

        def counting(i, key):
            def fn(x):
                calls[i] += 1
                return key(x)

            return DeciderEq.from_key(fn)

        # Left classes are x // 10, right classes x % 7.
        return counting(0, lambda x: x // 10), counting(1, lambda x: x % 7), calls

    @pytest.mark.parametrize("universe", [200, list(range(0, 400, 2)) + [3, 7, 17]])
    @pytest.mark.parametrize(
        "m, n, links",
        [(12, 14, ("left",)), (3, 17, ("right",)), (0, 7, ("left",))],
        ids=["left class", "right class", "both classes"],
    )
    def test_two_key_comparisons(self, universe, m, n, links):
        d1, d2, calls = self._counting_pair()
        res = bounded_join(d1, d2, m, n, universe, 3)
        assert res == RelatedWitness((m, n), links)
        assert calls[0] <= 2 and calls[1] <= 2, calls
        assert res == _scan_join(d1, d2, m, n, universe, 3)

    def test_chain_bound_zero_finds_nothing(self):
        d1, d2, _ = self._counting_pair()
        for m, n in ((12, 14), (3, 17), (0, 7)):
            assert bounded_join(d1, d2, m, n, 200, 0) == NotWithinBounds(explored=1)

    def test_farther_endpoints_still_search(self):
        d1, d2, calls = self._counting_pair()
        res = bounded_join(d1, d2, 3, 25, 200, 3)
        assert res == _scan_join(d1, d2, 3, 25, 200, 3)
        assert len(res.chain) == 3
        assert min(calls) >= 200


def _closure_complement(d: DeciderEq) -> DeciderEq:
    """The least-element complement as the closure that the keyed
    complement replaced, kept as the oracle: a black box that scans every
    smaller value for a d-related one.  The scan is memoized per value; it
    is a pure function of it."""

    @lru_cache(maxsize=None)
    def not_least(x: int) -> bool:
        return any(d.decide(k, x) for k in range(x))

    def decide(m: int, n: int) -> bool:
        if m == n:
            return True
        if not_least(m):
            return False
        if not_least(n):
            return False
        return True

    return DeciderEq(decide, check_bound=0)


def _cli_keyed_builtins() -> dict[str, DeciderEq]:
    """Every keyed relation the command-line grammar names, with a few
    nestings; the TM closures over the whole zoo."""
    exprs = ["bottom", "top", "parity", "nonhalt(1)", "nonhalt(7)"]
    exprs += [f"singular({name})" for name in BUILTIN_PREDICATES]
    exprs += [f"{op}({name})" for name in zoo() for op in ("approx_even", "approx_odd")]
    exprs += ["meet(parity, singular(prime))", "meet(complement(parity), singular(odd))"]
    out = {expr: parse_decider_expr(expr) for expr in exprs}
    rng = random.Random(31)
    for i in range(6):
        out[f"from_partition#{i}"] = from_partition(random_partition(rng.randrange(1, 40), rng))
    return out


def _complement_inputs() -> dict[str, DeciderEq]:
    """The keyed built-ins plus black boxes: a user procedure and two
    key-stripped built-ins."""
    return {
        **_cli_keyed_builtins(),
        "thirds (black box)": DeciderEq(lambda m, n: m % 3 == n % 3, "thirds"),
        "parity (stripped)": _stripped(parity_decider()),
        "singular(prime) (stripped)": _stripped(parse_decider_expr("singular(prime)")),
    }


class TestKeyedComplementMatchesClosure:
    """The complement, keyed whatever its input, is the old closure: the
    same restrictions, decisions, join chains and cost note."""

    def test_keyed_out(self):
        for name, d in _complement_inputs().items():
            c = least_element_complement(d)
            assert c.key is not None, name
            assert c.cost_note == (
                f"least-element complement of ({d.cost_note}); "
                "scans all smaller values: linear space, exponential time"
            )

    def test_restrict_and_decide(self):
        for name, d in _complement_inputs().items():
            keyed, closure = least_element_complement(d), _closure_complement(d)
            for n in (1, 2, 9, 64, 256):
                assert keyed.restrict(n) == closure.restrict(n), (name, n)
            assert all(
                keyed.decide(m, n) == closure.decide(m, n)
                for m in range(64)
                for n in range(64)
            ), name

    def test_complement_of_a_complement(self):
        # The oracle's scans call the inner complement's key, itself a scan,
        # so this stays below n = 256.
        for expr in ("complement(parity)", "complement(meet(parity, singular(prime)))"):
            d = parse_decider_expr(expr)
            keyed, closure = least_element_complement(d), _closure_complement(d)
            assert keyed.key is not None
            for n in (1, 2, 9, 64):
                assert keyed.restrict(n) == closure.restrict(n), (expr, n)

    def test_bounded_join_equals_stripped_search(self):
        rng = random.Random(32)
        relations = list(_complement_inputs().values())
        for _ in range(80):
            d = least_element_complement(rng.choice(relations))
            other = rng.choice(relations)
            if rng.random() < 0.3:
                other = least_element_complement(other)
            u = rng.randrange(2, 80)
            args = (rng.randrange(u), rng.randrange(u), u, rng.randrange(1, 6))
            results = _join_variants(d, other, *args)
            assert all(r == results[0] for r in results), results
        # And against the closure itself, as a black box on both sides.
        for d in relations:
            keyed, closure = least_element_complement(d), _closure_complement(d)
            for m, n in ((0, 37), (3, 60), (5, 5), (12, 50)):
                assert bounded_join(keyed, parity_decider(), m, n, 64, 4) == bounded_join(
                    closure, _stripped(parity_decider()), m, n, 64, 4
                )


def _scanning_complement(d: DeciderEq) -> DeciderEq:
    """The least-element complement as it was before a keyed input took one
    ascending pass, kept as the oracle: every x scans each smaller value for
    a d-related one.  The scan is memoized per value; it is a pure function
    of it."""
    return singular_from_predicate(
        lru_cache(maxsize=None)(lambda x: not any(d._fn(k, x) for k in range(x)))
    )


class TestKeyedComplementMatchesScan:
    """On keyed inputs the one-pass complement is the old per-value scan."""

    def test_restrict(self):
        for name, d in _cli_keyed_builtins().items():
            fast, scan = least_element_complement(d), _scanning_complement(d)
            # The smaller sizes come after 300, when the pass is already past them.
            for n in (300, 1, 2, 37):
                assert fast.restrict(n) == scan.restrict(n), (name, n)

    def test_scattered_decide_pairs(self):
        rng = random.Random(33)
        outcomes = set()
        for name, d in _cli_keyed_builtins().items():
            fast, scan = least_element_complement(d), _scanning_complement(d)
            for _ in range(25):
                top = rng.choice((8, 64, 1000))
                m, n = rng.randrange(top), rng.randrange(top)
                answer = fast.decide(m, n)
                assert answer == scan.decide(m, n), (name, m, n)
                outcomes.add(answer and m != n)
        assert outcomes == {False, True}


class TestVerifyChain:
    def test_rejects_wrong_links(self):
        d = bottom_decider()
        fake = RelatedWitness((0, 1), ("left",))
        assert not verify_chain(d, d, fake, 4, 4)

    def test_rejects_unknown_link_labels(self):
        # The link holds under the right relation; only its tag is wrong.
        d1, d2 = parity_decider(), top_decider()
        assert not verify_chain(d1, d2, RelatedWitness((0, 3), ("bogus",)), 10, 5)
        assert verify_chain(d1, d2, RelatedWitness((0, 3), ("right",)), 10, 5)

    def test_rejects_negative_elements(self):
        # Keys are defined on the naturals only; -1 is singular's class sentinel.
        d = singular_from_predicate(BUILTIN_PREDICATES["even"])
        fake = RelatedWitness((-1, 2), ("left",))
        assert not verify_chain(d, d, fake, [-1, 2], 1)

    def test_rejects_overlong_chains(self):
        d = top_decider()
        w = RelatedWitness((0, 1, 2, 3), ("left", "left", "left"))
        assert verify_chain(d, d, w, 4, 3)
        assert not verify_chain(d, d, w, 4, 2)
