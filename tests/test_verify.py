import random
from functools import cache

import pytest

from equlat import automatic as am
from equlat import verify
from equlat.partition import (
    Partition,
    UniverseMismatch,
    all_partitions,
    random_partition,
)
from equlat.verify import (
    CheckResult,
    _exhaustive_failures,
    _random_smalleq,
    automatic_checks,
    chain_closure_join,
    complement_checks,
    construction_checks,
    lattice_checks,
    run_suite,
)


def test_chain_closure_matches_union_find_on_examples():
    e = Partition.from_classes([{0, 1}, {2, 3}])
    f = Partition.from_classes([{1, 2}, {0}, {3}])
    assert chain_closure_join(e, f) == e.join(f) == Partition.top(4)
    g = Partition.bottom(4)
    assert chain_closure_join(e, g) == e


def test_lattice_suite_passes():
    results = lattice_checks(random_pairs=500, max_exhaustive_n=4)
    assert all(r.passed for r in results)


def test_broken_join_fails_by_axiom_name():
    def broken_join(e, f):
        # wrong on purpose: returns the meet instead of the join
        return e.meet(f)

    results = lattice_checks(join_fn=broken_join, random_pairs=50, max_exhaustive_n=4)
    failed = {r.name for r in results if not r.passed}
    assert "lattice axiom: order compatibility" in failed
    assert "join equals alternating-chain closure" in failed
    # meet axioms are untouched
    assert "lattice axiom: meet associative" not in failed


def test_broken_meet_fails_by_axiom_name():
    def broken_meet(e, f):
        return e  # ignores f

    results = lattice_checks(meet_fn=broken_meet, random_pairs=50, max_exhaustive_n=4)
    failed = {r.name for r in results if not r.passed}
    assert "lattice axiom: meet commutative" in failed


def test_complement_suite_passes():
    assert all(r.passed for r in complement_checks())


def test_construction_suite_passes():
    assert all(r.passed for r in construction_checks())


def test_automatic_suite_admits_each_automaton_once(monkeypatch):
    # Every corpus DFA and each of the three negative controls.
    admitted = []
    real = am._admission
    monkeypatch.setattr(am, "_admission", lambda d: admitted.append(d) or real(d))
    assert all(r.passed for r in automatic_checks())
    assert len(admitted) == len(am.corpus()) + 3


def test_run_suite_rejects_unknown():
    import pytest

    with pytest.raises(ValueError):
        run_suite("nonsense")


# -- the axiom counter against the direct loops --------------------------------

# The direct loops over pairs and triples, kept as the oracle of the counts
# that the lattice suite's one axiom counter makes.
_PAIR_AXIOMS = (
    "meet idempotent",
    "join idempotent",
    "meet commutative",
    "join commutative",
    "absorption",
    "order compatibility",
)
_TRIPLE_AXIOMS = ("meet associative", "join associative")


def _pair_axiom_failures(pairs, meet_fn, join_fn):
    fails = dict.fromkeys(_PAIR_AXIOMS, 0)
    for e, f in pairs:
        me = meet_fn(e, f)
        je = join_fn(e, f)
        if meet_fn(e, e) != e:
            fails["meet idempotent"] += 1
        if join_fn(e, e) != e:
            fails["join idempotent"] += 1
        if me != meet_fn(f, e):
            fails["meet commutative"] += 1
        if je != join_fn(f, e):
            fails["join commutative"] += 1
        if meet_fn(e, je) != e or join_fn(e, me) != e:
            fails["absorption"] += 1
        low = e.leq(f)
        if low != (me == e) or low != (je == f):
            fails["order compatibility"] += 1
    return fails


def _triple_assoc_failures(triples, meet_fn, join_fn):
    fails = dict.fromkeys(_TRIPLE_AXIOMS, 0)
    for e, f, g in triples:
        if meet_fn(meet_fn(e, f), g) != meet_fn(e, meet_fn(f, g)):
            fails["meet associative"] += 1
        if join_fn(join_fn(e, f), g) != join_fn(e, join_fn(f, g)):
            fails["join associative"] += 1
    return fails


def _loop_failures(n, meet_fn, join_fn):
    """The direct exhaustive loops over every pair and triple at size n.
    The operations are memoized, which changes no count of pure functions."""
    parts = list(all_partitions(n))
    meet_fn, join_fn = cache(meet_fn), cache(join_fn)
    fails = _pair_axiom_failures(((e, f) for e in parts for f in parts), meet_fn, join_fn)
    fails.update(
        _triple_assoc_failures(
            ((e, f, g) for e in parts for f in parts for g in parts), meet_fn, join_fn
        )
    )
    chain_bad = sum(
        join_fn(e, f) != chain_closure_join(e, f) for e in parts for f in parts
    )
    return fails, chain_bad, len(parts) ** 2


def _loop_lattice_checks(meet_fn, join_fn, rng_seed, random_pairs, max_exhaustive_n):
    """``lattice_checks`` built from the direct loops, row for row."""
    out = []
    fails = {}

    def tally(extra):
        for key, count in extra.items():
            fails[key] = fails.get(key, 0) + count

    bad = total = 0
    for n in range(1, max_exhaustive_n + 1):
        axioms, chain_bad, pairs = _loop_failures(n, meet_fn, join_fn)
        tally(axioms)
        bad += chain_bad
        total += pairs
    rng = random.Random(rng_seed)
    sample = [
        (random_partition(10, rng), random_partition(10, rng))
        for _ in range(random_pairs)
    ]
    tally(_pair_axiom_failures(sample, meet_fn, join_fn))
    tally(
        _triple_assoc_failures(
            ((e, f, random_partition(10, rng)) for e, f in sample), meet_fn, join_fn
        )
    )
    for axiom, count in fails.items():
        out.append(
            CheckResult(
                f"lattice axiom: {axiom}",
                count == 0,
                f"exhaustive n<={max_exhaustive_n} plus {random_pairs} random pairs at n=10"
                + ("" if count == 0 else f"; {count} violations"),
            )
        )
    out.append(
        CheckResult(
            "join equals alternating-chain closure",
            bad == 0,
            f"all {total} pairs, n<={max_exhaustive_n}"
            + ("" if bad == 0 else f"; {bad} mismatches"),
        )
    )
    rng = random.Random(rng_seed + 1)
    smalleq_bad = 0
    for _ in range(200):
        a = _random_smalleq(rng)
        b = _random_smalleq(rng)
        n = rng.randrange(1, 65)
        if a.meet(b).restrict(n) != a.restrict(n).meet(b.restrict(n)):
            smalleq_bad += 1
    out.append(
        CheckResult(
            "small-relation meet commutes with restriction",
            smalleq_bad == 0,
            "200 random pairs, universes up to 64",
        )
    )
    return out


def _meet_as_join(e, f):
    return e.meet(f)


def _meet_first(e, f):
    return e


def _meet_second(e, f):
    return f


def _join_on_larger_universe(e, f):
    return Partition.bottom(e.universe_size + 1)


def _meet_wrong_below_top(e, f):
    # wrong only for (top, two-class f): a handful of associativity rows
    n = e.universe_size
    if e == Partition.top(n) and f.class_count == 2:
        return Partition.bottom(n)
    return e.meet(f)


OPERATIONS = {
    "real": (Partition.meet, Partition.join),
    "join returns the meet": (Partition.meet, _meet_as_join),
    "meet returns e": (_meet_first, Partition.join),
    "meet returns f": (_meet_second, Partition.join),
    # the join's results lie outside the enumeration, and so do the meet's
    # on them: both memos number new partitions and call the operations on them
    "join on another universe": (_meet_second, _join_on_larger_universe),
    "meet wrong on a few pairs": (_meet_wrong_below_top, Partition.join),
}


class TestTableDrivenChecks:
    @pytest.mark.parametrize("ops", OPERATIONS.values(), ids=OPERATIONS.keys())
    def test_counts_match_direct_loops(self, ops):
        meet_fn, join_fn = ops
        for n in range(1, 6):
            assert _exhaustive_failures(n, meet_fn, join_fn) == _loop_failures(
                n, meet_fn, join_fn
            )

    def test_broken_operations_do_fail(self):
        # the oracle comparison above means something only if the broken
        # operations are caught at all
        for name, (meet_fn, join_fn) in OPERATIONS.items():
            fails, chain_bad, _ = _exhaustive_failures(4, meet_fn, join_fn)
            assert (sum(fails.values()) + chain_bad == 0) == (name == "real"), name

    def test_counts_see_a_single_row(self):
        # The (top, parts[1]) row alone holds meet-associativity violations,
        # so a count that skipped that row would differ from the loops.
        parts = list(all_partitions(5))
        meet = _meet_wrong_below_top
        e, f = parts[0], parts[1]
        assert any(meet(meet(e, f), g) != meet(e, meet(f, g)) for g in parts)

    @pytest.mark.parametrize("ops", OPERATIONS.values(), ids=OPERATIONS.keys())
    def test_results_match_direct_loops(self, ops):
        meet_fn, join_fn = ops
        args = dict(rng_seed=11, random_pairs=40, max_exhaustive_n=4)
        assert lattice_checks(meet_fn, join_fn, **args) == _loop_lattice_checks(
            meet_fn, join_fn, **args
        )

    def test_default_results_match_direct_loops(self):
        args = dict(rng_seed=20260809, random_pairs=300, max_exhaustive_n=5)
        assert lattice_checks(**args) == _loop_lattice_checks(
            Partition.meet, Partition.join, **args
        )

    @pytest.mark.parametrize("name", ["real", "meet returns e"])
    def test_repeated_sample_partitions_match_direct_loops(self, monkeypatch, name):
        # Drawn from four partitions, the sample repeats them within rows and
        # across them; a repeat numbered twice would break the counts.
        pool = [random_partition(10, random.Random(seed)) for seed in range(4)]

        def draw(n, rng):
            return pool[rng.randrange(len(pool))]

        monkeypatch.setattr(verify, "random_partition", draw)
        monkeypatch.setitem(globals(), "random_partition", draw)
        meet_fn, join_fn = OPERATIONS[name]
        args = dict(rng_seed=3, random_pairs=60, max_exhaustive_n=3)
        assert lattice_checks(meet_fn, join_fn, **args) == _loop_lattice_checks(
            meet_fn, join_fn, **args
        )

    def test_mismatched_universe_raises_as_the_loops_do(self):
        with pytest.raises(UniverseMismatch):
            _loop_failures(3, Partition.meet, _join_on_larger_universe)
        with pytest.raises(UniverseMismatch):
            lattice_checks(join_fn=_join_on_larger_universe, random_pairs=0, max_exhaustive_n=3)
