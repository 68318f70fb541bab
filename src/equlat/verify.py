"""Named verification suites: each check re-derives a property from scratch
(brute force, enumeration, direct definition) and compares it against the
library's answer, returning one pass/fail row per property.

The meet/join entry points of the lattice suite are injectable so that a
deliberately broken operation can be shown to fail by axiom name.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable

from . import automatic as am
from . import constructions as cs
from . import tm as tmlab
from .decider import axiom_counterexamples, verify_chain
from .dfa import pair_word
from .partition import (
    Partition,
    all_partitions,
    random_partition,
    singular_complement_valid,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}" + (f" -- {self.detail}" if self.detail else "")


MeetFn = Callable[[Partition, Partition], Partition]
JoinFn = Callable[[Partition, Partition], Partition]


def chain_closure_join(e: Partition, f: Partition) -> Partition:
    """Independent join oracle: search over alternating chains, taken
    literally from the definition (a link under e, then one under f, ...)."""
    n = e.universe_size
    labels: list[int | None] = [None] * n
    for m in range(n):
        if labels[m] is not None:
            continue
        related = {m}
        seen = {(m, 0)}
        stack = [(m, 0)]
        while stack:
            x, which = stack.pop()
            rel = e if which == 0 else f
            for y in range(n):
                if rel.related(x, y):
                    if which == 1:
                        related.add(y)
                    if (y, 1 - which) not in seen:
                        seen.add((y, 1 - which))
                        stack.append((y, 1 - which))
        for y in related:
            labels[y] = m
    return Partition(labels)


_AXIOMS = (
    "meet idempotent",
    "join idempotent",
    "meet commutative",
    "join commutative",
    "absorption",
    "order compatibility",
    "meet associative",
    "join associative",
)


def _axiom_failures(meet, join, leq, rows) -> dict[str, int]:
    """Violations of every lattice axiom over rows (e, f, gs) under the
    operations meet and join and the order leq: the pair axioms once per
    row, associativity once per g."""
    fails = dict.fromkeys(_AXIOMS, 0)
    for e, f, gs in rows:
        mef, jef = meet(e, f), join(e, f)
        fails["meet idempotent"] += meet(e, e) != e
        fails["join idempotent"] += join(e, e) != e
        fails["meet commutative"] += mef != meet(f, e)
        fails["join commutative"] += jef != join(f, e)
        fails["absorption"] += meet(e, jef) != e or join(e, mef) != e
        low = leq(e, f)
        fails["order compatibility"] += low != (mef == e) or low != (jef == f)
        for g in gs:
            fails["meet associative"] += meet(mef, g) != meet(e, meet(f, g))
            fails["join associative"] += join(jef, g) != join(e, join(f, g))
    return fails


def _exhaustive_failures(
    n: int, meet_fn: MeetFn, join_fn: JoinFn
) -> tuple[dict[str, int], int, int]:
    """Every lattice axiom over all pairs and triples of partitions of
    {0..n-1}, plus the number of pairs whose join differs from
    ``chain_closure_join``, and the number of pairs.

    Partitions are numbered in the order first seen, by their canonical
    labels, and each operation is memoized on numbers, so each ordered pair
    costs one call.  A result outside the enumeration, which only a broken
    operation returns, is numbered when it is first seen.
    """
    parts: list[Partition] = []
    numbers: dict[tuple[int, ...], int] = {}

    def number(p: Partition) -> int:
        i = numbers.setdefault(p.labels, len(parts))
        if i == len(parts):
            parts.append(p)
        return i

    meet = cache(lambda i, j: number(meet_fn(parts[i], parts[j])))
    join = cache(lambda i, j: number(join_fn(parts[i], parts[j])))
    grid = [number(p) for p in all_partitions(n)]
    fails = _axiom_failures(
        meet, join, lambda i, j: parts[i].leq(parts[j]), ((e, f, grid) for e in grid for f in grid)
    )
    chain_bad = sum(
        parts[join(e, f)] != chain_closure_join(parts[e], parts[f]) for e in grid for f in grid
    )
    return fails, chain_bad, len(grid) ** 2


def lattice_checks(
    meet_fn: MeetFn = Partition.meet,
    join_fn: JoinFn = Partition.join,
    rng_seed: int = 20260809,
    random_pairs: int = 10_000,
    max_exhaustive_n: int = 5,
) -> list[CheckResult]:
    out = []
    fails = Counter(dict.fromkeys(_AXIOMS, 0))
    bad = 0
    total = 0
    for n in range(1, max_exhaustive_n + 1):
        axioms, chain_bad, pairs = _exhaustive_failures(n, meet_fn, join_fn)
        fails.update(axioms)
        bad += chain_bad
        total += pairs
    # The random sample at n=10: one g per pair, drawn after every pair.
    rng = random.Random(rng_seed)
    sample = [
        (random_partition(10, rng), random_partition(10, rng)) for _ in range(random_pairs)
    ]
    gs = [random_partition(10, rng) for _ in sample]
    fails.update(
        _axiom_failures(
            meet_fn, join_fn, Partition.leq, ((e, f, (g,)) for (e, f), g in zip(sample, gs))
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


def _random_smalleq(rng: random.Random):
    from .partition import SmallEq

    threshold = rng.randrange(0, 17)
    ids = [rng.randrange(0, threshold + 1) for _ in range(threshold)]
    tail = rng.randrange(0, threshold + 1)
    return SmallEq(threshold, ids, tail)


def complement_checks() -> list[CheckResult]:
    out = []
    mismatches = 0
    pairs = 0
    for n in range(2, 6):
        parts = list(all_partitions(n))
        singulars = [e for e in parts if e.is_singular()]
        for e in singulars:
            for f in parts:
                pairs += 1
                if e.is_complement(f) != singular_complement_valid(e, f):
                    mismatches += 1
    out.append(
        CheckResult(
            "singular complements match the counting characterization",
            mismatches == 0,
            f"all {pairs} (singular, partition) pairs, n<=5",
        )
    )

    bad = 0
    cases = 0
    for n in range(1, 6):
        for e in all_partitions(n):
            cases += 1
            if not e.is_complement(e.least_element_complement()):
                bad += 1
    rng = random.Random(20260809)
    for n in (6, 7, 12):
        for _ in range(10_000):
            e = random_partition(n, rng)
            cases += 1
            if not e.is_complement(e.least_element_complement()):
                bad += 1
    out.append(
        CheckResult(
            "least-element complement is always a complement",
            bad == 0,
            f"{cases} cases: exhaustive n<=5, 10^4 random each at n in {{6,7,12}}",
        )
    )
    return out


def _brute_axioms(dfa, bound: int = 64) -> tuple[bool, bool, bool]:
    """Whether reflexivity, symmetry and transitivity hold on {0..bound-1}."""
    found = axiom_counterexamples(lambda m, n: dfa.accepts(pair_word(m, n)), bound)
    return tuple(c is None for c in found)


def automatic_checks() -> list[CheckResult]:
    out = []
    corpus = am.corpus()
    out.append(
        CheckResult(
            "corpus size",
            len(corpus) >= 8,
            f"{len(corpus)} certified relations shipped",
        )
    )

    negatives = [am.first_bit_differs_dfa(), am.shorter_than_dfa(), am.shared_feature_dfa()]
    dfas = [rel.dfa for rel in corpus.values()] + negatives
    # One admission per automaton; both rows below read its verdicts.
    admitted = [[passed for _, passed in am.admission_checks(dfa)] for dfa in dfas]
    out.append(
        CheckResult(
            "corpus passes full admission checks",
            all(map(all, admitted[: len(corpus)])),
            "format, reflexivity, symmetry, transitivity",
        )
    )

    prop1 = all(rel.class_count <= rel.dfa.state_count for rel in corpus.values())
    out.append(
        CheckResult(
            "class count bounded by minimized state count",
            prop1,
            "every corpus relation",
        )
    )

    agree = all(
        tuple(verdicts[1:]) == _brute_axioms(dfa) for dfa, verdicts in zip(dfas, admitted)
    )
    out.append(
        CheckResult(
            "axiom checkers agree with brute force",
            agree,
            "m, n, p < 64 over corpus and negative controls",
        )
    )

    meet_ok = join_ok = cutoff_ok = True
    for (n1, r1), (n2, r2) in combinations(corpus.items(), 2):
        meet_ok &= r1.meet(r2).restrict(64) == r1.restrict(64).meet(r2.restrict(64))
        cert = r1.join_certificate(r2)
        cutoff_ok &= cert.cutoff() <= 64
        join_ok &= cert.result.restrict(64) == r1.restrict(64).join(r2.restrict(64))
    out.append(
        CheckResult(
            "automata meet commutes with restriction to 64",
            meet_ok,
            "all corpus pairs",
        )
    )
    out.append(
        CheckResult(
            "automata join commutes with restriction to 64",
            join_ok and cutoff_ok,
            "all corpus pairs; representatives and witnesses below the cutoff",
        )
    )

    counts = am.family_meet_demo(16)
    out.append(
        CheckResult(
            "singleton-family meets grow one class per step",
            counts == list(range(2, 18)),
            f"counts {counts[:5]}..{counts[-1]} for k<=16",
        )
    )

    mod4 = corpus["mod4"]
    coarse_ok = True
    for blocks in ([[0, 2], [1, 3]], [[0], [1, 2, 3]], [[0, 1, 2, 3]]):
        grouped = mod4.coarsen(blocks)
        coarse_ok &= grouped.class_count == len(blocks)
        coarse_ok &= mod4.restrict(128).leq(grouped.restrict(128))
    out.append(
        CheckResult(
            "coarsening sits above its input with one class per block",
            coarse_ok,
            "checked on restrictions to 128",
        )
    )

    a, b = corpus["parity"], corpus["bitlen3"]
    joined = a.join(b)
    chain_ok = True
    for m in range(12):
        for mid in range(12):
            for n in range(12):
                if a.decide(m, mid) and b.decide(mid, n):
                    chain_ok &= joined.decide(m, n)
    out.append(
        CheckResult(
            "explicit alternating chains land inside the join",
            chain_ok,
            "two-link chains over m, mid, n < 12",
        )
    )
    return out


def tm_checks(step_bound: int = 1000) -> list[CheckResult]:
    out = []
    zoo = tmlab.zoo()
    looping = [tmlab.halt_step(m, "", 1000) for m in zoo.values()].count(None)
    halting = len(zoo) - looping
    out.append(
        CheckResult(
            "machine zoo composition",
            len(zoo) >= 10 and halting >= 3 and looping >= 3,
            f"{len(zoo)} machines, {halting} halting, {looping} looping at 1000 steps",
        )
    )

    agree = True
    chains_ok = True
    for m in zoo.values():
        probe = tmlab.halting_probe(m, "", step_bound)
        direct = tmlab.halt_step(m, "", step_bound)
        if isinstance(probe, tmlab.HaltsInSteps):
            agree &= probe.steps == direct
            even = tmlab.approx_even(m)
            odd = tmlab.approx_odd(m)
            chains_ok &= verify_chain(
                even, odd, probe.witness, probe.universe_bound, probe.chain_bound
            )
        else:
            agree &= direct is None
    searched = f"whole zoo at bound {step_bound}"
    out.append(CheckResult("halting search agrees with direct simulation", agree, searched))
    out.append(
        CheckResult("returned chains verify link by link", chains_ok, "within stated bounds")
    )

    parity_ok = True
    for name in ("increment", "sweeper", "flipper"):
        m = zoo[name]
        points = [
            tmlab.pack_point(t, tmlab.encode_config(m, c))
            for t, c in enumerate(tmlab.trajectory(m, "11" if name != "flipper" else "", 10))
        ] + [tmlab.SINK]
        for approx in (tmlab.approx_even(m), tmlab.approx_odd(m)):
            # A key is the successor where the clock parity gates the step
            # (never the point itself), and the point elsewhere.
            succs = {x: y for x in points if (y := approx.key(x)) != x}
            # successor is a function (one arrow per point, by construction);
            # assert that no arrow target has an outgoing arrow itself
            parity_ok &= all(target not in succs for target in succs.values())
    out.append(
        CheckResult(
            "parity slices are one-step deep",
            parity_ok,
            "no chained arrows inside one parity on sampled runs",
        )
    )

    pack_ok = tmlab.pack_point(0, 0) == 0 and tmlab.unpack_point(0) == (0, 0)
    for a in range(20):
        for b in range(20):
            if (a, b) != (0, 0):
                pack_ok &= tmlab.unpack_point(tmlab.pack_point(a, b)) == (a, b)
    out.append(CheckResult("point packing is invertible", pack_ok, "with 0 as the sink"))

    machines = list(zoo.values())
    ok10 = True
    detail = []
    prev: set[int] | None = None
    for k in (1, 10, 100):
        part = tmlab.nonhalt_family_meet(k, machines)
        big = next((set(c) for c in part.classes() if len(c) >= 2), set())
        expect = {
            i for i, m in enumerate(machines) if tmlab.halt_step(m, "", k) is None
        }
        ok10 &= big == expect
        if prev is not None:
            ok10 &= big <= prev
        prev = big
        detail.append(f"k={k}: {len(big)} machines still running")
    out.append(
        CheckResult("non-halting family meets match direct simulation", ok10, "; ".join(detail))
    )
    return out


def construction_checks() -> list[CheckResult]:
    out = []
    predicates = {
        "even": cs.is_even,
        "prime": cs.is_prime,
        "mult3": lambda x: x % 3 == 0,
    }
    cut_seqs = {
        "powers": cs.default_cuts(7),
        "linear": tuple(range(1, 8)),
        "mixed": (3, 6, 12, 24, 48, 96, 192),
    }
    closed_ok = True
    restrict_ok = True
    monotone_ok = True
    for pname, pred in predicates.items():
        for cname, cuts in cut_seqs.items():
            spec = cs.SingularFamilySpec(pred, cuts, name=f"{pname}/{cname}")
            prev = None
            for k in range(0, 7):
                got = cs.truncated_family_meet(spec, k)
                closed_ok &= got == cs.closed_form_meet(spec, k)
                cut = cuts[k]
                # below the cut, exactly the predicate members sit in the tail
                # class (tested against the cut itself, which is always tail)
                restrict_ok &= all(
                    got.related(x, cut) == pred(x) for x in range(cut)
                )
                if prev is not None:
                    n = cuts[k] + 1
                    monotone_ok &= got.restrict(n).leq(prev.restrict(n))
                prev = got
    out.append(
        CheckResult(
            "family meets match the closed form",
            closed_ok,
            "3 predicates x 3 cut sequences x k<=6",
        )
    )
    out.append(
        CheckResult(
            "family meet tails hold exactly the predicate members",
            restrict_ok,
            "below every cut",
        )
    )
    out.append(
        CheckResult(
            "family meets decrease with the truncation index",
            monotone_ok,
            "compared on restrictions",
        )
    )

    rng = random.Random(20260809)
    atoms_ok = True
    for _ in range(1000):
        n = rng.randrange(2, 11)
        size = rng.randrange(2, n + 1)
        members = rng.sample(range(n), size)
        got = cs.atoms_to_singular(members, n)
        expect = Partition.from_classes(
            [sorted(members)] + [[x] for x in range(n) if x not in members]
        )
        atoms_ok &= got == expect
    out.append(
        CheckResult(
            "atom stars join to the requested singular relation",
            atoms_ok,
            "10^3 random member sets, n<=10",
        )
    )
    return out


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "lattice": lattice_checks,
    "complements": complement_checks,
    "automatic": automatic_checks,
    "tm": tm_checks,
    "constructions": construction_checks,
}


def run_suite(name: str, tm_bound: int = 1000) -> list[CheckResult]:
    """The rows of one suite, or of every suite in ``SUITES`` order for
    "all"; ``tm_bound`` is the step bound of the tm suite."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {', '.join(SUITES)} or 'all'")
    results = []
    for key in SUITES if name == "all" else [name]:
        results += tm_checks(tm_bound) if key == "tm" else SUITES[key]()
    return results
