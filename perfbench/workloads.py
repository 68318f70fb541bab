"""The four benchmark workloads.

A workload is a stream of rounds, and every round has the same make-up: a
fixed number of requests of each kind.  Each kind spreads its size parameter
over equal-probability strata, one draw from the middle half of each stratum
per round, so every round does nearly the same amount of work and a run of
whole rounds gives the same figures on any seed.  All randomness comes from
``random.Random`` seeded with strings built from the workload seed, so a seed
always yields the same requests in the same order.

A request has three parts: ``prep`` builds its inputs, ``call`` is the single
timed call into a public function of ``equlat`` (looked up through its module
at call time, so that the traced run sees it), and ``check`` re-derives the
verdict with an independent oracle.  Only ``call`` is timed.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

from equlat import automatic as am
from equlat import cli
from equlat import constructions as cs
from equlat import decider as dc
from equlat import dfa as dfa_mod
from equlat import tm
from equlat import verify
from equlat.partition import Partition

import oracles


@dataclass
class Request:
    kind: str
    prep: Callable[[], Any]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, *key) -> random.Random:
        return random.Random("/".join(str(k) for k in (self.seed, self.name) + key))

    def draws(self, key: str, r: int, count: int) -> list[float]:
        """One value from the middle half of each of ``count`` equal strata of
        [0, 1), in a seeded order."""
        rng = self.rng("draws", key, r)
        values = [(j + 0.25 + 0.5 * rng.random()) / count for j in range(count)]
        rng.shuffle(values)
        return values

    def round(self, r: int) -> list[Request]:
        requests = self.build_round(r)
        self.rng("order", r).shuffle(requests)
        return requests

    def build_round(self, r: int) -> list[Request]:
        raise NotImplementedError

    def warmup(self) -> list[Request]:
        raise NotImplementedError


def log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def ready(value):
    """``prep`` for inputs that are already built."""
    return lambda: value


# -- lattice -----------------------------------------------------------------

# Requests per round: lattice_checks calls, and partition triples by universe
# size (each feeds the six operations).  This mix was chosen, among those
# giving at least 100 requests in one run, for the steadiest median and 90th
# percentile across seeds: both fall where the latency mixture is dense.
CHECKS_PER_ROUND = 2
GROUPS_PER_ROUND = {1_000: 1, 10_000: 2, 100_000: 2}


def random_partition(rng: random.Random, n: int, classes: int) -> Partition:
    """Each element picks one of ``classes`` labels uniformly."""
    return Partition(oracles.canonical(rng.choices(range(classes), k=n)))


def coarsening(rng: random.Random, e: Partition, groups: int) -> Partition:
    """Merge whole classes of ``e`` into at most ``groups`` groups."""
    group_of: dict[int, int] = {}
    keys = []
    for lab in e.labels:
        if lab not in group_of:
            group_of[lab] = rng.randrange(groups)
        keys.append(group_of[lab])
    return Partition(oracles.canonical(keys))


class Lattice(Workload):
    name = "lattice"

    def partition_requests(self, key, n: int, ue: float, uf: float, uc: float, flip: bool):
        """Six requests on one seeded triple: ``e`` and ``f`` range from near
        top (one class) to near bottom (n labels), ``c`` coarsens ``e``.
        ``flip`` asks ``c <= e`` instead of ``e <= c`` and tests ``e``
        against its least-element complement instead of against ``f``."""

        @functools.cache
        def inputs():
            rng = self.rng("partitions", n, key)
            e = random_partition(rng, n, max(1, round(n**ue)))
            f = random_partition(rng, n, max(1, round(n**uf)))
            c = coarsening(rng, e, max(1, round(len(set(e.labels)) ** uc)))
            comp = Partition(oracles.least_element_complement_labels(e.labels))
            lo, hi = (c, e) if flip else (e, c)
            return SimpleNamespace(e=e, f=f, lo=lo, hi=hi, comp=comp, other=comp if flip else f)

        def join_ok(g, out) -> bool:
            if n <= 1000:
                return out == verify.chain_closure_join(g.e, g.f)
            return out.labels == oracles.join_labels(g.e.labels, g.f.labels)

        return [
            Request(f"meet@{n}", inputs, lambda g: g.e.meet(g.f),
                    lambda g, out: oracles.meet_labels_ok(g.e.labels, g.f.labels, out.labels)),
            Request(f"join@{n}", inputs, lambda g: g.e.join(g.f), join_ok),
            Request(f"leq@{n}", inputs, lambda g: g.lo.leq(g.hi),
                    lambda g, out: out == oracles.leq_labels(g.lo.labels, g.hi.labels)),
            Request(f"is_complement@{n}", inputs, lambda g: g.e.is_complement(g.other),
                    lambda g, out: out == oracles.is_complement_labels(g.e.labels, g.other.labels)),
            Request(f"least_element_complement@{n}", inputs,
                    lambda g: g.e.least_element_complement(),
                    lambda g, out: out.labels == g.comp.labels),
            Request(f"atoms@{n}", inputs, lambda g: g.e.atoms(),
                    lambda g, out: oracles.atoms_ok(g.e.labels, out)),
        ]

    def checks_request(self, key, pairs: int, max_n: int = 4) -> Request:
        seed = self.rng("checks", key).randrange(2**31)
        return Request(
            "lattice_checks",
            ready(None),
            # The defaults of lattice_checks are bound at definition time, so
            # the operations are passed explicitly for the traced run to see.
            lambda _: verify.lattice_checks(
                meet_fn=Partition.meet,
                join_fn=Partition.join,
                rng_seed=seed,
                random_pairs=pairs,
                max_exhaustive_n=max_n,
            ),
            lambda _, out: bool(out) and all(c.passed for c in out),
        )

    def build_round(self, r: int) -> list[Request]:
        requests = [
            self.checks_request((r, j), 100 + round(900 * u))
            for j, u in enumerate(self.draws("checks", r, CHECKS_PER_ROUND))
        ]
        for n, groups in GROUPS_PER_ROUND.items():
            strata = zip(*(self.draws(f"{p}{n}", r, groups) for p in "efc"))
            for j, (ue, uf, uc) in enumerate(strata):
                requests += self.partition_requests((r, j), n, ue, uf, uc, (r + j) % 2 == 1)
        return requests

    def warmup(self) -> list[Request]:
        return [self.checks_request("warmup", 10, 2)] + self.partition_requests(
            "warmup", 100, 0.5, 0.5, 0.5, True
        )


# -- automatic-admit -----------------------------------------------------------

# Requests per round by kind, besides one of each negative control.  The
# large folded meets are a fifth of the requests, so the 90th percentile
# falls inside their spread; the mix was chosen for the steadiest median and
# 90th percentile across seeds.
ADMIT_MIX = {
    "fold_small": 1,
    "fold_large": 3,
    "corpus_meet": 1,
    "classifier_eq": 2,
    "classifier_ne": 1,
    "classifier_lt": 1,
    "classifier_overlap": 1,
    "format_break": 2,
}
EXPECTED_AXIOM = {
    "classifier_ne": "reflexivity",
    "classifier_lt": "reflexivity",
    "classifier_overlap": "transitivity",
    "format_break": "format",
}


# Classifier automata over the digits: (transition table, start, feature of
# each state).  Their transition monoids stay small, so admission of any
# product of two of them finishes quickly.
def _mod_component(m: int):
    return tuple(((2 * s) % m, (2 * s + 1) % m) for s in range(m)), 0, lambda s: s % m


def _length_component(cap: int):
    return tuple((min(s + 1, cap), min(s + 1, cap)) for s in range(cap + 1)), 0, lambda s: s


def _last_digit_component():
    return ((1, 2), (1, 2), (1, 2)), 0, lambda s: s


COMPONENTS = (
    [("mod", m, _mod_component(m)) for m in range(2, 7)]
    + [("len", c, _length_component(c)) for c in range(1, 5)]
    + [("last", 0, _last_digit_component())]
)


def product_classifier(parts):
    """Run several classifiers side by side; state = tuple of their states."""
    start = tuple(p[1] for p in parts)
    index = {start: 0}
    order = [start]
    delta = []
    i = 0
    while i < len(order):
        state = order[i]
        i += 1
        row = []
        for bit in (0, 1):
            nxt = tuple(p[0][s][bit] for p, s in zip(parts, state))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        delta.append(tuple(row))
    features = {index[st]: tuple(p[2](s) for p, s in zip(parts, st)) for st in order}
    return tuple(delta), 0, features


# Pair automata of classifiers up to this size are admitted in well under a
# second; the largest products of two components take several.
MAX_PAIR_STATES = 140


@functools.cache
def classifier_ladder():
    """Classifiers of one or two components ordered by the size of their pair
    automaton, so that a stratified draw picks a size, not a lottery."""
    rows = []
    for k in (1, 2):
        for combo in itertools.combinations(COMPONENTS, k):
            delta, start, feats = product_classifier([c[2] for c in combo])
            labels = sorted(set(feats.values()))
            keys = {s: labels.index(f) for s, f in feats.items()}
            size = am.kernel_pair_dfa(delta, start, keys).state_count
            rows.append((size, [c[:2] for c in combo], (delta, start, feats)))
    rows.sort(key=lambda row: row[:2])
    return [row[2] for row in rows if row[0] <= MAX_PAIR_STATES]


@functools.cache
def corpus_ladder():
    """Sets of 2-4 corpus relations ordered by the product of their state
    counts, which bounds the size of their meet."""
    corpus = am.corpus()
    combos = [c for k in (2, 3, 4) for c in itertools.combinations(sorted(corpus), k)]
    return sorted(combos, key=lambda c: (math.prod(corpus[n].dfa.state_count for n in c), c))


def classifier_value(delta, start, x: int) -> int:
    s = start
    for ch in format(x, "b"):
        s = delta[s][int(ch)]
    return s


def fold_singletons(indices) -> am.AutomaticEq:
    acc = am.singleton_family(indices[0])
    for i in indices[1:]:
        acc = acc.meet(am.singleton_family(i))
    return acc


def word_dfa(word: str) -> dfa_mod.Dfa:
    """Accepts exactly ``word``."""
    dead = len(word) + 1
    delta = [[dead] * 3 for _ in range(dead + 1)]
    for i, ch in enumerate(word):
        delta[i][dfa_mod.ALPHABET.index(ch)] = i + 1
    return dfa_mod.Dfa(delta, 0, {len(word)})


MALFORMED = ("01B1", "1B", "B1", "1B1B1", "11", "10B01", "B", "0B00", "1B1B")

CONTROLS = (
    ("first_bit_differs", am.first_bit_differs_dfa, "reflexivity"),
    ("shorter_than", am.shorter_than_dfa, "reflexivity"),
    ("shared_feature", am.shared_feature_dfa, "transitivity"),
)

AXIOM_INDEX = {"reflexivity": 0, "symmetry": 1, "transitivity": 2}


def admit_call(text: str):
    try:
        return am.AutomaticEq.from_dfa(dfa_mod.dfa_from_text(text))
    except am.ValidationError as exc:
        return exc


class AutomaticAdmit(Workload):
    name = "automatic-admit"

    def admit(self, kind: str, build: Callable[[], tuple], expect: str | None) -> Request:
        """``build`` returns the DFA and, for format breaks, the malformed
        word planted in it.  The expected verdict follows from how the input
        was built and is cross-checked by brute force on {0..63}."""

        def prep():
            d, planted = build()
            return d, planted, dfa_mod.dfa_to_text(d)

        def check(inputs, out) -> bool:
            d, planted, _ = inputs
            brute = verify._brute_axioms(d)
            if expect is None:
                return isinstance(out, am.AutomaticEq) and all(brute)
            if not isinstance(out, am.ValidationError) or out.axiom != expect:
                return False
            if expect == "format":
                return oracles.malformed(planted) and d.accepts(planted)
            return not brute[AXIOM_INDEX[expect]]

        return Request(kind, prep, lambda inputs: admit_call(inputs[2]), check)

    def eq_classifier(self, rng: random.Random, u: float) -> dfa_mod.Dfa:
        """Kernel of a classifier with its features merged at random: an
        equivalence by construction."""
        delta, start, feats = classifier_ladder()[int(u * len(classifier_ladder()))]
        labels = sorted(set(feats.values()))
        merge = {f: rng.randrange(max(1, len(labels) - 1)) for f in labels}
        return am.kernel_pair_dfa(delta, start, {s: merge[f] for s, f in feats.items()})

    def order_classifier(self, u: float, accept) -> dfa_mod.Dfa:
        """``ne`` or ``lt`` on integer features: never reflexive."""
        delta, start, feats = classifier_ladder()[int(u * len(classifier_ladder()))]
        ints = {f: i for i, f in enumerate(sorted(set(feats.values())))}
        return am.kernel_pair_dfa(
            delta, start, {s: ints[f] for s, f in feats.items()}, accept=accept
        )

    def overlap(self, rng: random.Random) -> dfa_mod.Dfa:
        """Relates m, n when either of two features agrees: reflexive and
        symmetric, and built to break transitivity below 64."""
        residue = [c for c in COMPONENTS if c[0] in ("mod", "last")]
        length = [c for c in COMPONENTS if c[0] == "len" and c[1] >= 2]
        a = residue[rng.randrange(len(residue))][2]
        b = length[rng.randrange(len(length))][2]
        delta, start, feats = product_classifier([a, b])
        val = [feats[classifier_value(delta, start, x)] for x in range(8)]
        if not any(
            val[x][0] == val[y][0] and val[y][1] == val[z][1]
            and val[x][0] != val[z][0] and val[x][1] != val[z][1]
            for x in range(8) for y in range(8) for z in range(8)
        ):
            raise RuntimeError("overlap classifier does not break transitivity")
        return am.kernel_pair_dfa(
            delta, start, feats, accept=lambda k1, k2: k1[0] == k2[0] or k1[1] == k2[1]
        )

    def builder(self, kind: str, rng: random.Random, u: float) -> Callable[[], tuple]:
        if kind == "fold_small":
            return lambda: (fold_singletons(sorted(rng.sample(range(40), 2 + int(6 * u)))).dfa, "")
        if kind == "fold_large":
            return lambda: (fold_singletons(sorted(rng.sample(range(40), 8 + int(7 * u)))).dfa, "")
        if kind == "corpus_meet":
            def meet():
                corpus = am.corpus()
                chosen = corpus_ladder()[int(u * len(corpus_ladder()))]
                acc = corpus[chosen[0]]
                for name in chosen[1:]:
                    acc = acc.meet(corpus[name])
                return acc.dfa, ""
            return meet
        if kind == "classifier_eq":
            return lambda: (self.eq_classifier(rng, u), "")
        if kind == "classifier_ne":
            return lambda: (self.order_classifier(u, operator.ne), "")
        if kind == "classifier_lt":
            return lambda: (self.order_classifier(u, operator.lt), "")
        if kind == "classifier_overlap":
            return lambda: (self.overlap(rng), "")
        if kind == "format_break":
            def broken():
                word = MALFORMED[int(len(MALFORMED) * u)]
                base = self.eq_classifier(rng, u)
                return dfa_mod.product(base, word_dfa(word), operator.or_), word
            return broken
        raise KeyError(kind)

    def build_round(self, r: int) -> list[Request]:
        requests = [
            self.admit(kind, self.builder(kind, self.rng(kind, r, j), u), EXPECTED_AXIOM.get(kind))
            for kind, count in ADMIT_MIX.items()
            for j, u in enumerate(self.draws(kind, r, count))
        ]
        for name, control, axiom in CONTROLS:
            requests.append(self.admit(f"control_{name}", lambda c=control: (c(), ""), axiom))
        return requests

    def warmup(self) -> list[Request]:
        return [
            self.admit("warmup", lambda: (am.singleton_family(1).dfa, ""), None),
            self.admit("warmup", lambda: (am.first_bit_differs_dfa(), ""), "reflexivity"),
        ]


# -- halting-probe -------------------------------------------------------------

# Machines that halt within a few steps on any input answer in about two
# milliseconds; they make three fifths of the requests, so the median sits
# inside their spread and the 90th percentile inside the slow group's.
FAST_MACHINES = ("delay7", "erase", "halt", "increment", "stumble", "zigzag")
FAST_PER_ROUND = 24
# Probe cost grows with the square of the bound, so the other machines need
# many strata per round for the round's total to be steady.
SLOW_PER_ROUND = 16
REPEAT_SHARE = 4  # one request in four repeats an earlier machine and input


class HaltingProbe(Workload):
    name = "halting-probe"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.zoo = tm.zoo()

    def fresh_input(self, name: str, rng: random.Random, u: float) -> str:
        """Up to 32 symbols over the machine's non-endmarker alphabet; the
        sweeper gets 1^k with k <= 22, on which it halts after up to 552
        steps, always within the bound drawn from the same stratum."""
        if name == "sweeper":
            return "1" * int(23 * u)
        symbols = [a for a in self.zoo[name].alphabet if a != tm.ENDMARKER]
        return "".join(rng.choice(symbols) for _ in range(int(33 * u)))

    def probe(self, kind: str, name: str, input_str: str, bound: int) -> Request:
        m = self.zoo[name]

        def check(_, out) -> bool:
            direct = tm.halt_step(m, input_str, bound)
            if isinstance(out, tm.HaltsInSteps):
                return out.steps == direct
            return isinstance(out, tm.NoHaltWithinBound) and direct is None

        return Request(kind, ready(None), lambda _: tm.halting_probe(m, input_str, bound), check)

    def round(self, r: int) -> list[Request]:
        # Bound and input length come from the same stratum, so a probe's
        # cost rises with its stratum and every round costs about the same.
        slots = []
        for name in sorted(self.zoo):
            count = FAST_PER_ROUND if name in FAST_MACHINES else SLOW_PER_ROUND
            for j, u in enumerate(self.draws(f"probe/{name}", r, count)):
                rng = self.rng("input", name, r, j)
                slots.append((name, round(log_uniform(50, 1000, u)), self.fresh_input(name, rng, u)))
        # Repeats are chosen in execution order, so the earlier probe of the
        # same machine and input has always run before its repeat; the one
        # repeated is the earlier input closest in length to the fresh one.
        rng = self.rng("repeats", r)
        rng.shuffle(slots)
        repeat = set(rng.sample(range(len(slots)), len(slots) // REPEAT_SHARE))
        seen: dict[str, list[tuple[str, int]]] = {}
        requests = []
        for i, (name, bound, input_str) in enumerate(slots):
            past = seen.setdefault(name, [])
            kind = "fresh"
            if i in repeat and past:
                fresh_length = len(input_str)
                input_str, old = min(past, key=lambda p: abs(len(p[0]) - fresh_length))
                bound += bound == old
                kind = "repeat"
            past.append((input_str, bound))
            requests.append(self.probe(f"{kind}:{name}", name, input_str, bound))
        return requests

    def warmup(self) -> list[Request]:
        return [self.probe("warmup", name, "", 20) for name in sorted(self.zoo)]


# -- relation-algebra ------------------------------------------------------------

def _is_prime(x: int) -> bool:
    return x >= 2 and all(x % d for d in range(2, int(x**0.5) + 1))


def _bitlen(x: int) -> int:
    return len(format(x, "b"))


# Corpus relations rebuilt fresh for every request (the shared corpus caches
# its class languages), each with a closed-form class key for the oracle.
CORPUS = {
    "universal": (am.universal_relation, lambda x: 0),
    "parity": (lambda: am.value_mod_relation(2), lambda x: x % 2),
    "mod3": (lambda: am.value_mod_relation(3), lambda x: x % 3),
    "mod4": (lambda: am.value_mod_relation(4), lambda x: x % 4),
    "bitlen3": (lambda: am.bitlength_relation(3), lambda x: min(_bitlen(x), 3)),
    "bitlen4": (lambda: am.bitlength_relation(4), lambda x: min(_bitlen(x), 4)),
    "bitlen_parity": (am.bitlength_parity_relation, lambda x: _bitlen(x) % 2),
    "prefix2": (am.prefix_relation, lambda x: format(x, "b")[:2]),
    "low2": (am.low_threshold_relation, lambda x: x < 2),
    "single1": (lambda: am.singleton_family(1), lambda x: x == 1),
    "single3": (lambda: am.singleton_family(3), lambda x: x == 3),
}

# Black-box decider expressions with closed-form class keys.
EXPRESSIONS = {
    "parity": lambda x: x % 2,
    "top": lambda x: 0,
    "bottom": lambda x: x,
    "singular(even)": lambda x: -1 if x % 2 == 0 else x,
    "singular(odd)": lambda x: -1 if x % 2 == 1 else x,
    "singular(prime)": lambda x: -1 if _is_prime(x) else x,
    "meet(parity, singular(prime))": lambda x: (x % 2, -1 if _is_prime(x) else x),
    "meet(singular(odd), singular(prime))": lambda x: (
        -1 if x % 2 == 1 else x, -1 if _is_prime(x) else x),
}
# least_element_complement scans every smaller value, so it is only restricted.
RESTRICT_ONLY = {"complement(parity)": lambda x: -1 if x < 2 else x}

PREDICATES = {"even": cs.is_even, "prime": cs.is_prime, "mult3": lambda x: x % 3 == 0}

# Requests per round by kind.  nonhalt_family_meet is the costliest kind and
# a sixth of the requests, so the 90th percentile falls inside its spread.
ALGEBRA_MIX = {
    "automatic_meet": 2,
    "automatic_join": 2,
    "automatic_restrict": 2,
    "bounded_join_related": 2,
    "bounded_join_unrelated": 2,
    "decider_restrict": 2,
    "truncated_family_meet": 2,
    "nonhalt_family_meet": 3,
}


class RelationAlgebra(Workload):
    name = "relation-algebra"

    def automatic(self, rng: random.Random, u: float):
        """A fresh corpus relation or folded singleton meet, with its key."""
        if u < 0.5:
            make, key = CORPUS[sorted(CORPUS)[rng.randrange(len(CORPUS))]]
            return make(), key
        members = frozenset(rng.sample(range(24), 1 + int(12 * (u - 0.5))))
        return fold_singletons(sorted(members)), lambda x: x if x in members else -1

    def automatic_request(self, kind: str, rng: random.Random, u: float) -> Request:
        def prep():
            return self.automatic(rng, u), self.automatic(rng, rng.random())

        def meet_ok(inputs, out) -> bool:
            (_, ka), (_, kb) = inputs
            got = oracles.labels_from_decide(out.decide, 64)
            return got == oracles.canonical([(ka(x), kb(x)) for x in range(64)])

        def join_ok(inputs, cert) -> bool:
            (_, kc), (_, kd) = inputs
            n = max(64, cert.cutoff())
            got = oracles.labels_from_decide(cert.result.decide, n)
            left = oracles.canonical([kc(x) for x in range(n)])
            right = oracles.canonical([kd(x) for x in range(n)])
            reps_l, reps_r = cert.left_representatives, cert.right_representatives
            witnesses_ok = all(
                kc(w) == kc(reps_l[i]) and kd(w) == kd(reps_r[j])
                for (i, j), w in cert.witnesses.items()
            )
            return witnesses_ok and got == oracles.join_labels(left, right)

        def restrict_ok(inputs, out) -> bool:
            (_, key), _ = inputs
            return out.labels == oracles.canonical([key(x) for x in range(64)])

        if kind == "automatic_meet":
            return Request(kind, prep, lambda p: p[0][0].meet(p[1][0]), meet_ok)
        if kind == "automatic_join":
            return Request(kind, prep, lambda p: p[0][0].join_certificate(p[1][0]), join_ok)
        return Request(kind, prep, lambda p: p[0][0].restrict(64), restrict_ok)

    def join_request(self, kind: str, rng: random.Random, u: float) -> Request:
        """Endpoints related or not (by the closed-form keys), over U in
        [64, 256], with a chain bound of 2 to 8 links."""
        related = kind == "bounded_join_related"
        universe = round(log_uniform(64, 256, u))
        names = sorted(EXPRESSIONS)
        left, right = rng.choice(names), rng.choice(names)
        chain_bound = rng.randrange(2, 9)

        def prep():
            k1 = [EXPRESSIONS[left](x) for x in range(universe)]
            k2 = [EXPRESSIONS[right](x) for x in range(universe)]
            comp = oracles.join_labels(oracles.canonical(k1), oracles.canonical(k2))
            m = rng.randrange(universe)
            pool = [y for y in range(universe) if (comp[y] == comp[m]) == related and y != m]
            return k1, k2, m, rng.choice(pool) if pool else m

        def call(inputs):
            _, _, m, n = inputs
            d1 = cli.parse_decider_expr(left)
            d2 = cli.parse_decider_expr(right)
            return d1, d2, dc.bounded_join(d1, d2, m, n, universe, chain_bound)

        def check(inputs, out) -> bool:
            k1, k2, m, n = inputs
            d1, d2, res = out
            dist = oracles.chain_distance(
                lambda x, y: k1[x] == k1[y], lambda x, y: k2[x] == k2[y], m, n, universe
            )
            if isinstance(res, dc.RelatedWitness):
                return (
                    dist is not None
                    and res.chain[0] == m
                    and res.chain[-1] == n
                    and dc.verify_chain(d1, d2, res, universe, chain_bound)
                )
            return isinstance(res, dc.NotWithinBounds) and (dist is None or dist > chain_bound)

        return Request(kind, prep, call, check)

    def restrict_request(self, kind: str, rng: random.Random, u: float) -> Request:
        pool = {**EXPRESSIONS, **RESTRICT_ONLY}
        expr = sorted(pool)[rng.randrange(len(pool))]
        n = round(log_uniform(64, 256, u))
        return Request(
            kind,
            lambda: oracles.canonical([pool[expr](x) for x in range(n)]),
            lambda _: cli.parse_decider_expr(expr).restrict(n),
            lambda expect, out: out.labels == expect,
        )

    def family_request(self, kind: str, rng: random.Random, u: float) -> Request:
        pname = sorted(PREDICATES)[rng.randrange(len(PREDICATES))]
        cuts = [rng.randrange(1, 5)]
        while len(cuts) < 12:
            cuts.append(cuts[-1] + rng.randrange(1, cuts[-1] + 2))
        spec = cs.SingularFamilySpec(PREDICATES[pname], tuple(cuts), name=pname)
        k = int(12 * u)
        return Request(
            kind,
            ready(spec),
            lambda s: cs.truncated_family_meet(s, k),
            lambda s, out: out == cs.closed_form_meet(s, k),
        )

    def nonhalt_request(self, kind: str, rng: random.Random, u: float) -> Request:
        k = round(log_uniform(1, 100, u))
        machines = [m for _, m in sorted(tm.zoo().items())]

        def check(_, out) -> bool:
            running = {i for i, m in enumerate(machines) if tm.halt_step(m, "", k) is None}
            keys = [-1 if i in running else i for i in range(len(machines))]
            return out.labels == oracles.canonical(keys)

        return Request(kind, ready(machines), lambda ms: tm.nonhalt_family_meet(k, ms), check)

    def build_round(self, r: int) -> list[Request]:
        makers = {
            "automatic_meet": self.automatic_request,
            "automatic_join": self.automatic_request,
            "automatic_restrict": self.automatic_request,
            "bounded_join_related": self.join_request,
            "bounded_join_unrelated": self.join_request,
            "decider_restrict": self.restrict_request,
            "truncated_family_meet": self.family_request,
            "nonhalt_family_meet": self.nonhalt_request,
        }
        return [
            makers[kind](kind, self.rng(kind, r, j), u)
            for kind, count in ALGEBRA_MIX.items()
            for j, u in enumerate(self.draws(kind, r, count))
        ]

    def warmup(self) -> list[Request]:
        rng = self.rng("warmup")
        return [
            self.automatic_request("automatic_meet", rng, 0.1),
            self.family_request("truncated_family_meet", rng, 0.1),
        ]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Lattice, AutomaticAdmit, HaltingProbe, RelationAlgebra)
}
