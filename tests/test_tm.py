import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from equlat import tm
from equlat.decider import DeciderEq, NotWithinBounds, bounded_join
from equlat.partition import Partition
from equlat.tm import (
    SINK,
    TM_TEXT_ALPHABET,
    HaltsInSteps,
    MachineError,
    NoHaltWithinBound,
    TmSpec,
    approx_even,
    approx_odd,
    cantor_pair,
    cantor_unpair,
    clocked_step,
    decode_config,
    decode_tm,
    encode_config,
    encode_tm,
    halt_step,
    halting_probe,
    init_config,
    nonhalt_eq,
    nonhalt_family_meet,
    pack_point,
    serial_alphabet,
    serialize_config,
    simulate,
    step,
    tm_from_text,
    tm_to_text,
    trajectory,
    unpack_point,
    zoo,
)
from equlat.tm import _last_nonblank, _Numerals, _PointInfo, _run_codes

# Halts after several hundred steps on the empty input; kept out of the zoo,
# which the benchmark and `equlat verify tm` iterate.
LONG_HALT = Path(__file__).parent / "machines" / "long_halt.tm"


# The per-digit loops the divide-and-conquer numerals replaced, kept as oracles.
def _loop_string_to_nat(s, alphabet):
    index = {ch: i for i, ch in enumerate(alphabet)}
    n = 0
    for ch in s:
        n = n * len(alphabet) + index[ch] + 1
    return n


def _loop_nat_to_string(n, alphabet):
    out = []
    while n > 0:
        n, r = divmod(n - 1, len(alphabet))
        out.append(alphabet[r])
    return "".join(reversed(out))


def _loop_last_nonblank(tape, blank):
    i = len(tape) - 1
    while i > 0 and tape[i] == blank:
        i -= 1
    return i


# The Configuration-slicing step and the loops over it that the stepping
# kernel replaced, kept as oracles.
def _old_canonical(m, state, head, tape):
    if head >= len(tape):
        tape = tape + m.blank * (head + 1 - len(tape))
    keep = max(head, _loop_last_nonblank(tape, m.blank))
    return tm.Configuration(state, head, tape[: keep + 1])


def _old_step(m, c):
    if c.state in m.halting:
        return None
    sym = c.tape[c.head]
    state, write, move = m.rules[(c.state, sym)]
    tape = c.tape[: c.head] + write + c.tape[c.head + 1 :]
    head = c.head + (1 if move == "R" else -1 if move == "L" else 0)
    if head < 0:
        head = 0
    return _old_canonical(m, state, head, tape)


def _old_trajectory(m, input_str, max_steps):
    init_config(m, input_str)  # the same input check
    out = [_old_canonical(m, m.start, 1, tm.ENDMARKER + input_str)]
    while len(out) <= max_steps:
        nxt = _old_step(m, out[-1])
        if nxt is None:
            break
        out.append(nxt)
    return out


def _old_simulate(m, input_str, max_steps):
    c = _old_canonical(m, m.start, 1, tm.ENDMARKER + input_str)
    for t in range(max_steps):
        if c.state in m.halting:
            return t, c
        c = _old_step(m, c)
    return max_steps, c


def _alphabets():
    return sorted({serial_alphabet(m) for m in zoo().values()}) + [tuple(TM_TEXT_ALPHABET)]


class TestZoo:
    def test_composition(self):
        machines = zoo()
        assert len(machines) >= 10
        steps = {name: halt_step(m, "", 1000) for name, m in machines.items()}
        halting = [n for n, s in steps.items() if s is not None]
        looping = [n for n, s in steps.items() if s is None]
        assert len(halting) >= 3
        assert len(looping) >= 3

    def test_zoo_machines_carry_their_names(self):
        assert all(m.name == name for name, m in zoo().items())


class TestStep:
    def test_immediate_halt(self):
        m = zoo()["halt"]
        assert step(m, init_config(m, "")) is None

    def test_incrementer_hand_simulation(self):
        m = zoo()["increment"]
        c = init_config(m, "11")
        for _ in range(3):
            c = step(m, c)
        assert c.state in m.halting
        assert c.tape == ">111"
        assert halt_step(m, "11", 10) == 3

    def test_determinism(self):
        m = zoo()["sweeper"]
        c = init_config(m, "111")
        assert step(m, c) == step(m, c)

    def test_input_symbols_validated(self):
        with pytest.raises(MachineError, match="outside the tape alphabet"):
            init_config(zoo()["sweeper"], "102")

    def test_left_move_clamps_at_zero(self):
        m = tm_from_text(
            "states: s done\nstart: s\nhalt: done\nblank: _\n"
            "rule: s _ -> done _ L\nrule: s > -> s > S\n"
        )
        c = step(m, init_config(m, ""))
        assert c.head == 0


class TestMachineValidation:
    def test_totality_enforced(self):
        with pytest.raises(MachineError, match="not total"):
            tm_from_text(
                "states: s done\nstart: s\nhalt: done\nblank: _\n"
                "rule: s _ -> done _ S\n"  # missing rule for '>'
            )

    def test_halting_state_rules_rejected(self):
        with pytest.raises(MachineError, match="outgoing"):
            tm_from_text(
                "states: s\nstart: s\nhalt: s\nblank: _\n"
                "rule: s _ -> s _ S\nrule: s > -> s > S\n"
            )

    def test_endmarker_must_stay(self):
        with pytest.raises(MachineError, match="endmarker"):
            tm_from_text(
                "states: s\nstart: s\nhalt:\nblank: _\n"
                "rule: s _ -> s _ S\nrule: s > -> s _ S\n"
            )

    def test_text_round_trip(self):
        for m in zoo().values():
            assert tm_from_text(tm_to_text(m)) == m

    def test_seeded_mutations(self):
        rng = random.Random(29)
        machines = list(zoo().values()) + _random_machines(58, 40)
        outcomes = set()
        for _ in range(6000):
            text = _mutate_tm_text(rng, tm_to_text(rng.choice(machines)))
            bad = _first_bad_rule_line(text)
            try:
                m = tm_from_text(text)
            except ValueError as exc:  # MachineError is one; nothing else may escape
                message = str(exc)
                assert message.startswith(f"line {bad}: ") == (bad is not None), (text, message)
                outcomes.add(("line " if bad else "") + message.split(": ")[bool(bad)].split()[0])
                continue
            assert bad is None
            assert tm_from_text(tm_to_text(m)) == m
            assert tm_to_text(tm_from_text(tm_to_text(m))) == tm_to_text(m)
            outcomes.add("ok")
        # Successes, each line error and the machine checks all occur.
        assert outcomes == {
            "ok", "line expected", "line duplicate", "line cannot", "missing", "transition",
            "rule", "start/halting", "bad", "blank", "duplicate", "halting",
        }


_TM_JUNK_LINES = ("", "  ", "# note", "rule: s _ -> s", "states:", "halt:", "start s", "blank: __")
_TM_BAD_FIELDS = ("", "Q", "x y", "->", "<-", "L", "R", "S", "X", ">", "_", "s", "halt", "é")


def _mutate_tm_text(rng, text):
    """One to three line edits of machine text: junk lines, deletions,
    duplicates, swaps, replaced fields, a state name appended to a line,
    whitespace and broken keywords."""
    lines = text.splitlines()
    names = lines[0].split()[1:]
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(8) if lines else 0
        i = rng.randrange(len(lines)) if lines else 0
        if op == 0:
            lines.insert(i, rng.choice(_TM_JUNK_LINES))
        elif op == 1:
            del lines[i]
        elif op == 2:
            lines.insert(i, lines[i])
        elif op == 3:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 4:
            fields = lines[i].split() or [""]
            fields[rng.randrange(len(fields))] = rng.choice(_TM_BAD_FIELDS)
            lines[i] = " ".join(fields)
        elif op == 5:
            lines[i] += " " + rng.choice(names)
        elif op == 6:
            lines[i] = rng.choice(("  ", "\t")) + lines[i] + rng.choice(("", " ", "\t"))
        else:
            lines[i] = lines[i].replace(":", rng.choice((" :", "::", "")), 1)
    return "\n".join(lines) + rng.choice(("\n", "", "\r\n"))


def _first_bad_rule_line(text):
    """The number of the first line that is neither blank, a comment, a
    header nor a well-shaped rule for a new (state, symbol), or None."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "states:", "start:", "halt:", "blank:")):
            continue
        parts = line[len("rule:"):].split()
        if not line.startswith("rule:") or len(parts) != 6 or parts[2] != "->":
            return lineno
        if (parts[0], parts[1]) in seen:
            return lineno
        seen.add((parts[0], parts[1]))
    return None


class TestConfigCoding:
    def test_round_trip_along_runs(self):
        for name in ("increment", "sweeper", "builder"):
            m = zoo()[name]
            for c in trajectory(m, "11", 12):
                assert decode_config(m, encode_config(m, c)) == c

    def test_zero_is_not_a_configuration(self):
        assert decode_config(zoo()["halt"], 0) is None

    def test_garbage_codes_decode_to_none(self):
        m = zoo()["increment"]
        valid = {encode_config(m, c) for c in trajectory(m, "1", 6)}
        hits = sum(1 for code in range(1, 2000) if decode_config(m, code) is not None)
        assert hits <= 2000  # decoding is total and never raises
        for code in range(1, 100):
            c = decode_config(m, code)
            if c is not None:
                assert decode_config(m, encode_config(m, c)) == c

    def test_noncanonical_decimal_rejected(self):
        # '01:1:>_' style strings must not decode: leading zeros would break
        # the bijection between configurations and codes
        m = zoo()["halt"]
        bad = _loop_string_to_nat("00:1:>_", serial_alphabet(m))
        assert decode_config(m, bad) is None


class TestNumerals:
    def test_matches_digit_loops_below_5000(self):
        for alphabet in _alphabets():
            numerals = _Numerals(alphabet)
            for n in range(5000):
                text = _loop_nat_to_string(n, alphabet)
                assert numerals.to_string(n) == text
                assert numerals.to_nat(text) == n

    def test_matches_digit_loops_on_long_strings(self):
        rng = random.Random(21)
        for alphabet in _alphabets():
            numerals = _Numerals(alphabet)
            for _ in range(40):
                text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1201)))
                n = _loop_string_to_nat(text, alphabet)
                assert numerals.to_nat(text) == n
                assert numerals.to_string(n) == text

    def test_to_nat_leaf_and_block_edges(self):
        # Every length up to 200, the block edges at 32 and 64 digits, and
        # long strings, on the smallest and a large alphabet.
        rng = random.Random(28)
        lengths = [*range(201), 31, 32, 33, 63, 64, 65, 1000, 4000]
        for alphabet in ("ab", [chr(ord("0") + i) for i in range(54)]):
            numerals = _Numerals(alphabet)
            for length in lengths:
                text = "".join(rng.choice(alphabet) for _ in range(length))
                n = numerals.to_nat(text)
                assert n == _loop_string_to_nat(text, alphabet), (len(alphabet), length)
                assert numerals.to_string(n) == text

    def test_configuration_codes_unchanged_along_long_runs(self):
        for name in ("builder", "shuttle", "sweeper"):
            m = zoo()[name]
            alphabet = serial_alphabet(m)
            for c in trajectory(m, "", 1000)[::37]:
                code = encode_config(m, c)
                assert code == _loop_string_to_nat(serialize_config(m, c), alphabet)
                assert decode_config(m, code) == c

    def test_last_nonblank_matches_loop(self):
        rng = random.Random(22)
        for _ in range(500):
            tape = ">" + "".join(rng.choice("_1_") for _ in range(rng.randrange(8)))
            assert _last_nonblank(tape, "_") == _loop_last_nonblank(tape, "_")

    def test_alphabets_cached_per_machine(self):
        m = zoo()["builder"]
        assert m.alphabet is m.alphabet
        assert serial_alphabet(m) is serial_alphabet(m)
        assert m._table is m._table

    def test_needs_two_symbols(self):
        with pytest.raises(ValueError):
            _Numerals("a")


class TestPointPacking:
    def test_sink(self):
        assert pack_point(0, 0) == 0
        assert unpack_point(0) == (0, 0)

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_pack_unpack_inverse(self, a, b):
        assert unpack_point(pack_point(a, b)) == (a, b)

    @given(st.integers(0, 10**9))
    def test_cantor_inverse(self, z):
        a, b = cantor_unpair(z)
        assert cantor_pair(a, b) == z


class TestClockedStep:
    def test_final_configuration_points_to_sink(self):
        m = zoo()["increment"]
        arrow = clocked_step(m)
        traj = trajectory(m, "11", 10)
        last = pack_point(5, encode_config(m, traj[-1]))
        assert traj[-1].state in m.halting
        assert arrow(last, 0)

    def test_clock_must_advance_by_one(self):
        m = zoo()["increment"]
        arrow = clocked_step(m)
        traj = trajectory(m, "11", 10)
        p0 = pack_point(0, encode_config(m, traj[0]))
        p1 = pack_point(1, encode_config(m, traj[1]))
        p2 = pack_point(2, encode_config(m, traj[2]))
        assert arrow(p0, p1)
        assert not arrow(p0, p2)
        wrong_clock = pack_point(2, encode_config(m, traj[1]))
        assert not arrow(p0, wrong_clock)

    def test_sink_has_no_outgoing(self):
        arrow = clocked_step(zoo()["spin"])
        assert not arrow(0, 0)
        assert not arrow(0, 5)


class TestApproxClosures:
    def test_parity_gating(self):
        m = zoo()["sweeper"]
        traj = trajectory(m, "11", 10)
        pts = [pack_point(t, encode_config(m, c)) for t, c in enumerate(traj)]
        even, odd = approx_even(m), approx_odd(m)
        assert even.decide(pts[2], pts[3])
        assert not odd.decide(pts[2], pts[3])
        assert odd.decide(pts[3], pts[4])

    def test_reflexive_everywhere(self):
        even = approx_even(zoo()["spin"])
        assert all(even.decide(x, x) for x in range(50))

    def test_closure_equals_graph_closure_on_reachable_points(self):
        # oracle: reflexive-symmetric-transitive closure of the arrow graph,
        # computed by union-find over explicit edges
        m = zoo()["flipper"]
        traj = trajectory(m, "", 10)
        pts = [pack_point(t, encode_config(m, c)) for t, c in enumerate(traj)] + [0]
        arrow = clocked_step(m)
        for parity, dec in ((0, approx_even(m)), (1, approx_odd(m))):
            parent = {p: p for p in pts}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for x in pts:
                clock, _ = unpack_point(x)
                if x != 0 and clock % 2 == parity:
                    for y in pts:
                        if arrow(x, y):
                            parent[find(x)] = find(y)
            for x in pts:
                for y in pts:
                    assert dec.decide(x, y) == (find(x) == find(y))


def _gated_successor(m, x, parity):
    """The one-step target of x when x is a valid point with the given clock
    parity, computed from the public coding functions."""
    if x == SINK:
        return None
    clock, code = unpack_point(x)
    c = decode_config(m, code)
    if c is None or clock % 2 != parity:
        return None
    nxt = step(m, c)
    return SINK if nxt is None else pack_point(clock + 1, encode_config(m, nxt))


class TestApproxKey:
    def test_key_kernel_equals_closure_formula(self):
        rng = random.Random(23)
        for name, m in zoo().items():
            symbols = [a for a in m.alphabet if a != ">"]
            traj = trajectory(m, "", 24) + trajectory(m, rng.choice(symbols) * 3, 12)
            sample = {SINK, pack_point(3, 0)} | {rng.randrange(1 << 40) for _ in range(8)}
            for t, c in enumerate(traj):
                code = encode_config(m, c)
                sample |= {pack_point(t % 25, code), pack_point(t % 25 + 1, code)}
            for parity, d in ((0, approx_even(m)), (1, approx_odd(m))):
                succ = {x: _gated_successor(m, x, parity) for x in sample}
                for x in sample:
                    for y in sample:
                        sx, sy = succ[x], succ[y]
                        old = x == y or sx == y or sy == x or (sx is not None and sx == sy)
                        assert d.decide(x, y) == old, (name, parity, x, y)


def _scanning_probe_join(m, input_str, bound):
    """The join search halting_probe makes, on key-stripped closures, and
    the packed points of its window."""
    configs = trajectory(m, input_str, bound)
    points = [pack_point(t, encode_config(m, c)) for t, c in enumerate(configs)]
    even, odd = (DeciderEq(d.decide, check_bound=0) for d in (approx_even(m), approx_odd(m)))
    return bounded_join(even, odd, points[0], SINK, set(points) | {SINK}, 2 * bound + 2), points


class TestProbeKeyedJoin:
    """The probe's bucketed join returns the chain, links and explored count
    of the scanning join on every zoo machine, and the bounds of its
    window."""

    def check(self, m, input_str, bound):
        probe = halting_probe(m, input_str, bound)
        scan, points = _scanning_probe_join(m, input_str, bound)
        assert probe.universe_bound == max(points) + 1
        assert probe.chain_bound == 2 * bound + 2
        if isinstance(probe, HaltsInSteps):
            assert probe.witness == scan
        else:
            assert scan == NotWithinBounds(probe.explored)

    def test_whole_zoo_at_bound_1000(self):
        for m in zoo().values():
            self.check(m, "", 1000)

    def test_whole_zoo_on_several_inputs(self):
        rng = random.Random(24)
        for m in zoo().values():
            symbols = [a for a in m.alphabet if a != ">"]
            for _ in range(3):
                inp = "".join(rng.choice(symbols) for _ in range(rng.randrange(1, 6)))
                self.check(m, inp, rng.randrange(50, 250))

    def test_random_machines_around_their_halting_step(self):
        rng = random.Random(59)
        seen = set()
        for m in _random_machines(58, 80):
            symbols = [a for a in m.alphabet if a != tm.ENDMARKER]
            inp = "".join(rng.choice(symbols) for _ in range(rng.randrange(4)))
            h = halt_step(m, inp, 60)
            bounds = {0} | ({h - 1, h, h + 1} if h is not None else {rng.randrange(1, 60)})
            for bound in sorted(bounds - {-1}):
                self.check(m, inp, bound)
                halts = h is not None and h <= bound
                # a run's last index, bound, is gated under the closure of its parity
                seen.add(("halts at", h % 2) if halts else ("runs past", bound % 2))
        assert seen == {("halts at", 0), ("halts at", 1), ("runs past", 0), ("runs past", 1)}


class TestHaltingProbe:
    def test_immediate_halt(self):
        res = halting_probe(zoo()["halt"], "", 10)
        assert isinstance(res, HaltsInSteps)
        assert res.steps == 0
        assert res.witness.chain[-1] == 0

    def test_loop_not_within_bound(self):
        res = halting_probe(zoo()["spin"], "", 100)
        assert isinstance(res, NoHaltWithinBound)
        assert res.step_bound == 100

    def test_incrementer_matches_simulation(self):
        m = zoo()["increment"]
        res = halting_probe(m, "11", 10)
        assert isinstance(res, HaltsInSteps)
        assert res.steps == halt_step(m, "11", 10) == 3

    def test_whole_zoo_agrees_with_simulation(self):
        for name, m in zoo().items():
            res = halting_probe(m, "", 200)
            direct = halt_step(m, "", 200)
            if isinstance(res, HaltsInSteps):
                assert res.steps == direct, name
            else:
                assert direct is None, name


def random_tm(rng: random.Random) -> TmSpec:
    """A seeded random small machine: one to four states, some of them
    halting, a blank and zero to two more tape symbols, and a total table
    whose endmarker rules keep the endmarker and never move left."""
    names = rng.sample(["s", "q1", "q_2", "z9", "run", "h"], rng.randint(1, 4))
    halting = frozenset(q for q in names[1:] if rng.random() < 0.4)
    symbols = rng.sample("_01xb#*+-.", rng.randint(1, 3))
    rules = {}
    for q in names:
        if q in halting:
            continue
        for a in symbols:
            rules[q, a] = (rng.choice(names), rng.choice(symbols), rng.choice(tm.MOVES))
        rules[q, tm.ENDMARKER] = (rng.choice(names), tm.ENDMARKER, rng.choice("RS"))
    return TmSpec(tuple(names), symbols[0], names[0], halting, rules)


def _random_machines(seed: int, count: int) -> list[TmSpec]:
    rng = random.Random(seed)
    return [random_tm(rng) for _ in range(count)]


class TestNonHalting:
    def test_immediate_halt_machine_is_singleton(self):
        d = nonhalt_eq(1)
        h = encode_tm(zoo()["halt"])
        s = encode_tm(zoo()["spin"])
        assert d.decide(h, h)
        assert not d.decide(h, s)

    def test_self_loop_always_in_big_class(self):
        spin = encode_tm(zoo()["spin"])
        builder = encode_tm(zoo()["builder"])
        for n in (1, 5, 50):
            assert nonhalt_eq(n).decide(spin, builder)

    def test_family_meet_matches_simulation(self):
        machines = list(zoo().values())
        part = nonhalt_family_meet(10, machines)
        expect = {
            i for i, m in enumerate(machines) if halt_step(m, "", 10) is None
        }
        big = {c for c in part.classes() if len(c) >= 2}
        assert len(big) == 1
        assert set(next(iter(big))) == expect

    def test_big_classes_shrink_with_n(self):
        machines = list(zoo().values())
        prev = None
        for k in (1, 3, 8):
            part = nonhalt_family_meet(k, machines)
            big = next((set(c) for c in part.classes() if len(c) >= 2), set())
            if prev is not None:
                assert big <= prev
            prev = big

    def test_family_meet_is_fold_of_levels(self):
        # oracle: the explicit meet over every level 1..k, on the codes
        machines = list(zoo().values()) + _random_machines(54, 12)
        # Repeated machines share their class, one of them built afresh
        # from its text.
        machines += [machines[3], machines[-1], tm_from_text(tm_to_text(machines[14]))]
        codes = [encode_tm(m) for m in machines]
        fold = None
        for k in range(1, 251):
            key = nonhalt_eq(k).key
            level = Partition.from_key(len(codes), lambda i: key(codes[i]))
            fold = level if fold is None else fold.meet(level)
            part = nonhalt_family_meet(k, machines)
            assert part == fold, k
            assert part.related(3, len(machines) - 3)
            assert part.related(len(machines) - 4, len(machines) - 2)
            assert part.related(14, len(machines) - 1)

    def test_machine_coding_round_trip(self):
        for m in list(zoo().values()) + _random_machines(52, 300):
            assert decode_tm(encode_tm(m)) == m
            assert tm_from_text(tm_to_text(m)) == m

    def test_small_numbers_are_not_machines(self):
        assert all(decode_tm(x) is None for x in range(64))


class TestRandomMachines:
    def test_generator_respects_the_endmarker(self):
        for m in _random_machines(50, 300):
            for (q, a), (_, b, mv) in m.rules.items():
                if a == tm.ENDMARKER:
                    assert b == tm.ENDMARKER and mv != "L"
            # The head never leaves the tape and the endmarker never moves.
            for c in trajectory(m, "", 60):
                assert c.tape[0] == tm.ENDMARKER and 0 <= c.head < len(c.tape)

    def test_generator_is_seeded_and_varied(self):
        assert _random_machines(51, 40) == _random_machines(51, 40)
        machines = _random_machines(51, 200)
        verdicts = {halt_step(m, "", 60) is None for m in machines}
        assert verdicts == {True, False}
        assert len({tm_to_text(m) for m in machines}) > 150

    def test_probe_agrees_with_simulation(self):
        for m in _random_machines(53, 60):
            symbols = [a for a in m.alphabet if a != tm.ENDMARKER]
            for inp in ("", symbols[-1] * 2):
                result = halting_probe(m, inp, 40)
                direct = halt_step(m, inp, 40)
                if direct is None:
                    assert isinstance(result, NoHaltWithinBound)
                else:
                    assert isinstance(result, HaltsInSteps) and result.steps == direct


def _long_halt():
    return tm_from_text(LONG_HALT.read_text(), name=str(LONG_HALT))


def _fresh(m):
    """An equal machine with empty per-machine tables."""
    return tm_from_text(tm_to_text(m), name=m.name)


def _coding_runs():
    """Oracle runs: the zoo on the empty input up to bound 1000 and on seeded
    random inputs, the long-halting machine, and seeded random machines."""
    rng = random.Random(25)
    for m in zoo().values():
        yield m, _old_trajectory(m, "", 1000)
        symbols = [a for a in m.alphabet if a != ">"]
        for _ in range(3):
            inp = "".join(rng.choice(symbols) for _ in range(rng.randrange(1, 9)))
            yield m, _old_trajectory(m, inp, rng.randrange(50, 400))
    long_halt = _long_halt()
    for inp in ("", "1011"):
        yield long_halt, _old_trajectory(long_halt, inp, 1000)
    for m in _random_machines(55, 80):
        symbols = [a for a in m.alphabet if a != ">"]
        for _ in range(2):
            inp = "".join(rng.choice(symbols) for _ in range(rng.randrange(0, 6)))
            yield m, _old_trajectory(m, inp, rng.randrange(0, 120))


class TestIncrementalCodes:
    def test_codes_equal_encode_config(self):
        seen = {"growth": 0, "shrink": 0, "last-cell write": 0, "head at cell 0": 0}
        for m, run in _coding_runs():
            codes = [encode_config(m, c) for c in run]
            assert _run_codes(m, run[0], len(run) - 1) == codes, m.name
            for a, b in zip(run, run[1:]):
                seen["growth"] += len(b.tape) > len(a.tape)
                seen["shrink"] += len(b.tape) < len(a.tape)
                seen["last-cell write"] += (
                    a.head == len(a.tape) - 1 < len(b.tape) and a.tape[-1] != b.tape[a.head]
                )
                seen["head at cell 0"] += b.head == 0
        assert all(seen.values()), seen

    def test_single_configuration(self):
        m = zoo()["halt"]
        c = init_config(m, "")
        assert _run_codes(m, c, 0) == _run_codes(m, c, 5) == [encode_config(m, c)]


class TestSteppingKernel:
    """simulate, trajectory and step against the Configuration-slicing oracle."""

    def test_trajectory_and_step_match_oracle(self):
        for m, run in _coding_runs():
            c = run[0]
            inp = c.tape[1:]
            assert trajectory(m, inp, len(run) - 1) == run, m.name
            assert trajectory(m, inp, len(run) + 3) == _old_trajectory(m, inp, len(run) + 3)
            for a in run:
                assert step(m, a) == _old_step(m, a)

    def test_simulate_matches_oracle(self):
        for m, run in _coding_runs():
            inp = run[0].tape[1:]
            for bound in {0, 1, len(run) // 2, len(run) - 1, len(run), len(run) + 7}:
                assert simulate(m, inp, bound) == _old_simulate(m, inp, bound), m.name

    def test_inputs_with_blanks_start_canonical(self):
        for m in list(zoo().values()) + _random_machines(56, 40):
            symbols = [a for a in m.alphabet if a != tm.ENDMARKER]
            blank, mark = m.blank, symbols[-1]
            for inp in ("", blank, blank * 3, mark + blank * 2, blank + mark):
                assert init_config(m, inp) == _old_trajectory(m, inp, 0)[0]
                assert trajectory(m, inp, 40) == _old_trajectory(m, inp, 40)

    def test_cantor_pair_matches_old_formula(self):
        rng = random.Random(27)
        pairs = [(a, b) for a in range(40) for b in range(40)]
        for _ in range(300):
            pairs.append((rng.getrandbits(rng.randrange(15001)), rng.getrandbits(15000)))
            pairs.append((rng.randrange(4001), rng.getrandbits(rng.randrange(15001))))
        for a, b in pairs:
            assert cantor_pair(a, b) == (a + b) * (a + b + 1) // 2 + b

    def test_every_run_steps_through_the_kernel(self, monkeypatch):
        calls = []
        real = tm._run

        def counting(m, c, tape, max_steps):
            calls.append(max_steps)
            return real(m, c, tape, max_steps)

        monkeypatch.setattr(tm, "_run", counting)
        m = _fresh(zoo()["increment"])  # an empty successor table
        trajectory(m, "11", 7)
        simulate(m, "11", 8)
        halt_step(m, "11", 9)
        start = init_config(m, "11")
        assert step(m, start) == _old_step(m, start)
        assert calls == [7, 8, 9, 1]
        calls.clear()
        result = halting_probe(m, "11", 10)
        # One run codes the trajectory; the fresh table that re-checks the
        # positive witness steps each running configuration it decodes.
        assert isinstance(result, HaltsInSteps)
        assert calls == [11] + [1] * result.steps
        calls.clear()
        # The machine's successor table already holds every chain point.
        assert halting_probe(m, "11", 12).witness == result.witness
        assert calls == [13]


class TestClockIndexKeys:
    def test_index_keys_equal_decoded_point_keys(self, monkeypatch):
        # The search's keys on clock indices, mapped through the window (the
        # index past it to the point after the bound), are the keys a freshly
        # decoding table gives the window's points.
        rng = random.Random(26)
        cases = [(_long_halt(), "", 400), (_long_halt(), "", 200), (_long_halt(), "1011", 300)]
        for m in zoo().values():
            symbols = [a for a in m.alphabet if a != ">"]
            inp = "".join(rng.choice(symbols) for _ in range(rng.randrange(1, 9)))
            cases += [(m, "", 61), (m, inp, 40)]
        real = tm.bounded_join
        outcomes = set()
        for m, input_str, bound in cases:
            searches = []
            monkeypatch.setattr(tm, "bounded_join", lambda *a: searches.append(a) or real(*a))
            result = halting_probe(m, input_str, bound)
            monkeypatch.undo()
            (even, odd, start, end, size, chain_bound), = searches
            configs = trajectory(m, input_str, bound + 1)
            points = [pack_point(t, encode_config(m, c)) for t, c in enumerate(configs)]
            window = points[: bound + 1] + [SINK]
            halted = len(configs) <= bound + 1
            assert (start, end, size, chain_bound) == (0, len(window) - 1, len(window), 2 * bound + 2)
            named = window + points[bound + 1 :]
            for parity, d in ((0, even), (1, odd)):
                decoded = tm._approx(m, parity, _PointInfo(m))
                for t in range(size):
                    assert named[d.key(t)] == decoded.key(window[t]), (m.name, parity, t)
            assert isinstance(result, HaltsInSteps) == halted
            assert result.universe_bound == max(window) + 1
            outcomes.add(halted)
        assert outcomes == {False, True}


class TestProbeReCheck:
    @pytest.mark.parametrize(
        "name, input_str, bound, points",
        [("increment", "11", 10, range(4)), ("long_halt", "", 325, (0, 1, 150, 324, 325))],
    )
    def test_off_by_one_code_is_caught(self, monkeypatch, name, input_str, bound, points):
        m = _long_halt() if name == "long_halt" else zoo()[name]
        assert isinstance(halting_probe(m, input_str, bound), HaltsInSteps)
        for j in points:

            def off_by_one(machine, c, max_steps, j=j):
                codes = _run_codes(machine, c, max_steps)
                codes[j] += 1
                return codes

            monkeypatch.setattr(tm, "_run_codes", off_by_one)
            with pytest.raises(AssertionError, match="unverifiable chain"):
                halting_probe(m, input_str, bound)
            monkeypatch.undo()


    @pytest.mark.parametrize("name, input_str, bound", [("increment", "11", 10), ("halt", "", 0)])
    def test_chain_is_checked_against_the_universe_bound(self, monkeypatch, name, input_str, bound):
        universes = []
        real = tm.verify_chain

        def spy(d1, d2, witness, universe, chain_bound):
            universes.append(universe)
            return real(d1, d2, witness, universe, chain_bound)

        monkeypatch.setattr(tm, "verify_chain", spy)
        result = halting_probe(zoo()[name], input_str, bound)
        assert isinstance(result, HaltsInSteps) and universes == [result.universe_bound]

    def test_chain_must_start_at_the_initial_configuration(self, monkeypatch):
        # ">0" under the head steps like the blank of the real start, so a
        # chain from this wrong start verifies link by link
        m = _long_halt()
        start = init_config(m, "")
        wrong = tm.Configuration(start.state, start.head, ">0")
        assert step(m, wrong) == step(m, start)

        def wrong_start(machine, c, max_steps):
            return [encode_config(machine, wrong)] + _run_codes(machine, c, max_steps)[1:]

        monkeypatch.setattr(tm, "_run_codes", wrong_start)
        with pytest.raises(AssertionError, match="unverifiable chain"):
            halting_probe(m, "", 400)


class TestProbeWork:
    """Deterministic work counts: the search decodes nothing, and the
    re-check decodes each non-sink chain point once."""

    def count_decodes(self, monkeypatch, m, input_str, bound):
        codes = []
        real = tm.decode_config

        def counting(machine, code):
            codes.append(code)
            return real(machine, code)

        monkeypatch.setattr(tm, "decode_config", counting)
        return halting_probe(m, input_str, bound), codes

    def test_negative_probe_decodes_nothing(self, monkeypatch):
        result, codes = self.count_decodes(monkeypatch, zoo()["builder"], "", 1000)
        assert isinstance(result, NoHaltWithinBound)
        assert codes == []

    @pytest.mark.parametrize("name, input_str", [("increment", "11"), ("long_halt", "")])
    def test_positive_probe_decodes_each_chain_point_once(self, monkeypatch, name, input_str):
        m = _long_halt() if name == "long_halt" else _fresh(zoo()[name])
        result, codes = self.count_decodes(monkeypatch, m, input_str, 1000)
        assert isinstance(result, HaltsInSteps)
        chain = result.witness.chain
        assert chain[-1] == SINK
        assert len(codes) == len(chain) - 1
        assert sorted(codes) == sorted(unpack_point(x)[1] for x in chain[:-1])

    @pytest.mark.parametrize("name, input_str", [("increment", "11"), ("long_halt", "")])
    def test_second_probe_at_another_bound_decodes_nothing(self, monkeypatch, name, input_str):
        m = _long_halt() if name == "long_halt" else _fresh(zoo()[name])
        first = halting_probe(m, input_str, 1000)
        assert isinstance(first, HaltsInSteps)
        bound = first.steps + 7
        second, codes = self.count_decodes(monkeypatch, m, input_str, bound)
        assert codes == []
        monkeypatch.undo()
        assert second == halting_probe(_fresh(m), input_str, bound)
        assert second.witness == first.witness


def _probe_cases(seed):
    """The zoo on four inputs each at bounds 0..4000, and seeded random
    machines around their halting step, in a seeded shuffled order."""
    rng = random.Random(seed)
    cases = []
    for m in zoo().values():
        symbols = [a for a in m.alphabet if a != tm.ENDMARKER]
        for n in (0, 1, 3, 8):
            inp = "".join(rng.choice(symbols) for _ in range(n))
            cases += [(m, inp, b) for b in (0, 1, 2, 7, 50, rng.randrange(60, 400))]
        cases.append((m, "", 4000))
    for m in _random_machines(61, 40):
        symbols = [a for a in m.alphabet if a != tm.ENDMARKER]
        inp = "".join(rng.choice(symbols) for _ in range(rng.randrange(4)))
        h = halt_step(m, inp, 60)
        bounds = {0} | ({h - 1, h, h + 1} if h is not None else {rng.randrange(1, 60)})
        cases += [(m, inp, b) for b in sorted(bounds - {-1})]
    rng.shuffle(cases)
    return cases


class TestSuccessorTable:
    """Probes read successors from one bounded table per machine; a probe's
    answer does not depend on what the table holds."""

    def test_cold_and_warm_tables_agree(self):
        cases = _probe_cases(62)
        warm = {id(m): _fresh(m) for m, _, _ in cases}
        for m, input_str, bound in cases:
            cold = halting_probe(_fresh(m), input_str, bound)
            assert halting_probe(warm[id(m)], input_str, bound) == cold, (m.name, input_str, bound)
        assert any(m._successors for m in warm.values())

    def test_small_limit_bounds_the_table(self, monkeypatch):
        cases = _probe_cases(63)
        expected = [halting_probe(_fresh(m), inp, b) for m, inp, b in cases]
        monkeypatch.setattr(tm, "_SUCCESSOR_LIMIT", 5)
        sizes = []
        real_encode = tm.encode_config

        def watching(machine, c):
            sizes.append(len(machine._successors))
            return real_encode(machine, c)

        monkeypatch.setattr(tm, "encode_config", watching)
        machines = {id(m): _fresh(m) for m, _, _ in cases}
        for (m, inp, b), want in zip(cases, expected):
            assert halting_probe(machines[id(m)], inp, b) == want, (m.name, inp, b)
            assert len(machines[id(m)]._successors) <= 5
        assert max(sizes) == 5  # filled to the limit, then cleared

    def test_table_holds_decoded_successors_only(self):
        m = _fresh(zoo()["increment"])
        configs = trajectory(m, "11", 10)
        halting_probe(m, "11", 10)
        codes = [encode_config(m, c) for c in configs]
        assert m._successors == dict(zip(codes, codes[1:] + [0]))
        info = _PointInfo(m)
        assert info[pack_point(3, 7)] is None  # 7 decodes to nothing
        assert m._successors[7] is None


class TestLongHaltingMachine:
    def test_out_of_zoo_and_long(self):
        m = _long_halt()
        assert m not in zoo().values()
        assert halt_step(m, "", 5000) == 325
        assert all(halt_step(z, "", 1000) in (None, *range(8)) for z in zoo().values())

    @pytest.mark.parametrize("bound", [323, 324, 325, 326])
    def test_probe_at_and_below_halting_step(self, bound):
        m = _long_halt()
        probe = halting_probe(m, "", bound)
        scan, _ = _scanning_probe_join(m, "", bound)
        if bound >= 325:
            assert isinstance(probe, HaltsInSteps) and probe.steps == 325
            assert probe.witness == scan
        else:
            assert isinstance(probe, NoHaltWithinBound)
            assert scan == NotWithinBounds(probe.explored)


class TestStepBounds:
    @pytest.mark.parametrize("fn", [trajectory, halt_step, halting_probe])
    @pytest.mark.parametrize("bound", [-1, -3])
    def test_negative_bound_rejected(self, fn, bound):
        with pytest.raises(ValueError, match="non-negative"):
            fn(zoo()["halt"], "", bound)

    def test_zero_bound(self):
        halt, builder = zoo()["halt"], zoo()["builder"]
        assert len(trajectory(builder, "", 0)) == 1
        assert halt_step(halt, "", 0) == 0 and halt_step(builder, "", 0) is None
        res = halting_probe(halt, "", 0)
        assert isinstance(res, HaltsInSteps) and res.steps == 0
        res = halting_probe(builder, "", 0)
        assert isinstance(res, NoHaltWithinBound) and res.chain_bound == 2


def _halt_step_from_trajectory(m, input_str, bound):
    traj = trajectory(m, input_str, bound)
    return len(traj) - 1 if traj[-1].state in m.halting else None


class TestHaltStep:
    def test_matches_trajectory(self):
        machines = list(zoo().values()) + [_long_halt()] + _random_machines(57, 80)
        for m in machines:
            symbols = [a for a in m.alphabet if a != tm.ENDMARKER]
            for inp in ("", symbols[-1] * 3):
                direct = halt_step(m, inp, 400)
                assert direct == _halt_step_from_trajectory(m, inp, 400)
                # At the halting step and one below it the answer flips.
                if direct is not None:
                    assert halt_step(m, inp, direct) == direct
                    if direct > 0:
                        assert halt_step(m, inp, direct - 1) is None

    def test_memory_is_linear_in_the_tape(self):
        # builder grows its tape by a cell per step; keeping every
        # configuration would peak at several MB at this bound.
        import tracemalloc

        builder = zoo()["builder"]
        tracemalloc.start()
        try:
            assert halt_step(builder, "", 4000) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
