import random

import pytest
from hypothesis import given, strategies as st

from equlat.decider import DeciderEq, NotWithinBounds, bounded_join
from equlat.partition import Partition
from equlat.tm import (
    SINK,
    TM_TEXT_ALPHABET,
    HaltsInSteps,
    MachineError,
    NoHaltWithinBound,
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
    load_machine,
    nonhalt_eq,
    nonhalt_family_meet,
    pack_point,
    serial_alphabet,
    serialize_config,
    step,
    tm_from_text,
    tm_to_text,
    trajectory,
    unpack_point,
    zoo,
)
from equlat.tm import _last_nonblank, _Numerals


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

    def test_load_machine_by_name_and_error(self):
        assert load_machine("increment").name == "increment"
        with pytest.raises(MachineError, match="unknown machine"):
            load_machine("no-such-machine")


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
    """The join search halting_probe makes, on key-stripped closures."""
    configs = trajectory(m, input_str, bound)
    points = [pack_point(t, encode_config(m, c)) for t, c in enumerate(configs)]
    even, odd = (DeciderEq(d.decide, check_bound=0) for d in (approx_even(m), approx_odd(m)))
    return bounded_join(even, odd, points[0], SINK, set(points) | {SINK}, 2 * bound + 2)


class TestProbeKeyedJoin:
    """The probe's bucketed join returns the chain, links and explored count
    of the scanning join on every zoo machine."""

    def check(self, m, input_str, bound):
        probe = halting_probe(m, input_str, bound)
        scan = _scanning_probe_join(m, input_str, bound)
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
        # oracle: the explicit meet over every level 1..k
        machines = list(zoo().values())
        machines.append(machines[3])  # a repeated machine shares its class
        codes = [encode_tm(m) for m in machines]
        for k in range(1, 41):
            fold = None
            for n in range(1, k + 1):
                key = nonhalt_eq(n).key
                level = Partition.from_key(len(codes), lambda i: key(codes[i]))
                fold = level if fold is None else fold.meet(level)
            part = nonhalt_family_meet(k, machines)
            assert part == fold, k
            assert part.related(3, len(machines) - 1)

    def test_machine_coding_round_trip(self):
        for m in zoo().values():
            assert decode_tm(encode_tm(m)) == m

    def test_small_numbers_are_not_machines(self):
        assert all(decode_tm(x) is None for x in range(64))
