"""Deterministic Turing machines, the clocked one-step relation on
(clock, configuration) points, and the bounded shadow of the halting problem.

Tape model: left-bounded, cell 0 always holds the endmarker ">"; the input
starts at cell 1 and the head starts there too.  Rules on the endmarker must
keep it in place and move right or stay, so stepping never leaves the tape.

Configuration coding, bit-exactly:

  * A configuration (state, head, tape) is serialized as the string
    ``"<state index>:<head>:<tape>"`` with both numbers in decimal.
    The tape string is canonical: it extends exactly to
    max(head, last non-blank cell), so there are no trailing blanks except
    possibly under the head.
  * The string is read as a bijective base-k numeral over the machine's
    serialization alphabet: the digits 0-9, then ":", then the machine's
    tape symbols in the fixed order the machine reports them (blank,
    endmarker, then rule symbols by sorted rule key; duplicates dropped).
    The empty string is 0, so every configuration code is >= 1.
  * A (clock, code) point is packed as cantor(clock, code) + 1, and the
    natural 0 is reserved for the sink that finished computations step to.
    Numbers that decode to (clock, 0) or to a malformed configuration are
    not valid points; they are singleton classes in every derived relation.

One loop steps every run, on a list tape edited in place: ``step`` is one
step of it, ``simulate`` keeps the last configuration, ``trajectory`` copies
out each one, and a halting probe derives each point's code from its
predecessor's and the at most two cells the step changed.  Its join search
runs on clock indices, so it hashes no packed point and decodes nothing;
points are decoded only to re-check a positive chain against a fresh point
table.  That table, like ``clocked_step``, ``approx_even`` and ``approx_odd``,
reads each configuration's successor from one bounded table per machine,
filled only by decoding, stepping and encoding, so a configuration that an
earlier probe or check decoded is not decoded again.

Machine descriptions are serialized through the same text format the zoo
files use and coded as bijective numerals over a fixed character alphabet,
which turns "machines" into naturals for the non-halting relations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import compress, repeat
from math import isqrt
from operator import ge
from typing import Callable, Mapping, Sequence

from importlib import resources

from .decider import DeciderEq, RelatedWitness, bounded_join, singular_from_predicate, verify_chain
from .partition import Partition, field_lines

ENDMARKER = ">"
MOVES = ("L", "R", "S")

# Entries of a machine's successor table (configuration code -> successor's
# code) before it is cleared.  Full, one table holds about 0.11 MB on the zoo
# machines at the halting-probe benchmark's bounds (50 to 1,000 steps) and
# 2.7 MB on builder's codes up to 4,000 steps, whose tapes grow every step.
# Over 250 rounds of that benchmark, 94.4% of lookups hit; twice the limit
# made it 94.6%, and half of it 78%.
_SUCCESSOR_LIMIT = 1024

_STATE_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_")
_SYMBOL_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_>#*+-.")


class MachineError(ValueError):
    """Raised for malformed machine descriptions."""


@dataclass(frozen=True)
class TmSpec:
    """A deterministic machine; the transition table is total on non-halting
    states over the whole tape alphabet."""

    states: tuple[str, ...]
    blank: str
    start: str
    halting: frozenset[str]
    rules: Mapping[tuple[str, str], tuple[str, str, str]]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.states:
            raise MachineError("need at least one state")
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise MachineError("duplicate state names")
        for q in self.states:
            if not q or set(q) - _STATE_CHARS:
                raise MachineError(f"bad state name {q!r}")
        if self.start not in state_set or not self.halting <= state_set:
            raise MachineError("start/halting states must be declared")
        if len(self.blank) != 1 or self.blank == ENDMARKER:
            raise MachineError("blank must be a single symbol distinct from the endmarker")
        for sym in self.alphabet:
            if len(sym) != 1 or sym not in _SYMBOL_CHARS:
                raise MachineError(f"bad tape symbol {sym!r}")
        for (q, a), (q2, b, mv) in self.rules.items():
            if q in self.halting:
                raise MachineError(f"halting state {q} has an outgoing rule")
            if q not in state_set or q2 not in state_set:
                raise MachineError(f"rule references unknown state: {q} or {q2}")
            if mv not in MOVES:
                raise MachineError(f"bad move {mv!r}")
            if a == ENDMARKER and (b != ENDMARKER or mv == "L"):
                raise MachineError(
                    f"rule on the endmarker in state {q} must keep it and not move left"
                )
        for q in self.states:
            if q in self.halting:
                continue
            for a in self.alphabet:
                if (q, a) not in self.rules:
                    raise MachineError(f"transition table not total: missing ({q}, {a})")

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        symbols = [self.blank, ENDMARKER]
        for (_, a), (_, b, _) in sorted(self.rules.items()):
            symbols.extend((a, b))
        return tuple(dict.fromkeys(symbols))

    @cached_property
    def _table(self) -> dict[str, dict[str, tuple[str, str, int]]]:
        """state -> symbol -> (state, symbol, move -1/0/+1); halting states have no row."""
        table: dict[str, dict[str, tuple[str, str, int]]] = {}
        for (q, a), (q2, b, mv) in self.rules.items():
            table.setdefault(q, {})[a] = (q2, b, "LSR".index(mv) - 1)
        return table

    @cached_property
    def _serial(self) -> "_Numerals":
        """The numeral system of configuration codes."""
        return _Numerals(dict.fromkeys("0123456789:" + "".join(self.alphabet)))

    @cached_property
    def _prefix_codes(self) -> dict[tuple[str, int], int]:
        """The numeral value of "<state index>:<head>:" per (state, head),
        filled as configurations are coded."""
        return {}

    @cached_property
    def _successors(self) -> dict[int, int | None]:
        """Configuration code -> its successor's code, 0 for a halted
        configuration, None for a code that decodes to nothing; filled by
        ``_PointInfo`` and cleared when it holds _SUCCESSOR_LIMIT entries.
        Each entry is a function of its key alone, so under concurrent
        callers a fill or clear can only make a value be computed again."""
        return {}


@dataclass(frozen=True)
class Configuration:
    """Instantaneous description: control state, head cell, tape contents."""

    state: str
    head: int
    tape: str


def init_config(m: TmSpec, input_str: str) -> Configuration:
    """Initial configuration: endmarker, then the input, head on cell 1."""
    bad = set(input_str) - set(m.alphabet) | ({ENDMARKER} & set(input_str))
    if bad:
        raise MachineError(f"input uses symbols outside the tape alphabet: {sorted(bad)}")
    tape = ENDMARKER + input_str.rstrip(m.blank)
    return Configuration(m.start, 1, tape.ljust(2, m.blank))  # canonical, and reaching the head


def _last_nonblank(tape: str, blank: str) -> int:
    """The last cell after cell 0 that holds no blank, or 0 if there is none."""
    return max(len(tape.rstrip(blank)) - 1, 0)


def step(m: TmSpec, c: Configuration) -> Configuration | None:
    """The unique successor configuration, or None when already halted:
    one step of ``_run``."""
    tape = list(c.tape)
    for steps, (state, _, head, *_) in enumerate(_run(m, c, tape, 1)):
        pass  # as in simulate: _run yields c first, then c's successor
    return Configuration(state, head, "".join(tape)) if steps else None


def _start(m: TmSpec, input_str: str, max_steps: int) -> Configuration:
    if max_steps < 0:
        raise ValueError(f"step bound must be non-negative, got {max_steps}")
    return init_config(m, input_str)


def _run(m: TmSpec, c: Configuration, tape: list[str], max_steps: int):
    """Yield (state, old head, new head, written, replaced, change of tape
    length) for c, with nothing written, then for each of at most max_steps
    steps to a halting state.  ``tape``, the caller's list of c's cells, is
    edited in place and kept canonical: a move right off the end appends a
    blank, and a blank written into the last cell goes as the head moves left."""
    table, blank = m._table, m.blank
    state, head = c.state, c.head
    yield state, head, head, None, None, 0
    for _ in range(max_steps):
        row = table.get(state)
        if row is None:
            return
        replaced = tape[head]
        state, written, move = row[replaced]
        tape[head] = written
        new, grown = head + move, 0
        if new == len(tape):
            tape.append(blank)
            grown = 1
        elif move < 0 and head == len(tape) - 1 and written == blank:
            tape.pop()
            grown = -1
        yield state, head, new, written, replaced, grown
        head = new


def trajectory(m: TmSpec, input_str: str, max_steps: int) -> list[Configuration]:
    """Configurations c_0 .. c_k with k = min(halting step, max_steps)."""
    c = _start(m, input_str, max_steps)
    tape = list(c.tape)
    run = _run(m, c, tape, max_steps)
    return [Configuration(state, head, "".join(tape)) for state, _, head, *_ in run]


def simulate(m: TmSpec, input_str: str, max_steps: int) -> tuple[int, Configuration]:
    """Direct simulation keeping one configuration: the steps taken,
    min(halting step, max_steps), and the configuration reached."""
    c = _start(m, input_str, max_steps)
    tape = list(c.tape)
    for steps, (state, _, head, *_) in enumerate(_run(m, c, tape, max_steps)):
        pass  # _run yields c first, so the loop always binds these
    return steps, Configuration(state, head, "".join(tape))


def halt_step(m: TmSpec, input_str: str, max_steps: int) -> int | None:
    """The step at which the machine halts, if within bound."""
    steps, c = simulate(m, input_str, max_steps)
    return steps if c.state in m.halting else None


# -- configuration coding ----------------------------------------------------

class _Numerals:
    """Bijective base-k numerals over k >= 2 symbols: the empty string is 0
    and the i-th symbol is the digit i + 1.

    Both directions divide and conquer over the powers k^(2^j), cached per
    numeral system, so a conversion costs O(log length) rounds of big-number
    arithmetic instead of one big-number step per digit.
    """

    _LEAF = 32  # a power of two; digits are read one at a time within this width

    def __init__(self, alphabet: Sequence[str]):
        self.alphabet = tuple(alphabet)
        self.k = len(self.alphabet)
        if self.k < 2:
            raise ValueError("a numeral system needs at least two symbols")
        self._value = {ch: i + 1 for i, ch in enumerate(self.alphabet)}
        self._powers = (self.k,)

    def _power(self, j: int) -> int:
        """k^(2^j).  The cache is replaced, never mutated, so concurrent
        callers see a consistent tuple."""
        powers = self._powers
        while len(powers) <= j:
            powers = powers + (powers[-1] * powers[-1],)
        self._powers = powers
        return powers[j]

    def to_nat(self, s: str) -> int:
        # Digit by digit in blocks of _LEAF digits, the first possibly shorter,
        # then pairwise: after round j every entry is a block of 2^j digits,
        # and a zero pads the front where a pair is short.
        k, value, leaf = self.k, self._value, self._LEAF
        blocks = []
        for end in range(len(s) % leaf or leaf, len(s) + 1, leaf):
            n = 0
            for ch in s[max(end - leaf, 0) : end]:
                n = n * k + value[ch]
            blocks.append(n)
        j = leaf.bit_length() - 1
        while len(blocks) > 1:
            if len(blocks) % 2:
                blocks.insert(0, 0)
            p = self._power(j)
            blocks = [a * p + b for a, b in zip(blocks[::2], blocks[1::2])]
            j += 1
        return blocks[0] if blocks else 0

    def to_string(self, n: int) -> str:
        if n <= 0:
            return ""
        k = self.k
        # The strings shorter than L number (k^L - 1) / (k - 1), so n has the
        # largest L with k^L <= n (k - 1) + 1, and subtracting that count
        # leaves an ordinary base-k numeral of exactly L digits.
        limit = n * (k - 1) + 1
        j = 0
        while self._power(j) <= limit:
            j += 1
        length, k_length = 0, 1
        for i in reversed(range(j)):
            bigger = k_length * self._powers[i]
            if bigger <= limit:
                length += 1 << i
                k_length = bigger
        symbols: list[str] = []
        self._fixed_width(n - (k_length - 1) // (k - 1), length, symbols)
        return "".join(symbols)

    def _fixed_width(self, r: int, width: int, out: list[str]) -> None:
        """Append the symbols of the ``width`` base-k digits of r < k^width
        (digit d is the symbol of value d + 1), high first."""
        if width <= self._LEAF:
            k, alphabet = self.k, self.alphabet
            low_first = []
            for _ in range(width):
                r, d = divmod(r, k)
                low_first.append(alphabet[d])
            out.extend(reversed(low_first))
            return
        j = (width - 1).bit_length() - 1  # 2^j < width <= 2^(j+1)
        high, low = divmod(r, self._powers[j])
        self._fixed_width(high, width - (1 << j), out)
        self._fixed_width(low, 1 << j, out)


def serialize_config(m: TmSpec, c: Configuration) -> str:
    return f"{m.states.index(c.state)}:{c.head}:{c.tape}"


def encode_config(m: TmSpec, c: Configuration) -> int:
    return m._serial.to_nat(serialize_config(m, c))


def _run_codes(m: TmSpec, c: Configuration, max_steps: int) -> list[int]:
    """encode_config of each configuration of the run from c (see _run).

    The code of "s:h:tape" is value("s:h:") * k^T + value(tape) with T the
    tape length.  A step rewrites the head cell, of weight k^(T - 1 - head),
    and adds or drops at most one blank at the end, so each later code costs
    a few small-times-big updates of value(tape), k^T and the head weight,
    plus value("s:h:"), cached per machine and (state, head)."""
    numerals, prefixes = m._serial, m._prefix_codes
    k, value = numerals.k, numerals._value
    blank = value[m.blank]
    k_length = k ** len(c.tape)
    head_weight = k ** (len(c.tape) - 1 - c.head)
    tape_value = numerals.to_nat(c.tape)
    codes = []
    for state, h, head, written, replaced, grown in _run(m, c, list(c.tape), max_steps):
        if written != replaced:
            tape_value += (value[written] - value[replaced]) * head_weight
        if grown > 0:
            tape_value = tape_value * k + blank
            k_length *= k
        elif grown < 0:
            tape_value = (tape_value - blank) // k
            k_length //= k
        elif head > h:  # the head weight's exponent falls as the head moves right
            head_weight //= k
        elif head < h:
            head_weight *= k
        prefix = prefixes.get((state, head))
        if prefix is None:
            prefix = prefixes[state, head] = numerals.to_nat(f"{m.states.index(state)}:{head}:")
        codes.append(prefix * k_length + tape_value)
    return codes


def decode_config(m: TmSpec, code: int) -> Configuration | None:
    """Inverse of encode_config on valid codes; None for anything malformed."""
    if code <= 0:
        return None
    parts = m._serial.to_string(code).split(":", 2)
    if len(parts) != 3:
        return None
    state_tok, head_tok, tape = parts
    if not (state_tok.isdigit() and head_tok.isdigit()):
        return None
    if state_tok != str(int(state_tok)) or head_tok != str(int(head_tok)):
        return None  # decimal fields must be canonical
    state_idx, head = int(state_tok), int(head_tok)
    if state_idx >= len(m.states) or not tape:
        return None
    if tape[0] != ENDMARKER or set(tape) - set(m.alphabet):
        return None
    if not 0 <= head < len(tape):
        return None
    if len(tape) - 1 != max(head, _last_nonblank(tape, m.blank)):
        return None  # trailing blanks beyond the head are not canonical
    return Configuration(m.states[state_idx], head, tape)


def cantor_pair(a: int, b: int) -> int:
    s = a + b
    return (s * s + s >> 1) + b  # s * s takes CPython's squaring path


def cantor_unpair(z: int) -> tuple[int, int]:
    w = (isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


SINK = 0


def pack_point(clock: int, code: int) -> int:
    """Pack a (clock, configuration-code) point; (0, 0) is the sink 0."""
    if clock == 0 and code == 0:
        return SINK
    return cantor_pair(clock, code) + 1


def unpack_point(x: int) -> tuple[int, int]:
    if x == SINK:
        return (0, 0)
    return cantor_unpair(x - 1)


_MISSING = object()


class _PointInfo(dict):
    """x -> (clock, arrow target) for valid non-sink points, None for every
    other natural.  A plain dict memo: a miss unpacks x and reads its
    configuration's successor from the machine's successor table, which a
    miss there fills by decoding, stepping and encoding."""

    __slots__ = ("m",)

    def __init__(self, m: TmSpec):
        super().__init__()
        self.m = m

    def __missing__(self, x: int) -> tuple[int, int] | None:
        m = self.m
        clock, code = unpack_point(x)  # the sink unpacks to code 0
        table = m._successors
        nxt = table.get(code, _MISSING) if code else None
        if nxt is _MISSING:
            c = decode_config(m, code)
            if c is None:
                nxt = None
            elif c.state in m.halting:
                nxt = 0
            else:
                nxt = encode_config(m, step(m, c))
            if len(table) >= _SUCCESSOR_LIMIT:
                table.clear()
            table[code] = nxt
        if nxt is None:
            info = None
        elif nxt == 0:
            info = clock, SINK
        else:
            info = clock, pack_point(clock + 1, nxt)
        self[x] = info
        return info


def clocked_step(m: TmSpec) -> Callable[[int, int], bool]:
    """The one-step relation on packed points: the clock advances by one and
    the configuration advances by one machine step, except that a halted
    configuration steps to the sink."""
    info = _PointInfo(m)

    def arrow(x: int, y: int) -> bool:
        i = info[x]
        return i is not None and y == i[1]

    return arrow


def _approx(m: TmSpec, parity: int, info=None) -> DeciderEq:
    if info is None:
        info = _PointInfo(m)

    def key(x: int) -> int:
        """x's one-step successor if x has the gated clock parity, else x."""
        i = info[x]
        return i[1] if i is not None and i[0] % 2 == parity else x

    return DeciderEq.from_key(
        key,
        cost_note=f"closure of the {'even' if parity == 0 else 'odd'}-clock "
        "one-step relation; at most one simulated step per argument",
    )


def approx_even(m: TmSpec) -> DeciderEq:
    """Equivalence closure of the one-step relation restricted to even clocks.

    Edges from even clocks never chain (targets have odd clocks or are the
    sink), so every class is one target together with its sources, and the
    closure is exactly the kernel of the key x -> successor of x where the
    gated step is defined, x itself elsewhere."""
    return _approx(m, 0)


def approx_odd(m: TmSpec) -> DeciderEq:
    """Same as approx_even, for odd clocks."""
    return _approx(m, 1)


@dataclass(frozen=True)
class HaltsInSteps:
    steps: int
    witness: RelatedWitness
    universe_bound: int
    chain_bound: int


@dataclass(frozen=True)
class NoHaltWithinBound:
    step_bound: int
    universe_bound: int
    chain_bound: int
    explored: int


def halting_probe(
    m: TmSpec, input_str: str, step_bound: int
) -> HaltsInSteps | NoHaltWithinBound:
    """Decide bounded halting through the join search, not simulation.

    The computation halts iff its start point joins with the sink under the
    even/odd closures.  The search window is the set of points reachable
    within ``step_bound`` steps plus the sink (so the universe bound is the
    largest packed code reachable in that many steps), and the chain bound is
    2 * step_bound + 2.

    The search runs on clock indices keyed as the points they stand for:
    index t is the window's point of clock t, the last index the sink, and
    the index past the window the point after the bound.  Points are packed
    for the universe bound and for a positive answer's chain, which is
    re-checked against a fresh point table.  That table reads successors from
    the machine's bounded successor table (``TmSpec._successors``), which
    only decoding, stepping and encoding fill, so the re-check never reads
    the incremental codes, and decodes a configuration only once per machine
    while it stays in the table.
    """
    c = _start(m, input_str, step_bound)
    # One step past the bound tells whether the last clock's point halts.
    codes = _run_codes(m, c, step_bound + 1)
    halted = len(codes) <= step_bound + 1
    del codes[step_bound + 1 :]
    size = len(codes) + 1  # clocks 0..size-2, then the sink
    chain_bound = 2 * step_bound + 2
    # cantor_pair orders pairs by sum, then by code, and the sink 0 lies below
    # every point.  A clock is below size: a code size below the top cannot win.
    near = compress(range(size - 1), map(ge, codes, repeat(max(codes) - size)))
    top = max(near, key=lambda t: (t + codes[t], codes[t]))
    universe_bound = pack_point(top, codes[top]) + 1
    # Under the closure of its parity index t keys to t + 1; the last clock
    # steps to the sink, or to the index past the window.
    keys = [list(range(size)), list(range(size))]
    for parity in (0, 1):
        keys[parity][parity : size - 1 : 2] = range(parity + 1, size, 2)
    keys[size % 2][size - 2] = size - 1 if halted else size
    even, odd = (DeciderEq.from_key(key.__getitem__) for key in keys)
    result = bounded_join(even, odd, 0, size - 1, size, chain_bound)
    if isinstance(result, RelatedWitness):
        # Independent of the incremental codes: the chain must start at the
        # encoded initial configuration, lie below the universe bound and
        # hold link by link on points the fresh table decodes itself.
        window = [pack_point(t, code) for t, code in enumerate(codes)] + [SINK]
        result = RelatedWitness(tuple(window[t] for t in result.chain), result.links)
        fresh = _PointInfo(m)
        if result.chain[0] != pack_point(0, encode_config(m, c)) or not verify_chain(
            _approx(m, 0, fresh), _approx(m, 1, fresh), result, universe_bound, chain_bound
        ):
            raise AssertionError("search returned an unverifiable chain")
        return HaltsInSteps(len(result.chain) - 2, result, universe_bound, chain_bound)
    return NoHaltWithinBound(step_bound, universe_bound, chain_bound, result.explored)


# -- machines as naturals ----------------------------------------------------

TM_TEXT_ALPHABET = "\n ->:_LRSabcdefghijklmnopqrstuvwxyz0123456789#*+."
_TM_TEXT = _Numerals(TM_TEXT_ALPHABET)


def tm_to_text(m: TmSpec) -> str:
    lines = [
        "states: " + " ".join(m.states),
        "start: " + m.start,
        "halt: " + " ".join(sorted(m.halting)),
        "blank: " + m.blank,
    ]
    for (q, a), (q2, b, mv) in sorted(m.rules.items()):
        lines.append(f"rule: {q} {a} -> {q2} {b} {mv}")
    return "\n".join(lines) + "\n"


def tm_from_text(text: str, name: str = "") -> TmSpec:
    states: tuple[str, ...] = ()
    start = blank = None
    halting: frozenset[str] = frozenset()
    rules: dict[tuple[str, str], tuple[str, str, str]] = {}
    for lineno, line, kind, rest in field_lines(text):
        if line.startswith("#"):
            continue
        if kind == "states":
            states = tuple(rest.split())
        elif kind == "start":
            start = rest.strip()
        elif kind == "halt":
            halting = frozenset(rest.split())
        elif kind == "blank":
            blank = rest.strip()
        elif kind == "rule":
            parts = rest.split()
            if len(parts) != 6 or parts[2] != "->":
                raise MachineError(f"line {lineno}: expected 'rule: q a -> q2 b M'")
            q, a, _, q2, b, mv = parts
            if (q, a) in rules:
                raise MachineError(f"line {lineno}: duplicate rule for ({q}, {a})")
            rules[(q, a)] = (q2, b, mv)
        else:
            raise MachineError(f"line {lineno}: cannot parse {line!r}")
    if start is None or blank is None or not states:
        raise MachineError("missing 'states:', 'start:' or 'blank:' header")
    return TmSpec(states, blank, start, halting, rules, name=name)


def encode_tm(m: TmSpec) -> int:
    """The machine's canonical text as a bijective numeral: machines become
    naturals, so relations on machines are relations on naturals."""
    return _TM_TEXT.to_nat(tm_to_text(m))


def decode_tm(x: int) -> TmSpec | None:
    if x <= 0:
        return None
    try:
        return tm_from_text(_TM_TEXT.to_string(x))
    except (MachineError, ValueError, KeyError):
        return None


def nonhalt_eq(n: int) -> DeciderEq:
    """The singular relation whose big class holds the (codes of) machines
    that do not halt within n steps on empty input; everything else, including
    numbers that decode to no machine, is a singleton."""
    if n < 1:
        raise ValueError("n must be at least 1")

    def still_running(x: int) -> bool:
        m = decode_tm(x)
        return m is not None and halt_step(m, "", n) is None

    return singular_from_predicate(still_running, f"bounded simulation, fixed {n} steps")


def nonhalt_family_meet(k: int, machines: Sequence[TmSpec]) -> Partition:
    """The meet of nonhalt_eq(1..k), materialized on the indices of an
    explicit machine list.

    A machine still running after k steps is still running after every
    n <= k, so the meet over levels 1..k is the kernel of level k alone.
    Machines are simulated as given, not through their codes: a machine
    decodes from its code to itself, and two machines share a code exactly
    when they share a canonical text, which keys the halted ones.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    keys = ["run" if halt_step(m, "", k) is None else tm_to_text(m) for m in machines]
    return Partition.from_key(len(keys), keys.__getitem__)


@lru_cache(maxsize=1)
def zoo() -> dict:
    """The shipped machines, keyed by name."""
    out = {}
    root = resources.files("equlat").joinpath("machines")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".tm"):
            name = entry.name[: -len(".tm")]
            out[name] = tm_from_text(entry.read_text(), name=name)
    return out
