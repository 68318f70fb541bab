"""Command-line surface: file-based lattice calculators, relation demos that
verify their own claims, and the verification suites.

Exit status is 0 when the operation succeeded (and, for checks/demos/verify,
when every check passed); 1 when a check failed; 2 for unusable input, raised
before anything is printed and reported by ``main`` as ``error: ...``.
Every number argument is an ASCII decimal numeral (see ``numeral``).
"""
from __future__ import annotations

import argparse
import ast
import sys
from collections import namedtuple
from typing import Sequence

from . import automatic as am
from . import constructions as cs
from . import decider as dc
from . import tm as tmlab
from . import verify as vf
from .dfa import Dfa, dfa_from_text, dfa_to_text
from .partition import Partition, numeral


def _read(path: str) -> str:
    limit = LIMITS["file"].value
    with open(path, "rb") as fh:
        data = fh.read(limit + 1)  # never more than the limit allows
    if len(data) > limit:
        raise ValueError(f"file {path} is above the limit {limit} bytes")
    return data.decode("utf-8")


def _operands(given: list[str], command: str, *names: str) -> list[str | None]:
    """The operands of ``equlat COMMAND``, one per name; a bracketed name may
    be left out and reads as None.  Any other count is a usage error."""
    if not sum(not name.startswith("[") for name in names) <= len(given) <= len(names):
        raise ValueError(" ".join(("usage: equlat", command, *names)))
    return [*given, *[None] * (len(names) - len(given))]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _load_dfa(path: str) -> Dfa:
    d = dfa_from_text(_read(path))
    _check_limit("dfa", "DFA state count", d.state_count)
    return d


def _load_automatic(path: str) -> am.AutomaticEq:
    return am.AutomaticEq.from_dfa(_load_dfa(path))


def _load_machine(spec: str) -> tmlab.TmSpec:
    """A zoo name, or else a path to a machine file."""
    machines = tmlab.zoo()
    if spec in machines:
        return machines[spec]
    try:
        text = _read(spec)
    except FileNotFoundError:
        raise tmlab.MachineError(
            f"unknown machine {spec!r}; zoo has: {', '.join(sorted(machines))}"
        ) from None
    return tmlab.tm_from_text(text, name=spec)


# -- partition group ---------------------------------------------------------

def cmd_partition(args) -> int:
    command = f"partition {args.op}"
    if args.op in ("meet", "join", "leq"):
        paths = _operands(args.operands, command, "LEFT", "RIGHT")
        e, f = (Partition.from_text(_read(path)) for path in paths)
        if args.op == "leq":
            print("true" if e.leq(f) else "false")
            return 0
        result = e.meet(f) if args.op == "meet" else e.join(f)
        _emit(result.to_text(), args.out)
        return 0
    (path,) = _operands(args.operands, command, "FILE")
    e = Partition.from_text(_read(path))
    if args.op == "complement":
        _emit(e.least_element_complement().to_text(), args.out)
        return 0
    if args.op == "atoms":
        lines = "".join(f"atom: {a.a} {a.b}\n" for a in e.atoms())
        _emit(lines, args.out)
        return 0
    raise AssertionError(args.op)


# -- automatic group ----------------------------------------------------------

def cmd_automatic(args) -> int:
    op = args.op
    command = f"automatic {op}"
    if op == "builtin":
        (name,) = _operands(args.operands, command, "[NAME]")
        names = sorted(am.corpus())
        if name is None:
            print("\n".join(names))
            return 0
        if name not in am.corpus():
            raise ValueError(f"unknown builtin {name!r}; have: {', '.join(names)}")
        _emit(dfa_to_text(am.corpus()[name].dfa), args.out)
        return 0
    if op == "decide":
        path, m, n = _operands(args.operands, command, "DFA", "M", "N")
        rel = _load_automatic(path)
        print("true" if rel.decide(numeral(m), numeral(n)) else "false")
        return 0
    if op in ("meet", "join"):
        paths = _operands(args.operands, command, "LEFT", "RIGHT")
        # Both files pass their limits before either is admitted.
        a, b = map(am.AutomaticEq.from_dfa, [_load_dfa(path) for path in paths])
        result = a.meet(b) if op == "meet" else a.join(b)
        _emit(dfa_to_text(result.dfa), args.out)
        return 0
    (path,) = _operands(args.operands, command, "DFA")
    if op == "check":
        rows = am.admission_checks(_load_dfa(path))
        for name, passed in rows:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}")
        return 0 if all(p for _, p in rows) else 1
    if op == "reps":
        rel = _load_automatic(path)
        print(" ".join(str(r) for r in rel.representatives()))
        return 0
    if op == "minimize":
        _emit(dfa_to_text(am.minimize(_load_dfa(path))), args.out)
        return 0
    if op == "coarsen":
        if not args.blocks:
            raise ValueError("usage: equlat automatic coarsen DFA --blocks '0 1; 2'")
        rel = _load_automatic(path)
        blocks = [[numeral(tok) for tok in chunk.split()] for chunk in args.blocks.split(";")]
        _emit(dfa_to_text(rel.coarsen([block for block in blocks if block]).dfa), args.out)
        return 0
    raise AssertionError(op)


# -- decider group -----------------------------------------------------------

DECIDER_GRAMMAR = """\
decider expressions:
  bottom                     equality only
  top                        everything related
  parity                     same value mod 2
  singular(even|odd|prime)   predicate members grouped, rest singletons
  meet(E1, E2)               conjunction
  complement(E)              least-element complement of E
  approx_even(MACHINE)       even-clock step closure for a zoo machine
  approx_odd(MACHINE)        odd-clock step closure for a zoo machine
  nonhalt(N)                 machines still running after N steps grouped;
                             N is an ASCII decimal numeral
"""


def parse_decider_expr(text: str) -> dc.DeciderEq:
    return _parse_expr(text)[1]


def _parse_expr(text: str) -> tuple[ast.expr, dc.DeciderEq]:
    """The syntax tree of a decider expression and the decider it builds."""
    source = text.strip()
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression: {exc.msg}") from None
    return tree, _build_expr(tree, source)


def _build_expr(node: ast.expr, source: str) -> dc.DeciderEq:
    if isinstance(node, ast.Name):
        simple = {
            "bottom": dc.bottom_decider,
            "top": dc.top_decider,
            "parity": dc.parity_decider,
        }
        if node.id not in simple:
            raise ValueError(f"unknown decider {node.id!r}")
        return simple[node.id]()
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
        raise ValueError("expression must be names and calls only")
    name = node.func.id
    args = node.args
    if name == "meet" and len(args) == 2:
        return dc.meet_combinator(_build_expr(args[0], source), _build_expr(args[1], source))
    if name == "complement" and len(args) == 1:
        return dc.least_element_complement(_build_expr(args[0], source))
    if name == "singular" and len(args) == 1 and isinstance(args[0], ast.Name):
        pred = cs.BUILTIN_PREDICATES.get(args[0].id)
        if pred is None:
            raise ValueError(f"unknown predicate {args[0].id!r}")
        return dc.singular_from_predicate(pred, cost_note=f"singular({args[0].id})")
    if name in ("approx_even", "approx_odd") and len(args) == 1 and isinstance(args[0], ast.Name):
        machine = _load_machine(args[0].id)
        return tmlab.approx_even(machine) if name == "approx_even" else tmlab.approx_odd(machine)
    if name == "nonhalt" and len(args) == 1 and isinstance(args[0], ast.Constant):
        if type(args[0].value) is not int:  # not a float, string or bool literal
            raise ValueError(f"nonhalt takes a whole number of steps, got {args[0].value!r}")
        n = numeral(ast.get_source_segment(source, args[0]))  # not 0x10, 0b11 or 1_0
        _check_limit("steps", "nonhalt step bound", n)
        return tmlab.nonhalt_eq(n)
    raise ValueError(f"cannot interpret {ast.dump(node)}")


# Each row: the options it bounds, each checked before any work, its limit and
# why.  `equlat limits` prints the rows as the README's markdown table.
Limit = namedtuple("Limit", "options value why")
LIMITS = {
    "check": Limit("`decider check --bound` (also below 1)", 512,
                   "tabulates the B×B window: B² tests and memory"),
    "steps": Limit("`tm run --bound`, `N` in a `nonhalt(N)` decider expression, "
                   "`demo nonhalt-meet --k`", 100_000,
                   "a step per unit of bound for each machine run: one in `tm run`, each one "
                   "asked about in `nonhalt(N)`, and each zoo machine twice in the demo"),
    "probe": Limit("`tm probe --bound`, `demo join-undecidable --bound`, "
                   "`verify tm\\|all --tm-bound`", 4_000,
                   "the probe keeps a coded point per step, a bit per tape cell each, so memory "
                   "grows as B × (B + INPUT length) (peak 0.5 MB at 1,000, 5.2 MB at 4,000 with "
                   "no INPUT) and time about as B^1.3 to B^1.4 (3–4 ms at 1,000, 14–30 ms at "
                   "4,000)"),
    "input": Limit("symbols in the INPUT of `tm probe` and `demo join-undecidable`", 4_000,
                   "coded points hold the tape, INPUT included: at bound 4,000, `tm probe "
                   "builder` peaked at 25 MB RSS with 4,000 symbols, 22 MB with none and 142 MB "
                   "with 65,000"),
    "complement": Limit("`M` and `N` of `decider decide` on an expression with `complement`",
                        100_000,
                        "the complement keeps an entry, about 80–100 bytes, for every value up "
                        "to the larger one; at the limit the slowest keys (`nonhalt`, "
                        "`approx_even`) take about 0.8 s and 30 MB"),
    "meet-growth": Limit("`demo automatic-meet-growth --k`", 1_024,
                         "k meets of ever larger classifiers; time grows about as k² (0.1 s at "
                         "256, 0.3 s at 512, 1.2–1.3 s at 1024, and 1.8 MB at 1024)"),
    "cuts": Limit("`family meet` and `demo family-meet`: the sum of `--cuts` up to index `--k`",
                  100_000,
                  "member i has cuts[i] labels, and the largest cut, cuts[k], sizes the result; "
                  "at the limit one cut takes 0.3–0.6 s and 34–46 MB, and 2,000 cuts 1, 2, …, "
                  "2000 (a sum of 2 million) took 1.1 s"),
    "restrict": Limit("`family meet --restrict N`, `decider restrict EXPR N`", 100_000,
                      "materializes N elements: 0.17 s and 29 MB for `family meet` at the limit; "
                      "every decider expression has a key, so `decider restrict` costs one key "
                      "per element, 0.04–0.84 s and 25–55 MB at the limit (from `parity` to "
                      "`nonhalt(100)`, in process)"),
    "file": Limit("bytes in any file the CLI reads: partition, `bitmask:`, DFA and machine files",
                  1 << 20,
                  "checked while reading, before the file is read whole; parsing a DFA file at "
                  "the limit took 0.03–0.04 s and 32 MB in the layout equlat writes and up to "
                  "0.1 s in any other, and `partition complement` of a 165,665-element file at "
                  "the limit 0.33 s and 61 MB"),
    "dfa": Limit("states of each DFA file", 256,
                 "checking an automaton that is no equivalence takes one pass over pairs of "
                 "states, each pair with a set of classes: `automatic check` took 0.43–0.58 s on "
                 "seeded random files at the limit (517–544 states and 112–128 classes once "
                 "format-clean and minimized) and 2.1–2.3 s in process at 512, against "
                 "0.10–0.11 s for equivalences at the limit; it also bounds `automatic meet` and "
                 "`join`: a meet of two 256-state equivalences took 0.34–0.38 s, most of it "
                 "building the output pair DFA (29,183–32,544 states out), and their join "
                 "0.10–0.17 s"),
    "atoms": Limit("`demo atoms`: `--n` times the number of distinct `--set` members", 300_000,
                   "one n-element join per member, so `--n` may reach 100,000 with the default "
                   "three members: 0.56 s and 47 MB at n = 100,000 with three members, where "
                   "the joins alone took 18 s at n = 10,000 with 5,000 members"),
}


def _check_limit(name: str, what: str, value: int) -> None:
    limit = LIMITS[name].value
    if value > limit:
        raise ValueError(f"{what} {value} is above the limit {limit}")


def cmd_decider(args) -> int:
    names = {"decide": ("M", "N"), "restrict": ("N",), "check": ()}[args.op]
    expr, *values = _operands(args.operands, f"decider {args.op}", "EXPR", *names)
    values = [numeral(v) for v in values]
    tree, rel = _parse_expr(expr)
    if args.op == "decide":
        calls = ast.walk(tree)
        if any(isinstance(node, ast.Call) and node.func.id == "complement" for node in calls):
            _check_limit("complement", "value", max(values))
        print("true" if rel.decide(*values) else "false")
        return 0
    if args.op == "restrict":
        _check_limit("restrict", "restrict size", values[0])
        _emit(rel.restrict(values[0]).to_text(), args.out)
        return 0
    if args.op == "check":
        _check_limit("check", "check bound", args.bound)
        if args.bound < 1:
            raise ValueError(f"sample bound must be at least 1, got {args.bound}")
        ok = dc.axiom_counterexamples(rel.decide, args.bound) == (None, None, None)
        print(f"[{'PASS' if ok else 'FAIL'}] equivalence axioms on {{0..{args.bound - 1}}}")
        print(f"cost note: {rel.cost_note}")
        return 0 if ok else 1
    raise AssertionError(args.op)


# -- tm group ------------------------------------------------------------------

def cmd_tm(args) -> int:
    if args.op == "zoo":
        _operands(args.operands, "tm zoo")
        for name, m in sorted(tmlab.zoo().items()):
            hs = tmlab.halt_step(m, "", 1000)
            verdict = f"halts at step {hs}" if hs is not None else "still running at 1000"
            print(f"{name:12s} {len(m.states)} states; empty input: {verdict}")
        return 0
    spec, tape = _operands(args.operands, f"tm {args.op}", "MACHINE", "[INPUT]")
    tape = tape or ""
    _check_limit("steps" if args.op == "run" else "probe", "step bound", args.bound)
    if args.op == "probe":
        _check_limit("input", "input length", len(tape))
    machine = _load_machine(spec)
    if args.op == "run":
        steps, final = tmlab.simulate(machine, tape, args.bound)
        halted = final.state in machine.halting
        print(f"steps: {steps}{' (halted)' if halted else ' (still running)'}")
        print(f"state: {final.state}")
        print(f"tape:  {final.tape}")
        print(f"head:  {final.head}")
        return 0
    if args.op == "probe":
        result = tmlab.halting_probe(machine, tape, args.bound)
        direct = tmlab.halt_step(machine, tape, args.bound)
        if isinstance(result, tmlab.HaltsInSteps):
            print(f"halts in {result.steps} steps")
            print(f"chain length {len(result.witness.chain)} (clock/configuration points to the sink)")
            ok = direct == result.steps
            print(f"[{'PASS' if ok else 'FAIL'}] agrees with direct simulation ({direct})")
        else:
            print(f"no halt within {result.step_bound} steps "
                  f"(searched {result.explored} points, chain bound {result.chain_bound})")
            ok = direct is None
            print(f"[{'PASS' if ok else 'FAIL'}] agrees with direct simulation")
        return 0 if ok else 1
    raise AssertionError(args.op)


# -- family group --------------------------------------------------------------

def _resolve_predicate(spec: str):
    if spec in cs.BUILTIN_PREDICATES:
        return cs.BUILTIN_PREDICATES[spec], spec
    if spec.startswith("bitmask:"):
        path = spec[len("bitmask:"):]
        return cs.bitmask_predicate(_read(path)), f"bitmask file {path}"
    raise ValueError(
        f"unknown predicate {spec!r}; use one of "
        f"{', '.join(sorted(cs.BUILTIN_PREDICATES))} or bitmask:FILE"
    )


def _family_spec(args) -> cs.SingularFamilySpec:
    """The spec of ``--pred`` and ``--cuts``, once ``--k`` is checked against it."""
    pred, pname = _resolve_predicate(args.pred)
    cuts = tuple(numeral(tok.strip()) for tok in args.cuts.split(","))
    spec = cs.SingularFamilySpec(pred, cuts, name=pname)
    if args.k >= len(cuts):
        raise ValueError(f"--k must be below the number of cuts ({len(cuts)})")
    if args.k >= 0:  # a negative k is refused by the meet itself
        _check_limit("cuts", "sum of the cuts up to k", sum(cuts[: args.k + 1]))
    return spec


def cmd_family(args) -> int:
    _check_limit("restrict", "restrict size", args.restrict or 0)
    spec = _family_spec(args)
    result = cs.truncated_family_meet(spec, args.k)
    if args.restrict is not None:
        _emit(result.restrict(args.restrict).to_text(), args.out)
    else:
        _emit(result.to_text(), args.out)
    return 0


# -- demos ----------------------------------------------------------------------

def demo_join_undecidable(args) -> int:
    _check_limit("probe", "step bound", args.bound)
    _check_limit("input", "input length", len(args.input))
    machine = _load_machine(args.machine)
    result = tmlab.halting_probe(machine, args.input, args.bound)
    direct = tmlab.halt_step(machine, args.input, args.bound)
    print("bounded shadow of an undecidable join:")
    print("the even-clock and odd-clock step closures are cheap to decide,")
    print("but chaining them answers bounded halting.")
    if isinstance(result, tmlab.HaltsInSteps):
        print(f"machine {args.machine!r} on {args.input!r}: halts in {result.steps} steps")
        print(f"witness chain has {len(result.witness.chain)} points; "
              f"universe bound {result.universe_bound}, chain bound {result.chain_bound}")
        ok = direct == result.steps
    else:
        print(f"machine {args.machine!r} on {args.input!r}: no halt within {args.bound} steps")
        ok = direct is None
    print(f"[{'PASS' if ok else 'FAIL'}] verdict matches direct simulation")
    return 0 if ok else 1


def demo_meet_growth(args) -> int:
    _check_limit("meet-growth", "k", args.k)
    counts = am.family_meet_demo(args.k)
    print("meets of two-class relations need ever more classes:")
    print("class counts after each meet:", " ".join(str(c) for c in counts))
    ok = counts == list(range(2, args.k + 2))
    print(f"[{'PASS' if ok else 'FAIL'}] counts are 2..{args.k + 1}, growing without bound")
    return 0 if ok else 1


def demo_family_meet(args) -> int:
    spec = _family_spec(args)
    result = cs.truncated_family_meet(spec, args.k)
    print(f"meet of the singular family for predicate {spec.name!r}, cuts {spec.cuts}, "
          f"up to k={args.k}:")
    sys.stdout.write(result.to_text())
    expected = cs.closed_form_meet(spec, args.k)
    ok = result == expected
    cut = spec.cuts[args.k]
    ok &= all(result.related(x, cut) == spec.predicate(x) for x in range(cut))
    print(f"[{'PASS' if ok else 'FAIL'}] equals the closed form: predicate members "
          f"below cut {cut} plus the upper set")
    return 0 if ok else 1


def demo_nonhalt_meet(args) -> int:
    _check_limit("steps", "k", args.k)
    machines = list(tmlab.zoo().values())
    names = list(tmlab.zoo().keys())
    part = tmlab.nonhalt_family_meet(args.k, machines)
    print(f"meets of 'still running after n steps' relations, n = 1..{args.k}, over the zoo:")
    blocks = [c for c in part.classes() if len(c) >= 2]
    big = set(blocks[0]) if blocks else set()
    print("grouped machines:", " ".join(names[i] for i in sorted(big)) or "(none)")
    expect = {i for i, m in enumerate(machines) if tmlab.halt_step(m, "", args.k) is None}
    ok = big == expect and len(blocks) <= 1
    print(f"[{'PASS' if ok else 'FAIL'}] exactly the machines still running after {args.k} steps")
    return 0 if ok else 1


def demo_atoms(args) -> int:
    members = sorted(numeral(tok.strip()) for tok in args.set.split(","))
    big = set(members)
    _check_limit("atoms", "n times the set's members", args.n * len(big))
    atoms = cs.star_atoms(members, args.n)
    print(f"atoms joining to the singular relation with class {members} on n={args.n}:")
    print("atoms:", " ".join(f"({a.a},{a.b})" for a in atoms))
    result = cs.atoms_to_singular(members, args.n)
    sys.stdout.write(result.to_text())
    expected = Partition.from_classes(
        [members] + [[x] for x in range(args.n) if x not in big]
    )
    ok = result == expected
    print(f"[{'PASS' if ok else 'FAIL'}] join of the atoms is that singular relation")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    if args.suite in ("tm", "all"):
        _check_limit("probe", "tm step bound", args.tm_bound)
    results = vf.run_suite(args.suite, args.tm_bound)
    for r in results:
        print(r.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_limits(args) -> int:
    rows = [f"| {r.options} | {r.value:,} | {r.why} |" for r in LIMITS.values()]
    print("| option | limit | why |", "| --- | --- | --- |", *rows, sep="\n")
    return 0


class _Number(str):
    """A number option's text, read by ``main`` as operands are read."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equlat",
        description="computable fragments of the lattice of equivalence relations",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    p = sub.add_parser("partition", help="finite partition lattice calculator")
    p.add_argument("op", choices=["meet", "join", "leq", "complement", "atoms"])
    p.add_argument("operands", nargs="*", help="partition files")
    p.add_argument("--out", help="write the result here")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("automatic", help="automatic relations as DFA files")
    p.add_argument(
        "op",
        choices=["decide", "meet", "join", "coarsen", "check", "reps", "minimize", "builtin"],
    )
    p.add_argument("operands", nargs="*", help="DFA files (decide also takes M N)")
    p.add_argument("--blocks", help="coarsen grouping, e.g. '0 1; 2'")
    p.add_argument("--out", help="write the result here")
    p.set_defaults(fn=cmd_automatic)

    p = sub.add_parser(
        "decider",
        help="composable decision procedures",
        epilog=DECIDER_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("op", choices=["decide", "restrict", "check"])
    p.add_argument("operands", nargs="*", help="EXPR, then M N for decide or N for restrict")
    p.add_argument("--bound", type=_Number, default="32", help="sample bound for check")
    p.add_argument("--out", help="write the result here")
    p.set_defaults(fn=cmd_decider)

    p = sub.add_parser("tm", help="machine interpreter and bounded halting probe")
    p.add_argument("op", choices=["probe", "run", "zoo"])
    p.add_argument("operands", nargs="*", help="MACHINE (zoo name or file), then INPUT (tape)")
    p.add_argument("--bound", type=_Number, default="100", help="step bound")
    p.set_defaults(fn=cmd_tm)

    p = sub.add_parser("family", help="truncated singular-family meets")
    p.add_argument("op", choices=["meet"])
    p.add_argument("--pred", required=True, help="even|odd|prime|bitmask:FILE")
    p.add_argument("--cuts", required=True, help="comma-separated increasing cuts")
    p.add_argument("--k", type=_Number, required=True, help="truncation index")
    p.add_argument("--restrict", type=_Number, help="emit the restriction to {0..N-1}")
    p.add_argument("--out", help="write the result here")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("demo", help="self-verifying demonstrations")
    demo_sub = p.add_subparsers(dest="demo", required=True)
    d = demo_sub.add_parser("join-undecidable")
    d.add_argument("--machine", default="increment")
    d.add_argument("--input", default="11")
    d.add_argument("--bound", type=_Number, default="50")
    d.set_defaults(fn=demo_join_undecidable)
    d = demo_sub.add_parser("automatic-meet-growth")
    d.add_argument("--k", type=_Number, default="8")
    d.set_defaults(fn=demo_meet_growth)
    d = demo_sub.add_parser("family-meet")
    d.add_argument("--pred", default="even")
    d.add_argument("--cuts", default="2,4,8")
    d.add_argument("--k", type=_Number, default="2")
    d.set_defaults(fn=demo_family_meet)
    d = demo_sub.add_parser("nonhalt-meet")
    d.add_argument("--k", type=_Number, default="10")
    d.set_defaults(fn=demo_nonhalt_meet)
    d = demo_sub.add_parser("atoms")
    d.add_argument("--set", default="1,3,5")
    d.add_argument("--n", type=_Number, default="8")
    d.set_defaults(fn=demo_atoms)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=[*vf.SUITES, "all"])
    p.add_argument(
        "--tm-bound", type=_Number, default="1000", help="step bound for the tm suite, also under all"
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("limits", help="the work limits, as a markdown table")
    p.set_defaults(fn=cmd_limits)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    # argparse ends an operand list at the first option; later operands come
    # back in rest, and anything else there is refused as parse_args would.
    if rest:
        if "operands" not in args or any(a.startswith("-") and not a[1:].isdigit() for a in rest):
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
        args.operands += rest
    try:
        vars(args).update({k: numeral(v) for k, v in vars(args).items() if type(v) is _Number})
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
