"""The benchmark tracer wraps public ``equlat`` names; renaming or removing
one must fail here rather than in a benchmark run, and the wrapped calls
must answer exactly as the plain ones do."""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # resolves the traced classes' names
    return tracer


def test_every_traced_name_exists():
    tracer = _load_tracer()
    missing = [
        name
        for name, owner, attr, _ in tracer.TARGETS
        if (attr not in owner.__dict__ if isinstance(owner, type) else not hasattr(owner, attr))
    ]
    assert missing == []


def _admissions_and_join():
    """Admissions, the four checks and keyed bounded joins, each looked up
    through its module so that installed wrappers are the ones called."""
    from equlat import automatic as am
    from equlat import decider as dc

    dfas = [rel.dfa for rel in am.corpus().values()]
    dfas += [am.first_bit_differs_dfa(), am.shorter_than_dfa(), am.shared_feature_dfa()]
    out = []
    for d in dfas:
        try:
            rel = am.AutomaticEq.from_dfa(d)
            out.append((rel.dfa.delta, rel.dfa.start, rel.dfa.accepting, rel.representatives()))
        except am.ValidationError as exc:
            out.append((exc.axiom, str(exc)))
        checks = (am.check_format, am.check_reflexive, am.check_symmetric, am.check_transitive)
        out.append(tuple(check(d) for check in checks))
    thirds = dc.DeciderEq.from_key(lambda x: x // 3)
    for chain_bound in (6, 1):
        out.append(dc.bounded_join(dc.parity_decider(), thirds, 0, 29, 30, chain_bound))
    return out


def test_traced_path_answers_as_the_plain_one():
    from equlat import automatic as am
    from equlat import decider as dc

    plain = _admissions_and_join()
    assert sum(type(row[0]) is str for row in plain[:28:2]) == 3  # the controls fail
    assert type(plain[-2]).__name__ == "RelatedWitness"
    assert type(plain[-1]).__name__ == "NotWithinBounds"
    tracer_module = _load_tracer()
    tr = tracer_module.Tracer()
    tr.install()
    try:
        assert am.AutomaticEq.__dict__["from_dfa"].__func__.__wrapped__ is not None
        tr.active = True
        traced = _admissions_and_join()
        tr.active = False
    finally:
        tr.uninstall()
    assert traced == plain
    names = set(tr.names)
    for name in ("automatic.from_dfa", "automatic.check_format", "automatic.check_reflexive",
                 "automatic.check_symmetric", "automatic.check_transitive",
                 "decider.bounded_join"):
        assert name in names
    assert tr.counts["decider.relation_tests"] > 0  # went through counting_join
    assert tr.counts["automatic.accepted"] == len(am.corpus())
    # Uninstalled: every binding is the plain function again.
    assert not hasattr(am.check_transitive, "__wrapped__")
    assert not hasattr(dc.bounded_join, "__wrapped__")
    assert not hasattr(am.AutomaticEq.__dict__["from_dfa"].__func__, "__wrapped__")


def _restrictions():
    """Each kind's restrict on {0..n-1}: SmallEq, automatic (corpus and a
    meet), and keyed and black-box deciders, looked up through their modules."""
    from equlat import automatic as am
    from equlat import decider as dc
    from equlat.partition import SmallEq

    relations = [
        SmallEq.singular({1, 3}, 5),
        am.corpus()["mod3"],
        am.singleton_family(5).meet(am.corpus()["parity"]),
        dc.parity_decider(),
        dc.DeciderEq(lambda m, n: m % 3 == n % 3),
    ]
    return [rel.restrict(n) for rel in relations for n in (1, 7, 64)]


def test_traced_restrict_answers_as_the_plain_one():
    plain = _restrictions()
    tr = _load_tracer().Tracer()
    tr.install()
    try:
        tr.active = True
        traced = _restrictions()
        tr.active = False
    finally:
        tr.uninstall()
    assert traced == plain
    assert {"partition.smalleq_restrict", "automatic.restrict", "decider.restrict"} <= set(tr.names)
    assert tr.names.count("decider.restrict") == 6
    assert tr.counts["partition.elements"] == 1 + 7 + 64  # the SmallEq restrictions
