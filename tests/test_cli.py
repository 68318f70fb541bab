import ast
import operator
import pathlib

import pytest

from equlat import automatic as am
from equlat import cli
from equlat import decider as dc
from equlat import tm as tmlab
from equlat import verify as vf
from equlat.automatic import corpus, shared_feature_dfa
from equlat import constructions as cs
from equlat.cli import LIMITS, main, parse_decider_expr
from equlat.dfa import Dfa, dfa_from_text, dfa_to_text, product
from equlat.partition import Partition, SmallEq
from dfa_oracle import equivalent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def simulate_bounds(monkeypatch):
    """The bounds tm.simulate is called with; it is stubbed to run 3 steps."""
    bounds = []
    real = tmlab.simulate
    monkeypatch.setattr(
        tmlab, "simulate", lambda m, inp, bound: bounds.append(bound) or real(m, inp, 3)
    )
    return bounds


@pytest.fixture
def parts(tmp_path):
    e = tmp_path / "e.part"
    f = tmp_path / "f.part"
    e.write_text(Partition.from_classes([{0, 1}, {2, 3}]).to_text())
    f.write_text(Partition.from_classes([{1, 2}, {0}, {3}]).to_text())
    return e, f


class TestPartitionCommands:
    def test_meet_of_top_and_bottom_files(self, capsys, tmp_path):
        top = tmp_path / "top.part"
        bot = tmp_path / "bot.part"
        top.write_text(Partition.top(4).to_text())
        bot.write_text(Partition.bottom(4).to_text())
        code, out, _ = run(capsys, "partition", "meet", str(top), str(bot))
        assert code == 0
        assert Partition.from_text(out) == Partition.bottom(4)

    def test_join_round_trips_through_files(self, capsys, parts, tmp_path):
        e, f = parts
        target = tmp_path / "j.part"
        code, out, _ = run(capsys, "partition", "join", str(e), str(f), "--out", str(target))
        assert code == 0
        assert Partition.from_text(target.read_text()) == Partition.top(4)

    def test_complement_verifies(self, capsys, parts):
        e, _ = parts
        code, out, _ = run(capsys, "partition", "complement", str(e))
        assert code == 0
        got = Partition.from_text(out)
        assert Partition.from_text(e.read_text()).is_complement(got)

    def test_leq(self, capsys, parts):
        e, f = parts
        code, out, _ = run(capsys, "partition", "leq", str(e), str(f))
        assert code == 0
        assert out.strip() == "false"

    def test_malformed_file_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.part"
        bad.write_text("class: 0 1\nclutter\n")
        code, _, err = run(capsys, "partition", "meet", str(bad), str(bad))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("op", ["complement", "atoms"])
    def test_unary_ops_take_one_file(self, capsys, parts, op):
        e, f = parts
        code, out, err = run(capsys, "partition", op, str(e), str(f))
        assert code == 2
        assert out == ""
        assert f"usage: equlat partition {op} FILE" in err

    @pytest.mark.parametrize("op", ["meet", "join", "leq"])
    def test_binary_ops_take_two_files(self, capsys, parts, op):
        e, _ = parts
        code, out, err = run(capsys, "partition", op, str(e))
        assert code == 2
        assert out == ""
        assert f"usage: equlat partition {op} LEFT RIGHT" in err

    def test_atoms(self, capsys, parts):
        e, _ = parts
        code, out, _ = run(capsys, "partition", "atoms", str(e))
        assert code == 0
        assert out.splitlines() == ["atom: 0 1", "atom: 2 3"]

    def test_file_size_limit(self, capsys, monkeypatch, tmp_path):
        limit = LIMITS["file"].value
        # The parse is stubbed to record the length of the text it is given.
        read = []
        monkeypatch.setattr(
            Partition, "from_text", classmethod(lambda cls, t: read.append(len(t)) or cls.top(2))
        )
        target = tmp_path / "padded.part"
        target.write_text("\n" * limit)
        code, out, err = run(capsys, "partition", "complement", str(target))
        assert (code, err) == (0, "") and read == [limit]
        read.clear()
        target.write_text("\n" * (limit + 1))
        code, out, err = run(capsys, "partition", "complement", str(target))
        assert code == 2 and out == "" and read == []
        assert err == f"error: file {target} is above the limit {limit} bytes\n"


class TestAutomaticCommands:
    def test_builtin_listing_and_export(self, capsys, tmp_path):
        code, out, _ = run(capsys, "automatic", "builtin")
        assert code == 0 and "parity" in out.split()
        target = tmp_path / "parity.dfa"
        code, _, _ = run(capsys, "automatic", "builtin", "parity", "--out", str(target))
        assert code == 0
        d = dfa_from_text(target.read_text())
        assert d.accepts("1B11")

    def test_decide_reflexive(self, capsys, tmp_path):
        target = tmp_path / "mod3.dfa"
        run(capsys, "automatic", "builtin", "mod3", "--out", str(target))
        code, out, _ = run(capsys, "automatic", "decide", str(target), "5", "5")
        assert code == 0 and out.strip() == "true"

    def test_check_reports_each_axiom(self, capsys, tmp_path):
        target = tmp_path / "b3.dfa"
        run(capsys, "automatic", "builtin", "bitlen3", "--out", str(target))
        code, out, _ = run(capsys, "automatic", "check", str(target))
        assert code == 0
        for axiom in ("format", "reflexivity", "symmetry", "transitivity"):
            assert f"[PASS] {axiom}" in out

    def test_check_fails_only_transitivity(self, capsys, tmp_path):
        target = tmp_path / "shared.dfa"
        target.write_text(dfa_to_text(shared_feature_dfa()))
        code, out, _ = run(capsys, "automatic", "check", str(target))
        assert code == 1
        assert out.splitlines() == [
            "[PASS] format",
            "[PASS] reflexivity",
            "[PASS] symmetry",
            "[FAIL] transitivity",
        ]

    def test_check_fails_only_format(self, capsys, tmp_path):
        # parity plus one malformed word: the clean automaton is still an
        # equivalence, so only the format row fails.
        malformed = Dfa([(1, 4, 4), (4, 2, 4), (4, 4, 3), (4, 5, 4), (4, 4, 4), (4, 4, 4)], 0, {5})
        assert malformed.accepts("01B1")
        target = tmp_path / "parity-plus.dfa"
        target.write_text(dfa_to_text(product(corpus()["parity"].dfa, malformed, operator.or_)))
        code, out, _ = run(capsys, "automatic", "check", str(target))
        assert code == 1
        assert out.splitlines() == [
            "[FAIL] format",
            "[PASS] reflexivity",
            "[PASS] symmetry",
            "[PASS] transitivity",
        ]

    def test_reps_of_singleton_family(self, capsys, tmp_path):
        target = tmp_path / "s3.dfa"
        run(capsys, "automatic", "builtin", "single3", "--out", str(target))
        code, out, _ = run(capsys, "automatic", "reps", str(target))
        assert code == 0
        assert out.split() == ["0", "3"]

    def test_meet_emits_loadable_dfa(self, capsys, tmp_path):
        a = tmp_path / "a.dfa"
        b = tmp_path / "b.dfa"
        out_path = tmp_path / "m.dfa"
        run(capsys, "automatic", "builtin", "parity", "--out", str(a))
        run(capsys, "automatic", "builtin", "low2", "--out", str(b))
        code, _, _ = run(capsys, "automatic", "meet", str(a), str(b), "--out", str(out_path))
        assert code == 0
        emitted = dfa_from_text(out_path.read_text())
        assert equivalent(emitted, dfa_from_text(out_path.read_text()))

    def test_dfa_file_size_limit(self, capsys, monkeypatch, tmp_path):
        limit = LIMITS["file"].value
        checked = []
        monkeypatch.setattr(am, "admission_checks", lambda d: checked.append(d.state_count) or [])
        text = dfa_to_text(corpus()["mod3"].dfa)
        target = tmp_path / "padded.dfa"
        target.write_text(text + "\n" * (limit - len(text)))
        code, out, err = run(capsys, "automatic", "check", str(target))
        assert (code, out, err) == (0, "", "") and checked == [corpus()["mod3"].dfa.state_count]
        checked.clear()
        target.write_text(text + "\n" * (limit + 1 - len(text)))
        code, out, err = run(capsys, "automatic", "check", str(target))
        assert code == 2 and out == "" and checked == []
        assert err == f"error: file {target} is above the limit {limit} bytes\n"

    @pytest.mark.parametrize("op", ["check", "reps", "minimize", "meet", "join"])
    def test_dfa_state_limit(self, capsys, monkeypatch, tmp_path, op):
        limit = LIMITS["dfa"].value
        # Admission and minimization are stubbed to record the state counts
        # they are given; meet and join check both files before either.
        work = []
        mod3 = corpus()["mod3"]
        monkeypatch.setattr(am, "admission_checks", lambda d: work.append(d.state_count) or [])
        if op == "minimize":  # meet and join minimize their result
            monkeypatch.setattr(am, "minimize", lambda d: work.append(d.state_count) or d)
        monkeypatch.setattr(
            am.AutomaticEq, "from_dfa", classmethod(lambda cls, d: work.append(d.state_count) or mod3)
        )
        files = {}
        for n in (limit, limit + 1):
            files[n] = tmp_path / f"cycle{n}.dfa"
            files[n].write_text(dfa_to_text(Dfa([((s + 1) % n,) * 3 for s in range(n)], 0, ())))
        operands = 2 if op in ("meet", "join") else 1
        code, _, err = run(capsys, "automatic", op, *[str(files[limit])] * operands)
        assert code == 0 and err == "" and work == [limit] * operands
        work.clear()
        over = [str(files[limit])] * (operands - 1) + [str(files[limit + 1])]
        code, out, err = run(capsys, "automatic", op, *over)
        assert code == 2 and out == "" and work == []
        assert err == (
            f"error: DFA state count {limit + 1} is above the limit {limit}\n"
        )

    def test_minimize_round_trip(self, capsys, tmp_path):
        a = tmp_path / "a.dfa"
        run(capsys, "automatic", "builtin", "prefix2", "--out", str(a))
        code, out, _ = run(capsys, "automatic", "minimize", str(a))
        assert code == 0
        assert equivalent(dfa_from_text(out), dfa_from_text(a.read_text()))


class TestDeciderCommands:
    def test_expression_meet(self, capsys):
        code, out, _ = run(capsys, "decider", "decide", "meet(parity, singular(even))", "2", "4")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "decider", "decide", "meet(parity, singular(even))", "1", "3")
        assert code == 0 and out.strip() == "false"

    def test_expression_restrict_round_trips(self, capsys):
        code, out, _ = run(capsys, "decider", "restrict", "singular(even)", "6")
        assert code == 0
        assert Partition.from_text(out) == Partition.from_classes(
            [[0, 2, 4], [1], [3], [5]]
        )

    def test_restrict_size_limit(self, capsys, monkeypatch):
        limit = LIMITS["restrict"].value
        sizes = []
        monkeypatch.setattr(
            dc.DeciderEq, "restrict", lambda self, n: sizes.append(n) or Partition.bottom(1)
        )
        code, out, err = run(capsys, "decider", "restrict", "parity", str(limit))
        assert (code, out, err) == (0, "class: 0\n", "") and sizes == [limit]
        sizes.clear()
        code, out, err = run(capsys, "decider", "restrict", "parity", str(limit + 1))
        assert code == 2 and out == "" and sizes == []
        assert err == (
            f"error: restrict size {limit + 1} is above the limit {limit}\n"
        )

    def test_unknown_name_is_an_error(self, capsys):
        code, _, err = run(capsys, "decider", "decide", "mystery", "1", "2")
        assert code == 2 and "unknown decider" in err

    def test_grammar_parses_nested(self):
        rel = parse_decider_expr("meet(complement(parity), top)")
        assert rel.decide(0, 1)

    def test_nonhalt_expression(self, capsys):
        code, out, _ = run(capsys, "decider", "decide", "nonhalt(5)", "3", "3")
        assert code == 0 and out.strip() == "true"

    @pytest.mark.parametrize("literal", ["1.9", "'2'", "True", "False", "3.0", "None"])
    def test_nonhalt_takes_whole_numbers_only(self, capsys, literal):
        code, out, err = run(capsys, "decider", "decide", f"nonhalt({literal})", "3", "3")
        assert code == 2 and out == ""
        assert err == f"error: nonhalt takes a whole number of steps, got {literal}\n"

    @pytest.mark.parametrize("literal", ["0x10", "0b11", "0o7", "1_0"])
    def test_nonhalt_takes_decimal_numerals_only(self, capsys, literal):
        code, out, err = run(capsys, "decider", "check", f"nonhalt({literal})", "--bound", "4")
        assert (code, out, err) == (2, "", f"error: not a decimal numeral: {literal!r}\n")
        code, out, _ = run(capsys, "decider", "check", "nonhalt(10)", "--bound", "4")
        assert code == 0 and out.endswith("cost note: bounded simulation, fixed 10 steps\n")

    def test_nonhalt_step_bound_limit(self, capsys, simulate_bounds):
        limit = LIMITS["steps"].value
        spin, builder = (str(tmlab.encode_tm(tmlab.zoo()[name])) for name in ("spin", "builder"))
        expr = f"nonhalt({limit})"
        code, out, err = run(capsys, "decider", "decide", expr, spin, builder)
        assert (code, out, err) == (0, "true\n", "") and simulate_bounds == [limit] * 2
        simulate_bounds.clear()
        expr = f"nonhalt({limit + 1})"
        code, out, err = run(capsys, "decider", "decide", expr, spin, builder)
        assert code == 2 and out == "" and simulate_bounds == []
        assert err == (
            f"error: nonhalt step bound {limit + 1} is above the limit {limit}\n"
        )

    @pytest.mark.parametrize("expr", ["complement(bottom)", "meet(parity, complement (top))"])
    def test_complement_value_limit(self, capsys, monkeypatch, expr):
        # The complement is stubbed by equality, recording the values asked.
        asked = []

        def stub(d):
            return dc.DeciderEq.from_key(lambda x: asked.append(x) or x)

        monkeypatch.setattr(dc, "least_element_complement", stub)
        limit = LIMITS["complement"].value
        code, out, err = run(capsys, "decider", "decide", expr, "0", str(limit))
        assert (code, out, err) == (0, "false\n", "") and asked == [0, limit]
        for m, n in ((0, limit + 1), (limit + 1, 0)):
            asked.clear()
            code, out, err = run(capsys, "decider", "decide", expr, str(m), str(n))
            assert code == 2 and out == "" and asked == []
            assert err == f"error: value {limit + 1} is above the limit {limit}\n"

    def test_values_unlimited_without_complement(self, capsys):
        big = str(10**30)
        code, out, err = run(capsys, "decider", "decide", "meet(parity, singular(even))", big, big)
        assert (code, out, err) == (0, "true\n", "")

    @pytest.mark.parametrize(
        "expr",
        ["top", "parity", "nonhalt(100)", "complement(nonhalt(100))",
         "meet(nonhalt(100), singular(prime))", "approx_even(increment)"],
    )
    def test_check_keys_each_window_value_once(self, capsys, monkeypatch, expr):
        # The expression's key is counted, and so is every machine decoded
        # beneath it: nonhalt keeps no memo, so each decode is a simulation.
        asked, decoded = [], []
        real_parse, real_decode = cli._parse_expr, tmlab.decode_tm

        def parse(text):
            tree, rel = real_parse(text)
            return tree, dc.DeciderEq.from_key(lambda x: asked.append(x) or rel.key(x))

        monkeypatch.setattr(cli, "_parse_expr", parse)
        monkeypatch.setattr(tmlab, "decode_tm", lambda x: decoded.append(x) or real_decode(x))
        code, out, _ = run(capsys, "decider", "check", expr, "--bound", "128")
        assert code == 0 and out.startswith("[PASS] equivalence axioms on {0..127}\n")
        assert asked == list(range(128))
        assert decoded == (list(range(128)) if "nonhalt" in expr else [])


class TestTmCommands:
    def test_zoo_listing(self, capsys):
        code, out, _ = run(capsys, "tm", "zoo")
        assert code == 0
        assert "increment" in out

    def test_run(self, capsys):
        code, out, _ = run(capsys, "tm", "run", "increment", "11", "--bound", "10")
        assert code == 0
        assert "steps: 3 (halted)" in out
        assert "tape:  >111" in out

    def test_run_keeps_one_configuration(self, capsys):
        # builder grows its tape by a cell per step; keeping the whole run
        # peaked near 150 MB at this bound.
        import tracemalloc

        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "tm", "run", "builder", "", "--bound", "16000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.startswith("steps: 16000 (still running)\nstate: s\n")
        assert peak < 1_000_000

    def test_probe_agrees(self, capsys):
        code, out, _ = run(capsys, "tm", "probe", "increment", "11", "--bound", "50")
        assert code == 0
        assert "halts in 3 steps" in out

    def test_probe_loop(self, capsys):
        code, out, _ = run(capsys, "tm", "probe", "spin", "", "--bound", "30")
        assert code == 0
        assert "no halt within 30 steps" in out

    def test_machine_file_loading(self, capsys, tmp_path):
        from equlat.tm import tm_to_text, zoo

        path = tmp_path / "copy.tm"
        path.write_text(tm_to_text(zoo()["erase"]))
        code, out, _ = run(capsys, "tm", "run", str(path), "1", "--bound", "10")
        assert code == 0 and "(halted)" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("tm", "run", "no-such-machine"),
            ("tm", "probe", "no-such-machine"),
            ("demo", "join-undecidable", "--machine", "no-such-machine"),
            ("decider", "decide", "approx_even(no_such_machine)", "0", "1"),
        ],
        ids=["tm-run", "tm-probe", "demo", "grammar"],
    )
    def test_unknown_machine(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        name = argv[-3] if argv[0] == "decider" else argv[-1]
        name = name.removeprefix("approx_even(").removesuffix(")")
        zoo_names = ", ".join(sorted(tmlab.zoo()))
        assert code == 2
        assert out == ""
        assert err == f"error: unknown machine {name!r}; zoo has: {zoo_names}\n"

    def test_machine_path_is_a_directory(self, capsys, tmp_path):
        # Only a missing file is an unknown machine; other errors report themselves.
        code, out, err = run(capsys, "tm", "run", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(tmp_path) in err
        assert "unknown machine" not in err

    def test_machine_file_size_limit(self, capsys, monkeypatch, tmp_path):
        limit = LIMITS["file"].value
        # The parse is stubbed to record the length of the text it is given.
        read = []
        halt = tmlab.zoo()["halt"]
        monkeypatch.setattr(tmlab, "tm_from_text", lambda t, name="": read.append(len(t)) or halt)
        target = tmp_path / "padded.tm"
        target.write_text("\n" * limit)
        code, out, err = run(capsys, "tm", "run", str(target))
        assert (code, err) == (0, "") and read == [limit]
        read.clear()
        target.write_text("\n" * (limit + 1))
        code, out, err = run(capsys, "tm", "run", str(target))
        assert code == 2 and out == "" and read == []
        assert err == f"error: file {target} is above the limit {limit} bytes\n"


class TestFamilyAndDemos:
    def test_family_meet_emits_small_relation(self, capsys):
        code, out, _ = run(
            capsys, "family", "meet", "--pred", "even", "--cuts", "2,4,8", "--k", "2"
        )
        assert code == 0
        assert out == SmallEq.singular([0, 2, 4, 6], 8).to_text()

    def test_family_meet_restricted(self, capsys):
        code, out, _ = run(
            capsys,
            "family", "meet", "--pred", "even", "--cuts", "2,4,8", "--k", "1",
            "--restrict", "4",
        )
        assert code == 0
        assert Partition.from_text(out) == Partition.from_classes([[0, 2], [1], [3]])

    def test_family_meet_bitmask(self, capsys, tmp_path):
        mask = tmp_path / "mask.txt"
        mask.write_text("0110100000000000")
        code, out, _ = run(
            capsys,
            "family", "meet", "--pred", f"bitmask:{mask}", "--cuts", "4,8,16", "--k", "1",
        )
        assert code == 0
        assert out == SmallEq.singular([1, 2, 4], 8).to_text()

    def test_family_meet_bitmask_size_limit(self, capsys, tmp_path):
        limit = LIMITS["file"].value
        mask = tmp_path / "mask.txt"
        mask.write_text("0" * (limit + 1))
        argv = ("family", "meet", "--pred", f"bitmask:{mask}", "--cuts", "4,8,16", "--k", "1")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: file {mask} is above the limit {limit} bytes\n"

    @pytest.mark.parametrize("argv", [("--set", "1"), ("--set", "1,9"), ("--set", "1,3", "--n", "3")])
    def test_demo_atoms_validates_before_printing(self, capsys, argv):
        code, out, err = run(capsys, "demo", "atoms", *argv)
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv", [("automatic-meet-growth", "--k", "0"), ("join-undecidable", "--bound", "-1")]
    )
    def test_demo_validates_before_printing(self, capsys, argv):
        code, out, err = run(capsys, "demo", *argv)
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_demo_atoms(self, capsys):
        code, out, _ = run(capsys, "demo", "atoms", "--set", "1,3,5", "--n", "8")
        assert code == 0 and "[PASS]" in out

    def test_demo_meet_growth(self, capsys):
        code, out, _ = run(capsys, "demo", "automatic-meet-growth", "--k", "6")
        assert code == 0
        assert "2 3 4 5 6 7" in out

    def test_demo_join_undecidable(self, capsys):
        code, out, _ = run(
            capsys,
            "demo", "join-undecidable",
            "--machine", "increment", "--input", "11", "--bound", "50",
        )
        assert code == 0 and "halts in 3 steps" in out

    def test_demo_nonhalt(self, capsys):
        code, out, _ = run(capsys, "demo", "nonhalt-meet", "--k", "3")
        assert code == 0 and "[PASS]" in out

    def test_demo_family_meet(self, capsys):
        code, out, _ = run(
            capsys, "demo", "family-meet", "--pred", "prime", "--cuts", "3,6,12", "--k", "2"
        )
        assert code == 0 and "[PASS]" in out
        assert out.startswith(
            "meet of the singular family for predicate 'prime', cuts (3, 6, 12), up to k=2:\n"
        )


class TestVerifyCommand:
    def test_constructions_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "constructions")
        assert code == 0
        assert "checks passed" in out
        assert "[FAIL]" not in out

    def test_tm_suite_small_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "tm", "--tm-bound", "60")
        assert code == 0
        assert "[FAIL]" not in out

    def test_automatic_suite_reports_a_bad_corpus_entry(self, capsys, monkeypatch):
        # A corpus relation that fails transitivity fails its row; the suite
        # still prints every row.
        real = am.corpus
        dfa = am.minimize(shared_feature_dfa())
        bad = am.AutomaticEq(dfa, _trusted=True, _table=am._ClassTable(dfa))
        monkeypatch.setattr(am, "corpus", lambda: {**real(), "bad": bad})
        code, out, err = run(capsys, "verify", "automatic")
        lines = out.splitlines()
        assert code == 1 and err == ""
        assert lines[1].startswith("[FAIL] corpus passes full admission checks -- ")
        assert len(lines) == 10 and lines[-1].endswith("/9 checks passed")


class TestExitContract:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "partition", "meet", "nope.part", "also-nope.part")
        assert code == 2 and "error" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "automatic", "builtin", "zzz")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("tm", "probe", "builder", "", "--bound", "-5"),
            ("tm", "run", "builder", "", "--bound", "-5"),
            ("demo", "join-undecidable", "--machine", "builder", "--bound", "-5"),
            ("verify", "tm", "--tm-bound", "-1"),
        ],
    )
    def test_negative_step_bound(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and "non-negative" in err
        assert "chain bound" not in out

    def test_zero_step_bound(self, capsys):
        code, out, _ = run(capsys, "tm", "probe", "halt", "", "--bound", "0")
        assert code == 0 and "halts in 0 steps" in out
        code, out, _ = run(capsys, "tm", "probe", "builder", "", "--bound", "0")
        assert code == 0 and "no halt within 0 steps" in out

    @pytest.mark.parametrize("bound", ["0", "-4"])
    def test_empty_sample_bound(self, capsys, bound):
        code, out, err = run(capsys, "decider", "check", "parity", "--bound", bound)
        assert code == 2
        assert err.startswith("error: ") and "at least 1" in err
        assert out == ""

    def test_zero_sample_bound_message(self, capsys):
        code, out, err = run(capsys, "decider", "check", "parity", "--bound", "0")
        assert code == 2 and out == ""
        assert err == "error: sample bound must be at least 1, got 0\n"

    def test_sample_bound_one(self, capsys):
        code, out, _ = run(capsys, "decider", "check", "parity", "--bound", "1")
        assert code == 0 and "[PASS] equivalence axioms on {0..0}" in out

    def test_sample_bound_limit(self, capsys, monkeypatch):
        limit = LIMITS["check"].value
        tabulated = []
        monkeypatch.setattr(dc, "axiom_counterexamples", lambda *args: tabulated.append(args))
        bound = str(limit + 1)
        code, out, err = run(capsys, "decider", "check", "parity", "--bound", bound)
        assert code == 2
        assert err.startswith("error: ") and f"limit {limit}" in err
        assert out == "" and tabulated == []

    @pytest.mark.parametrize(
        "argv,limit,stepping",
        [
            (("tm", "run", "spin", ""), LIMITS["steps"].value, ("simulate",)),
            (("tm", "probe", "builder", ""), LIMITS["probe"].value, ("halting_probe", "halt_step")),
            (
                ("demo", "join-undecidable", "--machine", "builder"),
                LIMITS["probe"].value,
                ("halting_probe", "halt_step"),
            ),
        ],
    )
    def test_step_bound_limit(self, capsys, monkeypatch, argv, limit, stepping):
        # The stepping is stubbed to record its bound and run 3 steps.
        bounds = []
        for name in stepping:
            real = getattr(tmlab, name)
            monkeypatch.setattr(
                tmlab, name, lambda m, inp, bound, real=real: bounds.append(bound) or real(m, inp, 3)
            )
        code, out, err = run(capsys, *argv, "--bound", str(limit))
        assert code == 0 and err == "" and bounds == [limit] * len(stepping)
        bounds.clear()
        code, out, err = run(capsys, *argv, "--bound", str(limit + 1))
        assert code == 2 and out == "" and bounds == []
        assert err == f"error: step bound {limit + 1} is above the limit {limit}\n"

    @pytest.mark.parametrize(
        "argv", [("tm", "probe", "builder"), ("demo", "join-undecidable", "--input")]
    )
    def test_probe_input_limit(self, capsys, monkeypatch, argv):
        # The probe and its check are stubbed to record the input's length
        # and run 3 steps on the empty input.
        limit = LIMITS["input"].value
        lengths = []
        for name in ("halting_probe", "halt_step"):
            real = getattr(tmlab, name)
            stub = lambda m, inp, bound, real=real: lengths.append(len(inp)) or real(m, "", 3)
            monkeypatch.setattr(tmlab, name, stub)
        code, out, err = run(capsys, *argv, "1" * limit)
        assert code == 0 and err == "" and lengths == [limit] * 2
        lengths.clear()
        code, out, err = run(capsys, *argv, "1" * (limit + 1))
        assert code == 2 and out == "" and lengths == []
        assert err == f"error: input length {limit + 1} is above the limit {limit}\n"

    def test_verify_tm_bound_limit(self, capsys, monkeypatch):
        limit = LIMITS["probe"].value
        bounds = []
        monkeypatch.setattr(vf, "tm_checks", lambda step_bound: bounds.append(step_bound) or [])
        code, out, _ = run(capsys, "verify", "tm", "--tm-bound", str(limit))
        assert code == 0 and out == "0/0 checks passed\n" and bounds == [limit]
        bounds.clear()
        code, out, err = run(capsys, "verify", "tm", "--tm-bound", str(limit + 1))
        assert code == 2 and out == "" and bounds == []
        assert err == (
            f"error: tm step bound {limit + 1} is above the limit {limit}\n"
        )

    def test_verify_tm_bound_limits_only_the_tm_suite(self, capsys, monkeypatch):
        limit = LIMITS["probe"].value
        calls = []
        monkeypatch.setattr(vf, "tm_checks", lambda step_bound: calls.append(step_bound) or [])
        for name in vf.SUITES:
            monkeypatch.setitem(vf.SUITES, name, lambda name=name: calls.append(name) or [])
        above = str(limit + 1)
        code, out, _ = run(capsys, "verify", "constructions", "--tm-bound", above)
        assert code == 0 and out == "0/0 checks passed\n" and calls == ["constructions"]
        calls.clear()
        code, out, _ = run(capsys, "verify", "all", "--tm-bound", "60")
        assert code == 0 and calls == ["lattice", "complements", "automatic", 60, "constructions"]
        calls.clear()
        code, out, err = run(capsys, "verify", "all", "--tm-bound", above)
        assert code == 2 and out == "" and calls == []
        assert err == f"error: tm step bound {above} is above the limit {limit}\n"

    def test_default_sample_bound(self, capsys):
        code, out, _ = run(capsys, "decider", "check", "parity")
        assert code == 0 and "[PASS] equivalence axioms on {0..31}" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("demo", "family-meet", "--k", "-1"),
            ("family", "meet", "--pred", "even", "--cuts", "2,4,8", "--k", "-1"),
        ],
    )
    def test_negative_family_index(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and "non-negative" in err
        assert out == ""

    @pytest.mark.parametrize("group", [("demo", "family-meet"), ("family", "meet")])
    def test_family_index_beyond_the_cuts(self, capsys, group):
        code, out, err = run(capsys, *group, "--pred", "even", "--cuts", "2,4,8", "--k", "3")
        assert code == 2
        assert err == "error: --k must be below the number of cuts (3)\n"
        assert out == ""

    def test_nonhalt_meet_level_limit(self, capsys, simulate_bounds):
        limit = LIMITS["steps"].value
        # The demo simulates each zoo machine once for its meet and once for
        # its check.
        code, out, err = run(capsys, "demo", "nonhalt-meet", "--k", str(limit))
        assert code == 0 and err == "" and "[PASS]" in out
        assert simulate_bounds == [limit] * (2 * len(tmlab.zoo()))
        simulate_bounds.clear()
        code, out, err = run(capsys, "demo", "nonhalt-meet", "--k", str(limit + 1))
        assert code == 2 and out == "" and simulate_bounds == []
        assert err == f"error: k {limit + 1} is above the limit {limit}\n"

    @pytest.mark.parametrize("group", [("demo", "family-meet"), ("family", "meet")])
    def test_family_cut_sum_limit(self, capsys, monkeypatch, group):
        # The meet is stubbed to record its index and return the closed form
        # on the first cut alone.
        ks = []
        monkeypatch.setattr(
            cs,
            "truncated_family_meet",
            lambda spec, k: ks.append(k) or cs.family_member(spec, 0),
        )
        monkeypatch.setattr(cs, "closed_form_meet", lambda spec, k: cs.family_member(spec, 0))
        limit = LIMITS["cuts"].value
        argv = (*group, "--pred", "even", "--k", "2")
        code, out, err = run(capsys, *argv, "--cuts", f"2,4,{limit - 6},{limit}")
        assert code in (0, 1) and err == "" and ks == [2]
        ks.clear()
        code, out, err = run(capsys, *argv, "--cuts", f"2,4,{limit - 5},{limit + 1}")
        assert code == 2 and out == "" and ks == []
        assert err == f"error: sum of the cuts up to k {limit + 1} is above the limit {limit}\n"

    def test_family_restrict_limit(self, capsys, monkeypatch):
        limit = LIMITS["restrict"].value
        sizes = []
        monkeypatch.setattr(
            SmallEq, "restrict", lambda self, n: sizes.append(n) or Partition.bottom(1)
        )
        real = cs.truncated_family_meet
        monkeypatch.setattr(cs, "truncated_family_meet", lambda *a: sizes.append(a[1]) or real(*a))
        argv = ("family", "meet", "--pred", "even", "--cuts", "2,4,8", "--k", "1", "--restrict")
        code, out, err = run(capsys, *argv, str(limit))
        assert (code, out, err) == (0, "class: 0\n", "") and sizes == [1, limit]
        sizes.clear()
        code, out, err = run(capsys, *argv, str(limit + 1))
        assert code == 2 and out == "" and sizes == []
        assert err == (
            f"error: restrict size {limit + 1} is above the limit {limit}\n"
        )

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_family_restrict_below_one_refused(self, capsys, n):
        argv = ("family", "meet", "--pred", "even", "--cuts", "2,4,8", "--k", "1", "--restrict", n)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: invalid universe size {n}\n")

    def test_atoms_work_limit(self, capsys, monkeypatch):
        limit = LIMITS["atoms"].value
        # With the default three members, --n may reach a third of the limit.
        ns = []
        monkeypatch.setattr(
            cs, "atoms_to_singular", lambda members, n: ns.append(n) or Partition.bottom(1)
        )
        n = limit // 3
        code, out, err = run(capsys, "demo", "atoms", "--n", str(n))
        assert code == 1 and err == "" and "[FAIL]" in out and ns == [n]
        ns.clear()
        code, out, err = run(capsys, "demo", "atoms", "--n", str(n + 1))
        assert code == 2 and out == "" and ns == []
        assert err == (
            f"error: n times the set's members {3 * n + 3} is above the limit {limit}\n"
        )
        many = ",".join(map(str, range(301)))
        code, out, err = run(capsys, "demo", "atoms", "--n", "1000", "--set", many)
        assert code == 2 and out == "" and ns == []
        assert err == (
            f"error: n times the set's members 301000 is above the limit {limit}\n"
        )

    def test_meet_growth_k_limit(self, capsys, monkeypatch):
        limit = LIMITS["meet-growth"].value
        ks = []
        monkeypatch.setattr(
            am, "family_meet_demo", lambda k: ks.append(k) or list(range(2, k + 2))
        )
        argv = ("demo", "automatic-meet-growth", "--k")
        code, out, err = run(capsys, *argv, str(limit))
        assert code == 0 and err == "" and "[PASS]" in out and ks == [limit]
        ks.clear()
        code, out, err = run(capsys, *argv, str(limit + 1))
        assert code == 2 and out == "" and ks == []
        assert err == f"error: k {limit + 1} is above the limit {limit}\n"

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_nonhalt_meet_level_validated_first(self, capsys, k):
        code, out, err = run(capsys, "demo", "nonhalt-meet", "--k", k)
        assert code == 2
        assert err == "error: k must be at least 1\n"
        assert out == ""


# Each operation that takes operands, with usable ones and its usage line.
_OPERATIONS = [
    ("partition meet", ("{part}", "{part}"), "LEFT RIGHT"),
    ("partition join", ("{part}", "{part}"), "LEFT RIGHT"),
    ("partition leq", ("{part}", "{part}"), "LEFT RIGHT"),
    ("partition complement", ("{part}",), "FILE"),
    ("partition atoms", ("{part}",), "FILE"),
    ("automatic decide", ("{dfa}", "1", "4"), "DFA M N"),
    ("automatic meet", ("{dfa}", "{dfa}"), "LEFT RIGHT"),
    ("automatic join", ("{dfa}", "{dfa}"), "LEFT RIGHT"),
    ("automatic coarsen", ("{dfa}",), "DFA"),
    ("automatic check", ("{dfa}",), "DFA"),
    ("automatic reps", ("{dfa}",), "DFA"),
    ("automatic minimize", ("{dfa}",), "DFA"),
    ("automatic builtin", ("mod3",), "[NAME]"),
    ("decider decide", ("parity", "1", "3"), "EXPR M N"),
    ("decider restrict", ("parity", "4"), "EXPR N"),
    ("decider check", ("parity",), "EXPR"),
    ("tm run", ("increment", "11"), "MACHINE [INPUT]"),
    ("tm probe", ("increment", "11"), "MACHINE [INPUT]"),
    ("tm zoo", (), ""),
]


@pytest.mark.parametrize(
    "command, operands, names", _OPERATIONS, ids=[c for c, _, _ in _OPERATIONS]
)
def test_operations_take_exactly_their_operands(capsys, parts, tmp_path, command, operands, names):
    dfa = tmp_path / "mod3.dfa"
    dfa.write_text(dfa_to_text(corpus()["mod3"].dfa))
    given = [*command.split(), *(a.format(part=parts[0], dfa=dfa) for a in operands)]
    options = ["--blocks", "0 1; 2"] if command == "automatic coarsen" else []
    needs = 2 + sum(not name.startswith("[") for name in names.split())
    assert run(capsys, *given, *options)[0] == 0
    # One operand more, and one fewer than the operation needs, if it needs any.
    for wrong in [given + given[-1:]] + ([given[: needs - 1]] if needs > 2 else []):
        code, out, err = run(capsys, *wrong, *options)
        usage = f"usage: equlat {command} {names}".rstrip()
        assert (code, out, err) == (2, "", f"error: {usage}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("partition", "meet", "{part}", "{part}", "--out", "{out}"),
        ("automatic", "meet", "{dfa}", "{dfa}", "--out", "{out}"),
        ("decider", "decide", "parity", "1", "3", "--bound", "4"),
        ("tm", "run", "increment", "11", "--bound", "5"),
    ],
    ids=" ".join,
)
def test_options_before_and_between_operands(capsys, parts, tmp_path, argv):
    dfa = tmp_path / "mod3.dfa"
    dfa.write_text(dfa_to_text(corpus()["mod3"].dfa))
    *words, option, value = (a.format(part=parts[0], dfa=dfa, out=tmp_path / "o") for a in argv)
    expected = run(capsys, *words, option, value)
    assert expected[0] == 0
    for at in range(2, len(words)):
        assert run(capsys, *words[:at], option, value, *words[at:]) == expected


_NUMBER_ARGUMENTS = [
    ("automatic", "decide", "{dfa}", "{n}", "3"),
    ("automatic", "coarsen", "{dfa}", "--blocks", "0 1; {n}"),
    ("decider", "decide", "parity", "{n}", "3"),
    ("decider", "restrict", "parity", "{n}"),
    ("decider", "check", "parity", "--bound", "{n}"),
    ("tm", "run", "spin", "", "--bound", "{n}"),
    ("tm", "probe", "builder", "", "--bound", "{n}"),
    ("family", "meet", "--pred", "even", "--cuts", "{n},4,8", "--k", "1"),
    ("family", "meet", "--pred", "even", "--cuts", "2,4,8", "--k", "{n}"),
    ("family", "meet", "--pred", "even", "--cuts", "2,4,8", "--k", "1", "--restrict", "{n}"),
    ("demo", "join-undecidable", "--bound", "{n}"),
    ("demo", "automatic-meet-growth", "--k", "{n}"),
    ("demo", "family-meet", "--cuts", "{n},4,8"),
    ("demo", "family-meet", "--k", "{n}"),
    ("demo", "nonhalt-meet", "--k", "{n}"),
    ("demo", "atoms", "--set", "1,{n}"),
    ("demo", "atoms", "--set", "0,1", "--n", "{n}"),
    ("verify", "constructions", "--tm-bound", "{n}"),
]


@pytest.mark.parametrize("argv", _NUMBER_ARGUMENTS, ids=" ".join)
def test_number_arguments_are_ascii_numerals(capsys, tmp_path, argv):
    dfa = tmp_path / "mod3.dfa"
    dfa.write_text(dfa_to_text(corpus()["mod3"].dfa))
    code, _, _ = run(capsys, *(a.format(dfa=dfa, n="2") for a in argv))
    assert code == 0
    # int() reads each of these as 2.
    for two in ("+2", "0_2", "\u0662"):
        code, out, err = run(capsys, *(a.format(dfa=dfa, n=two) for a in argv))
        assert code == 2 and out == "", (two, out)
        assert err == f"error: not a decimal numeral: {two!r}\n"


@pytest.mark.parametrize("module", [cli, vf], ids=lambda m: m.__name__)
def test_no_private_names_of_other_modules(module):
    """The CLI and the suites reach other equlat modules only through public
    names: no ``alias._name`` for a module imported as ``alias``."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    private = [
        f"line {node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
        and node.attr.startswith("_")
    ]
    assert aliases and private == []


def test_readme_limits_table_matches_the_cli(capsys):
    """The README's limits table is what ``equlat limits`` prints, byte for byte."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines(keepends=True)
    start = lines.index("| option | limit | why |\n")
    end = next(i for i in range(start, len(lines)) if not lines[i].startswith("|"))
    code, out, err = run(capsys, "limits")
    assert (code, err) == (0, "") and out == "".join(lines[start:end])


class _Stubbed(Exception):
    """Raised in place of the work a command starts once its limits pass."""


def _stubbed(*args, **kwargs):
    raise _Stubbed


def _padded(path, size):
    path.write_text("\n" * size)
    return str(path)


def _cycle_dfa(path, n):
    path.write_text(dfa_to_text(Dfa([((s + 1) % n,) * 3 for s in range(n)], 0, ())))
    return str(path)


# Per row of LIMITS: the work its commands start, each stubbed to raise
# _Stubbed, and a command line at value v for every option the row bounds.
_LIMIT_CASES = {
    "check": (
        [(dc, "axiom_counterexamples")],
        [lambda v, tmp: ("decider", "check", "parity", "--bound", str(v))],
    ),
    "steps": (
        [(tmlab, "simulate"), (tmlab, "nonhalt_eq"), (tmlab, "nonhalt_family_meet")],
        [
            lambda v, tmp: ("tm", "run", "spin", "", "--bound", str(v)),
            lambda v, tmp: ("decider", "decide", f"nonhalt({v})", "0", "1"),
            lambda v, tmp: ("demo", "nonhalt-meet", "--k", str(v)),
        ],
    ),
    "probe": (
        [(tmlab, "halting_probe"), (vf, "run_suite")],
        [
            lambda v, tmp: ("tm", "probe", "builder", "", "--bound", str(v)),
            lambda v, tmp: ("demo", "join-undecidable", "--machine", "builder", "--bound", str(v)),
            lambda v, tmp: ("verify", "tm", "--tm-bound", str(v)),
            lambda v, tmp: ("verify", "all", "--tm-bound", str(v)),
        ],
    ),
    "input": (
        [(tmlab, "halting_probe")],
        [
            lambda v, tmp: ("tm", "probe", "builder", "1" * v),
            lambda v, tmp: ("demo", "join-undecidable", "--machine", "builder", "--input", "1" * v),
        ],
    ),
    "complement": (
        [(dc.DeciderEq, "decide")],
        [
            lambda v, tmp: ("decider", "decide", "complement(bottom)", "0", str(v)),
            lambda v, tmp: ("decider", "decide", "complement(bottom)", str(v), "0"),
        ],
    ),
    "meet-growth": (
        [(am, "family_meet_demo")],
        [lambda v, tmp: ("demo", "automatic-meet-growth", "--k", str(v))],
    ),
    "cuts": (
        [(cs, "truncated_family_meet")],
        [
            lambda v, tmp: ("family", "meet", "--pred", "even", "--cuts", f"1,{v - 1}", "--k", "1"),
            lambda v, tmp: ("demo", "family-meet", "--cuts", f"1,{v - 1}", "--k", "1"),
        ],
    ),
    "restrict": (
        [(cs, "truncated_family_meet"), (dc.DeciderEq, "restrict")],
        [
            lambda v, tmp: ("family", "meet", "--pred", "even", "--cuts", "2", "--k", "0",
                            "--restrict", str(v)),
            lambda v, tmp: ("decider", "restrict", "parity", str(v)),
        ],
    ),
    "file": (
        [(Partition, "from_text"), (cli, "dfa_from_text"), (tmlab, "tm_from_text"),
         (cs, "bitmask_predicate")],
        [
            lambda v, tmp: ("partition", "complement", _padded(tmp / "p", v)),
            lambda v, tmp: ("automatic", "check", _padded(tmp / "d", v)),
            lambda v, tmp: ("tm", "run", _padded(tmp / "m", v)),
            lambda v, tmp: ("family", "meet", "--pred", f"bitmask:{_padded(tmp / 'b', v)}",
                            "--cuts", "2", "--k", "0"),
        ],
    ),
    "dfa": (
        [(am, "admission_checks"), (am.AutomaticEq, "from_dfa")],
        [
            lambda v, tmp: ("automatic", "check", _cycle_dfa(tmp / "c.dfa", v)),
            lambda v, tmp: ("automatic", "meet", _cycle_dfa(tmp / "l.dfa", v),
                            _cycle_dfa(tmp / "r.dfa", v)),
        ],
    ),
    "atoms": (
        [(cs, "star_atoms")],
        [lambda v, tmp: ("demo", "atoms", "--set", "0", "--n", str(v))],
    ),
}


@pytest.mark.parametrize("name", sorted(set(LIMITS) | set(_LIMIT_CASES)))
def test_every_limit_at_and_above_its_value(capsys, monkeypatch, tmp_path, name):
    """Every command a LIMITS row bounds reaches its work at the limit and is
    refused one above it, before any work; a row without cases fails here."""
    stubs, commands = _LIMIT_CASES[name]
    for owner, attr in stubs:
        monkeypatch.setattr(owner, attr, _stubbed)
    limit = LIMITS[name].value
    for command in commands:
        with pytest.raises(_Stubbed):
            main(list(command(limit, tmp_path)))
        capsys.readouterr()
        code, out, err = run(capsys, *command(limit + 1, tmp_path))
        assert (code, out) == (2, "") and f" is above the limit {limit}" in err, command
