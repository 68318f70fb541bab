"""Span tracing installed from outside the library.

``Tracer.install`` replaces public functions and methods of ``equlat`` with
wrappers at every binding site: a module-level function is replaced in every
``equlat`` module that holds it (``equlat.dfa.product`` and
``equlat.automatic.product`` alike), a method on its class.  A wrapper records
a span (name, start, end, parent, request id) while the tracer is active and
adds the call's work counts; inactive, it only forwards the call.  Spans stay
in memory until ``write_spans``.

Metric conventions: ``<layer>.<op>_s`` is the inclusive time of that call,
``<layer>.self_s`` the layer's self time (span durations minus the time their
child spans cover), and every other metric a count or a ratio of counts.
"""
from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

from equlat import automatic as am
from equlat import constructions as cs
from equlat import decider as dc
from equlat import dfa as dfa_mod
from equlat import tm
from equlat import verify
from equlat.partition import Partition, SmallEq


def _elements(counts, args, out):
    counts["partition.elements"] += len(args[0].labels)


def _output_elements(counts, args, out):
    counts["partition.elements"] += out.universe_size


def _smalleq_meet_elements(counts, args, out):
    counts["partition.elements"] += out.threshold


def _smalleq_restrict_elements(counts, args, out):
    counts["partition.elements"] += args[1]


def _product_states(counts, args, out):
    counts["dfa.product_states"] += out.state_count


def _minimize_states(counts, args, out):
    counts["dfa.minimize_states"] += args[0].state_count


def _determinize_states(counts, args, out):
    counts["dfa.determinize_states"] += out.state_count


def _accepted(counts, args, out):
    counts["automatic.accepted"] += 1


def _class_pairs(counts, args, out):
    counts["automatic.class_pairs"] += (
        len(out.left_representatives) * len(out.right_representatives)
    )


def _explored(counts, args, out):
    if isinstance(out, dc.NotWithinBounds):
        counts["decider.explored"] += out.explored


def _steps(counts, args, out):
    counts["tm.steps"] += len(out) - 1


def _encoded_bits(counts, args, out):
    counts["tm.code_bits"] += out.bit_length()


def _decoded_bits(counts, args, out):
    counts["tm.code_bits"] += args[1].bit_length()


# (span name, owner, attribute, work counter); owner is a class for methods
# and a module for functions, which are then replaced at every binding site.
TARGETS = (
    ("partition.meet", Partition, "meet", _elements),
    ("partition.join", Partition, "join", _elements),
    ("partition.leq", Partition, "leq", _elements),
    ("partition.is_complement", Partition, "is_complement", _elements),
    ("partition.least_element_complement", Partition, "least_element_complement", _elements),
    ("partition.atoms", Partition, "atoms", _elements),
    ("partition.from_classes", Partition, "from_classes", _output_elements),
    ("partition.smalleq_meet", SmallEq, "meet", _smalleq_meet_elements),
    ("partition.smalleq_restrict", SmallEq, "restrict", _smalleq_restrict_elements),
    ("verify.lattice_checks", verify, "lattice_checks", None),
    ("dfa.product", dfa_mod, "product", _product_states),
    ("dfa.minimize", dfa_mod, "minimize", _minimize_states),
    ("dfa.determinize", dfa_mod.Nfa, "determinize", _determinize_states),
    ("dfa.parse", dfa_mod, "dfa_from_text", None),
    ("automatic.from_dfa", am.AutomaticEq, "from_dfa", _accepted),
    ("automatic.check_format", am, "check_format", None),
    ("automatic.check_reflexive", am, "check_reflexive", None),
    ("automatic.check_symmetric", am, "check_symmetric", None),
    ("automatic.check_transitive", am, "check_transitive", None),
    ("automatic.meet", am.AutomaticEq, "meet", None),
    ("automatic.join_certificate", am.AutomaticEq, "join_certificate", _class_pairs),
    ("automatic.restrict", am.AutomaticEq, "restrict", None),
    ("decider.bounded_join", dc, "bounded_join", _explored),
    ("decider.verify_chain", dc, "verify_chain", None),
    ("decider.restrict", dc.DeciderEq, "restrict", None),
    ("tm.halting_probe", tm, "halting_probe", None),
    ("tm.trajectory", tm, "trajectory", _steps),
    ("tm.encode_config", tm, "encode_config", _encoded_bits),
    ("tm.decode_config", tm, "decode_config", _decoded_bits),
    ("tm.encode_tm", tm, "encode_tm", None),
    ("tm.halt_step", tm, "halt_step", None),
    ("tm.nonhalt_family_meet", tm, "nonhalt_family_meet", None),
    ("constructions.truncated_family_meet", cs, "truncated_family_meet", None),
)

# (unit, metric); "_s" metrics are filled from spans, the rest from counts.
PER_LAYER = (
    ("count", "partition.calls"),
    ("count", "partition.elements"),
    ("s", "partition.meet_s"),
    ("s", "partition.join_s"),
    ("s", "partition.other_s"),
    ("s", "partition.self_s"),
    ("count", "verify.lattice_checks_calls"),
    ("s", "verify.self_s"),
    ("count", "verify.partition_calls_per_check"),
    ("count", "dfa.product_calls"),
    ("count", "dfa.product_states"),
    ("s", "dfa.product_s"),
    ("count", "dfa.minimize_calls"),
    ("count", "dfa.minimize_states"),
    ("s", "dfa.minimize_s"),
    ("count", "dfa.determinize_calls"),
    ("count", "dfa.determinize_states"),
    ("s", "dfa.determinize_s"),
    ("s", "dfa.parse_s"),
    ("s", "dfa.self_s"),
    ("count", "automatic.from_dfa_calls"),
    ("ratio", "automatic.accept_ratio"),
    ("s", "automatic.check_format_s"),
    ("s", "automatic.check_reflexive_s"),
    ("s", "automatic.check_symmetric_s"),
    ("s", "automatic.check_transitive_s"),
    ("s", "automatic.meet_s"),
    ("s", "automatic.join_certificate_s"),
    ("count", "automatic.class_pairs"),
    ("s", "automatic.restrict_s"),
    ("s", "automatic.self_s"),
    ("count", "decider.bounded_join_calls"),
    ("s", "decider.bounded_join_s"),
    ("count", "decider.relation_tests"),
    ("count", "decider.explored"),
    ("s", "decider.verify_chain_s"),
    ("s", "decider.restrict_s"),
    ("s", "decider.self_s"),
    ("s", "tm.trajectory_s"),
    ("count", "tm.steps"),
    ("count", "tm.encode_config_calls"),
    ("s", "tm.encode_config_s"),
    ("count", "tm.decode_config_calls"),
    ("s", "tm.decode_config_s"),
    ("count", "tm.code_bits"),
    ("s", "tm.encode_tm_s"),
    ("s", "tm.halt_step_s"),
    ("s", "tm.self_s"),
    ("s", "constructions.truncated_family_meet_s"),
    ("s", "constructions.self_s"),
    ("1/s", "trace.untraced_ops_per_s"),
    ("1/s", "trace.traced_ops_per_s"),
    ("ratio", "trace.overhead_ratio"),
    ("count", "trace.spans"),
)

# Work counts that must repeat exactly on a second traced run of one seed.
WORK_COUNTS = tuple(
    name for unit, name in PER_LAYER
    if unit == "count" and not name.endswith("_per_check") and not name.startswith("trace.")
)


class Tracer:
    def __init__(self):
        self.active = False
        self.request = -1
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.starts)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.requests.append(tracer.request)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            tracer.starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                tracer.stack.pop()
            if after is not None:
                after(tracer.counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, d: dc.DeciderEq) -> dc.DeciderEq:
        """The same relation, counting every test made through it."""
        counts = self.counts

        def fn(m: int, n: int) -> bool:
            counts["decider.relation_tests"] += 1
            return d.decide(m, n)

        return dc.DeciderEq(fn, d.cost_note, d.universe_hint, check_bound=0)

    def counting_join(self, fn):
        # halting_probe builds its two relations internally, so the relation
        # tests are counted on the relations as they reach bounded_join.
        tracer = self

        def join(d1, d2, *args, **kwargs):
            if tracer.active:
                d1, d2 = tracer.counted(d1), tracer.counted(d2)
            return fn(d1, d2, *args, **kwargs)

        return join

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "equlat" or key.startswith("equlat."))
        ]
        for name, owner, attr, after in TARGETS:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(owner, attr, classmethod(self.wrap(name, raw.__func__, after)))
                else:
                    self._patch(owner, attr, self.wrap(name, raw, after))
                continue
            orig = getattr(owner, attr)
            inner = self.counting_join(orig) if name == "decider.bounded_join" else orig
            new = self.wrap(name, inner, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------------

    def metrics(self, untraced_ops_per_s: float, traced_ops_per_s: float) -> dict[str, float]:
        """Every per-layer metric, plus the tracing overhead measured as the
        untraced over the traced throughput on the same requests."""
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        under_checks = [False] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                covered[p] += dur[i]
                under_checks[i] = under_checks[p] or self.names[p] == "verify.lattice_checks"
        calls: defaultdict[str, int] = defaultdict(int)
        inclusive: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            inclusive[name] += dur[i]
            own[name.split(".", 1)[0]] += dur[i] - covered[i]
        partition_in_checks = sum(
            1 for i in range(n) if under_checks[i] and self.names[i].startswith("partition.")
        )
        partition_other = sum(
            dur[i] - covered[i] for i, name in enumerate(self.names)
            if name.startswith("partition.") and name not in ("partition.meet", "partition.join")
        )
        checks = calls["verify.lattice_checks"]
        out: dict[str, float] = {
            "trace.untraced_ops_per_s": untraced_ops_per_s,
            "trace.traced_ops_per_s": traced_ops_per_s,
            "trace.overhead_ratio": untraced_ops_per_s / traced_ops_per_s,
            "trace.spans": n,
        }
        for _, metric in PER_LAYER:
            if metric in out:
                continue
            if metric.endswith(".self_s"):
                out[metric] = own[metric.split(".", 1)[0]]
            elif metric.endswith("_calls"):
                out[metric] = calls[metric[: -len("_calls")]]
            elif metric.endswith("_s"):
                out[metric] = inclusive[metric[: -len("_s")]]
            else:
                out[metric] = self.counts[metric]
        out["partition.calls"] = sum(c for k, c in calls.items() if k.startswith("partition."))
        out["partition.other_s"] = partition_other
        out["verify.partition_calls_per_check"] = partition_in_checks / checks if checks else 0.0
        from_dfa = calls["automatic.from_dfa"]
        out["automatic.accept_ratio"] = (
            self.counts["automatic.accepted"] / from_dfa if from_dfa else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,request\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{self.names[i]},{self.starts[i]:.9f},{self.ends[i]:.9f},"
                    f"{self.parents[i]},{self.requests[i]}\n"
                )
