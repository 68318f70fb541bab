import random

import pytest

from equlat.constructions import (
    SingularFamilySpec,
    atoms_to_singular,
    bitmask_predicate,
    closed_form_meet,
    default_cuts,
    family_member,
    is_even,
    is_prime,
    star_atoms,
    truncated_family_meet,
)
from equlat.partition import InvalidPartition, Partition


EVEN_SPEC = SingularFamilySpec(is_even, (2, 4, 8), name="even")


class TestSpec:
    def test_cuts_must_increase(self):
        with pytest.raises(ValueError):
            SingularFamilySpec(is_even, (4, 4, 8))
        with pytest.raises(ValueError):
            SingularFamilySpec(is_even, ())

    def test_default_cuts(self):
        assert default_cuts(4) == (2, 4, 8, 16)


class TestFamilyMember:
    def test_first_member_of_even_family(self):
        m0 = family_member(EVEN_SPEC, 0)
        assert m0.threshold == 2
        assert [x for x in range(m0.threshold) if m0.key(x) == m0.tail_label] == [0]

    def test_members_are_small_and_singular(self):
        for i in range(3):
            m = family_member(EVEN_SPEC, i)
            assert m.is_singular()
            assert m.class_count <= m.threshold + 1

    def test_below_cut_the_tail_is_the_predicate(self):
        for i in range(3):
            m = family_member(EVEN_SPEC, i)
            cut = EVEN_SPEC.cuts[i]
            for x in range(cut):
                assert m.related(x, cut) == is_even(x)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            family_member(EVEN_SPEC, 3)


class TestTruncatedMeet:
    def test_single_member(self):
        assert truncated_family_meet(EVEN_SPEC, 0) == family_member(EVEN_SPEC, 0)

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_index_rejected(self, k):
        with pytest.raises(ValueError, match="non-negative"):
            truncated_family_meet(EVEN_SPEC, k)

    def test_index_past_the_cuts(self):
        with pytest.raises(IndexError):
            truncated_family_meet(EVEN_SPEC, 3)

    def test_even_family_k2(self):
        got = truncated_family_meet(EVEN_SPEC, 2)
        assert got.threshold == 8
        assert [x for x in range(got.threshold) if got.key(x) == got.tail_label] == [0, 2, 4, 6]

    def test_restriction_is_the_singular_partition(self):
        got = truncated_family_meet(EVEN_SPEC, 2).restrict(8)
        assert got == Partition.from_classes(
            [[0, 2, 4, 6], [1], [3], [5], [7]]
        )

    def test_matches_closed_form_across_parameters(self):
        rng = random.Random(1)
        predicates = [is_even, is_prime, lambda x: x % 5 == 1]
        for pred in predicates:
            for cuts in (default_cuts(7), tuple(range(1, 8)), (3, 5, 9, 17, 33, 65, 129)):
                spec = SingularFamilySpec(pred, cuts)
                for k in range(7):
                    assert truncated_family_meet(spec, k) == closed_form_meet(spec, k)

    def test_meets_decrease(self):
        spec = SingularFamilySpec(is_prime, default_cuts(5))
        prev = None
        for k in range(5):
            cur = truncated_family_meet(spec, k)
            if prev is not None:
                n = spec.cuts[k] + 2
                assert cur.restrict(n).leq(prev.restrict(n))
            prev = cur


class TestAtoms:
    def test_full_universe_gives_top(self):
        assert atoms_to_singular(range(5), 5) == Partition.top(5)

    def test_single_atom(self):
        got = atoms_to_singular({1, 3}, 4)
        assert [(a.a, a.b) for a in star_atoms({1, 3}, 4)] == [(1, 3)]
        assert got == Partition.from_classes([[1, 3], [0], [2]])

    def test_matches_direct_singular_construction(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randrange(2, 11)
            members = rng.sample(range(n), rng.randrange(2, n + 1))
            got = atoms_to_singular(members, n)
            expect = Partition.from_classes(
                [sorted(members)] + [[x] for x in range(n) if x not in set(members)]
            )
            assert got == expect

    def test_every_atom_below_result(self):
        members = [1, 4, 6]
        result = atoms_to_singular(members, 8)
        for atom in star_atoms(members, 8):
            assert atom.as_partition().leq(result)

    def test_too_few_members(self):
        with pytest.raises(InvalidPartition):
            atoms_to_singular({3}, 5)


class TestPredicates:
    def test_prime(self):
        assert [x for x in range(20) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_bitmask(self):
        p = bitmask_predicate("0110 1")
        assert [p(x) for x in range(6)] == [False, True, True, False, True, False]

    def test_bitmask_rejects_junk(self):
        with pytest.raises(ValueError):
            bitmask_predicate("012")
