"""Monoid layer: trichotomy, set validation, atom inventory."""

import random
from fractions import Fraction

import pytest

from conftest import random_factorization
from multifrac.exceptions import (
    DuplicateBase,
    NotAtomic,
    NotCanonical,
    ZeroGenerator,
)
from multifrac.factorizer import (
    Factorization,
    SearchCaps,
    enumerate_factorizations,
    evaluate,
)
from multifrac.monoid import (
    CyclicCase,
    accp_obstruction,
    build_generator_set,
    canonical_atoms,
    classify_cyclic,
    proper_reduction,
)


def test_cyclic_trichotomy():
    """The three shapes a one-generator monoid can take."""
    c = classify_cyclic(Fraction(3))
    assert c.case is CyclicCase.INTEGER_BASE
    assert c.atomic
    assert c.atom_description == "{1}"

    c = classify_cyclic(Fraction(1, 2))
    assert c.case is CyclicCase.UNIT_FRACTION_BASE
    assert not c.atomic
    assert c.atom_description == "{}"

    c = classify_cyclic(Fraction(2, 3))
    assert c.case is CyclicCase.GENERIC
    assert c.atomic
    assert c.atom_description == "{(2/3)^n : n >= 0}"


def test_cyclic_rejects_nonpositive():
    with pytest.raises(ZeroGenerator):
        classify_cyclic(Fraction(0))
    with pytest.raises(ZeroGenerator):
        classify_cyclic(Fraction(-1, 2))


def test_build_sorts_and_certifies():
    B = build_generator_set([Fraction(4, 5), Fraction(2, 3)])
    assert B.bases == (Fraction(2, 3), Fraction(4, 5))
    assert B.is_canonical
    assert B.minimal is True
    assert B.proper_part == (0, 1)
    assert B.improper_part == ()


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateBase):
        build_generator_set([Fraction(2, 3), Fraction(4, 6)])


def test_integer_generator_blocks_canonical():
    B = build_generator_set([Fraction(3), Fraction(2, 3)])
    assert B.has_integer
    assert not B.is_canonical
    assert B.minimal is None


def test_shared_denominator_blocks_canonical():
    B = build_generator_set([Fraction(2, 3), Fraction(5, 6)])
    assert not B.is_canonical


def test_unit_fraction_is_legal_but_flagged():
    B = build_generator_set([Fraction(1, 2), Fraction(2, 3)])
    assert B.is_canonical
    assert B.has_unit_fraction


def test_unit_fraction_has_no_atoms():
    """(1/2)**e = 2 * (1/2)**(e + 1): no power of a unit fraction is an atom."""
    with pytest.raises(NotAtomic):
        canonical_atoms(build_generator_set([Fraction(1, 2), Fraction(2, 3)]), 2)


def test_hereditary_predicate_fixed_points():
    assert build_generator_set([Fraction(5, 2), Fraction(7, 3)]).is_hereditarily_atomic
    assert not build_generator_set([Fraction(2, 3)]).is_hereditarily_atomic
    assert not build_generator_set([Fraction(5, 2), Fraction(2, 3)]).is_hereditarily_atomic
    assert build_generator_set([]).is_hereditarily_atomic


def test_hereditary_means_finite_length_sets_in_samples():
    """Sampled members of an all-improper monoid have stable length sets.

    Doubling the length budget must not reveal new lengths when the set
    is hereditarily atomic; with a proper generator it eventually does.
    """
    B = build_generator_set([Fraction(5, 2), Fraction(7, 3)])
    rng = random.Random(23)
    for _ in range(8):
        z = random_factorization(rng, B, e_max=2, c_top=2)
        x = evaluate(z, B)
        # every atom here is >= 1, so lengths never exceed floor(x) < 40
        small = {w.length for w in enumerate_factorizations(x, B, SearchCaps(6, 40))}
        large = {w.length for w in enumerate_factorizations(x, B, SearchCaps(6, 80))}
        assert small == large
        assert z.length in small


def test_accp_obstruction_picks_smallest_proper_base():
    B = build_generator_set([Fraction(5, 2), Fraction(2, 3), Fraction(3, 7)])
    assert accp_obstruction(B) == Fraction(3, 7)
    assert accp_obstruction(build_generator_set([Fraction(5, 2)])) is None


def test_canonical_atoms_layout():
    B = build_generator_set([Fraction(2, 3), Fraction(4, 5)])
    atoms = canonical_atoms(B, e_max=3)
    assert len(atoms) == 1 + 2 * 3
    assert atoms[0].base_index is None
    assert atoms[0].value == 1
    assert (atoms[1].base_index, atoms[1].exponent, atoms[1].value) == (
        0,
        1,
        Fraction(2, 3),
    )
    assert atoms[-1].value == Fraction(4, 5) ** 3


def test_canonical_atoms_guards():
    with pytest.raises(NotCanonical):
        canonical_atoms(build_generator_set([Fraction(2, 3), Fraction(5, 6)]), 2)
    assert canonical_atoms(build_generator_set([]), 4) == []


def test_atoms_are_atoms_by_enumeration():
    """Each listed atom has exactly one factorization: itself.

    Checked against the brute-force enumerator, which is the ground
    truth for membership questions at these sizes.
    """
    caps = SearchCaps(e_max=4, len_max=8)
    for bases in ([Fraction(2, 3)], [Fraction(2, 3), Fraction(4, 5)], [Fraction(3, 7), Fraction(9, 11)]):
        B = build_generator_set(bases)
        for atom in canonical_atoms(B, e_max=2):
            facts = enumerate_factorizations(atom.value, B, caps)
            if atom.base_index is None:
                expected = Factorization.from_terms(1, {})
            else:
                expected = Factorization.from_terms(
                    0, {(atom.base_index, atom.exponent): 1}
                )
            assert facts == [expected]


def test_proper_reduction():
    B = build_generator_set([Fraction(5, 2), Fraction(2, 3), Fraction(4, 7)])
    red = proper_reduction(B)
    assert red.bases == (Fraction(4, 7), Fraction(2, 3))
    assert proper_reduction(red) == red

