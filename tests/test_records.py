"""Value records: repr text, immutability and checked construction.

The reprs below are pinned so that the representation of a record can
change only on purpose.
"""

from fractions import Fraction

import pytest

from multifrac.factorizer import Factorization
from multifrac.lengths import MapComponent, MapUnion
from multifrac.monoid import build_generator_set


def test_reprs_are_pinned():
    assert (
        repr(Factorization(2, ((0, 1, 1), (1, 2, 3))))
        == "Factorization(c0=2, terms=((0, 1, 1), (1, 2, 3)))"
    )
    assert repr(MapComponent(4, (1, 3))) == "MapComponent(offset=4, steps=(1, 3))"
    assert repr(MapUnion([MapComponent(5), MapComponent(2, (3,))])) == (
        "MapUnion(components=(MapComponent(offset=2, steps=(3,)), "
        "MapComponent(offset=5, steps=())))"
    )
    assert repr(build_generator_set([Fraction(3, 2), Fraction(2, 5)])) == (
        "GeneratorSet(bases=(Fraction(2, 5), Fraction(3, 2)), has_unit_fraction=False, "
        "has_integer=False, is_canonical=True, proper_part=(0,), improper_part=(1,))"
    )


@pytest.mark.parametrize(
    "record, field",
    [
        (Factorization(1, ((0, 1, 2),)), "c0"),
        (MapComponent(3, (2,)), "steps"),
        (MapUnion([MapComponent(1)]), "components"),
        (build_generator_set([Fraction(2, 3)]), "bases"),
    ],
)
def test_setting_a_field_raises(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Factorization(-1),
        lambda: Factorization(0, ((1, 1, 1), (0, 1, 1))),
        lambda: Factorization(0, ((0, 1, 1), (0, 1, 2))),
        lambda: Factorization(0, ((0, 1, 0),)),
        lambda: MapComponent(-1),
        lambda: MapComponent(0, (0,)),
    ],
    ids=["negative-c0", "unsorted", "duplicate-slot", "zero-coefficient", "negative-offset", "zero-step"],
)
def test_invalid_construction_raises_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_map_union_dedupes_and_sorts_a_generator():
    parts = [MapComponent(5), MapComponent(2, (3,)), MapComponent(5), MapComponent(2, (3,))]
    mu = MapUnion(c for c in parts)
    assert mu.components == (MapComponent(2, (3,)), MapComponent(5))
    assert mu == MapUnion([MapComponent(2, (3,)), MapComponent(5)])
    assert hash(mu) == hash(MapUnion([MapComponent(5), MapComponent(2, (3,))]))
