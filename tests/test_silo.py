import pytest
from hypothesis import given
from hypothesis import strategies as st

from coolang.silo import Silo


def weights(silo):
    return [w for w, _ in silo.entries()]


def items(silo):
    return [it for _, it in silo.entries()]


def min_weight(silo):
    ws = weights(silo)
    return ws[0] if ws else None


def test_size_must_be_positive():
    with pytest.raises(ValueError):
        Silo(0)
    with pytest.raises(ValueError):
        Silo(-3)


def test_entries_stay_sorted_ascending():
    s = Silo(8)
    for i, w in enumerate([5.0, 1.0, 3.0, -2.0, 4.0]):
        s.offer(w, ("d", i), i)
    assert weights(s) == [-2.0, 1.0, 3.0, 4.0, 5.0]
    assert min_weight(s) == -2.0


def test_full_silo_rejects_weight_not_above_minimum():
    s = Silo(2)
    assert s.offer(3.0, "a", "a")
    assert s.offer(5.0, "b", "b")
    assert not s.offer(3.0, "c", "c")  # equal to the minimum
    assert not s.offer(2.0, "d", "d")  # below it
    assert items(s) == ["a", "b"]


def test_full_silo_evicts_lightest_for_a_heavier_entry():
    s = Silo(2)
    s.offer(3.0, "a", "a")
    s.offer(5.0, "b", "b")
    assert s.offer(4.0, "c", "c")
    assert weights(s) == [4.0, 5.0]
    assert items(s) == ["c", "b"]
    assert min_weight(s) == 4.0


def test_equal_weights_keep_insertion_order():
    s = Silo(8)
    for name in ["first", "second", "third"]:
        s.offer(7.0, name, name)
    assert items(s) == ["first", "second", "third"]


def test_duplicate_offer_is_suppressed():
    s = Silo(8)
    assert s.offer(1.0, "same", "x")
    assert not s.offer(1.0, "same", "y")
    assert len(s) == 1
    # same digest at a different weight is a different candidate
    assert s.offer(2.0, "same", "z")
    assert len(s) == 2


def test_suppression_survives_eviction():
    s = Silo(1)
    assert s.offer(1.0, "light", "a")
    assert s.offer(2.0, "heavy", "b")  # evicts the light entry
    assert not s.offer(1.0, "light", "a2")  # seen before, still refused
    assert items(s) == ["b"]


def test_empty_silo_reports_no_minimum():
    s = Silo(4)
    assert min_weight(s) is None
    assert not s
    s.offer(0.0, "d", "d")
    assert s
    assert len(s) == 1


def test_capacity_one_keeps_only_the_heaviest():
    s = Silo(1)
    for i, w in enumerate([0.0, 10.0, 5.0, 11.0]):
        s.offer(w, ("d", i), w)
    assert weights(s) == [11.0]


@given(
    size=st.integers(1, 6),
    offers=st.lists(
        st.tuples(st.integers(-4, 4).map(float), st.integers(0, 5)), max_size=40
    ),
)
def test_floor_rejected_offers_can_be_skipped(size, offers):
    # every offer made, against only the offers the weight floor admits
    full, floored = Silo(size), Silo(size)
    for i, (w, digest) in enumerate(offers):
        if full.admits(w):
            full.offer(w, digest, i)
        else:
            before = list(full.entries())
            assert not full.offer(w, digest, i)
            assert list(full.entries()) == before
        if floored.admits(w):
            floored.offer(w, digest, i)
        assert list(floored.entries()) == list(full.entries())


def test_admits_is_the_weight_floor_of_a_full_silo():
    s = Silo(2)
    assert s.admits(-100.0)
    s.offer(3.0, "a", "a")
    assert s.admits(-100.0)
    s.offer(5.0, "b", "b")
    assert not s.admits(3.0)
    assert not s.admits(2.0)
    assert s.admits(3.5)
