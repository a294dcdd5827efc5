import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coolang.addresses import Address, Allocator, allocate_between, initial_addresses
from coolang.code import CodeTable, CodeType, ExecFlag, ExtendedLine, Operand


def test_parse_and_str_roundtrip():
    a = Address.parse("3.1.4")
    assert a.digits == (3, 1, 4)
    assert str(a) == "3.1.4"


def test_first_and_last_digit_must_be_nonzero():
    with pytest.raises(ValueError):
        Address((0, 1))
    with pytest.raises(ValueError):
        Address((1, 0))
    Address((1, 0, 1))  # interior zeros are fine


def test_zero_padded_comparison():
    # 3.1 sits between 3 and 4; padding compares front to back
    assert Address((3,)) < Address((3, 1)) < Address((4,))
    assert Address((3, 0, 1)) < Address((3, 1))
    assert Address((12,)) > Address((9, 9))


def test_allocate_between_worked_examples():
    assert allocate_between(Address((3,)), Address((4,))) == Address((3, 1))
    assert allocate_between(Address((3, 1)), Address((3, 2))) == Address((3, 1, 1))
    assert allocate_between(Address((3,)), Address((3, 1))) == Address((3, 0, 1))


def test_allocate_between_open_ends():
    assert allocate_between(None, None) == Address((1,))
    assert allocate_between(None, Address((3,))) == Address((2,))
    assert allocate_between(None, Address((1, 1))) == Address((1, 0, 1))
    assert allocate_between(Address((7,)), None) == Address((8,))
    with pytest.raises(ValueError):
        allocate_between(None, Address((1,)))  # nothing sorts below 1


def test_allocate_between_always_strictly_inside():
    rng = random.Random(20240817)
    for _ in range(2000):
        lo = Address(
            tuple(
                [rng.randint(1, 9)]
                + [rng.randint(0, 9) for _ in range(rng.randint(0, 3))]
                + [rng.randint(1, 9)]
            )
        )
        hi = Address(
            tuple(
                [rng.randint(1, 9)]
                + [rng.randint(0, 9) for _ in range(rng.randint(0, 3))]
                + [rng.randint(1, 9)]
            )
        )
        if hi < lo:
            lo, hi = hi, lo
        if lo == hi:
            continue
        mid = allocate_between(lo, hi)
        assert lo < mid < hi


def test_allocator_run_between_is_ordered_and_fresh():
    alloc = Allocator([Address((1,)), Address((2,))])
    run = alloc.run_between(Address((1,)), Address((2,)), 5)
    assert len(run) == 5
    assert all(Address((1,)) < a < Address((2,)) for a in run)
    assert run == sorted(run)
    assert len(set(run)) == 5


def test_initial_addresses():
    assert list(initial_addresses(3)) == [Address((1,)), Address((2,)), Address((3,))]


# --- properties of the tuple-backed order --------------------------------

_DIGIT = st.integers(0, 4)
_NONZERO = st.integers(1, 4)

# canonical digit tuples, small digits so prefixes and ties are common
canonical = st.one_of(
    st.tuples(_NONZERO),
    st.builds(
        lambda first, middle, last: (first, *middle, last),
        _NONZERO,
        st.lists(_DIGIT, max_size=3),
        _NONZERO,
    ),
)


def _padded_lt(a: tuple, b: tuple) -> bool:
    """The documented order: compare front to back, shorter padded with zeros."""
    n = max(len(a), len(b))
    return a + (0,) * (n - len(a)) < b + (0,) * (n - len(b))


@given(canonical, canonical)
def test_tuple_order_is_the_zero_padded_order(da, db):
    a, b = Address(da), Address(db)
    assert (a < b) == _padded_lt(da, db)
    assert (a > b) == _padded_lt(db, da)
    assert (a == b) == (da == db)
    assert (a != b) == (da != db)
    if a == b:
        assert hash(a) == hash(b)


@given(st.lists(canonical, max_size=12))
def test_sorting_addresses_follows_the_zero_padded_order(digit_lists):
    ordered = [a.digits for a in sorted(Address(d) for d in digit_lists)]
    for x, y in zip(ordered, ordered[1:]):
        assert not _padded_lt(y, x)


@given(canonical)
def test_addresses_are_immutable(digits):
    a = Address(digits)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(TypeError):
        a[0] = 9
    assert a.digits == digits and Address.parse(str(a)) == a


@given(canonical, st.integers(-9, -1), st.data())
def test_malformed_digits_are_rejected(digits, negative, data):
    for bad in ((), (0, *digits), (*digits, 0)):
        with pytest.raises(ValueError):
            Address(bad)
    i = data.draw(st.integers(0, len(digits) - 1))
    with pytest.raises(ValueError):
        Address(digits[:i] + (negative,) + digits[i + 1:])


def _line(addr: Address) -> ExtendedLine:
    empty = Operand.empty()
    return ExtendedLine(addr, None, ExecFlag.TRUE, CodeType.EXPR, empty, empty, empty, empty)


@given(
    st.lists(st.integers(0, 10**6), max_size=40),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_code_table_between_matches_a_full_scan(gaps, pick_lo, pick_hi):
    # grow a table the way splices do: fresh addresses inside existing gaps
    table = CodeTable(_line(a) for a in initial_addresses(3))
    alloc = Allocator(table.addresses())
    for g in gaps:
        keys = [*table.addresses(), None]
        i = g % (len(keys) - 1)
        table.insert(_line(alloc.between(keys[i], keys[i + 1])))

    # bounds are table addresses or fresh ones between them
    keys = table.addresses()
    probes = keys + [allocate_between(x, y) for x, y in zip(keys, [*keys[1:], None])]
    lo, hi = probes[pick_lo % len(probes)], probes[pick_hi % len(probes)]

    scanned = [
        ln.address
        for ln in table.lines()
        if _padded_lt(lo.digits, ln.address.digits) and _padded_lt(ln.address.digits, hi.digits)
    ]
    assert [ln.address for ln in table.between(lo, hi)] == scanned
