import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coolang.addresses import Address, allocate_between, row_address, run_between
from coolang.code import (
    SLOT_LEFT,
    SLOT_RESULT,
    SLOT_RIGHT,
    CONTROL_TYPES,
    CodeTable,
    CodeType,
    ExtendedLine,
    Operand,
    OperandKind,
)


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


def test_run_between_is_ordered_and_fresh():
    run = run_between(Address((1,)), Address((2,)), 5)
    assert len(run) == 5
    assert all(Address((1,)) < a < Address((2,)) for a in run)
    assert run == sorted(run)
    assert len(set(run)) == 5


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


# digits, signs, spaces and underscores int() reads, empty segments, leading
# zeros and digits int() reads (Arabic-Indic three and zero) or refuses (²)
_segments = st.integers(-3, 12).map(str) | st.sampled_from(
    ["", "00", "07", "٣", "٠", "²", " 1", "1_0", "+2", "-0", "x"]
)
address_texts = st.text(alphabet="0123456789.-+ _٣٠²", max_size=10) | st.lists(
    _segments, min_size=1, max_size=4
).map(".".join)


@settings(max_examples=1000)
@given(address_texts)
@example("1.-1.1")
@example("٠")
@example("٣")
@example("²")
@example("")
@example("03.0")
def test_parse_agrees_with_the_constructor_on_any_text(text):
    # serialize copies these messages into its FormatError texts
    try:
        expected = Address(text.split("."))
    except ValueError as exc:
        with pytest.raises(ValueError) as parsed:
            Address.parse(text)
        assert str(parsed.value) == str(exc)
    else:
        a = Address.parse(text)
        assert a == expected and type(a) is Address


@given(st.integers(1, 10**12))
@example(1)
@example(10**9)
def test_row_address_is_the_checked_one_digit_address(n):
    a = row_address(n)
    assert a == Address((n,)) and type(a) is Address
    assert hash(a) == hash(Address((n,))) and str(a) == str(n)


def _line(addr: Address) -> ExtendedLine:
    empty = Operand.empty()
    return ExtendedLine(addr, None, CodeType.EXPR, empty, empty, empty, empty)


@given(
    st.lists(st.integers(0, 10**6), max_size=40),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_code_table_between_matches_a_full_scan(gaps, pick_lo, pick_hi):
    # grow a table the way splices do: fresh addresses inside existing gaps
    table = CodeTable({Address((i,)): _line(Address((i,))) for i in (1, 2, 3)})
    for g in gaps:
        keys = [*table.addresses(), None]
        i = g % (len(keys) - 1)
        table.insert(_line(allocate_between(keys[i], keys[i + 1])))

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


def _refs(ln: ExtendedLine) -> list:
    return [
        o.addr if o.kind is OperandKind.ADDRESS else None
        for o in (ln.slot(s) for s in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT))
    ]


@given(st.data())
def test_insert_run_moves_a_run_into_a_gap_with_its_own_references(data):
    outside = [Address(d) for d in ((1,), (2,), (2, 1), (2, 1, 1), (3,), (5,))]
    n = data.draw(st.integers(1, 30))
    # distinct old addresses, as a segment's staged lines have
    old = [Address((10**9 + k,)) for k in range(n)]
    targets = st.none() | st.sampled_from(old + outside)

    def pointing(a: Address) -> ExtendedLine:
        ln = _line(a)
        for s in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT):
            t = data.draw(targets)
            if t is not None:
                ln.set_slot(s, Operand.address(t))
        return ln

    table = CodeTable({a: pointing(a) for a in outside})
    run = [pointing(a) for a in old]
    i = data.draw(st.integers(0, len(outside) - 2))
    lo, hi = outside[i], outside[i + 1]
    run_refs = [_refs(ln) for ln in run]
    outside_refs = {ln.address: _refs(ln) for ln in table.lines()}

    new = table.insert_run(run, lo, hi)

    assert len(new) == n
    assert all(x < y for x, y in zip([lo, *new], [*new, hi]))
    assert [ln.address for ln in run] == new
    moved = dict(zip(old, new))
    for ln, refs in zip(run, run_refs):
        assert _refs(ln) == [moved.get(r, r) for r in refs]
    assert {a: _refs(table[a]) for a in outside} == outside_refs
    assert table.between(lo, hi) == run


@given(st.data())
def test_the_code_table_keeps_its_jump_and_return_rows(data):
    kinds = st.sampled_from([CodeType.EXPR, CodeType.JUMP, CodeType.RETURN, CodeType.EXPR_END])

    def line(addr: Address) -> ExtendedLine:
        ln = _line(addr)
        ln.ctype = data.draw(kinds)
        return ln

    n = data.draw(st.integers(1, 8))
    table = CodeTable({Address((i,)): line(Address((i,))) for i in range(1, n + 1)})
    for _ in range(data.draw(st.integers(0, 20))):
        keys = table.addresses()
        op = data.draw(st.sampled_from(["insert", "remove", "insert_run"]))
        if op == "remove" and keys:
            table.remove(data.draw(st.sampled_from(keys)))
            continue
        # a gap after a row, or the empty table: no address fits below 1
        i = data.draw(st.integers(0, len(keys) - 1)) if keys else 0
        lo, hi = ([*keys, None][i], [*keys[1:], None][i])
        if op == "insert":
            table.insert(line(allocate_between(lo, hi)))
        else:
            run = [line(Address((10**9 + k,))) for k in range(data.draw(st.integers(1, 3)))]
            table.insert_run(run, lo, hi)
        scanned = {ln.address: ln for ln in table.lines() if ln.ctype in CONTROL_TYPES}
        assert table.control == scanned
