"""Sum chains bind to the same winners as recorded.

Each program is one chain `$y + k1 + ... + kd == c` under the commuting
rule and the reverse `+` and `==` declarations, searched at depths 4 to 10.
The pinned `(weight, rounds)` of every bound statement and the SHA-256 of
the preexecuted .ccode fix which candidate won, in which round, and where
the splice put its lines. An optimisation of the search must keep all of
them. Update a value only for a deliberate change of search behaviour.
The digests moved once, to the same files without their table sections.
"""

import hashlib

import pytest

from coolang import build, preexecute, run_program, serialize

DECLS = """\
exp: @(-1){ #a + #b }{ return: b + a; }
@(10){ $a + b }{ a = ans - b; }
@(10){ $a == b; }{ a = b; }
"""

CONSTANTS = (17, 42, 8, 93, 25, 61, 34, 77, 50, 12)
TOTAL = 2000


def chain_source(depth):
    terms = " + ".join(str(k) for k in CONSTANTS[:depth])
    return f"{DECLS}new: y = 0;\n$y + {terms} == {TOTAL};\ny --> 0;\n"


def _bound(weight, rounds):
    # the declaration bodies, `new: y = 0`, the chain, `y --> 0`
    return [(0.0, 0)] * 4 + [(weight, rounds), (0.0, 0)]


# depth -> ([(weight, rounds) per bound statement], .ccode SHA-256)
WINNERS = {
    4: (
        _bound(50.0, 5),
        "2b2cc4b8bf9c8d7da8a41fd43b2ff3026a46e84978a3e17a9e1c7c4101aa9297",
    ),
    6: (
        _bound(70.0, 7),
        "c124d68346639e69ffbfbcfa1bb8d0d7198f933c29d691b4eedc9c631a044021",
    ),
    8: (
        _bound(90.0, 9),
        "e22047f237bd0af84ce0deab97a3bb5985134328dbbc939a835f0095a524ac7e",
    ),
    10: (
        _bound(110.0, 11),
        "63c6c430c4676a4ae804ccb24a20e6acd2f130c9779d34bff1f4ef99aaa9a6cf",
    ),
}


@pytest.mark.parametrize("depth", sorted(WINNERS))
def test_sum_chain_binds_to_the_recorded_winner(depth):
    tables = build(chain_source(depth))
    bound = []
    preexecute(
        tables, on_bound=lambda addr, out: bound.append((out.weight, out.rounds))
    )
    want_bound, want_sha = WINNERS[depth]
    assert bound == want_bound
    text = serialize(tables)
    assert hashlib.sha256(text.encode()).hexdigest() == want_sha
    assert run_program(tables).output == [
        repr(float(TOTAL - sum(CONSTANTS[:depth])))
    ]
