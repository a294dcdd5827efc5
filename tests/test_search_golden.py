"""Sum chains bind to the same winners as recorded.

Each program is one chain `$y + k1 + ... + kd == c` under the commuting
rule and the reverse `+` and `==` declarations, searched at depths 4 to 10.
The pinned `(weight, rounds)` of every bound statement and the SHA-256 of
the preexecuted .ccode fix which candidate won, in which round, and where
the splice put its lines. An optimisation of the search must keep all of
them. Update a value only for a deliberate change of search behaviour.
The digests moved twice: to the same files without their table sections,
then without each code row's scope, exec and formal cells.
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
        "30fd788d584f4c9f35922ab41faf8d97a5fb43dd4df8622758847751f79571c2",
    ),
    6: (
        _bound(70.0, 7),
        "a227b91eba600537b8e666fde40ccf1042d88de1e19051a3b269a905c3ab758c",
    ),
    8: (
        _bound(90.0, 9),
        "6f774bc102b4ec184fc02862bc1f86f05ba07c77249a2ef2fc6dc643807b6eac",
    ),
    10: (
        _bound(110.0, 11),
        "df513ce733005ad806035395890311d242b6e2ff974b04b708fac36f070e9b3a",
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
