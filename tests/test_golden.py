"""Every corpus program preexecutes to the same .ccode bytes as recorded.

A digest pins the whole bound table: which declaration won each search,
the order rewrites were applied in, and the addresses the splice gave to
new lines. A change in any of them fails here by program name. Update a
digest only for a deliberate change of search or allocation behaviour.
"""

import hashlib

import corpus
import pytest

from coolang import build, preexecute, serialize

CCODE_SHA256 = {
    "add_to": "9c65b730291b4105718979bbc65de913911d7bff46eae704be9f0bb9fc8e04fc",
    "out_scope": "138734a9ff8c7854f9669c5fe1446081894999fc9126f58e9f333df5f2705aca",
    "quadratic_constraint": "1030eaea717adb3140602f4a2049cf93da85a20746274aef8c6c3087d62e2cc4",
    "apple_price": "07d8d779b6fccb1cf39e94f25258d622c5b4aa2ba25605c7a6a5988c76184705",
    "sin_approx": "01520451710ce560c804cdd72173077d6ffa1bacf1d81543aff5f3a235fca10e",
    "sin_approx_exp": "ca1397db7411046be17f197db62b3ff0fd6d7e132a03104da68e0669bb203569",
    "loop_and_branch": "9cd54faae480081efa39ca68054812bdaa90ce1200807a6a710000c98bb80012",
    "chained_derivation": "bbdfc6868394ae94a946aae0f016d826731c3e874eddfce092527f05367ec551",
    "class_solver": "ea55626ab3db61cafb167055bbcda4049345ebcaf01b4870d5dc09008295d23e",
}


def test_every_corpus_program_has_a_recorded_digest():
    assert set(CCODE_SHA256) == set(corpus.ALL_PROGRAMS)


@pytest.mark.parametrize("name", sorted(corpus.ALL_PROGRAMS))
def test_preexecuted_code_table_matches_its_recorded_digest(name):
    tables = build(corpus.ALL_PROGRAMS[name])
    preexecute(tables)
    text = serialize(tables)
    assert hashlib.sha256(text.encode()).hexdigest() == CCODE_SHA256[name]
