"""Every corpus program preexecutes to the same .ccode bytes as recorded.

A digest pins the whole bound table: which declaration won each search,
the order rewrites were applied in, and the addresses the splice gave to
new lines. A change in any of them fails here by program name. Update a
digest only for a deliberate change of search or allocation behaviour.

The compiled (not preexecuted) digests pin the parser's line stream on
its own, and the benchmark workloads at seeds 1-5 pin both stages on
longer programs. Update those only for a deliberate change of the
compiled form.

Every pin moved once, when a `.ccode` file stopped storing the scope,
function and class tables after its code rows: each was recomputed from
the earlier writer's file cut before its first `---` row, so the pins
still show that no code row changed. Every pin moved again when a code
row stopped storing its scope, exec flag and formal flags, which the
order of the rows fixes: each was recomputed from the earlier writer's
file with those three cells cut from every row.
"""

import hashlib

import corpus
import pytest

from coolang import build, preexecute, serialize

CCODE_SHA256 = {
    "add_to": "c79222a27d9a5e0d94ca956bac6e00467f162bfdf49b1887e49170cc332bfb61",
    "out_scope": "906ce51e4862db5bb10b1b662504c5c653ef2223f641d449d936b011a10e9a50",
    "quadratic_constraint": "de7958d822194a3dcf0751f506fb2ca716d87f6d1c32108a0459151673eb920b",
    "apple_price": "f40d35555347c706ba86a13fdea05d3dc4aad7e0ccffef072df0f4b365c007a0",
    "sin_approx": "6285852820058db7b5bfed1509b9eb15025cad5554e5bc58d1d848f71da687f0",
    "sin_approx_exp": "8b771a6b7f7982cec565dd942467de9aa9e8f79587c63a0892388593e7a99f5d",
    "loop_and_branch": "a65e5b0b16afe4113fc8b002865df5ee97863a3d278eb7da0fdca0011bae3f09",
    "chained_derivation": "70084de14f6e483582387c513b77cc126c458cde403adb8f26fa1d8be3097eb2",
    "class_solver": "3a99502d987d6613cd06ecd0283294f895fe18275b94d9bdbb91b07958af5f1d",
}


# the corpus programs plus the two shape programs, compiled only
COMPILED_SHA256 = {
    "add_to": "2fd22dcdb6cb401b9535afd5b38bf85d317b7f85cc28f6348e92951c9d5ce1ec",
    "out_scope": "da40748cb1ecd70c83d9d8ae5ff1a026745ca4d3756003b680985b59d5cdd1c7",
    "quadratic_constraint": "f4a951c844deaf2f908e7905972f2801acfa411c7499f6f8c0590efad5ccc20d",
    "apple_price": "f81f1481ce2350e5e247325ddb0c25f522451dc519f7cb09cc4babbefb3ec03a",
    "sin_approx": "9d8c8d7213b4c3c51952276d913bab74d1af41b47106bf7c5db4454f6eb7ee46",
    "sin_approx_exp": "c6f774d03433cbcbcc5d5dfd2befb81483b5779b1a224a338d79a8e60f31f2e4",
    "loop_and_branch": "d1b5d536ac68d85fcabb4c4707976ed8b181a39863b3ea4315e3c21d29d6bd6c",
    "chained_derivation": "76baeb3de00b9ada95c164966e6df93eb90418f3c48a7f51fe076320b394910e",
    "class_solver": "97a9cd650d738589d7a301a7182a888365fdc87b3bcfb8ca10b36c97b76ffe43",
    "relocation_shapes": "190ee5d6dfab20e0c9f876f62588cee99ac7494716d54b304909e4917c73f6ce",
    "member_reads": "6ab2d27d6a72ae9f210fe249d5dc29e67ba557410b11949efdab6a82ce715010",
}

COMPILED_PROGRAMS = dict(
    corpus.ALL_PROGRAMS,
    relocation_shapes=corpus.RELOCATION_SHAPES,
    member_reads=corpus.MEMBER_READS,
)

# (workload, seed) -> (compiled, preexecuted) .ccode SHA-256
WORKLOAD_SHA256 = {
    ("deep_bind", 1): (
        "71fd1e96e7d396c2d05c0f0bf989fcbd6ef8943888de9985a56f57ce9ae55dbf",
        "ca1a20488800f5f5312fe4961efbd0ed94e53581088fddb2fd48eba32add6fda",
    ),
    ("deep_bind", 2): (
        "f8f3ac574091d55d877fa2735091520a6abc6347b1480bb07094f507bb41dd83",
        "7fd90bf86dfd863a5a3bd36ff68c2fd4e3104a72ab86bd691cc67811b031d9e4",
    ),
    ("deep_bind", 3): (
        "c6a239fbe4fe8ed706e5b1ce17861cbe137ce39e9f26307a9236a6ad4f478b06",
        "2c00ba0c1fb9a74c873b262bed5c2e3c1417a81288af94e6225cde72cc14b1da",
    ),
    ("deep_bind", 4): (
        "73d7277a5c3c1aa94f2000ca152a4edb3f53c69a1af3f95197363a42e1e10879",
        "3b8d9c4aed8cdb78fbc418512820ecbaba4d18ae948b1c5c37fbe6cfb4682bb8",
    ),
    ("deep_bind", 5): (
        "fcb18dfed4ac0ee0b9f29e90337436ffcf2318ff1b91577f921e65fa584e0ecd",
        "ff7eaf3d023a9ede081209c968b3a900ab38014add93d114b1238950c68ad5d3",
    ),
    ("loop_run", 1): (
        "23c8bcbc838fe8feec4a376fbe2a6f35f77cd1bcc58721df6460e473fa418c26",
        "1c07afc505e71df33c7baa7cfaf6194c5d0ad8ee6fafe14cd76bdc2d0524a18d",
    ),
    ("loop_run", 2): (
        "47211d494220f4ece663e4b2aae4b7e05ca7a3335d41956949d92a829e9a2677",
        "43ad0d5f71802614a9360ba1aa1809a1bc70b9e799e8bab41b12d5de2c4f658a",
    ),
    ("loop_run", 3): (
        "c8cdb9c99b7773757ab922db0e447685bac1d44b67265024e5b9a4ca2dc2b6ea",
        "f895ca2bb756a94afc08174ff7a5bceb3ec503619a03b8d39fabe0805eb84cf8",
    ),
    ("loop_run", 4): (
        "8911c67a37fd86f05e3032e7dc758117efb844ad7828b2bf9080972fb70a1c32",
        "50be2aab34e80bc43e3fd03bac43b90c2575c208c2fb88dfd2e673c5f5481cdc",
    ),
    ("loop_run", 5): (
        "3f40268ee15b851ff2b0b259f804f7f2159cbaf975cf7675e9e98397c97ee87b",
        "c62ca991faf246d25ad188f05679f0d37bd3da436136f5aeca39a357e0357da4",
    ),
    ("wide_program", 1): (
        "eb5827df57263495555d8f8c6008bb9cd35f43f19d24fe8c557b83dcadc60a4c",
        "cf0df5a025e98e3fe4bbc5042535a8487c6624877a9a2820b5e52431432aace9",
    ),
    ("wide_program", 2): (
        "d17df22892ece615bf2b895aa7e6c6c371e98dbfb9aa02bdead1f66a9710d8dc",
        "e17dd3e61fda627ecbab0f0dc9c1c85f1bd49a6bb2e1e2699e8c9775614db5c1",
    ),
    ("wide_program", 3): (
        "bb09614aa524567ad0017d346d5d565fb12058b1baa03d694f9f4ee6a7e67e54",
        "480d01b976fbfe943b7843ddcd4854d56b8a631a04767946fbba0e1df2c16eed",
    ),
    ("wide_program", 4): (
        "e1547d08ac3d5474d63811f7304cd01f732a04f2826216bf5afcbb7c146009a5",
        "6d5ba5db8db4c3c9079d3a904ec40661e6b1862dd7295cafbb986460581aa306",
    ),
    ("wide_program", 5): (
        "dcce038f9e785d06e9e22087e86109d3418cbbc87c7b198837f65a9b5d5e0cd7",
        "988ef836b6ba2528558f40e6e7dbe64355ef7e3e7dc22b9fcd78b3f41f13cd86",
    ),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_corpus_program_has_a_recorded_digest():
    assert set(CCODE_SHA256) == set(corpus.ALL_PROGRAMS)


@pytest.mark.parametrize("name", sorted(corpus.ALL_PROGRAMS))
def test_preexecuted_code_table_matches_its_recorded_digest(name):
    tables = build(corpus.ALL_PROGRAMS[name])
    preexecute(tables)
    assert sha256(serialize(tables)) == CCODE_SHA256[name]


def test_every_compiled_program_has_a_recorded_digest():
    assert set(COMPILED_SHA256) == set(COMPILED_PROGRAMS)


@pytest.mark.parametrize("name", sorted(COMPILED_PROGRAMS))
def test_compiled_code_table_matches_its_recorded_digest(name):
    assert sha256(serialize(build(COMPILED_PROGRAMS[name]))) == COMPILED_SHA256[name]


@pytest.mark.parametrize("workload, seed", sorted(WORKLOAD_SHA256))
def test_workload_code_tables_match_their_recorded_digests(workload, seed):
    tables = build(corpus.workloads.generate(workload, seed).source)
    compiled = sha256(serialize(tables))
    preexecute(tables)
    assert (compiled, sha256(serialize(tables))) == WORKLOAD_SHA256[workload, seed]
