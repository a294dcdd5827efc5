"""Every corpus program preexecutes to the same .ccode bytes as recorded.

A digest pins the whole bound table: which declaration won each search,
the order rewrites were applied in, and the addresses the splice gave to
new lines. A change in any of them fails here by program name. Update a
digest only for a deliberate change of search or allocation behaviour.

The compiled (not preexecuted) digests pin the parser's line stream on
its own, and the benchmark workloads at seeds 1-5 pin both stages on
longer programs. Update those only for a deliberate change of the
compiled form.
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


# the corpus programs plus the two shape programs, compiled only
COMPILED_SHA256 = {
    "add_to": "0a08d77b9945f4eef4ac1acff91a3e3825f02528dfb9e2ef4f27cc7fe6752fb1",
    "out_scope": "437d826cd445e872590f6a2fa57c3fbda17a98795465ab5dbedd08b0331fd712",
    "quadratic_constraint": "537ac0a1d5d10dc7b5ce0ad74304f734c9269e0bde4836e37318e443ce9cc566",
    "apple_price": "b75a15d9553039d31ed449093aa6bbed940aab32b03b6d11c83ce19d1a60974f",
    "sin_approx": "ea29d67e6187c7a24a6ba241a1d2b75b009fa8fe652fbde613e08f22de24aebd",
    "sin_approx_exp": "014527f939f0b1b94f16b0f41ec68f8f99e55afc248701a2112ff200d1e1e9d8",
    "loop_and_branch": "794768b27a887c6e513a0151783715b9715f955ba4d1274b244866266b3279be",
    "chained_derivation": "a6afbc0909059869c09e67cc39860a655021a63cb00c9975506b71044d01c511",
    "class_solver": "46b27a3e3183c504678932788eba2d8df30ad815f2e661bd2ebe22134d343782",
    "relocation_shapes": "923c8dc77531091b0a66a8c3b50835129d9d14a13bfc9a781727a0c8249fe75d",
    "member_reads": "935e38f3c5515a110e84de74b9165a915b052592f133bd810f4038607c16e337",
}

COMPILED_PROGRAMS = dict(
    corpus.ALL_PROGRAMS,
    relocation_shapes=corpus.RELOCATION_SHAPES,
    member_reads=corpus.MEMBER_READS,
)

# (workload, seed) -> (compiled, preexecuted) .ccode SHA-256
WORKLOAD_SHA256 = {
    ("deep_bind", 1): (
        "58ce5fe4209f04f890d8bca9031497435808eac31ac336458ded5dc3c97ab4ff",
        "c26a40867b2fbd2639a6463432732a8d382eab4918fc050df3ef0e1986f28613",
    ),
    ("deep_bind", 2): (
        "5bd4af24aa9eb3f559bd23ff834036c1671e6c1f8751d596f7cae9af4a836973",
        "a794c12b5c6723f5a7813035ef805e1391f231092a942d08112e7c71000b1f2f",
    ),
    ("deep_bind", 3): (
        "02577d97a03df88216cadf1fd85523447c6c9196f1926c8ecb5efbae647d6728",
        "33a0f01442159c33a6733b063da58fba0c6fc3a1188342021b34a9990cce77b2",
    ),
    ("deep_bind", 4): (
        "26e360ecc1c901e31a7308bdadb5345fb7db618eb7396fc1e781fd192fec4ccd",
        "cf15dd758e7128a2bab04fdef615fc2a6af16f5f34ac41197c3276b259a69de5",
    ),
    ("deep_bind", 5): (
        "5b38b52b45c542bbb7638893672cdc7aa07365d068e9389e0c84be0d7734c31b",
        "e587d6bc4ae7beaf68b47d52bd72f9344ddc5af8b37081e7b3eb2595c475a88c",
    ),
    ("loop_run", 1): (
        "f65fa8f7eb3af0c11fafd61a7d0e563ba2e7d2f5539d52726a5286409818e54e",
        "36d839e185a0e8cd8c34d93c7b9928ff338f54688990d4a87888f4428e937fb9",
    ),
    ("loop_run", 2): (
        "9b1d79bb0b939832e6006c036094fd5c18f7e6e382ce906440bf0eac81679b88",
        "98243683c72d5ed66a6fa4862a4017ec28aeb8c4bc8cb4f59ad260a31ece04e9",
    ),
    ("loop_run", 3): (
        "9baf4805fb56f135744e3d1f592ce385d659196afcd7ac12f6e80bfae54b3c5e",
        "1b07c9c320a5653d2ba1b3a28d495bf17fd6505688717ac1cbabae9c2fc5194d",
    ),
    ("loop_run", 4): (
        "c855213944de4ccf8eae0cfaf5602358f8a2a044d74d1f65046673591eb6336c",
        "f4fbcac653ad9592f9e51d8a95de03907ee9fa7016e8bfc2ce68fb9b6be32631",
    ),
    ("loop_run", 5): (
        "6c448e54b8221f3d2c3123c16d155925d1770130477c527e89798604ad5c1c22",
        "0b5131c3aa1834037c61794a0f9d9997d7470f936e2f36d949146509c70d9cab",
    ),
    ("wide_program", 1): (
        "f6c0e5fb32962a4c1d1aca2ac5142bfb2fd570c9e2b6ca1401fdde137bf8a931",
        "300a378e6983c55d89c422a861824f3fe7cadac440fa13be89e35071bb7dde2b",
    ),
    ("wide_program", 2): (
        "95eeaefbc2b05d2654202a327152527f9ffa68ada83e3bd62703580109fd61d1",
        "bc0fb6e747935421241678e8d05a08eddc755ba8f83e817ae3d7e6b9d2c89757",
    ),
    ("wide_program", 3): (
        "e2a17e3250dee01dddbe627f466d867dd6e082d70ac1ebb3b08d4aed35adf85b",
        "f5cd748a44389288213fc519444c3beb3baddaed5ff30276233a2db97dd87e2b",
    ),
    ("wide_program", 4): (
        "97f2211485ebbd86b3a580a2d1176ae40658b54ef3b5173be49af056c6edff8c",
        "afaf41fc50b8f1900835bc37301af3e5f733cabe8ed90a2751157e0cc6953f43",
    ),
    ("wide_program", 5): (
        "32e167d3e7fe0241f91bf7dc587e87823518a25934849f6d7f5ad4fcb22e4299",
        "a77acea5609fcf01c1f29d2abac69077a39fb245a6093e0ad179cdaf05b83319",
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
