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
still show that no code row changed.
"""

import hashlib

import corpus
import pytest

from coolang import build, preexecute, serialize

CCODE_SHA256 = {
    "add_to": "d3dc0a10019ce8a8681e9600a852a4f9a843e5b73d1c30219b9d383d8a247c4d",
    "out_scope": "30583e1f6ef8bc05cd3e3fe7cd12bdf839581b8deaf6b627788b3a747d7ff92d",
    "quadratic_constraint": "a1d9afd4304ec21b20e3827a4c950981f2f32354458c9359e813e575849dd40d",
    "apple_price": "ca61ed38aa6b99a224a40f68af8219a1cc3578cda592f927797e3502bbea8900",
    "sin_approx": "ed2515d466591570734551d739e34c67100d6e68ee38b22086ac2280919f4a53",
    "sin_approx_exp": "377d30ab733336776e431552a3298c83cd05012f4c0fee338157606030e5b068",
    "loop_and_branch": "5bea22b48bd9b9673cbbcf1368c6ba86da26b2bd254be6bf41081959eea4b2ce",
    "chained_derivation": "2c9f7252710410ec809caf6dfa2c00f7a1c8fbd9e4ec76bff4160b6f52914ad6",
    "class_solver": "974616e4d48ebf90c7d45c6efed61f558fe91b5cfac7f04fbda50763d18ac593",
}


# the corpus programs plus the two shape programs, compiled only
COMPILED_SHA256 = {
    "add_to": "577378b9c5e52ba22504b9b49b5546884ddeb5bad8b791907e50da127149ff44",
    "out_scope": "9fa13083b70792b0b97a31ed1737e0aff4a22ddb28af9b5e060faf8e08b3949f",
    "quadratic_constraint": "adae074d125387daeaa92d62ac22bf35078deaf42b35796b1a678a1d4ab676b8",
    "apple_price": "e6aff72b96383152c91116e19ee1f0bdf4b393b8a33ab2d5f872e37bafe1ac56",
    "sin_approx": "c88bd8370c6b1159e69866aad312cf027aa15fc7912d8e6cb835a34dfeb523cb",
    "sin_approx_exp": "aa8746f79a5044481c4e29d5e8d3843b1b8c36021197e0b25fec665ce5d064d3",
    "loop_and_branch": "296c76f4fc7998e316fb3780851f0fafe172743c090db8265b17f64af3f73c71",
    "chained_derivation": "837bc363cef77cdc8dbf6cb639ff48133a4cc9a91194aecd7a2030a0101b8331",
    "class_solver": "a2757e70eff72099795dbd386ca2035158595c6c0ab939877d74e6d16290bb3a",
    "relocation_shapes": "cd4de12e0bde78b907ba15a8ddd065864129419285d58423998932a34da73545",
    "member_reads": "3d7a4136e3f9fb86b281915043de9f4a4dde151d69fabc52456d62d279359385",
}

COMPILED_PROGRAMS = dict(
    corpus.ALL_PROGRAMS,
    relocation_shapes=corpus.RELOCATION_SHAPES,
    member_reads=corpus.MEMBER_READS,
)

# (workload, seed) -> (compiled, preexecuted) .ccode SHA-256
WORKLOAD_SHA256 = {
    ("deep_bind", 1): (
        "b6f684196c2fdf55c6423396668c6163e91d272a150f4644ee4b443b213e55d2",
        "f173c51326c55b489f4b22325b10b985f19b9ff1871849030834960519abd7cf",
    ),
    ("deep_bind", 2): (
        "551cbd3018a04db52825b335f364c77fa8952146f9cddbaf21c82aca862468f7",
        "1d696827de12013f4630ea78dac66ba9b2684b61c5ff2d26a16ee9d616181e9b",
    ),
    ("deep_bind", 3): (
        "3082e4685d54859d822e6c888578de07d086e0452748cc86d1045d1ccdf7a121",
        "a9afae683b00be7d4d04fe85efbec9af0ffe13dcffd6f78caccd37655d29d9bb",
    ),
    ("deep_bind", 4): (
        "0a32709aeaa2031792c8c713ffcec3eff7871b5a51ef1faaa3cfe3e743595793",
        "450794d0dd050ce3a39e98f4446d4e40cea3cdee6e8bb258b159930ce25960af",
    ),
    ("deep_bind", 5): (
        "579c07486240e6514514a192278ec743f31c781da1f69da66d7938bbdea96ef4",
        "56765d3e77c96e08e3ab2ed25c6b48b50a9e311cf2e4180f32146e0ce213b150",
    ),
    ("loop_run", 1): (
        "529b82392ed5e4d5b4271c23025f77322bd393b48149477982e3efdd8592815c",
        "00515db3aac46003b750a8b02bcd1396c31cd11c3fba9efa3103b6116a6233be",
    ),
    ("loop_run", 2): (
        "f1fb5e659d9b93062e7152d255578940dda2c3971af147031c3a31be96a44b25",
        "5098934b26667529244b1d080cd17e601583f473d8233a5571206c357c7b3a71",
    ),
    ("loop_run", 3): (
        "493a2428783e91ca212a23bc3e76bdd9179fe6b3445ad72cb9a81ff98a56cb7a",
        "1b06a37cc284128c6e1f8bc4c46e849f1539dde9b16ad1df563120d6f116af78",
    ),
    ("loop_run", 4): (
        "e5f97e67020a8f484350f4bc95f485c884ff94ead40bb18f57763eb66db832bb",
        "e9d7c07fbe9287ae7782699d239b79a8c12ae6e318ee858aab66ce00cdf60fdc",
    ),
    ("loop_run", 5): (
        "323045fc69fedec61900467ae9c65623db7d100fecda9941d90e19dfb5730f62",
        "46b868fd823522752ec8fe59ed826510f9e710c5b225ce61ab022227780e7a0d",
    ),
    ("wide_program", 1): (
        "92484107a2634623e9a9e26fd94565ac1eff5f86340c22bbf35e812d72d5c6c4",
        "a41a57a6c3c3501a05e0ef52d5720349b22c4b151b84a8fd0fe2ad264066cef6",
    ),
    ("wide_program", 2): (
        "435d2d504624ff5b6c362e3bd6b60a65ec6c7beff3584e149921b2ec39c1109c",
        "a557badcb060ebf205b1490e9352a9399bfeccec87494cbdab982741308ef436",
    ),
    ("wide_program", 3): (
        "6fc5df241dfb15448b3b756266b7716a5f46ce1429d11dbe61ca870df329b2a5",
        "136b1db49235e8fb94ea50e412c556273c62a2a16b008e9622b55a6b6153351f",
    ),
    ("wide_program", 4): (
        "83aeb2f62287ec32b11bf3749b8a93f158370a6992ec24401a6489608e8e9e03",
        "b85e3122c8dd8574db080c477bfa9d7ca1d0ab0ba64ff6a2be4d1d26d7437715",
    ),
    ("wide_program", 5): (
        "edf7292eab593cc01bf23e132d7dc18d7a3667e5efdb3ea1f7b389cc40557e4c",
        "efe761e531eda45fef652ff4312a1fee6b58f1305a1eed263c6ef7e460c7491e",
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
