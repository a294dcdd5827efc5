"""Whole-pipeline properties over generated programs.

Every input goes through precompile, parse, load and preexecute under small
search limits. It must come out bound or raise a CoolError: a raw Python
exception anywhere in the pipeline is a defect.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from coolang.errors import CoolError
from coolang.loader import load
from coolang.parser import parse
from coolang.precompile import precompile
from coolang.preexec import preexecute
from coolang.runtime import run_program
from coolang.search import SearchOptions

OPTIONS = SearchOptions(silo_size=4, max_rounds=3, max_tree_nodes=3)

_PIECES = [
    "", ";", "(", ")", "{", "}", "$", "#", "@", ".", ",", "=", "==", "+", "*", "-->",
    "=>", "<<", "1", "x", "a", "new: ", "return: ", "out: ", "exp: ", "system: A ",
    "while (x > 0) ", "if (x == 1) ", "else ", "f(", '"s"', "/*", "//", "é",
]


def preexecuted(text: str):
    tables = load(parse(precompile(text)))
    preexecute(tables, options=OPTIONS)
    return tables


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(corpus.ALL_PROGRAMS)),
    splices=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 12), st.sampled_from(_PIECES)),
        max_size=4,
    ),
)
@example(name="add_to", splices=[(0, 0, "exp: ")])  # a rewrite rule without return:
def test_a_mutated_program_binds_or_raises_a_cool_error(name, splices):
    text = corpus.ALL_PROGRAMS[name]
    for at, length, piece in splices:
        i = at % (len(text) + 1)
        text = text[:i] + piece + text[i + length :]
    try:
        preexecuted(text)
    except CoolError:
        pass


@settings(max_examples=20, deadline=None)
@given(
    first=st.integers(0, 9),
    pattern=st.lists(
        st.tuples(st.sampled_from("+-*"), st.integers(0, 9)), min_size=1, max_size=12
    ),
    terms=st.integers(1, 3000),
)
@example(first=1, pattern=[("+", 1)], terms=3000)
@example(first=7, pattern=[("*", 2), ("-", 3), ("*", 0), ("+", 9)], terms=2999)
def test_a_flat_chain_of_any_length_runs_to_its_value(first, pattern, terms):
    # a factor is -1, 0 or 1, so every value is a small exact integer
    steps = [pattern[k % len(pattern)] for k in range(terms - 1)]
    steps = [(op, d % 3 - 1 if op == "*" else d) for op, d in steps]
    chain = str(first) + "".join(f" {op} {d}" for op, d in steps)
    products = [first]
    for op, d in steps:
        if op == "*":
            products[-1] *= d
        else:
            products.append(d if op == "+" else -d)
    tables = preexecuted(f"new: y = 0;\ny = {chain};\ny --> 0;\n")
    (printed,) = run_program(tables).output
    assert float(printed) == sum(products)
