import re

import pytest

import corpus
from coolang.cli import main


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_compile_writes_a_code_table_next_to_the_source(tmp_path, capsys):
    src = write(tmp_path, "quad.cool", corpus.QUADRATIC_CONSTRAINT)
    assert main(["compile", src]) == 0
    out = tmp_path / "quad.ccode"
    assert out.exists()
    assert out.read_text().splitlines()[0] == "COOLCC 1"


def test_running_the_code_table_matches_running_the_source(tmp_path, capsys):
    src = write(tmp_path, "quad.cool", corpus.QUADRATIC_CONSTRAINT)
    assert main(["run", src]) == 0
    direct = capsys.readouterr().out
    assert direct.splitlines() == corpus.QUADRATIC_CONSTRAINT_OUTPUT
    assert main(["compile", src]) == 0
    assert main(["run", str(tmp_path / "quad.ccode")]) == 0
    assert capsys.readouterr().out == direct


def test_preexec_saves_the_bound_table_for_later_runs(tmp_path, capsys):
    src = write(tmp_path, "apple.cool", corpus.APPLE_PRICE)
    bound = str(tmp_path / "bound.ccode")
    assert main(["preexec", src, "-o", bound]) == 0
    with open(bound) as f:
        assert f.readline().rstrip("\n") == "COOLCC 1 preexec"
    assert main(["run", bound]) == 0
    assert capsys.readouterr().out.splitlines() == corpus.APPLE_PRICE_OUTPUT


def test_exit_codes_separate_the_failure_stages(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cool")]) == 4
    assert main([]) == 4
    bad = write(tmp_path, "bad.cool", "@@@;\n")
    assert main(["run", bad]) == 1
    unbound = write(tmp_path, "unbound.cool", "foo(1);\n")
    assert main(["run", unbound]) == 2
    crash = write(tmp_path, "crash.cool", "new: a = 1 / 0;\n")
    assert main(["run", crash]) == 3


def test_silo_trace_lists_every_admitted_candidate(tmp_path, capsys):
    src = write(tmp_path, "quad.cool", corpus.QUADRATIC_CONSTRAINT)
    trace = tmp_path / "trace.txt"
    assert main(["run", src, "--trace-silo", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert lines
    for line in lines:
        assert re.fullmatch(r"round \d+ weight -?\d+(\.\d+)? [0-9a-f]{12}", line)


def test_trace_environment_switch_writes_to_stderr(tmp_path, capsys, monkeypatch):
    src = write(tmp_path, "quad.cool", corpus.QUADRATIC_CONSTRAINT)
    monkeypatch.setenv("COOLC_TRACE", "1")
    assert main(["run", src]) == 0
    err = capsys.readouterr().err
    assert "round 1 weight" in err


def _rejects_option(tmp_path, capsys, option, value):
    src = write(tmp_path, "quad.cool", corpus.QUADRATIC_CONSTRAINT)
    assert main(["run", src, option, value]) == 4
    err = capsys.readouterr().err
    assert err.startswith("usage: coolc run")
    assert f"argument {option}: must be at least 1, got {value}" in err


def test_silo_size_below_one_is_a_usage_error(tmp_path, capsys):
    _rejects_option(tmp_path, capsys, "--silo-size", "0")


def test_max_rounds_below_one_is_a_usage_error(tmp_path, capsys):
    _rejects_option(tmp_path, capsys, "--max-rounds", "-1")


def test_max_tree_nodes_below_one_is_a_usage_error(tmp_path, capsys):
    _rejects_option(tmp_path, capsys, "--max-tree-nodes", "0")


@pytest.mark.parametrize(
    "name, fits, printed",
    [("chained_derivation", 5, "36.10050506338833"), ("apple_price", 2, "5.0")],
)
def test_max_tree_nodes_refuses_a_dependence_one_block_too_large(
    tmp_path, capsys, name, fits, printed
):
    src = write(tmp_path, f"{name}.cool", corpus.ALL_PROGRAMS[name])
    assert main(["run", src, "--max-tree-nodes", str(fits - 1)]) == 2
    assert "the dependence cannot be resolved into one tree" in capsys.readouterr().err
    assert main(["run", src, "--max-tree-nodes", str(fits)]) == 0
    assert capsys.readouterr().out.splitlines() == [printed]


def test_non_utf8_input_is_a_compile_error_naming_the_file(tmp_path, capsys):
    src = tmp_path / "latin.cool"
    src.write_bytes(b"\xff\xfe" + corpus.QUADRATIC_CONSTRAINT.encode())
    assert main(["run", str(src)]) == 1
    err = capsys.readouterr().err
    assert "UndecodableInput" in err and str(src) in err


def test_unbounded_recursion_is_a_runtime_error(tmp_path, capsys):
    src = write(tmp_path, "rec.cool", "@f(n){ return: f(n); }\nnew: a = 0;\na = f(1);\n")
    assert main(["run", src]) == 3
    assert "CallDepthExceeded" in capsys.readouterr().err


@pytest.mark.parametrize("terms", [600, 900])
def test_a_long_flat_sum_preexecutes_without_recursion(tmp_path, capsys, terms):
    body = " + ".join(["1"] * terms)
    src = write(tmp_path, "long.cool", f"new: y = 0;\ny = {body};\ny --> 0;\n")
    assert main(["run", src]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{terms}.0"]


def test_a_deep_inheritance_chain_ends_in_an_exit_code(tmp_path, capsys):
    # C1500 << C1499 << ... << C0; the member call walks the whole chain
    parts = ["system: C0 {\n  new: v = 1;\n  @inc(k){ v = v + k; }\n}\n"]
    for k in range(1, 1501):
        parts.append(f"system: C{k} << C{k - 1} {{\n  new: w{k} = 0;\n}}\n")
    parts.append("C1500: m;\nm.inc(2);\nm.v --> 0;\n")
    src = write(tmp_path, "deep.cool", "".join(parts))
    code = main(["run", src])
    assert code in range(5)
    if code:
        assert capsys.readouterr().err.startswith("coolc: ")


@pytest.mark.parametrize(
    "text, options, where",
    [
        ("foo(1);\n", [], "binds the expression (statement 1, 1 round, 0 candidates)"),
        (
            "exp: @(10){ #a + #b }{ return: b + a; }\n"
            "exp: @(-1){ #a + 1 }{ return: 1 + a; }\n"
            "f($q + 1);\n",
            ["--silo-size", "1", "--max-rounds", "3"],
            "fully bound (statement 21, 3 rounds, 1 candidate)",
        ),
    ],
)
def test_an_inference_failure_says_where_the_search_stopped(
    tmp_path, capsys, text, options, where
):
    src = write(tmp_path, "stuck.cool", text)
    assert main(["run", src, *options]) == 2
    assert where in capsys.readouterr().err
