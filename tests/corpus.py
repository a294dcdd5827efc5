"""Shared example programs used across the test modules.

Each constant is one complete source text; names describe what the
program exercises. Expected outputs sit next to the programs that have
stable ones. The benchmark's workload generators are loaded here too.
"""

import importlib.util
import sys
from pathlib import Path

from coolang import build, execute

# forward call mutating an undeclared variable by reference
ADD_TO = """
@add(a)to(b){ b = b + a; }
add(1)to(x);
x --> 0;
"""
ADD_TO_OUTPUT = ["1.0"]

# out: forces the enclosing scope's variable
OUT_SCOPE = """
new: a = 1;
{
  new: a = 0;
  a = out: a + 1;
  a --> 0;
}
"""
OUT_SCOPE_OUTPUT = ["2.0"]

# a root-form constraint solved through a general quadratic declaration
QUADRATIC_CONSTRAINT = """
@{ a * $x^2 + b * x + c }{
  x = (-b + (b^2 - 4 * a * (c - ans))^0.5) / (2 * a);
}
@{ a == b }{ a = b; }
1 * $a^2 + (-2) * a + 1 == 0;
a --> 0;
"""
QUADRATIC_CONSTRAINT_OUTPUT = ["1.0"]

# reverse head derived from a priced-quantity forward function
APPLE_PRICE = """
@(10){ $a * b }{ a = ans / b; }
@(10){ $a == b; }{ a = b; }
@ price of buying (a) kg of apple unit price (b){ return: a * b; }
  => @apple unit price (b) can be bought ($) kg;
new: p = 0;
apple unit price (2) can be bought ($p) kg == 10;
p --> 0;
"""
APPLE_PRICE_OUTPUT = ["5.0"]

# out:-marked actual in a declaration head, plain and rewrite forms
SIN_APPROX = """
new: pi = 3.141592653589793;
@cos(b){ return: 1 - b * b / 2; }
@sin(out: pi/2 - a){ return: cos(a); }
new: r = sin(pi/2 - 0.5);
r --> 0;
"""
SIN_APPROX_OUTPUT = ["0.875"]

SIN_APPROX_EXP = """
new: pi = 3.141592653589793;
@cos(b){ return: 1 - b * b / 2; }
exp: @sin(out: pi/2 - a){
  return: cos(a);
}
new: r = sin(pi/2 - 0.5);
r --> 0;
"""

# loop plus branch chain
LOOP_AND_BRANCH = """
new: i = 0;
new: total = 0;
while (i < 5) {
  total = total + i;
  i = i + 1;
}
total --> 0;
if (total == 10) { "ten" --> 0; }
elseif (total > 10) { "big" --> 0; }
else { "small" --> 0; }
"""
LOOP_AND_BRANCH_OUTPUT = ["10.0", "ten"]

# the full chained-derivation program: a reverse body is derived from a
# forward body that itself contains reverse-bound constraints
CHAINED_DERIVATION = """
@(100){ a * $x^2 + b * x + c }{ x = (-b + (b^2 - 4 * a * (c - ans))^0.5) / (2 * a); }
exp: @(-1){ #a + #b }{ return: b + a; }
exp: @(-1){ #a - #b }{ return: a + (-b); }
@(10){ $a + b }{ a = ans - b; }
@(10){ $a == b; }{ a = b; }
@ get result from (x) and (y) {
    new: a = x + y;
    $x + 1 == y;
    new: z = 0;
    1 * $z^2 + x * z + y == 100;
    return: a + x + z;
} => @ get result from ($x) and (y);
new: x = 0;
new: y = 3;
get result from ($x) and (y) == 50;
x --> 0;
"""

# classes, inheritance, rewrite rules and a member solver working together
CLASS_SOLVER = """
system: OperationLaw {
  exp: @(-10){ $a == b }{ return: a - b == 0; }
  exp: @(-10){ #a - #b }{ return: a + (-b); }
}
system: QuadraticEquation {
  @(-100){ a * $x^2 + b * x + c == 0; }{
    x = (-b + (b^2 - 4 * a * c)^0.5) / (2 * a);
  }
}
system: MainProcess << OperationLaw, QuadraticEquation {
  new: x = 1;
  @constructor(){
    1 * $x^2 + 4 * x == 100;
    x --> 0;
  }
  @increase(n){ x = x + n; }
}
MainProcess: m;
m.constructor();
m.increase(10);
m.x --> 0;
"""
CLASS_SOLVER_OUTPUT = ["8.198039027185569", "18.19803902718557"]

ALL_PROGRAMS = {
    "add_to": ADD_TO,
    "out_scope": OUT_SCOPE,
    "quadratic_constraint": QUADRATIC_CONSTRAINT,
    "apple_price": APPLE_PRICE,
    "sin_approx": SIN_APPROX,
    "sin_approx_exp": SIN_APPROX_EXP,
    "loop_and_branch": LOOP_AND_BRANCH,
    "chained_derivation": CHAINED_DERIVATION,
    "class_solver": CLASS_SOLVER,
}

# the sin_approx_exp declarations alone: under them each statement holding
# sin(...) relocates when preexecuted, since the rewrite changes its line set
SIN_DECLARATIONS = SIN_APPROX_EXP.replace("new: r = sin(pi/2 - 0.5);\nr --> 0;\n", "")

# each statement holding sin(...) relocates, since the sin rewrite changes
# its line set: a while condition, an if condition, the statement after the
# if (both of its jumps land there), a return: value, a printed value, a
# call actual and an assignment
RELOCATION_SHAPES = SIN_DECLARATIONS + """
new: i = 0;
while (sin(pi/2 - i) > 0.5) { i = i + 0.25; }
new: r = 0;
if (sin(pi/2 - i) < 0.5) { r = 1; }
r = sin(pi/2 - 0.5) + r;
@g(x){ return: sin(pi/2 - x); }
@h(y){ return: y * 2; }
sin(pi/2 - 0.25) --> 0;
new: s = h(sin(pi/2 - 0.5));
s = s + g(0.5) * sin(pi/2 - 1);
i --> 0;
r --> 0;
s --> 0;
"""

# a member access as the whole of a return: value (in a function and in a
# method), of an if test and of a while test: the return and the tests read
# the access row itself, with no expression row between
MEMBER_READS = """
system: Box {
  new: v = 3;
}
Box: q;
system: Reader {
  @read(){ return: q.v; }
}
Reader: p;
@f(){ return: q.v; }
new: k = f() + p.read();
if (q.v) { k = k + 1; }
new: i = 0;
while (q.v) {
  q.v = q.v - 1;
  i = i + 1;
}
k --> 0;
i --> 0;
q.v --> 0;
"""
MEMBER_READS_OUTPUT = ["7.0", "3.0", "0.0"]


def outputs(src):
    return execute(src).output


def _load_workloads():
    """The benchmark's program generators, loaded from their file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# the benchmark's seeded workload generators: workloads.generate(name, seed)
workloads = _load_workloads()

# every program the writers are checked on: the corpus, each workload for
# seeds 1-5, a program whose splices relocate runs of every shape and one
# whose return: values and tests are bare member accesses
WRITTEN = {
    **ALL_PROGRAMS,
    **{
        f"{workload}-{seed}": workloads.generate(workload, seed).source
        for workload in sorted(workloads.GENERATORS)
        for seed in range(1, 6)
    },
    "relocation_shapes": RELOCATION_SHAPES,
    "member_reads": MEMBER_READS,
}


__all__ = [
    "ADD_TO",
    "ADD_TO_OUTPUT",
    "OUT_SCOPE",
    "OUT_SCOPE_OUTPUT",
    "QUADRATIC_CONSTRAINT",
    "QUADRATIC_CONSTRAINT_OUTPUT",
    "APPLE_PRICE",
    "APPLE_PRICE_OUTPUT",
    "SIN_APPROX",
    "SIN_APPROX_OUTPUT",
    "SIN_APPROX_EXP",
    "LOOP_AND_BRANCH",
    "LOOP_AND_BRANCH_OUTPUT",
    "CHAINED_DERIVATION",
    "CLASS_SOLVER",
    "CLASS_SOLVER_OUTPUT",
    "ALL_PROGRAMS",
    "SIN_DECLARATIONS",
    "RELOCATION_SHAPES",
    "MEMBER_READS",
    "MEMBER_READS_OUTPUT",
    "build",
    "execute",
    "outputs",
    "workloads",
    "WRITTEN",
]
