"""A constraint and object oriented language toolchain.

Source goes through four stages: precompile (text cleanup), parse and
load (quaternion code tables), preexecute (expressions bound to
declarations, reverse bodies derived), and run (active records).
"""

from .errors import (
    CoolError,
    CoolRuntimeError,
    DerivationFailure,
    FormatError,
    InferenceFailure,
    LoadError,
    MergeFailure,
    NotInvertible,
    ParseError,
    PrecompileError,
    ReverseUnsatisfied,
    UnresolvedIdentifier,
)
from .loader import load
from .parser import parse
from .precompile import precompile
from .preexec import preexecute
from .runtime import Interpreter, run_program
from .search import SearchOptions
from .serialize import deserialize, serialize, write_file

__version__ = "0.1.0"


def build(source: str):
    """Source text to loaded tables, not yet preexecuted."""
    return load(parse(precompile(source)))


def execute(source: str, options: SearchOptions | None = None) -> Interpreter:
    """Compile, preexecute, and run source text; the interpreter holds output."""
    tables = build(source)
    preexecute(tables, options=options)
    return run_program(tables)
