"""Exception hierarchy for the toolchain.

Every stage raises a subclass of CoolError, and each stage's base class
carries the CLI's exit code for its failures: 1 for the front end, the
loader and `.ccode` reading, 2 for inference and derivation, 3 at run time.
"""

from __future__ import annotations


class CoolError(Exception):
    """Base class for all toolchain errors."""

    exit_code: int


# ---------------------------------------------------------------- frontend


class PrecompileError(CoolError):
    """Source normalization failed."""

    exit_code = 1


class UnterminatedComment(PrecompileError):
    pass


class UnterminatedString(PrecompileError):
    pass


class UndecodableInput(PrecompileError):
    """The input file is not UTF-8 text."""


class ParseError(CoolError):
    """Syntax error; carries a 1-based source position when known."""

    exit_code = 1

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"{message} (at offset {pos})")
        self.pos = pos


# ------------------------------------------------------------------ loader


class LoadError(CoolError):
    """Table construction from parsed code failed."""

    exit_code = 1


class UnbalancedScopes(LoadError):
    pass


class FunctionWithoutBody(LoadError):
    pass


class DuplicateDeclaration(LoadError):
    """A class, a parent of one class, or a variable or declaration in one scope twice."""


class InheritanceOfUndeclaredClass(LoadError):
    pass


class InheritanceCycle(LoadError):
    """A class inherits from itself, directly or through other classes."""


# --------------------------------------------------------------- inference


class InferenceFailure(CoolError):
    """No fully bound candidate found for an expression.

    address: address of the expression's first line.
    rounds: number of search rounds completed before giving up.
    silo: final silo snapshot digests, for diagnostics.
    left: candidates still in the silo when the search stopped.

    With an address, the message ends with where the search stopped.
    """

    exit_code = 2

    def __init__(
        self, message: str, address=None, rounds: int = 0, silo=(), left: int = 0
    ):
        if address is not None:
            message += (
                f" (statement {address}, {_plural(rounds, 'round')}, "
                f"{_plural(left, 'candidate')})"
            )
        super().__init__(message)
        self.address = address
        self.rounds = rounds
        self.silo = tuple(silo)
        self.left = left


def _plural(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


class NotInvertible(CoolError):
    """A => declaration references a forward function that cannot be derived."""

    exit_code = 2


class MergeFailure(NotInvertible):
    """Dependency tree merge produced no substitution for some node."""


class DerivationFailure(NotInvertible):
    """Dependency-tree search exhausted without a usable merged binding."""


# ----------------------------------------------------------------- runtime


class CoolRuntimeError(CoolError):
    """Execution failed."""

    exit_code = 3


class UnresolvedIdentifier(CoolRuntimeError):
    pass


class ReverseUnsatisfied(CoolRuntimeError):
    """A reverse call finished without determining a pending argument."""


class CallDepthExceeded(CoolRuntimeError):
    """Calls or instantiations nested past the interpreter's call depth."""


class StepBudgetExceeded(CoolRuntimeError):
    """A run took more backward jumps and call entries than its step budget."""


# ----------------------------------------------------------- serialization


class FormatError(CoolError):
    """Compiled-code file is malformed."""

    exit_code = 1
