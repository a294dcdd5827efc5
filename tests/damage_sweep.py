"""One-cell damage sweep over the cells a .ccode file's tables are built from.

A .ccode file holds only code rows; the scope, function and class tables
are rebuilt from a few cells of them (serialize, loader.index). This
script damages one of those cells at a time and runs each damaged file the
way `coolc run` does: deserialize, preexecute if the file is not yet
preexecuted, run. Every outcome must be a CoolError or a finished run:
a Python traceback or a run past the alarm is a fault.

The files are the compiled and the preexecuted text of every corpus
program and of MEMBER_READS. The cells are a function row's left, right
and weight cells, a derive row's right cell, a class row's left and right
cells and a scope start row's kind cell. Each is set to every code-row
address of its file and to `-`; an empty cell also gets the address kind.

It prints the number of edits, the outcome counts by class ("ran" for a
finished run) and a SHA-256 over every edit's outcome class and message in
order, so that two versions of the toolchain can be compared exactly. It
is not a test module (pytest does not collect it). Run from the
repository root:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/damage_sweep.py
"""

import collections
import hashlib
import signal
import sys

import corpus

from coolang import build, preexecute, run_program, serialize
from coolang.errors import CoolError
from coolang.serialize import deserialize

# code type -> the operand columns the tables are built from
CELLS = {"func": (3, 4, 5), "derive": (4,), "class": (3, 4), "sstart": (3,)}
KINDS_COLUMN = 6
ALARM_S = 5

PROGRAMS = {**corpus.ALL_PROGRAMS, "member_reads": corpus.MEMBER_READS}


class Alarm(Exception):
    pass


def _alarm(signum, frame):
    raise Alarm()


def files():
    """(name, stage, text) for the compiled and preexecuted file of each program."""
    for name, source in PROGRAMS.items():
        t = build(source)
        yield name, "compiled", serialize(t)
        preexecute(t)
        yield name, "preexecuted", serialize(t)


def edits(text):
    """Each damaged text: one table cell set to a code-row address or `-`."""
    rows = [row.split("\t") for row in text.splitlines()]
    targets = [row[0] for row in rows[1:]] + ["-"]
    for i, row in enumerate(rows[1:], 1):
        for col in CELLS.get(row[1], ()):
            for value in targets:
                damaged = [list(r) for r in rows]
                cell = damaged[i]
                cell[col] = value
                kinds = cell[KINDS_COLUMN].split(",")
                if kinds[col - 2] == "e":
                    kinds[col - 2] = "a"
                    cell[KINDS_COLUMN] = ",".join(kinds)
                yield "".join("\t".join(r) + "\n" for r in damaged)


def outcome(text):
    """The class of what running text ends with, and its message."""
    signal.alarm(ALARM_S)
    try:
        t = deserialize(text)
        if not t.preexecuted:
            preexecute(t)
        run_program(t)
        return "ran", ""
    except CoolError as exc:
        return type(exc).__name__, str(exc)
    except Alarm:
        return "ALARM", ""
    except Exception as exc:  # a traceback is what the sweep looks for
        return f"TRACEBACK {type(exc).__name__}", str(exc)
    finally:
        signal.alarm(0)


def main():
    signal.signal(signal.SIGALRM, _alarm)
    counts = collections.Counter()
    digest = hashlib.sha256()
    for name, stage, text in files():
        for damaged in edits(text):
            kind, message = outcome(damaged)
            counts[kind] += 1
            digest.update(f"{name}\t{stage}\t{kind}\t{message}\n".encode())
    print(f"edits {sum(counts.values())}")
    for kind, n in counts.most_common():
        print(f"{kind} {n}")
    print(f"outcomes sha256 {digest.hexdigest()}")
    faults = sum(n for kind, n in counts.items() if kind == "ALARM" or kind.startswith("TRACEBACK"))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
