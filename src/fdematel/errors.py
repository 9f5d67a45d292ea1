"""Exception hierarchy. Every class carries a distinct CLI exit code."""


class FdematelError(Exception):
    """Base class for all library errors."""

    exit_code = 1


# fuzzy numbers and linguistic scales

class InvalidFuzzyNumber(FdematelError):
    exit_code = 10


class UnknownTerm(FdematelError):
    exit_code = 11


class InvalidScale(FdematelError):
    exit_code = 12


class EmptyPanel(FdematelError):
    exit_code = 15


# defuzzification panels

class RaggedPanel(FdematelError):
    exit_code = 20


class MissingJudgment(FdematelError):
    exit_code = 21


# DEMATEL engine

class ZeroMatrix(FdematelError):
    exit_code = 30


class SingularSystem(FdematelError):
    exit_code = 31


# document parsing

class MalformedDocument(FdematelError):
    exit_code = 40


class UnknownFactor(FdematelError):
    exit_code = 41


class DuplicateJudgment(FdematelError):
    exit_code = 42


class SelfJudgment(FdematelError):
    exit_code = 43


class NonSquare(FdematelError):
    exit_code = 44


class NegativeEntry(FdematelError):
    exit_code = 45


class NonNumericField(FdematelError):
    exit_code = 46


# case-study verification

class VerificationFailed(FdematelError):
    exit_code = 50


def exit_code_table():
    """Mapping of error class name to exit code, for CLI help output."""
    table = {}
    stack = [FdematelError]
    while stack:
        cls = stack.pop()
        table[cls.__name__] = cls.exit_code
        stack.extend(cls.__subclasses__())
    return dict(sorted(table.items(), key=lambda kv: kv[1]))
