"""Error types and refutations shared across the package.

Validation errors always name the witnessing ids, so a failed check can be
reported without re-deriving anything from the presentation. Every check
returns a truthy value when its property holds and a falsy ``Refutation``
saying why when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


class Explained:
    """A result that explains itself in one line: ``str`` formats the
    class-level ``template`` over the instance's fields. A class without a
    template keeps the ``str`` of its next base (an exception's message, a
    dataclass's repr)."""

    template: ClassVar[str | None] = None

    def __str__(self) -> str:
        if self.template is None:
            return super().__str__()
        return self.template.format_map(vars(self))


class Refutation(Explained):
    """A falsy verdict, so that ``if verdict:`` reads "the property holds"."""

    def __bool__(self) -> bool:
        return False


class UsageError(Exception):
    """Input the command line cannot use as given: one ``error:`` line and
    exit 2."""


class BasecatError(Explained, Exception):
    """Base class for every error raised by this package."""


class ValidationError(BasecatError):
    """A presentation violates one of its structural laws."""


@dataclass
class DuplicateId(ValidationError):
    template = "duplicate id {ident!r}"
    ident: str


@dataclass
class MissingComposite(ValidationError):
    template = "composite of ({g!r} after {f!r}) is not in the table"
    g: str
    f: str


@dataclass
class DomCodMismatch(ValidationError):
    g: str
    f: str
    detail: str = ""

    def __str__(self) -> str:
        extra = f": {self.detail}" if self.detail else ""
        return f"dom/cod mismatch on pair ({self.g!r}, {self.f!r}){extra}"


@dataclass
class UnitLawViolation(ValidationError):
    template = "unit law fails at {f!r}"
    f: str


@dataclass
class AssociativityViolation(ValidationError):
    template = "associativity fails on triple ({h!r}, {g!r}, {f!r})"
    h: str
    g: str
    f: str


@dataclass
class UnmappedObject(ValidationError):
    template = "object {ident!r} has no image"
    ident: str


@dataclass
class UnmappedMorphism(ValidationError):
    template = "morphism {ident!r} has no image"
    ident: str


@dataclass
class DomCodNotPreserved(ValidationError):
    template = "image of {f!r} has the wrong dom/cod"
    f: str


@dataclass
class IdentityNotPreserved(ValidationError):
    template = "identity of {obj!r} is not sent to an identity"
    obj: str


@dataclass
class CompositionNotPreserved(ValidationError):
    template = "composite of ({g!r} after {f!r}) is not preserved"
    g: str
    f: str


@dataclass
class SourceTargetMismatch(ValidationError):
    template = "source/target categories do not line up: {detail}"
    detail: str = ""


@dataclass
class NotMutuallyInverse(ValidationError):
    template = "functor pair is not mutually inverse: {detail}"
    detail: str


@dataclass
class UnknownMorphism(BasecatError):
    template = "no morphism named {ident!r}"
    ident: str


@dataclass
class UnknownObject(BasecatError):
    template = "no object named {ident!r}"
    ident: str


# Finite-set layer.


@dataclass
class PartialFunction(ValidationError):
    f: str
    element: str | None

    def __str__(self) -> str:
        if self.element is None:
            return f"no function assigned to morphism {self.f!r}"
        return f"function for {self.f!r} is undefined at {self.element!r}"


@dataclass
class NotFunctorial(ValidationError):
    template = "assigned functions break composition on ({g!r}, {f!r})"
    g: str
    f: str


@dataclass
class NotFaithful(ValidationError):
    template = "parallel morphisms {f1!r} and {f2!r} share one function"
    f1: str
    f2: str


@dataclass
class CodomainMismatch(ValidationError):
    template = "functions do not share a codomain: {detail}"
    detail: str = ""


# Constructions.


@dataclass
class NotStrict(ValidationError):
    template = "indexed family is not strict on base pair ({v!r}, {u!r})"
    v: str
    u: str


@dataclass
class NoSelfDualWitness(ValidationError):
    template = "self-duality witness rejected: {detail}"
    detail: str


# Fibrations.


@dataclass
class NoLiftInCleavage(BasecatError):
    template = "cleavage has no lift for base morphism {u!r} at {obj!r}"
    u: str
    obj: str


@dataclass
class NotSplit(BasecatError):
    template = "cleavage is not split: {detail}"
    detail: str


# DSL front-end.


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(BasecatError):
    def __init__(self, span: SourceSpan, expected: str, found: str):
        super().__init__(f"{span}: expected {expected}, found {found}")
        self.span = span
        self.expected = expected
        self.found = found


class UnresolvedReference(ParseError):
    def __init__(self, name: str, span: SourceSpan):
        super().__init__(span, "a previously declared name", repr(name))
        self.name = name
