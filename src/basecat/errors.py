"""Error types and refutations shared across the package.

Validation errors always name the witnessing ids, so a failed check can be
reported without re-deriving anything from the presentation. Every check
returns a truthy value when its property holds and a falsy ``Refutation``
saying why when it does not.
"""

from __future__ import annotations

from .records import Frozen, Record


class Explained:
    """A result that explains itself in one line: ``str`` formats the
    class-level ``template`` over the instance's fields. A class without a
    template keeps the ``str`` of its next base (an exception's message, a
    dataclass's repr)."""

    template: str | None = None

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


class DuplicateId(Record, ValidationError):
    template = "duplicate id {ident!r}"
    ident: str


class MissingComposite(Record, ValidationError):
    template = "composite of ({g!r} after {f!r}) is not in the table"
    g: str
    f: str


class DomCodMismatch(Record, ValidationError):
    g: str
    f: str
    detail: str = ""

    def __str__(self) -> str:
        extra = f": {self.detail}" if self.detail else ""
        return f"dom/cod mismatch on pair ({self.g!r}, {self.f!r}){extra}"


class UnitLawViolation(Record, ValidationError):
    template = "unit law fails at {f!r}"
    f: str


class AssociativityViolation(Record, ValidationError):
    template = "associativity fails on triple ({h!r}, {g!r}, {f!r})"
    h: str
    g: str
    f: str


class UnmappedObject(Record, ValidationError):
    template = "object {ident!r} has no image"
    ident: str


class UnmappedMorphism(Record, ValidationError):
    template = "morphism {ident!r} has no image"
    ident: str


class DomCodNotPreserved(Record, ValidationError):
    template = "image of {f!r} has the wrong dom/cod"
    f: str


class IdentityNotPreserved(Record, ValidationError):
    template = "identity of {obj!r} is not sent to an identity"
    obj: str


class CompositionNotPreserved(Record, ValidationError):
    template = "composite of ({g!r} after {f!r}) is not preserved"
    g: str
    f: str


class SourceTargetMismatch(Record, ValidationError):
    template = "source/target categories do not line up: {detail}"
    detail: str = ""


class NotMutuallyInverse(Record, ValidationError):
    template = "functor pair is not mutually inverse: {detail}"
    detail: str


class UnknownMorphism(Record, BasecatError):
    template = "no morphism named {ident!r}"
    ident: str


class UnknownObject(Record, BasecatError):
    template = "no object named {ident!r}"
    ident: str


# Finite-set layer.


class PartialFunction(Record, ValidationError):
    f: str
    element: str | None

    def __str__(self) -> str:
        if self.element is None:
            return f"no function assigned to morphism {self.f!r}"
        return f"function for {self.f!r} is undefined at {self.element!r}"


class NotFunctorial(Record, ValidationError):
    template = "assigned functions break composition on ({g!r}, {f!r})"
    g: str
    f: str


class NotFaithful(Record, ValidationError):
    template = "parallel morphisms {f1!r} and {f2!r} share one function"
    f1: str
    f2: str


class CodomainMismatch(Record, ValidationError):
    template = "functions do not share a codomain: {detail}"
    detail: str = ""


# Constructions.


class NotStrict(Record, ValidationError):
    template = "indexed family is not strict on base pair ({v!r}, {u!r})"
    v: str
    u: str


class NoSelfDualWitness(Record, ValidationError):
    template = "self-duality witness rejected: {detail}"
    detail: str


# Fibrations.


class NoLiftInCleavage(Record, BasecatError):
    template = "cleavage has no lift for base morphism {u!r} at {obj!r}"
    u: str
    obj: str


class NotSplit(Record, BasecatError):
    template = "cleavage is not split: {detail}"
    detail: str


# DSL front-end.


class SourceSpan(Frozen):
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
