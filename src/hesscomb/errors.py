"""Exception taxonomy shared across the package.

Every error raised on bad input derives from HesscombError (itself a
ValueError), so callers can catch one type at API boundaries while tests
can assert the precise condition.
"""

import json


class HesscombError(ValueError):
    """Base class for all domain errors raised by this package."""


class NotWeaklyIncreasing(HesscombError):
    """Hessenberg values decrease somewhere."""


class BelowDiagonal(HesscombError):
    """Some h(i) < i."""


class OutOfRange(HesscombError):
    """A value lies outside [1, n]."""


class EmptyInput(HesscombError):
    """An empty sequence where at least one entry is required."""


class ShapeMismatch(HesscombError):
    """A filling or request does not match the partition shape/size."""


class NotPTableau(HesscombError):
    """A tableau violates the P-tableau conditions for the given h."""


class KOutOfRange(HesscombError):
    """A row/column/index parameter k is outside its documented range."""


class BasisMismatch(HesscombError):
    """An operation got a symmetric function in an unsupported basis."""


class DegreeTooLarge(HesscombError):
    """Requested degree exceeds the configured conversion bound."""


class NotSymmetric(HesscombError):
    """A generating-function expansion failed the symmetry consistency check."""


class FormMismatch(HesscombError):
    """h is not of the special form required by the operation."""


class OddDegree(HesscombError):
    """A cohomological degree argument must be even."""


class NotSquare(HesscombError):
    """A matrix operation needs a square block."""


class NotInBasis(HesscombError):
    """An element is not a member of the required basis set."""


class InvalidPair(HesscombError):
    """A tableau pair fails its validity conditions."""


class NonTerminating(HesscombError):
    """A rewrite rule produced a monomial not below the one it rewrote in the
    rewrite order, so reduction would not terminate.  Unreachable with the
    library's own rules, whose descent the tests certify."""


class DegenerateForm(HesscombError):
    """The requested decomposition degenerates for this h (e.g. h(1) = n)."""


class KeyNotFound(HesscombError):
    """Unknown key in the golden store."""


class GuardrailExceeded(HesscombError):
    """An enumeration would exceed the configured size guardrail."""


class UnsupportedFormat(HesscombError):
    """The requested output format does not apply to this command."""


class MalformedInput(HesscombError):
    """Input is not of the documented layout or types: text that is not JSON,
    or a value that is not an integer where one is required."""


def checked_int(value, what: str) -> int:
    """value itself when it is an int; MalformedInput for anything else, a
    bool, a float or a digit string included."""
    if type(value) is not int:
        raise MalformedInput(f"{what} must be an integer, got {value!r:.40}")
    return value


def json_decoder(what: str):
    """Make from_json(cls, data), which reads parsed JSON data, take the JSON
    text instead.  Any failure to read the layout, including text that is not
    JSON, is raised as MalformedInput; a HesscombError keeps its type."""

    def wrap(build):
        def from_json(cls, text: str):
            try:
                return build(cls, json.loads(text))
            except HesscombError:
                raise
            except (ValueError, KeyError, IndexError, TypeError, AttributeError,
                    OverflowError) as exc:
                raise MalformedInput(f"cannot decode {what} from {text!r:.80}") from exc

        return from_json

    return wrap
