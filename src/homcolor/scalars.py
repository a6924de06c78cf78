"""Exact scalar tower: multivariate polynomials over Q with adjoined square roots.

Every check in this package reduces to an exact zero test on these scalars:
no floats, no tolerances.  A scalar lives in a :class:`ScalarContext` that
declares its polynomial parameters (names such as ``lambda1``) and its root
symbols (``sqrt2`` with radicand 2, reduced by ``sqrt2*sqrt2 = 2``).

Canonical form is a sorted tuple of (monomial, coefficient) pairs with
nonzero rational coefficients, each an ``int`` when integral and otherwise a
``Fraction`` (whose denominator is then > 1); root symbols carry exponent at
most one after reduction, and zero is the empty sum, so equal values are
structurally equal.  Integral coefficients as ``int`` keep integer tables,
the common case, on ``int`` arithmetic; ``int`` and ``Fraction`` compare,
hash and print alike, so the choice never shows in a value.  The form is
unique only when the declared radicands are multiplicatively independent
modulo rational squares, so a context refuses any root set in which some
nonempty subset of radicands multiplies to a rational square: ``{"r": 4}``
(4 is a square) and ``{"r": 2, "s": 8}`` (2 * 8 = 16) are both rejected.
By Besicovitch's theorem the reduced root monomials of an accepted set are
linearly independent over Q(params), so a zero test is exact and the
scalars form an integral domain.

Division is deliberately absent: identity checking never divides.

A context keeps one shared ``zero`` and ``one``, which ``scalar`` and
``parse`` return for 0 and 1, so the kernel's ``is one`` shortcuts hold for
every unit entry.  Both refer back to their context, so contexts are
interned: a declaration equal to an earlier one, after normalization,
returns the earlier context, kept for the life of the process.  So a load
or a ``union`` leaves no garbage, and equal contexts are one object.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "ScalarError",
    "ContextMismatchError",
    "ScalarParseError",
    "ScalarContext",
    "Scalar",
]

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"(\d+)|([a-z][a-z0-9_]*)|([+\-*/()])")
_INT_LITERAL_RE = re.compile(r"-?[0-9]+")  # ASCII only: parse's fast path
# Nesting (parentheses and unary minus) the recursive-descent parser accepts;
# a parenthesis level costs four Python frames, so the bound keeps deep text
# well inside the default recursion limit.
MAX_NESTING = 100

# Monomial: ((symbol, exponent), ...) sorted by context symbol rank, exponents >= 1.
Monomial = tuple[tuple[str, int], ...]


class ScalarError(ValueError):
    """Base error for scalar construction, parsing, and arithmetic."""


class ContextMismatchError(ScalarError):
    """Arithmetic attempted between scalars of different contexts."""


class ScalarParseError(ScalarError):
    """Input text does not conform to the scalar grammar."""


def _coeff(value: Fraction) -> int | Fraction:
    """``value`` in coefficient form: its numerator when it is integral."""
    return value.numerator if value.denominator == 1 else value


def _as_fraction(value: int | str | Fraction) -> int | Fraction:
    """An exact rational in coefficient form (see :func:`_coeff`)."""
    if isinstance(value, Fraction):
        return _coeff(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        try:
            return _coeff(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarError(f"not an exact rational: {value!r}") from exc
    raise ScalarError(f"not an exact rational: {value!r}")


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product of
    powers, found by gcd refinement (no factoring): a pair a, b with
    g = gcd(a, b) > 1 becomes a/g, g, b/g until no such pair is left."""
    base = {v for v in values if v > 1}
    while True:
        pair = next(((a, b) for a in base for b in base if a < b and math.gcd(a, b) > 1), None)
        if pair is None:
            return sorted(base)
        a, b = pair
        g = math.gcd(a, b)
        base -= {a, b}
        base |= {v for v in (a // g, g, b // g) if v > 1}


def _check_independent(roots: list[tuple[str, Fraction]]) -> None:
    """Refuse roots some nonempty subset of whose radicands multiplies to a
    rational square; such roots satisfy a relation the canonical form does
    not apply.

    q = p/d equals p*d / d^2, so a product of radicands is a rational square
    iff the product of their integers p*d is a square.  Over a coprime base
    of those integers that holds iff the exponent of every non-square base
    element is even, so the test is a GF(2) rank test on exponent-parity bit
    vectors.
    Each row keeps the mask of roots it combines, so a row that eliminates
    to zero names a subset whose product is a square.
    """
    values = [q.numerator * q.denominator for _, q in roots]
    base = [b for b in _coprime_base(values) if math.isqrt(b) ** 2 != b]
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (row, root mask)
    for index, value in enumerate(values):
        row = 0
        for bit, b in enumerate(base):
            exponent = 0
            while value % b == 0:
                value //= b
                exponent += 1
            row |= (exponent & 1) << bit
        mask = 1 << index
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (row, mask)
                break
            pivot_row, pivot_mask = pivots[lead]
            row ^= pivot_row
            mask ^= pivot_mask
        else:
            subset = [i for i in range(len(roots)) if mask >> i & 1]
            product = math.prod((roots[i][1] for i in subset), start=Fraction(1))
            names = ", ".join(roots[i][0] for i in subset)
            raise ScalarError(
                f"the radicand product of roots {names} is {product}, a rational square; "
                "declared roots must be independent modulo squares"
            )


# Every context made, by its normalized declaration (see ScalarContext).
_CONTEXTS: dict[tuple, "ScalarContext"] = {}


class ScalarContext:
    """Declared symbol universe for a family of scalars.

    ``params`` are polynomial indeterminates; ``roots`` maps a symbol name to
    its positive rational radicand q, with the reduction rule r*r = q.  Root
    symbols sort before parameters in the monomial order (lexicographic on
    names inside each class), which fixes a deterministic term order.

    Contexts are interned by their normalized declaration, the sorted
    parameters and the roots with their radicands in coefficient form: an
    equal declaration returns the context already made.  Only a valid
    declaration is kept, so an invalid one raises on every call.
    """

    __slots__ = ("params", "roots", "_rank", "_key", "_zero", "_one")

    def __new__(
        cls,
        params: Iterable[str] = (),
        roots: Mapping[str, int | str | Fraction] | None = None,
    ):
        params = tuple(sorted(set(params)))
        root_items = {name: _as_fraction(q) for name, q in (roots or {}).items()}
        key = (params, frozenset(root_items.items()))
        found = _CONTEXTS.get(key)
        if found is not None:
            return found
        for name in (*params, *root_items):
            if not _NAME_RE.match(name):
                raise ScalarError(f"invalid symbol name: {name!r}")
            if name == "sqrt":
                raise ScalarError("the name 'sqrt' is reserved for radicand syntax")
        overlap = set(params) & set(root_items)
        if overlap:
            raise ScalarError(f"names declared both as param and root: {sorted(overlap)}")
        for name, q in root_items.items():
            if q <= 0:
                raise ScalarError(f"radicand of {name!r} must be positive, got {q}")
        radicands = list(root_items.values())
        if len(set(radicands)) != len(radicands):
            raise ScalarError("duplicate radicands make sqrt(q) syntax ambiguous")
        _check_independent(sorted(root_items.items()))

        ctx = object.__new__(cls)
        ctx.params = params
        ctx.roots = dict(sorted(root_items.items()))
        # Roots rank before params; ties broken by name.
        ordered = list(ctx.roots) + list(ctx.params)
        ctx._rank = {name: i for i, name in enumerate(ordered)}
        ctx._key = (ctx.params, tuple(ctx.roots.items()))
        ctx._zero = Scalar(ctx, ())
        ctx._one = Scalar(ctx, (((), 1),))
        _CONTEXTS[key] = ctx
        return ctx

    def __reduce__(self):
        # A copy is the interned context itself.
        return ScalarContext, (self.params, self.roots)

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, ScalarContext) and self._key == other._key)

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"ScalarContext(params={list(self.params)!r}, roots={ {k: str(v) for k, v in self.roots.items()} !r})"

    @property
    def zero(self) -> Scalar:
        return self._zero

    @property
    def one(self) -> Scalar:
        return self._one

    def scalar(self, value: int | str | Fraction | Scalar) -> Scalar:
        """Coerce ``value`` into this context.

        Strings are parsed with the scalar grammar; numbers become constants,
        0 and 1 the shared ``zero`` and ``one``; scalars from an equal context
        pass through, others are rebased.
        """
        if isinstance(value, Scalar):
            if value.context is self or value.context == self:
                return value
            return value.rebase(self)
        if isinstance(value, str):
            return self.parse(value)
        coeff = _as_fraction(value)
        if coeff == 0:
            return self._zero
        if coeff == 1:
            return self._one
        return Scalar(self, (((), coeff),))

    def param(self, name: str) -> Scalar:
        if name not in self.params:
            raise ScalarError(f"undeclared parameter: {name!r}")
        return Scalar(self, ((((name, 1),), 1),))

    def root(self, name: str) -> Scalar:
        if name not in self.roots:
            raise ScalarError(f"undeclared root symbol: {name!r}")
        return Scalar(self, ((((name, 1),), 1),))

    def union(self, other: ScalarContext) -> ScalarContext:
        """Smallest context containing both symbol sets; radicands must agree."""
        roots = dict(self.roots)
        for name, q in other.roots.items():
            if name in roots and roots[name] != q:
                raise ScalarError(f"root {name!r} declared with conflicting radicands")
            roots[name] = q
        return ScalarContext(set(self.params) | set(other.params), roots)

    # -- canonicalization ---------------------------------------------------

    def _mono_key(self, mono: Monomial) -> tuple:
        return tuple((self._rank[s], e) for s, e in mono)

    def _from_mapping(self, terms: dict[Monomial, int | Fraction]) -> Scalar:
        kept = [
            (m, c.numerator if type(c) is Fraction and c.denominator == 1 else c)
            for m, c in terms.items()
            if c
        ]
        kept.sort(key=lambda item: self._mono_key(item[0]))
        return Scalar(self, tuple(kept))

    def _mul_monomials(self, a: Monomial, b: Monomial) -> tuple[Monomial, int | Fraction]:
        """Merge exponents and reduce roots by r*r = q; returns (monomial, factor)."""
        exps: dict[str, int] = {}
        for sym, e in a:
            exps[sym] = exps.get(sym, 0) + e
        for sym, e in b:
            exps[sym] = exps.get(sym, 0) + e
        factor = 1
        out = []
        for sym in sorted(exps, key=self._rank.__getitem__):
            e = exps[sym]
            q = self.roots.get(sym)
            if q is not None and e >= 2:
                factor *= q ** (e // 2)
                e %= 2
            if e:
                out.append((sym, e))
        return tuple(out), factor

    # -- parsing ------------------------------------------------------------

    def parse(self, text: str) -> Scalar:
        """Parse the scalar grammar: integers, fractions p/q, declared names,
        sqrt(q) for declared radicands, ``+ - *`` and parentheses.

        ASCII integer literals (most table entries) and bare declared names
        skip the tokenizer; 0 and 1 return the shared ``zero`` and ``one``."""
        if _INT_LITERAL_RE.fullmatch(text):
            value = int(text)
            if value == 0:
                return self._zero
            if value == 1:
                return self._one
            return Scalar(self, (((), value),))
        if text in self._rank:
            return Scalar(self, ((((text, 1),), 1),))
        return _Parser(self, text).parse()


class Scalar:
    """Immutable canonical-form element of the scalar tower.

    Supports ``+ - *`` and non-negative integer powers; no division.  Mixed
    arithmetic with ``int`` and ``Fraction`` coerces the number into the
    scalar's context.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: ScalarContext, terms: tuple[tuple[Monomial, int | Fraction], ...]):
        self.context = context
        self.terms = terms

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other: object) -> "Scalar | None":
        if isinstance(other, Scalar):
            if other.context != self.context:
                raise ContextMismatchError(
                    "scalars come from different contexts: "
                    f"{self.context!r} vs {other.context!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.scalar(other)
        return None

    # Operands from the same context (equal contexts are one object, see
    # ScalarContext) skip ``_coerce``; foreign contexts, ints and Fractions
    # still go through it.  The fast paths below return the canonical form
    # the general loops would build.

    def __add__(self, other: object) -> "Scalar":
        if type(other) is Scalar and other.context is self.context:
            rhs = other
        else:
            rhs = self._coerce(other)
            if rhs is None:
                return NotImplemented
        a, b = self.terms, rhs.terms
        if not a:
            return rhs
        if not b:
            return self
        if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
            coeff = a[0][1] + b[0][1]
            if not coeff:
                return self.context._zero
            if type(coeff) is Fraction and coeff.denominator == 1:
                coeff = coeff.numerator
            return Scalar(self.context, ((a[0][0], coeff),))
        acc = dict(a)
        for mono, coeff in b:
            acc[mono] = acc.get(mono, 0) + coeff
        return self.context._from_mapping(acc)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(self.context, tuple([(m, -c) for m, c in self.terms]))

    def __sub__(self, other: object) -> "Scalar":
        if type(other) is Scalar and other.context is self.context:
            rhs = other
        else:
            rhs = self._coerce(other)
            if rhs is None:
                return NotImplemented
        a, b = self.terms, rhs.terms
        if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
            coeff = a[0][1] - b[0][1]
            if not coeff:
                return self.context._zero
            if type(coeff) is Fraction and coeff.denominator == 1:
                coeff = coeff.numerator
            return Scalar(self.context, ((a[0][0], coeff),))
        return self + (-rhs)

    def __rsub__(self, other: object) -> "Scalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> "Scalar":
        if type(other) is Scalar and other.context is self.context:
            rhs = other
        else:
            rhs = self._coerce(other)
            if rhs is None:
                return NotImplemented
        a, b = self.terms, rhs.terms
        ctx = self.context
        if not a or not b:
            return ctx._zero
        # A constant factor (nonzero in canonical form) scales each
        # coefficient and keeps the monomial order, so no re-sort is needed.
        if len(b) == 1 and not b[0][0]:
            return self._scaled(b[0][1])
        if len(a) == 1 and not a[0][0]:
            return rhs._scaled(a[0][1])
        acc: dict[Monomial, int | Fraction] = {}
        for m1, c1 in a:
            for m2, c2 in b:
                mono, factor = ctx._mul_monomials(m1, m2)
                acc[mono] = acc.get(mono, 0) + c1 * c2 * factor
        return ctx._from_mapping(acc)

    __rmul__ = __mul__

    def _scaled(self, coeff: int | Fraction) -> "Scalar":
        if coeff == 1:
            return self
        terms = []
        for m, c in self.terms:
            c = c * coeff
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            terms.append((m, c))
        return Scalar(self.context, tuple(terms))

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int) or n < 0:
            raise ScalarError(f"only non-negative integer powers are defined, got {n!r}")
        out = self.context.one
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.context.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.context._key, self.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- substitution -----------------------------------------------------------

    def substitute(self, assignment: Mapping[str, int | str | Fraction | "Scalar"]) -> "Scalar":
        """Replace parameters by values (scalars in the same context allowed).

        Root symbols cannot be substituted: they have no exact rational value.
        """
        for name in assignment:
            if name in self.context.roots:
                raise ScalarError(f"cannot substitute root symbol {name!r}")
            if name not in self.context.params:
                raise ScalarError(f"undeclared parameter: {name!r}")
        values = {name: self.context.scalar(v) for name, v in assignment.items()}
        total = self.context.zero
        for mono, coeff in self.terms:
            piece = self.context.scalar(coeff)
            for sym, e in mono:
                if sym in values:
                    piece = piece * values[sym] ** e
                else:
                    piece = piece * Scalar(self.context, ((((sym, 1),), 1),)) ** e
            total = total + piece
        return total

    def rebase(self, context: ScalarContext) -> "Scalar":
        """Reinterpret in a larger context declaring the same symbols."""
        for mono, _ in self.terms:
            for sym, _e in mono:
                if sym in self.context.roots:
                    if context.roots.get(sym) != self.context.roots[sym]:
                        raise ScalarError(f"target context lacks root {sym!r}")
                elif sym not in context.params:
                    raise ScalarError(f"target context lacks parameter {sym!r}")
        acc: dict[Monomial, int | Fraction] = {}
        for mono, coeff in self.terms:
            acc[mono] = acc.get(mono, 0) + coeff
        return context._from_mapping(acc)

    # -- formatting -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, (mono, coeff) in enumerate(self.terms):
            body = "*".join("*".join([sym] * e) for sym, e in mono)
            mag = abs(coeff)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if i == 0:
                parts.append(piece if coeff > 0 else f"-{piece}")
            else:
                parts.append(f" + {piece}" if coeff > 0 else f" - {piece}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Scalar({self})"


class _Parser:
    """Recursive-descent parser for the textual scalar grammar."""

    def __init__(self, context: ScalarContext, text: str):
        self.context = context
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        for match in _TOKEN_RE.finditer(text):
            between = text[pos : match.start()]
            if between.strip():
                raise ScalarParseError(f"unexpected character {between.strip()[0]!r} in {text!r}")
            pos = match.end()
            if match.group(1):
                self.tokens.append(("int", match.group(1), match.start()))
            elif match.group(2):
                self.tokens.append(("name", match.group(2), match.start()))
            else:
                self.tokens.append(("op", match.group(3), match.start()))
        if text[pos:].strip():
            raise ScalarParseError(f"unexpected character {text[pos:].strip()[0]!r} in {text!r}")
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ScalarParseError(f"unexpected end of input in {self.text!r}")
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ScalarParseError(f"expected {op!r} at position {tok[2]} in {self.text!r}")

    def parse(self) -> Scalar:
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ScalarParseError(f"trailing input at position {tok[2]} in {self.text!r}")
        return value

    def expr(self) -> Scalar:
        value = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if tok[1] == "+" else value - rhs
            else:
                return value

    def term(self) -> Scalar:
        value = self.unary()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.take()
                value = value * self.unary()
            else:
                return value

    def nest(self, tok: tuple[str, str, int]) -> None:
        """Enter one level of parentheses or unary minus, refusing text
        nested deeper than ``MAX_NESTING`` before it can exhaust the stack."""
        if self.depth == MAX_NESTING:
            raise ScalarParseError(f"nesting deeper than {MAX_NESTING} at position {tok[2]}")
        self.depth += 1

    def unary(self) -> Scalar:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.take()
            self.nest(tok)
            value = -self.unary()
            self.depth -= 1
            return value
        return self.atom()

    def atom(self) -> Scalar:
        tok = self.take()
        kind, text, pos = tok
        if kind == "int":
            return self.context.scalar(self.number_tail(int(text)))
        if kind == "name":
            if text == "sqrt":
                self.expect_op("(")
                inner = self.take()
                if inner[0] != "int":
                    raise ScalarParseError(
                        f"sqrt() takes a rational literal, got {inner[1]!r} at position {inner[2]}"
                    )
                radicand = self.number_tail(int(inner[1]))
                self.expect_op(")")
                for name, q in self.context.roots.items():
                    if q == radicand:
                        return self.context.root(name)
                raise ScalarParseError(f"no declared root with radicand {radicand}")
            if text in self.context.params:
                return self.context.param(text)
            if text in self.context.roots:
                return self.context.root(text)
            raise ScalarParseError(f"undeclared name {text!r} at position {pos}")
        if kind == "op" and text == "(":
            self.nest(tok)
            value = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return value
        raise ScalarParseError(f"unexpected token {text!r} at position {pos}")

    def number_tail(self, numerator: int) -> int | Fraction:
        """Consume an optional '/ INT' after an integer literal; the value is
        in coefficient form (an int when integral)."""
        tok = self.peek()
        after = self.tokens[self.i + 1] if self.i + 1 < len(self.tokens) else None
        if tok and tok[0] == "op" and tok[1] == "/" and after and after[0] == "int":
            self.take()
            den = int(self.take()[1])
            if den == 0:
                raise ScalarParseError("zero denominator")
            return _coeff(Fraction(numerator, den))
        return numerator
