"""Sparse multivariate polynomials over exact rationals.

Coefficients are :class:`fractions.Fraction`; monomials are exponent tuples
aligned with an ordered variable list.  The global term order is graded
lexicographic with respect to the declared variable order.  Complex floating
arithmetic only appears at evaluation boundaries.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Sequence, Union

from ..errors import ArityError, InexactDivisionError, NonFiniteError, ParseError

Scalar = Union[int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact rational coefficient: {c!r}")


def grlex_key(exps: tuple) -> tuple:
    """Sort key of a monomial: total degree first, then lexicographic."""
    return (sum(exps), exps)


def check_finite(value: complex) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFiniteError("evaluation overflowed to a non-finite value")
    return value


class MPoly:
    """Immutable sparse polynomial.

    ``vars`` is the ordered variable tuple; ``terms`` maps exponent tuples
    (one entry per variable) to nonzero Fraction coefficients.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Scalar]):
        vs = tuple(variables)
        clean = {}
        for exps, c in terms.items():
            c = _as_fraction(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vs):
                raise ValueError("exponent tuple length does not match variable count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            clean[exps] = clean.get(exps, Fraction(0)) + c
        self.vars = vs
        self.terms = {e: c for e, c in clean.items() if c != 0}
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, variables: tuple, terms: dict) -> "MPoly":
        """Trusted constructor for results of the ring operations.

        The caller guarantees what ``__init__`` would check: ``variables``
        is a tuple, every key of ``terms`` is a tuple of ``len(variables)``
        non-negative ints, every value is a nonzero Fraction, and ``terms``
        is a fresh dict the caller does not keep.
        """
        p = object.__new__(cls)
        p.vars = variables
        p.terms = terms
        p._hash = None
        return p

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "MPoly":
        return cls._make(tuple(variables), {})

    @classmethod
    def const(cls, c: Scalar, variables: Sequence[str] = ()) -> "MPoly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): _as_fraction(c)})

    @classmethod
    def var(cls, name: str, variables: Sequence[str] = None) -> "MPoly":
        vs = (name,) if variables is None else tuple(variables)
        if name not in vs:
            raise ValueError(f"variable {name!r} not among {vs}")
        exps = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {exps: Fraction(1)})

    # -- variable bookkeeping ------------------------------------------

    def used_vars(self) -> tuple:
        used = [False] * len(self.vars)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    def with_vars(self, variables: Sequence[str]) -> "MPoly":
        """Re-embed into a new variable tuple (must cover all used vars)."""
        vs = tuple(variables)
        if vs == self.vars:
            return self
        pos = {v: i for i, v in enumerate(vs)}
        if any(v not in pos for v in self.vars):
            missing = [v for v in self.used_vars() if v not in pos]
            if missing:
                raise ValueError(f"target variables miss {missing}")
        idx = [pos.get(v) for v in self.vars]
        terms = {}
        for exps, c in self.terms.items():
            ne = [0] * len(vs)
            for i, e in enumerate(exps):
                if e:
                    ne[idx[i]] = e
            terms[tuple(ne)] = c
        return MPoly._make(vs, terms)

    def pruned(self) -> "MPoly":
        """Drop variables that do not occur."""
        return self.with_vars(self.used_vars())

    @staticmethod
    def align(p: "MPoly", q: "MPoly"):
        if p.vars == q.vars:
            return p, q
        merged = list(p.vars) + [v for v in q.vars if v not in p.vars]
        return p.with_vars(merged), q.with_vars(merged)

    # -- ring operations -----------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _combine(self, other, negate: bool):
        """self + other, or self - other when negate; cancelled terms popped."""
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other, self.vars)
        if not isinstance(other, MPoly):
            return NotImplemented
        p, q = MPoly.align(self, other)
        terms = dict(p.terms)
        get = terms.get
        for exps, c in q.terms.items():
            if negate:
                c = -c
            s = get(exps)
            if s is None:
                terms[exps] = c
            else:
                s += c
                if s:
                    terms[exps] = s
                else:
                    del terms[exps]
        return MPoly._make(p.vars, terms)

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return MPoly.zero(self.vars)
            return MPoly._make(self.vars,
                               {e: cc * c for e, cc in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        p, q = MPoly.align(self, other)
        terms = {}
        get = terms.get
        q_terms = q.terms.items()
        for e1, c1 in p.terms.items():
            for e2, c2 in q_terms:
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                s = get(e)
                terms[e] = c if s is None else s + c
        zeros = [e for e, c in terms.items() if not c]
        for e in zeros:
            del terms[e]
        return MPoly._make(p.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return MPoly.const(1, self.vars) if result is None else result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other, self.vars)
        if not isinstance(other, MPoly):
            return NotImplemented
        p, q = MPoly.align(self, other)
        return p.terms == q.terms

    def __hash__(self):
        if self._hash is None:
            p = self.pruned()
            self._hash = hash((p.vars, frozenset(p.terms.items())))
        return self._hash

    # -- structure queries ----------------------------------------------

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree(self, var: str) -> int:
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=0)

    def leading(self):
        """Leading (monomial, coefficient) in graded lex order."""
        if not self.terms:
            return None
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def leading_coeff(self) -> Fraction:
        lt = self.leading()
        return Fraction(0) if lt is None else lt[1]

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def sorted_terms(self):
        """Terms in descending graded lex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def coeff_of(self, var: str, power: int) -> "MPoly":
        """Coefficient of var**power, as a polynomial with var removed."""
        if var not in self.vars:
            return self if power == 0 else MPoly.zero(self.vars)
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        terms = {}
        for exps, c in self.terms.items():
            if exps[i] == power:
                terms[exps[:i] + exps[i + 1:]] = c
        return MPoly._make(rest, terms)

    def as_univariate(self, var: str):
        """Dense coefficient list [c0, c1, ...] of self viewed in var."""
        d = self.degree(var)
        return [self.coeff_of(var, k) for k in range(d + 1)]

    def derivative(self, var: str) -> "MPoly":
        if var not in self.vars:
            return MPoly.zero(self.vars)
        i = self.vars.index(var)
        terms = {}
        for exps, c in self.terms.items():
            if exps[i]:
                terms[exps[:i] + (exps[i] - 1,) + exps[i + 1:]] = c * exps[i]
        return MPoly._make(self.vars, terms)

    # -- normalization ---------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer, coprime coefficients."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "MPoly":
        """self divided by its content, leading coefficient made positive."""
        c = self.content()
        if c == 0:
            return self
        p = self * (1 / c)
        if p.leading_coeff() < 0:
            p = -p
        return p

    # -- substitution ------------------------------------------------------

    def subs_values(self, bindings: Mapping[str, Scalar]) -> "MPoly":
        """Exact substitution of rational values for a subset of variables."""
        keep = [v for v in self.vars if v not in bindings]
        vals = {self.vars.index(v): _as_fraction(c) for v, c in bindings.items()
                if v in self.vars}
        terms = {}
        kidx = [i for i, v in enumerate(self.vars) if v not in bindings]
        for exps, c in self.terms.items():
            f = c
            for i, val in vals.items():
                if exps[i]:
                    f *= val ** exps[i]
            ne = tuple(exps[i] for i in kidx)
            terms[ne] = terms.get(ne, Fraction(0)) + f
        return MPoly(keep, terms)

    def subs_poly(self, bindings: Mapping[str, "MPoly"]) -> "MPoly":
        """Substitute polynomials for variables (ring homomorphism)."""
        out = None
        for exps, c in self.sorted_terms():
            term = None
            for v, e in zip(self.vars, exps):
                if not e:
                    continue
                f = bindings[v] ** e if v in bindings else MPoly.var(v) ** e
                term = f if term is None else term * f
            term = MPoly.const(c) if term is None else term * c
            out = term if out is None else out + term
        return MPoly.zero() if out is None else out

    # -- evaluation --------------------------------------------------------

    def _eval(self, values):
        """Horner evaluation, one variable at a time."""
        def rec(terms, i):
            if i == len(self.vars):
                return sum(terms.values()) if terms else 0
            groups = {}
            for exps, c in terms.items():
                groups.setdefault(exps[i], {})[exps] = c
            if len(groups) == 1 and 0 in groups:
                return rec(groups[0], i + 1)
            x = values[i]
            acc = 0
            prev = None
            for e in sorted(groups, reverse=True):
                if prev is None:
                    acc = rec(groups[e], i + 1)
                else:
                    acc = acc * x ** (prev - e) + rec(groups[e], i + 1)
                prev = e
            if prev:
                acc = acc * x ** prev
            return acc

        return rec(self.terms, 0)

    def eval(self, point: Sequence[complex]) -> complex:
        """Numeric value at a complex point (positional, aligned with vars)."""
        used = self.used_vars()
        need = max((self.vars.index(v) for v in used), default=-1) + 1
        if len(point) < need:
            raise ArityError(
                f"point of length {len(point)} for polynomial using {need} variables")
        values = [complex(point[i]) if i < len(point) else 0j
                  for i in range(len(self.vars))]
        return check_finite(complex(self._eval(values)))

    def eval_exact(self, point: Sequence[Scalar]) -> Fraction:
        used = self.used_vars()
        need = max((self.vars.index(v) for v in used), default=-1) + 1
        if len(point) < need:
            raise ArityError(
                f"point of length {len(point)} for polynomial using {need} variables")
        values = [_as_fraction(point[i]) if i < len(point) else Fraction(0)
                  for i in range(len(self.vars))]
        return self._eval(values)

    def max_abs_coeff(self) -> float:
        return max((abs(float(c)) for c in self.terms.values()), default=0.0)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exps) if e)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"MPoly({self.vars}, {self})"


# -- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            tokens.append(("num", m.group("num")))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


def parse_poly(text: str, variables: Sequence[str] = None) -> MPoly:
    """Parse the textual polynomial syntax (exact round-trip with str())."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else (None, None)

    def take():
        t = peek()
        pos[0] += 1
        return t

    def parse_expr():
        kind, val = peek()
        neg = False
        while kind == "op" and val in "+-":
            take()
            if val == "-":
                neg = not neg
            kind, val = peek()
        node = parse_term()
        if neg:
            node = -node
        while True:
            kind, val = peek()
            if kind == "op" and val in "+-":
                take()
                rhs = parse_term()
                node = node - rhs if val == "-" else node + rhs
            else:
                return node

    def parse_term():
        node = parse_factor()
        while True:
            kind, val = peek()
            if kind == "op" and val == "*":
                take()
                node = node * parse_factor()
            else:
                return node

    def parse_factor():
        base = parse_atom()
        kind, val = peek()
        if kind == "op" and val == "^":
            take()
            kind, val = take()
            if kind != "num" or "/" in val:
                raise ParseError("exponent must be a non-negative integer")
            return base ** int(val)
        return base

    def parse_atom():
        kind, val = take()
        if kind == "num":
            return MPoly.const(Fraction(val))
        if kind == "name":
            if variables is not None and val not in variables:
                raise ParseError(f"undeclared variable {val!r}")
            return MPoly.var(val)
        if kind == "op" and val == "(":
            node = parse_expr()
            kind, val = take()
            if (kind, val) != ("op", ")"):
                raise ParseError("missing closing parenthesis")
            return node
        if kind == "op" and val == "-":
            return -parse_atom()
        raise ParseError(f"unexpected token {val!r}")

    if not tokens:
        raise ParseError("empty polynomial text")
    result = parse_expr()
    if pos[0] != len(tokens):
        raise ParseError(f"trailing tokens near {tokens[pos[0]]!r}")
    if variables is not None:
        result = result.with_vars(variables)
    return result


def exact_divide(p: MPoly, f: MPoly) -> MPoly:
    """Exact quotient q with q*f == p; raises with the remainder otherwise.

    The remainder and the quotient are one dict each: every step moves the
    remainder's graded-lex leading term into the quotient and subtracts
    that term times f from the remainder in place.
    """
    if f.is_zero():
        raise InexactDivisionError("division by the zero polynomial", remainder=p)
    p, f = MPoly.align(p, f)
    lt_f, lc_f = f.leading()
    f_terms = f.terms.items()
    rem = dict(p.terms)
    get = rem.get
    quotient = {}
    while rem:
        lt_r = max(rem, key=grlex_key)
        diff = tuple(map(sub, lt_r, lt_f))
        if any(d < 0 for d in diff):
            raise InexactDivisionError("non-exact polynomial division",
                                       remainder=MPoly._make(p.vars, rem))
        qc = rem[lt_r] / lc_f
        quotient[diff] = qc
        for e, c in f_terms:
            m = tuple(map(add, diff, e))
            s = get(m)
            if s is None:
                rem[m] = -qc * c
            else:
                s -= qc * c
                if s:
                    rem[m] = s
                else:
                    del rem[m]
    return MPoly._make(p.vars, quotient)


def divides(f: MPoly, p: MPoly) -> bool:
    try:
        exact_divide(p, f)
        return True
    except InexactDivisionError:
        return False


def strip_var_monomials(p: MPoly) -> MPoly:
    """p with every power of a single variable that divides it divided out."""
    for v in p.used_vars():
        mv = MPoly.var(v, p.vars)
        while p.degree(v):
            try:
                p = exact_divide(p, mv)
            except InexactDivisionError:
                break
    return p


def normalize(p: MPoly) -> MPoly:
    """Primitive part with a positive constant term (else leading coefficient)."""
    p = p.primitive()
    c0 = p.constant_term()
    if c0 < 0 or (c0 == 0 and p.leading_coeff() < 0):
        p = -p
    return p
