"""Sparse multivariate polynomials over exact rationals.

A coefficient is a plain ``int`` when it is integral and a
:class:`fractions.Fraction` (denominator other than 1) only when it is not,
so integer polynomials, which every recorded elimination works with, pay
for integer arithmetic alone.  The scalar accessors (``leading_coeff``,
``constant_term``, ``content``) return ``Fraction``.  Monomials are exponent
tuples aligned with an ordered variable list.  The global term order is
graded lexicographic with respect to the declared variable order.  Complex
floating arithmetic only appears at evaluation boundaries.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, neg, sub
from typing import Mapping, Sequence, Union

from ..errors import ArityError, InexactDivisionError, NonFiniteError, ParseError

Scalar = Union[int, Fraction]


def _exact(c) -> Scalar:
    """c in canonical form: an int when integral, else a Fraction."""
    if c.__class__ is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact rational coefficient: {c!r}")


def _demoted(terms: dict) -> dict:
    """terms with each integral Fraction value made an int, in place."""
    for e, c in terms.items():
        if c.__class__ is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly, in canonical form: int // int when b divides a."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _exact(Fraction(a, b))


def grlex_key(exps: tuple) -> tuple:
    """Sort key of a monomial: total degree first, then lexicographic."""
    return (sum(exps), exps)


def _arity_error(point, need: int) -> ArityError:
    return ArityError(
        f"point of length {len(point)} for polynomial using {need} variables")


NON_FINITE = "evaluation overflowed to a non-finite value"


def check_finite(value: complex) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFiniteError(NON_FINITE)
    return value


class MPoly:
    """Immutable sparse polynomial.

    ``vars`` is the ordered variable tuple; ``terms`` maps exponent tuples
    (one entry per variable) to nonzero coefficients: an ``int`` when
    integral, else a ``Fraction`` (never one with denominator 1).
    """

    __slots__ = ("vars", "terms", "_hash", "_plan", "_coeffs")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Scalar]):
        vs = tuple(variables)
        clean = {}
        for exps, c in terms.items():
            c = _exact(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vs):
                raise ValueError("exponent tuple length does not match variable count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            clean[exps] = clean.get(exps, 0) + c
        self.vars = vs
        self.terms = _demoted({e: c for e, c in clean.items() if c != 0})
        self._hash = None
        self._plan = None
        self._coeffs = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, variables: tuple, terms: dict) -> "MPoly":
        """Trusted constructor for results of the ring operations.

        The caller guarantees what ``__init__`` would check: ``variables``
        is a tuple, every key of ``terms`` is a tuple of ``len(variables)``
        non-negative ints, every value is a nonzero coefficient in canonical
        form (see ``MPoly``), and ``terms`` is a fresh dict the caller does
        not keep.
        """
        p = object.__new__(cls)
        p.vars = variables
        p.terms = terms
        p._hash = None
        p._plan = None
        p._coeffs = None
        return p

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "MPoly":
        return cls._make(tuple(variables), {})

    @classmethod
    def const(cls, c: Scalar, variables: Sequence[str] = ()) -> "MPoly":
        vs = tuple(variables)
        c = _exact(c)
        return cls._make(vs, {(0,) * len(vs): c} if c else {})

    @classmethod
    def var(cls, name: str, variables: Sequence[str] = None) -> "MPoly":
        vs = (name,) if variables is None else tuple(variables)
        if name not in vs:
            raise ValueError(f"variable {name!r} not among {vs}")
        exps = tuple(1 if v == name else 0 for v in vs)
        return cls._make(vs, {exps: 1})

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
                if not s:
                    del terms[exps]
                elif s.__class__ is int or s.denominator != 1:
                    terms[exps] = s
                else:
                    terms[exps] = s.numerator
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
            c = _exact(other)
            if c == 0:
                return MPoly.zero(self.vars)
            if c == 1:
                return self
            return MPoly._make(self.vars, _demoted(
                {e: cc * c for e, cc in self.terms.items()}))
        if not isinstance(other, MPoly):
            return NotImplemented
        p, q = MPoly.align(self, other)
        return sum_of_products(((p, q),), p.vars)

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
        return Fraction(0 if lt is None else lt[1])

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get((0,) * len(self.vars), 0))

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
        """Dense coefficient list [c0, c1, ...] of self viewed in var.

        The coefficients are split out once per var and kept, so repeated
        calls share them (and their evaluation plans); each call returns a
        new list.
        """
        if self._coeffs is None:
            self._coeffs = {}
        coeffs = self._coeffs.get(var)
        if coeffs is None:
            coeffs = self._coeffs[var] = tuple(
                self.coeff_of(var, k) for k in range(self.degree(var) + 1))
        return list(coeffs)

    def derivative(self, var: str) -> "MPoly":
        if var not in self.vars:
            return MPoly.zero(self.vars)
        i = self.vars.index(var)
        terms = {}
        for exps, c in self.terms.items():
            if exps[i]:
                terms[exps[:i] + (exps[i] - 1,) + exps[i + 1:]] = c * exps[i]
        return MPoly._make(self.vars, _demoted(terms))

    # -- normalization ---------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer, coprime coefficients."""
        if not self.terms:
            return Fraction(0)
        cs = self.terms.values()
        return Fraction(math.gcd(*(c.numerator for c in cs)),
                        math.lcm(*(c.denominator for c in cs
                                   if c.__class__ is not int)))

    def primitive(self) -> "MPoly":
        """self divided by its content, leading coefficient made positive."""
        if not self.terms:
            return self
        p = self * (1 / self.content())
        if p.leading()[1] < 0:
            p = -p
        return p

    # -- substitution ------------------------------------------------------

    def subs_values(self, bindings: Mapping[str, Scalar]) -> "MPoly":
        """Exact substitution of rational values for a subset of variables."""
        keep = [v for v in self.vars if v not in bindings]
        vals = {self.vars.index(v): _exact(c) for v, c in bindings.items()
                if v in self.vars}
        terms = {}
        kidx = [i for i, v in enumerate(self.vars) if v not in bindings]
        for exps, c in self.terms.items():
            f = c
            for i, val in vals.items():
                if exps[i]:
                    f *= val ** exps[i]
            ne = tuple(exps[i] for i in kidx)
            terms[ne] = terms.get(ne, 0) + f
        return MPoly(keep, terms)

    # -- evaluation --------------------------------------------------------

    def _compile(self):
        """(need, plan): the Horner plan of self, with complex(c) at each
        coefficient c, and how many leading variables a point must cover.

        A plan node is a leaf value or a tuple (i, first, steps, last) for
        variable i: ``first`` is the child of the highest exponent, each
        (gap, child) of ``steps`` multiplies by x_i**gap and adds the child
        of the next lower exponent, and ``last`` is the lowest exponent.
        Levels at which no term has a positive exponent are skipped.
        """
        n = len(self.vars)
        need = 0

        def build(items, i):
            nonlocal need
            if i == n:
                return complex(items[0][1])     # exponent tuples are distinct
            groups = {}
            for item in items:
                groups.setdefault(item[0][i], []).append(item)
            if len(groups) == 1 and 0 in groups:
                return build(items, i + 1)
            need = max(need, i + 1)
            order = sorted(groups, reverse=True)
            steps = tuple((prev - e, build(groups[e], i + 1))
                          for prev, e in zip(order, order[1:]))
            return i, build(groups[order[0]], i + 1), steps, order[-1]

        plan = build(list(self.terms.items()), 0) if self.terms else 0j
        return need, plan

    def eval(self, point: Sequence[complex]) -> complex:
        """Numeric value at a complex point (positional, aligned with vars).

        The float plan is compiled on first use and kept.  Its leaves are
        complex(c), which is how an int or a Fraction enters complex
        arithmetic, so the value is the one a walk over the terms would
        give.
        """
        return self.eval_values([complex(c) for c in point[:len(self.vars)]])

    def float_plan(self):
        """(need, plan) of _compile(), compiled on first use and
        kept: what eval walks and what ratfunc.compile_eval turns into
        straight-line code."""
        if self._plan is None:
            self._plan = self._compile()
        return self._plan

    def eval_values(self, values: Sequence[complex]) -> complex:
        """eval at a point already converted: values are the complex
        coordinates of the point's first len(self.vars) entries, so
        polynomials over the same variables can share one conversion."""
        need, plan = self.float_plan()
        # the plan reads only the first ``need`` values
        if len(values) < need:
            raise _arity_error(values, need)
        return check_finite(_horner(plan, values))

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


def _horner(node, values):
    """Value of a plan node from MPoly._compile at values (one per variable).

    Leaf children are read in place rather than through a call.
    """
    if node.__class__ is not tuple:
        return node
    i, first, steps, last = node
    x = values[i]
    acc = _horner(first, values) if first.__class__ is tuple else first
    for gap, child in steps:
        acc = acc * x ** gap + (
            _horner(child, values) if child.__class__ is tuple else child)
    if last:
        acc = acc * x ** last
    return acc


# -- parsing ----------------------------------------------------------------

def parse_poly(text: str, variables: Sequence[str] = None) -> MPoly:
    """Parse polynomial text; every text str() prints round-trips.

    With whitespace collapsed and ``^`` read as ``**``, the text must be a
    Python expression in ASCII, with no comment, built only from variable
    names, integer literals, unary ``+`` and ``-``, binary ``+``, ``-`` and
    ``*``, ``**`` to an integer literal and ``/`` by a nonzero integer
    literal.  The variables are the declared tuple, else the names in order
    of first appearance; every name and literal is built in them.  The
    interpreter bounds the nesting: CPython 3.11's parser rejects more than
    200 nested parentheses and a flat sum of more than about 2,500 terms,
    and a product of about 1,000 factors exceeds the interpreter's default
    recursion limit in the walk; each is a ParseError, as is any text
    outside the grammar.
    """
    source = " ".join(text.split()).replace("^", "**")
    if "#" in source or not source.isascii():
        raise ParseError(f"not a polynomial: {text!r} (comment or non-ASCII)")

    def literal(node, what) -> int:
        if isinstance(node, ast.Constant) and node.value.__class__ is int:
            return node.value
        raise ParseError(f"{what} is not an integer literal in {text!r}")

    def build(node) -> MPoly:
        match node:
            case ast.BinOp(op=ast.Add() | ast.Sub()):
                # a sum's left spine is walked in a loop, into one dict
                signed = []
                while (isinstance(node, ast.BinOp)
                       and isinstance(node.op, (ast.Add, ast.Sub))):
                    signed.append(
                        (node.right, -1 if isinstance(node.op, ast.Sub) else 1))
                    node = node.left
                signed.append((node, 1))
                return sum_of_products(
                    ((build(t), sign) for t, sign in reversed(signed)), vs)
            case ast.BinOp(op=ast.Mult()):
                return build(node.left) * build(node.right)
            case ast.BinOp(op=ast.Pow()):
                return build(node.left) ** literal(node.right, "exponent")
            case ast.BinOp(op=ast.Div()):
                d = literal(node.right, "divisor")
                if not d:
                    raise ParseError(f"division by zero in {text!r}")
                return build(node.left) * Fraction(1, d)
            case ast.UnaryOp(op=ast.UAdd()):
                return build(node.operand)
            case ast.UnaryOp(op=ast.USub()):
                return -build(node.operand)
            case ast.Name(id=name):
                if name not in vs:
                    raise ParseError(f"undeclared variable {name!r}")
                return MPoly.var(name, vs)
            case ast.Constant(value=c) if c.__class__ is int:
                return MPoly.const(c, vs)
        raise ParseError(f"not a polynomial term: "
                         f"{ast.get_source_segment(source, node)!r}")

    try:
        tree = ast.parse(source, mode="eval").body
    except (SyntaxError, RecursionError, ValueError) as exc:
        raise ParseError(f"not a polynomial: {text!r} ({exc})") from None
    if variables is None:
        names = sorted((n for n in ast.walk(tree) if isinstance(n, ast.Name)),
                       key=lambda n: n.col_offset)
        variables = dict.fromkeys(n.id for n in names)
    vs = tuple(variables)
    try:
        return build(tree)
    except RecursionError:
        raise ParseError(f"nested too deeply: {text!r}") from None


def sum_of_products(pairs, variables: tuple) -> MPoly:
    """The sum of a * b over the pairs (a, b), each a a polynomial on the
    variable tuple variables and each b one too or a coefficient: the
    products go straight into one dict, not into one dict each that a
    chain of additions then copies."""
    terms = {}
    get = terms.get
    for a, b in pairs:
        if not isinstance(b, MPoly):
            for e, c in a.terms.items():
                c = c * b
                s = get(e)
                terms[e] = c if s is None else s + c
            continue
        b_terms = b.terms.items()
        for e1, c1 in a.terms.items():
            for e2, c2 in b_terms:
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                s = get(e)
                terms[e] = c if s is None else s + c
    for e in [e for e, c in terms.items() if not c]:
        del terms[e]
    return MPoly._make(variables, _demoted(terms))


def exact_divide(p: MPoly, f: MPoly) -> MPoly:
    """Exact quotient q with q*f == p; raises with the remainder otherwise."""
    if f.is_zero():
        raise InexactDivisionError("division by the zero polynomial", remainder=p)
    p, f = MPoly.align(p, f)
    quotient, rem = divide_terms(p.terms, f.terms, _quotient)
    if rem:
        raise InexactDivisionError(
            "non-exact polynomial division",
            remainder=MPoly._make(p.vars, _demoted(rem)))
    return MPoly._make(p.vars, quotient)


def divide_terms(dividend: dict, divisor: dict, divide):
    """(quotient, remainder) of two term dicts on one variable tuple.

    The remainder and the quotient are one dict each: every step moves the
    remainder's graded-lex leading term into the quotient, with
    coefficient divide(its coefficient, the divisor's leading one), and
    subtracts that term times divisor from the remainder in place.  The
    division stops, leaving a nonzero remainder, at the first negative
    exponent or the first coefficient for which divide gives None; the
    remainder is empty exactly when divisor divides dividend.

    The leading terms come from a heap of the remainder's monomials, keyed
    by negated degree and exponents (after Monagan and Pearce, *Sparse
    polynomial division using a heap*, J. Symbolic Comput. 2011), not a
    scan per step.  A monomial enters the heap each time it enters the
    remainder; one that has cancelled is skipped when it comes up (lazy
    deletion).  A leading monomial, once divided off, never comes back:
    every later one is smaller in graded lex.
    """
    lt_f = max(divisor, key=grlex_key)
    lc_f = divisor[lt_f]
    f_terms = divisor.items()
    rem = dict(dividend)
    get = rem.get
    heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
    heapify(heap)
    quotient = {}
    while heap:
        lt_r = heappop(heap)[2]
        lc_r = get(lt_r)
        if lc_r is None:
            continue
        diff = tuple(map(sub, lt_r, lt_f))
        if any(d < 0 for d in diff):
            break
        qc = divide(lc_r, lc_f)
        if qc is None:
            break
        quotient[diff] = qc
        for e, c in f_terms:
            m = tuple(map(add, diff, e))
            s = get(m)
            if s is None:
                rem[m] = -qc * c
                heappush(heap, (-sum(m), tuple(map(neg, m)), m))
            else:
                s -= qc * c
                if s:
                    rem[m] = s
                else:
                    del rem[m]
    return quotient, rem


def divides(f: MPoly, p: MPoly) -> bool:
    try:
        exact_divide(p, f)
        return True
    except InexactDivisionError:
        return False


def strip_var_monomials(p: MPoly) -> MPoly:
    """p with every power of a single variable that divides it divided out:
    each exponent lowered by the least exponent of its variable."""
    low = tuple(map(min, zip(*p.terms)))
    if not any(low):
        return p
    return MPoly._make(p.vars, {tuple(map(sub, exps, low)): c
                                for exps, c in p.terms.items()})


def normalize(p: MPoly) -> MPoly:
    """Primitive part with a positive constant term (else leading coefficient)."""
    p = p.primitive()
    c0 = p.constant_term()
    if c0 < 0 or (c0 == 0 and p.leading_coeff() < 0):
        p = -p
    return p
