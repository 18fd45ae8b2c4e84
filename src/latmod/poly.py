"""Exact multivariate polynomials over Q or GF(p), with named variables.

The public type here (MultiPoly) is a plain sparse dict of exponent
tuples; it is what the scheme builders manipulate.  Groebner-level
computations convert to the packed kernel representation inside
ideals.py.

Text grammar (external interface): terms like ``3/2*Pi0_1_2^2*t - 1``,
variables matching ``[A-Za-z][A-Za-z0-9_]*``, with ``+ - * / ^`` and
parentheses.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple


class Field:
    """Coefficient field: QQ (p == 0) or GF(p) for prime p."""

    __slots__ = ("p",)
    _cache: Dict[int, "Field"] = {}

    def __new__(cls, p: int = 0):
        f = cls._cache.get(p)
        if f is None:
            if p:
                if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
                    raise ValueError(f"{p} is not prime")
            f = object.__new__(cls)
            f.p = p
            cls._cache[p] = f
        return f

    def coerce(self, x):
        """x as an element of this field; a rational goes to GF(p) through
        its numerator times the inverse of its denominator, and one whose
        denominator p divides has no image there (ValueError)."""
        p = self.p
        if p:
            if isinstance(x, Fraction):
                den = x.denominator % p
                if not den:
                    raise ValueError(f"denominator of {x} divisible by {p}")
                return x.numerator * pow(den, p - 2, p) % p
            return int(x) % p
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def div(self, a, b):
        if self.p:
            if b % self.p == 0:
                raise ZeroDivisionError("division by zero in GF(p)")
            return (a * pow(b, self.p - 2, self.p)) % self.p
        return a / b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    @property
    def zero(self):
        return 0 if self.p else Fraction(0)

    @property
    def one(self):
        return 1 if self.p else Fraction(1)

    def elements(self) -> List[int]:
        if not self.p:
            raise ValueError("QQ is not finite")
        return list(range(self.p))

    def __repr__(self) -> str:
        return "QQ" if not self.p else f"GF({self.p})"

    def tag(self) -> str:
        return repr(self)

    @classmethod
    def from_tag(cls, tag: str) -> "Field":
        tag = tag.strip()
        if tag == "QQ":
            return cls(0)
        m = re.fullmatch(r"GF\((\d+)\)", tag)
        if not m:
            raise ValueError(f"unknown field tag {tag!r}")
        return cls(int(m.group(1)))


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class PolyRing:
    """Polynomial ring: a coefficient field plus an ordered variable dictionary."""

    __slots__ = ("field", "names", "index")

    def __init__(self, field: Field, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for n in names:
            if not _NAME_RE.fullmatch(n):
                raise ValueError(f"bad variable name {n!r}")
        self.field = field
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.field is other.field
            and self.names == other.names
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.names))

    def __repr__(self) -> str:
        return f"PolyRing({self.field!r}, {list(self.names)!r})"

    @property
    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    @property
    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, c) -> "MultiPoly":
        c = self.field.coerce(c)
        if not c:
            return MultiPoly(self, {})
        return MultiPoly(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "MultiPoly":
        i = self.index[name]
        e = [0] * self.nvars
        e[i] = 1
        return MultiPoly(self, {tuple(e): self.field.one})

    def gens(self) -> List["MultiPoly"]:
        return [self.var(n) for n in self.names]

    def extend(self, extra: Sequence[str]) -> "PolyRing":
        return PolyRing(self.field, self.names + tuple(extra))

    def parse(self, text: str) -> "MultiPoly":
        return _parse(self, text)


class MultiPoly:
    """Sparse exact polynomial; terms map exponent tuples to nonzero coeffs."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[Tuple[int, ...], object]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    # -- basic queries ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return self.ring.field.zero
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        i = self.ring.index[name]
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def support_vars(self) -> List[str]:
        used = [False] * self.ring.nvars
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used[i] = True
        return [n for n, u in zip(self.ring.names, used) if u]

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = self.ring.const(other)
        self._check(other)
        f = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(out.get(e, f.zero), c)
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return MultiPoly(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        f = self.ring.field
        return MultiPoly(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = self.ring.const(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = self.ring.field.coerce(other)
            if not c:
                return self.ring.zero
            f = self.ring.field
            return MultiPoly(
                self.ring, {e: f.mul(cc, c) for e, cc in self.terms.items()}
            )
        self._check(other)
        f = self.ring.field
        out: Dict[Tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = f.add(out.get(e, f.zero), f.mul(c1, c2))
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return MultiPoly(self.ring, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, MultiPoly):
            if not other.is_constant():
                raise ValueError("division only by constants")
            other = other.constant_value()
        f = self.ring.field
        c = f.coerce(other)
        return MultiPoly(self.ring, {e: f.div(cc, c) for e, cc in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            try:
                other = self.ring.const(other)
            except Exception:
                return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus / substitution -------------------------------------------
    def diff(self, name: str) -> "MultiPoly":
        i = self.ring.index[name]
        f = self.ring.field
        out: Dict[Tuple[int, ...], object] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = f.mul(c, f.coerce(e[i]))
        return MultiPoly(self.ring, out)

    def subs(self, mapping: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials (of any common target ring) for variables.

        Variables absent from ``mapping`` must exist in the target ring
        under the same name.
        """
        if not mapping:
            return self
        target = next(iter(mapping.values())).ring
        f = target.field
        pow_cache: Dict[Tuple[str, int], MultiPoly] = {}

        def var_power(name: str, e: int) -> MultiPoly:
            key = (name, e)
            v = pow_cache.get(key)
            if v is None:
                base = mapping.get(name)
                if base is None:
                    base = target.var(name)
                v = pow_cache[key] = base**e
            return v

        out = target.zero
        for e, c in self.terms.items():
            term = target.const(c)
            for i, exp in enumerate(e):
                if exp:
                    term = term * var_power(self.ring.names[i], exp)
            out = out + term
        return out

    def map_ring(self, target: PolyRing) -> "MultiPoly":
        """Reinterpret in a ring containing the same-named variables."""
        pos = [target.index[n] for n in self.ring.names]
        out: Dict[Tuple[int, ...], object] = {}
        for e, c in self.terms.items():
            e2 = [0] * target.nvars
            for i, exp in enumerate(e):
                if exp:
                    e2[pos[i]] = exp
            out[tuple(e2)] = target.field.coerce(c)
        return MultiPoly(target, out)

    # -- display -------------------------------------------------------------
    def sorted_terms(self) -> List[Tuple[Tuple[int, ...], object]]:
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), item[0]),
            reverse=True,
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: List[str] = []
        for e, c in self.sorted_terms():
            factors = [
                f"{n}^{x}" if x > 1 else n
                for n, x in zip(self.ring.names, e)
                if x
            ]
            frac = Fraction(c) if not self.ring.field.p else Fraction(int(c))
            mag = abs(frac)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            sign = "-" if frac < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"<{self.ring.field!r}[{','.join(self.ring.names)}] {self}>"


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            tokens.append(("num", int(m.group("num"))))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, ring: PolyRing, tokens):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def parse_expr(self) -> MultiPoly:
        node = self.parse_term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_term()
                node = node + rhs if val == "+" else node - rhs
            else:
                return node

    def parse_term(self) -> MultiPoly:
        node = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.parse_factor()
                node = node * rhs if val == "*" else node / rhs
            else:
                return node

    def parse_factor(self) -> MultiPoly:
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.parse_factor()
        if kind == "op" and val == "+":
            self.next()
            return self.parse_factor()
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind2, val2 = self.next()
            if kind2 != "num":
                raise ValueError("exponent must be a number literal")
            return base**val2
        return base

    def parse_atom(self) -> MultiPoly:
        kind, val = self.next()
        if kind == "num":
            return self.ring.const(val)
        if kind == "name":
            if val not in self.ring.index:
                raise ValueError(f"unknown variable {val!r}")
            return self.ring.var(val)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            kind2, val2 = self.next()
            if (kind2, val2) != ("op", ")"):
                raise ValueError("missing closing parenthesis")
            return node
        raise ValueError(f"unexpected token {val!r}")


def _parse(ring: PolyRing, text: str) -> MultiPoly:
    parser = _Parser(ring, _tokenize(text))
    node = parser.parse_expr()
    if parser.peek()[0] != "end":
        raise ValueError(f"trailing input in {text!r}")
    return node
