"""Sparse exact differential polynomials in jet variables.

Generators are small integers: ``X_GEN`` and ``T_GEN`` for the explicit
independent variables, and ``jet(d, i)`` for the i-th x-derivative of
dependent variable number d.  A monomial is a tuple of (generator,
exponent) pairs sorted by generator; every exponent is a nonzero int,
negative ones included.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Tuple

from .coeffield import RF_ONE, RF_ZERO, RationalFunction, accumulate, coeff_json, rf
from .errors import JetOrderOutOfRange, PoleAtParameter

X_GEN = 0
T_GEN = 1
_JET_BASE = 2
_ORDER_STRIDE = 4096
#: the highest jet order the generator encoding holds
TOP_ORDER = _ORDER_STRIDE - 1

#: a monomial: ((generator, exponent), ...) sorted by generator
Monomial = Tuple[Tuple[int, int], ...]

MONO_ONE: Monomial = ()


def jet(depvar: int, order: int) -> int:
    """Generator id of the order-th x-derivative of dependent variable depvar."""
    if order < 0 or order > TOP_ORDER:
        raise JetOrderOutOfRange(f"jet order out of range: {order}")
    return _JET_BASE + depvar * _ORDER_STRIDE + order


def is_jet(gen: int) -> bool:
    return gen >= _JET_BASE


def jet_depvar(gen: int) -> int:
    return (gen - _JET_BASE) // _ORDER_STRIDE


def jet_order(gen: int) -> int:
    return (gen - _JET_BASE) % _ORDER_STRIDE


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ga, ea = a[i]
        gb, eb = b[j]
        if ga == gb:
            e = ea + eb
            if e:
                out.append((ga, e))
            i += 1
            j += 1
        elif ga < gb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_weight(m: Monomial) -> int:
    """The total differential order sum(order * exponent)."""
    return sum(jet_order(g) * e for g, e in m if g >= _JET_BASE)


def mono_degree(m: Monomial) -> int:
    """The total polynomial degree (jet generators only)."""
    return sum(e for g, e in m if g >= _JET_BASE)


def mono_max_order(m: Monomial) -> Optional[int]:
    best = None
    for g, _ in m:
        if g >= _JET_BASE:
            o = jet_order(g)
            if best is None or o > best:
                best = o
    return best


def mono_sort_key(m: Monomial):
    # graded by total differential order, then lexicographic; within a
    # weight class this puts the pure top jet above products, so the
    # first rendered term is the leading linear part
    return (mono_weight(m), m)


def jet_name(name: str, order: int) -> str:
    """Canonical jet spelling: w, w_x, w_xx, then w_3, w_4, ..."""
    if order == 0:
        return name
    if order <= 2:
        return name + "_" + "x" * order
    return f"{name}_{order}"


def _lower(mono: Monomial, idx: int, coeff):
    """d/dg of the term coeff * mono, g the factor at idx: (monomial, coeff)."""
    g, e = mono[idx]
    if e == 1:
        return mono[:idx] + mono[idx + 1:], coeff
    return mono[:idx] + ((g, e - 1),) + mono[idx + 1:], coeff * e


class DiffPoly:
    """Differential polynomial: canonical mapping monomial -> field
    coefficient (``RationalFunction``)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        object.__setattr__(self, "terms", terms or {})

    def __setattr__(self, name, value):
        raise AttributeError("DiffPoly is immutable")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def constant(value) -> "DiffPoly":
        c = rf(value) if not isinstance(value, RationalFunction) else value
        if c.is_zero:
            return DP_ZERO
        return DiffPoly({MONO_ONE: c})

    @staticmethod
    def var(gen: int) -> "DiffPoly":
        return DiffPoly({((gen, 1),): RF_ONE})

    @staticmethod
    def from_terms(pairs: Iterable) -> "DiffPoly":
        coerced = ((mono, rf(coeff)) for mono, coeff in pairs)
        return DiffPoly(accumulate({}, ((m, c) for m, c in coerced if not c.is_zero)))

    # -- basic queries -----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, DiffPoly) and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def coefficient(self, mono: Monomial) -> RationalFunction:
        return self.terms.get(mono, RF_ZERO)

    def free_term(self) -> RationalFunction:
        return self.terms.get(MONO_ONE, RF_ZERO)

    def contains_xt(self) -> bool:
        return any(g < _JET_BASE for m in self.terms for g, _ in m)

    def max_jet_order(self) -> Optional[int]:
        best = None
        for m in self.terms:
            o = mono_max_order(m)
            if o is not None and (best is None or o > best):
                best = o
        return best

    def depvars(self) -> set:
        return {jet_depvar(g) for m in self.terms for g, _ in m if g >= _JET_BASE}

    def sorted_terms(self):
        """Terms in canonical order: highest weight first."""
        return sorted(self.terms.items(), key=lambda kv: mono_sort_key(kv[0]),
                      reverse=True)

    # -- arithmetic ---------------------------------------------------------
    def __neg__(self):
        return DiffPoly({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, DiffPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        return DiffPoly(accumulate(dict(a), b.items()))

    def __sub__(self, other):
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction)):
            return self.scalar_mul(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return DP_ZERO
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        return DiffPoly(accumulate({}, ((mono_mul(m1, m2), c1 * c2)
                                        for m1, c1 in a.items()
                                        for m2, c2 in b.items())))

    __rmul__ = __mul__

    def scalar_mul(self, c) -> "DiffPoly":
        if not c or not self.terms:
            return DP_ZERO
        return DiffPoly({m: v * c for m, v in self.terms.items()})

    # -- calculus -----------------------------------------------------------
    def partial(self, gen: int) -> "DiffPoly":
        """Partial derivative with respect to a single generator."""
        # dividing by gen is injective on monomials: no two terms merge
        return DiffPoly(dict(_lower(mono, idx, coeff)
                             for mono, coeff in self.terms.items()
                             for idx, (g, _) in enumerate(mono) if g == gen))

    def dx(self) -> "DiffPoly":
        """Total x-derivative: bumps jets, differentiates explicit x."""
        return DiffPoly(accumulate({}, self._dx_terms()))

    def _dx_terms(self):
        for mono, coeff in self.terms.items():
            for idx, (g, _) in enumerate(mono):
                if g == T_GEN:
                    continue
                base, c = _lower(mono, idx, coeff)
                if g != X_GEN:
                    base = mono_mul(base, ((jet(jet_depvar(g), jet_order(g) + 1), 1),))
                yield base, c

    def partial_t(self) -> "DiffPoly":
        return self.partial(T_GEN)

    def specialize(self, value) -> "DiffPoly":
        """Evaluate every coefficient at a parameter point."""
        out: dict = {}
        for mono, coeff in self.terms.items():
            try:
                v = coeff.eval(value)
            except PoleAtParameter as exc:
                raise PoleAtParameter(exc.value, exc.den_text, monomial=mono) from None
            if v:
                out[mono] = rf(v)
        return DiffPoly(out)

    # -- rendering ------------------------------------------------------------
    def text(self, names: Tuple[str, ...], param: str = "alpha") -> str:
        if not self.terms:
            return "(0)"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = [f"({coeff.text(param)})"]
            for g, e in mono:
                if g == X_GEN:
                    base = "x"
                elif g == T_GEN:
                    base = "t"
                else:
                    base = jet_name(names[jet_depvar(g)], jet_order(g))
                factors.append(base if e == 1 else f"{base}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json(self):
        """The JSON form: one {"exps", "coeff"} per term, in
        ``sorted_terms`` order, in one pass by one ``JsonWriter``: the
        texts of each distinct denominator and the [generator, exponent]
        form of each factor are written once and shared by every term
        that has them, so a caller that edits one of them in place edits
        each of those terms.  Each call returns a new structure."""
        return JsonWriter().poly(self)

    @staticmethod
    def from_json(obj) -> "DiffPoly":
        """Inverse of to_json; raises ValueError for a malformed monomial."""
        pairs = []
        for item in obj:
            mono = []
            for gj, e in item["exps"]:
                if gj == "x":
                    g = X_GEN
                elif gj == "t":
                    g = T_GEN
                elif type(gj) is list and len(gj) == 2 and type(gj[0]) is int \
                        and type(gj[1]) is int and gj[0] >= 0:
                    g = jet(gj[0], gj[1])
                else:
                    raise ValueError(f"invalid generator {gj!r}")
                if type(e) is not int or e == 0:
                    raise ValueError(f"invalid exponent {e!r}")
                mono.append((g, e))
            mono.sort()
            if len({g for g, _ in mono}) < len(mono):
                raise ValueError("a generator repeats within a monomial")
            pairs.append((tuple(mono), RationalFunction.from_json(item["coeff"])))
        return DiffPoly.from_terms(pairs)

    def __repr__(self):
        names = tuple(f"q{i}" for i in range(8))
        return f"DiffPoly[{self.text(names)}]"


DP_ZERO = DiffPoly({})
DP_ONE = DiffPoly({MONO_ONE: RF_ONE})


class EvoField:
    """Vector of differential polynomials, one per dependent variable."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[DiffPoly]):
        object.__setattr__(self, "components", tuple(components))

    def __setattr__(self, name, value):
        raise AttributeError("EvoField is immutable")

    def __getitem__(self, i) -> DiffPoly:
        return self.components[i]

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, other):
        return isinstance(other, EvoField) and self.components == other.components

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __add__(self, other):
        return EvoField(a + b for a, b in zip(self.components, other.components, strict=True))

    def __sub__(self, other):
        return EvoField(a - b for a, b in zip(self.components, other.components, strict=True))

    def scalar_mul(self, c) -> "EvoField":
        return EvoField(a.scalar_mul(c) for a in self.components)

    def max_jet_order(self) -> Optional[int]:
        orders = [c.max_jet_order() for c in self.components]
        orders = [o for o in orders if o is not None]
        return max(orders) if orders else None

    def contains_xt(self) -> bool:
        return any(c.contains_xt() for c in self.components)

    def specialize(self, value) -> "EvoField":
        return EvoField(c.specialize(value) for c in self.components)

    def text(self, names, param="alpha") -> str:
        return "(" + ", ".join(c.text(names, param) for c in self.components) + ")"

    def to_json(self):
        """One ``DiffPoly`` JSON form per component, in one pass by one
        ``JsonWriter``: the components share the texts of each distinct
        denominator and the form of each factor, as the terms of one
        polynomial do, and one polynomial object in two components has
        one form, so an edit in place of one of those parts edits every
        place that has it.  Each call returns a new structure."""
        return JsonWriter().field(self)

    @staticmethod
    def from_json(obj) -> "EvoField":
        return EvoField(DiffPoly.from_json(c) for c in obj)

    def __repr__(self):
        return f"EvoField({self.components!r})"


class JsonWriter:
    """Writes the JSON forms of the polynomials, fields and coefficients of
    one document in one pass.

    Its memo lives as long as the writer: the texts of each distinct
    denominator (``coeffield.coeff_json``), the [generator, exponent] form
    of each factor, and the form of each polynomial object, so that one
    named twice in a document is written once.  Forms from one writer
    share those parts; a caller that edits one part of a document edits
    every place that shares it.  A fresh writer per document keeps
    documents apart.
    """

    __slots__ = ("dens", "factors", "polys")

    def __init__(self):
        self.dens: dict = {}
        self.factors: dict = {}
        self.polys: dict = {}  # id -> (polynomial, form); the entry keeps the id live

    def coeff(self, c: RationalFunction) -> dict:
        return coeff_json(c, self.dens)

    def poly(self, p: DiffPoly) -> list:
        hit = self.polys.get(id(p))
        if hit is not None:
            return hit[1]
        factors, dens = self.factors, self.dens
        out = []
        for mono, coeff in p.sorted_terms():
            exps = []
            for factor in mono:
                form = factors.get(factor)
                if form is None:
                    g, e = factor
                    gj = "x" if g == X_GEN else "t" if g == T_GEN else \
                        [jet_depvar(g), jet_order(g)]
                    form = factors[factor] = [gj, e]
                exps.append(form)
            out.append({"exps": exps, "coeff": coeff_json(coeff, dens)})
        self.polys[id(p)] = (p, out)
        return out

    def field(self, f: EvoField) -> list:
        return [self.poly(c) for c in f]
