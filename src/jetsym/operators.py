"""Matrices of formal operators sum coeff * D_x^p with p >= -1.

Only application to evolutionary fields is provided, never operator
composition: D_x^{-1} appears at most once per term, rightmost, and its
action is the constructive antiderivative with integration constant
zero.  Applying it to anything outside Im D_x raises NonlocalObstruction
carrying the nonzero remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonlocalObstruction
from .jetalgebra import DP_ZERO, DiffPoly, EvoField
from .varcalc import DxChain, integrate_dx


@dataclass(frozen=True)
class OpTerm:
    """One summand coeff * D_x^power; power -1 is the nonlocal piece."""

    coeff: DiffPoly
    power: int

    def __post_init__(self):
        if self.power < -1:
            raise ValueError("operator powers below D_x^{-1} are not supported")


class OperatorMatrix:
    """Square grid of operator-term lists acting on evolutionary fields."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries",
                           tuple(tuple(tuple(e) for e in row) for row in entries))

    def __setattr__(self, name, value):
        raise AttributeError("OperatorMatrix is immutable")

    @property
    def size(self) -> int:
        return len(self.entries)

    def apply_detailed(self, K: EvoField):
        """Matrix-vector action; returns (result, antiderivative certificates).

        The antiderivative of component j is computed once and shared by
        every D_x^{-1} term in column j.  Certificates are keyed by the
        column index.
        """
        n = self.size
        chain = DxChain(K)
        dinv_cache: dict = {}

        def dinv(i, j):
            if j not in dinv_cache:
                cert = integrate_dx(K[j])
                if not cert.is_exact:
                    raise NonlocalObstruction(cert.remainder, entry=(i, j))
                dinv_cache[j] = cert
            return dinv_cache[j].antiderivative

        comps = []
        for i in range(n):
            acc = DP_ZERO
            for j in range(n):
                for term in self.entries[i][j]:
                    if term.power >= 0:
                        acc = acc + term.coeff * chain.get(j, term.power)
                    else:
                        acc = acc + term.coeff * dinv(i, j)
            comps.append(acc)
        return EvoField(comps), dict(dinv_cache)
