"""Matrices of formal operators sum coeff * D_x^p with p >= -1.

Only application to evolutionary fields is provided, never operator
composition: D_x^{-1} appears at most once per term, rightmost, and its
action is the constructive antiderivative with integration constant
zero.  Applying it to anything outside Im D_x raises NonlocalObstruction
carrying the nonzero remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffield import accumulate
from .errors import NonlocalObstruction
from .jetalgebra import DiffPoly, EvoField
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

    def apply_detailed(self, chain: DxChain):
        """Matrix-vector action on ``chain.field``; returns (result,
        antiderivative certificates).

        The D_x powers and the antiderivatives come from the chain, so
        they are formed once per field however many matrices read it: the
        antiderivative of component j is stored in ``chain.certificates``
        and shared by every D_x^{-1} term in column j.  A non-exact one
        raises NonlocalObstruction naming the entry (i, j) that needed it,
        at every reading.  The returned certificates are keyed by the
        column index, one for each column this matrix integrates.
        """
        n = self.size
        used: dict = {}

        def dinv(i, j):
            cert = chain.certificates.get(j)
            if cert is None:
                cert = chain.certificates[j] = integrate_dx(chain.field[j])
            if not cert.is_exact:
                raise NonlocalObstruction(cert.remainder, entry=(i, j))
            used[j] = cert
            return cert.antiderivative

        comps = []
        for i in range(n):
            acc: dict = {}
            for j in range(n):
                for term in self.entries[i][j]:
                    image = chain.get(j, term.power) if term.power >= 0 else dinv(i, j)
                    accumulate(acc, (term.coeff * image).terms.items())
            comps.append(DiffPoly(acc))
        return EvoField(comps), used
