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
from .varcalc import DxChain, integrate_dx, operator_sum


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
        """Matrix-vector action on ``chain.field`` over field coefficients;
        returns (result, antiderivative certificates).

        It is the reference that ``apply_sum``, the packed path, is tested
        against.  The D_x powers and the antiderivatives come from the
        chain, so they are formed once per field however many matrices
        read it.  The returned certificates are keyed by the column index,
        one for each column this matrix integrates.
        """
        n = self.size
        used: dict = {}
        comps = []
        for i in range(n):
            acc: dict = {}
            for j in range(n):
                for term in self.entries[i][j]:
                    if term.power >= 0:
                        image = chain.get(j, term.power)
                    else:
                        used[j] = _certificate(chain, i, j)
                        image = used[j].antiderivative
                    accumulate(acc, (term.coeff * image).terms.items())
            comps.append(DiffPoly(acc))
        return EvoField(comps), used


def _certificate(chain: DxChain, i: int, j: int):
    """The exact ``integrate_dx`` certificate of component j of
    ``chain.field``, for the D_x^{-1} term of entry (i, j).

    It is stored in ``chain.certificates`` and shared by every reader; a
    non-exact one raises NonlocalObstruction naming (i, j), at every
    reading.
    """
    cert = chain.certificates.get(j)
    if cert is None:
        cert = chain.certificates[j] = integrate_dx(chain.field[j])
    if not cert.is_exact:
        raise NonlocalObstruction(cert.remainder, entry=(i, j))
    return cert


def apply_sum(pairs):
    """The sum of matrix.field over (matrix, chain) pairs, on ints;
    returns (result, one dict of certificates per pair).

    Each D_x^{-1} term reads its certificate as ``apply_detailed`` does,
    pair by pair and entry by entry, before any product is formed, so a
    non-exact antiderivative raises for the same entry.  Then one
    ``varcalc.operator_sum`` forms every product at one scale, with the
    D_x powers in packed tables, and the result equals the sum of the
    ``apply_detailed`` results.
    """
    n = pairs[0][0].size
    used = [{} for _ in pairs]
    integrals: dict = {}
    rows: list = [[] for _ in range(n)]
    for k, (matrix, chain) in enumerate(pairs):
        for i, row in enumerate(matrix.entries):
            for j, entry in enumerate(row):
                for term in entry:
                    if term.power < 0:
                        cert = used[k][j] = _certificate(chain, i, j)
                        integrals[k, j] = cert.antiderivative
                    rows[i].append((term.coeff, k, j, term.power))
    fields = [chain.field for _, chain in pairs]
    return EvoField(operator_sum(fields, integrals, rows)), used
