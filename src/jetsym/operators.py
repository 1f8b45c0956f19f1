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
    """Rows x columns grid of operator-term lists acting on evolutionary
    fields: column j reads component j of the field, row i forms output
    component i.  Every row has the same length; a ragged grid raises
    ValueError."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(tuple(tuple(e) for e in row) for row in entries)
        if len({len(row) for row in entries}) > 1:
            raise ValueError("operator matrix rows differ in length")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorMatrix is immutable")

    @property
    def shape(self) -> tuple:
        """(rows, columns)."""
        return len(self.entries), len(self.entries[0]) if self.entries else 0

    def apply_detailed(self, chain: DxChain):
        """Matrix-vector action on ``chain.field`` over field coefficients;
        returns (result, antiderivative certificates).

        It is the reference that ``apply_sum``, the packed path, is tested
        against.  The D_x powers and the antiderivatives come from the
        chain, so they are formed once per field however many matrices
        read it.  The returned certificates are keyed by the column index,
        one for each column this matrix integrates.  A field whose
        component count is not the column count raises ValueError.
        """
        _check_shapes([(self, chain)])
        used: dict = {}
        comps = []
        for i, row in enumerate(self.entries):
            acc: dict = {}
            for j, entry in enumerate(row):
                for term in entry:
                    if term.power >= 0:
                        image = chain.get(j, term.power)
                    else:
                        used[j] = _certificate(chain, i, j)
                        image = used[j].antiderivative
                    accumulate(acc, (term.coeff * image).terms.items())
            comps.append(DiffPoly(acc))
        return EvoField(comps), used


def _check_shapes(pairs):
    """Raise ValueError, naming the pair, when a matrix's column count is
    not its field's component count, or when two matrices' row counts
    differ."""
    if not pairs:
        raise ValueError("no (matrix, chain) pairs to apply")
    rows = pairs[0][0].shape[0]
    for k, (matrix, chain) in enumerate(pairs):
        r, c = matrix.shape
        if c != len(chain.field):
            raise ValueError(f"pair {k}: a matrix of {c} columns on a field of "
                             f"{len(chain.field)} components")
        if r != rows:
            raise ValueError(f"pairs 0 and {k} have matrices of {rows} and {r} rows")


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

    The matrices may be rectangular: each has as many columns as its
    field has components, and all have the same number of rows, one per
    output component; otherwise ValueError, naming the pair, before any
    work.  Each D_x^{-1} term reads its certificate as ``apply_detailed``
    does, pair by pair and entry by entry, before any product is formed,
    so a non-exact antiderivative raises for the same entry.  Each
    distinct (pair, column) antiderivative is appended once as one more
    one-component field, and the term reads it at D_x^0.  Then one
    ``varcalc.operator_sum`` forms every product, the fields at one scale
    and the coefficients at another, with the D_x powers in packed
    tables, and the result equals the sum of the ``apply_detailed``
    results.
    """
    _check_shapes(pairs)
    n = pairs[0][0].shape[0]
    used = [{} for _ in pairs]
    fields = [chain.field for _, chain in pairs]
    at: dict = {}  # (pair, column) -> index of its antiderivative in fields
    rows: list = [[] for _ in range(n)]
    for k, (matrix, chain) in enumerate(pairs):
        for i, row in enumerate(matrix.entries):
            for j, entry in enumerate(row):
                for term in entry:
                    if term.power >= 0:
                        rows[i].append((term.coeff, k, j, term.power))
                        continue
                    cert = used[k][j] = _certificate(chain, i, j)
                    if (k, j) not in at:
                        at[k, j] = len(fields)
                        fields.append(EvoField((cert.antiderivative,)))
                    rows[i].append((term.coeff, at[k, j], 0, 0))
    return EvoField(operator_sum(fields, rows)), used
