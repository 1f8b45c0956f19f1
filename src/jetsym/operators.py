"""Matrices of formal operators sum coeff * D_x^p with p >= -1.

Only application to evolutionary fields is provided, never operator
composition: D_x^{-1} appears at most once per term, rightmost.
``apply_detailed`` reads it as the constructive antiderivative with
integration constant zero, and applying it to anything outside Im D_x
raises NonlocalObstruction carrying the nonzero remainder.  ``apply_sum``,
the packed path, takes local terms only: ``hierarchy.frame_matrices``
writes the recursion as two matrices on the frame (A, q), where it is local.
"""

from __future__ import annotations

from typing import NamedTuple

from .coeffield import accumulate
from .errors import NonlocalObstruction
from .jetalgebra import DiffPoly, EvoField
from .varcalc import DxChain, integrate_dx, operator_sum


class _OpTermFields(NamedTuple):
    coeff: DiffPoly
    power: int


class OpTerm(_OpTermFields):
    """One summand coeff * D_x^power; power -1 is the nonlocal piece."""

    __slots__ = ()

    # the check sits on a subclass: a NamedTuple body may not define __new__
    def __new__(cls, coeff: DiffPoly, power: int):
        if power < -1:
            raise ValueError("operator powers below D_x^{-1} are not supported")
        return super().__new__(cls, coeff, power)

    @classmethod
    def _make(cls, iterable):  # and so _replace: both run the checks of __new__
        return cls(*iterable)


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
        against, and the one application that reads D_x^{-1} itself: each
        column a D_x^{-1} term reads is integrated by ``integrate_dx`` once
        per call, and a non-exact antiderivative raises NonlocalObstruction
        naming the entry (i, j).  The D_x powers come from the chain.  The
        returned certificates are keyed by the column index, one for each
        column this matrix integrates.  A field whose component count is
        not the column count raises ValueError.
        """
        _check_shapes([(self, chain.field)])
        used: dict = {}
        comps = []
        for i, row in enumerate(self.entries):
            acc: dict = {}
            for j, entry in enumerate(row):
                for term in entry:
                    if term.power >= 0:
                        image = chain.get(j, term.power)
                    else:
                        if j not in used:
                            cert = integrate_dx(chain.field[j])
                            if not cert.is_exact:
                                raise NonlocalObstruction(cert.remainder, entry=(i, j))
                            used[j] = cert
                        image = used[j].antiderivative
                    accumulate(acc, (term.coeff * image).terms.items())
            comps.append(DiffPoly(acc))
        return EvoField(comps), used


def _check_shapes(pairs):
    """Raise ValueError, naming the pair, when a matrix's column count is
    not its field's component count, or when two matrices' row counts
    differ."""
    if not pairs:
        raise ValueError("no (matrix, field) pairs to apply")
    rows = pairs[0][0].shape[0]
    for k, (matrix, field) in enumerate(pairs):
        r, c = matrix.shape
        if c != len(field):
            raise ValueError(f"pair {k}: a matrix of {c} columns on a field of "
                             f"{len(field)} components")
        if r != rows:
            raise ValueError(f"pairs 0 and {k} have matrices of {rows} and {r} rows")


def apply_sum(pairs) -> EvoField:
    """The sum of matrix.field over (matrix, field) pairs, on ints.

    The matrices may be rectangular: each has as many columns as its
    ``EvoField`` has components, and all have the same number of rows, one
    per output component; otherwise ValueError, naming the pair, before
    any work.  Every term is local: a D_x^{-1} term raises ValueError
    naming the pair and the entry, before any work (a caller that holds
    an antiderivative passes it as a field, as ``hierarchy.fs_step`` passes
    the frames (A, q)).
    One ``varcalc.operator_sum`` forms every product, the fields cleared
    together to one scale and the coefficients to another, with the D_x
    powers in packed tables, and the result equals the sum of the
    ``apply_detailed`` results on the fields.
    """
    _check_shapes(pairs)
    rows: list = [[] for _ in pairs[0][0].entries]
    for k, (matrix, _) in enumerate(pairs):
        for i, row in enumerate(matrix.entries):
            for j, entry in enumerate(row):
                for term in entry:
                    if term.power < 0:
                        raise ValueError(f"pair {k}: a D_x^{{-1}} term at entry ({i}, {j})")
                    rows[i].append((term.coeff, k, j, term.power))
    return EvoField(operator_sum([field for _, field in pairs], rows))
