"""Exactness of a short exact sequence, decided whole, against its labels.

``validate_exact`` decides the three-term complexes C'_q -> C_q -> C''_q of
all degrees whole and cuts them to a label only to name a failure.
Here it meets random split sequences C' -> C' ⊕ C'' -> C'' over Z, Q and
Z/2, drawn with the generators of ``tests/test_reduced_cone.py``: C' and C''
are each a sum of R and of R --c--> R, every piece at one label, plus a
part with no differential.  The sequence is left split, or one or two
entries of i or j at generators of that part are doubled or zeroed, which
keeps both maps chain maps with j∘i = 0 and breaks exactness at those
generators' labels and degrees, unless 2 is a unit.  Then all three sides
are mixed by changes of basis within each label.  The verdict and the named
label must be those of the label-by-label oracle (``tests/oracles.py``), and
the named degree the lowest one the oracle finds at that label.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from rkdual.linalg import ChainComplexError
from rkdual.rings import GF2, QQ, ZZ
from rkdual.rkcore import RKMap, validate_exact
from rkdual.simplicial import simplex_name

from oracles import exactness_by_components
from test_reduced_cone import (DEGREES, as_complex, as_matrix, complexes,
                               direct_sum, mix, zeros)


def eye(n):
    return [[int(a == b) for b in range(n)] for a in range(n)]


def with_free_part(draw):
    """A complex from ``complexes`` summed with one with no differential,
    and per degree the positions of the second one's generators."""
    body, free = draw(complexes()), draw(complexes(3, False))
    return direct_sum(body, free), {
        q: range(len(body[0][q]), len(body[0][q]) + len(free[0][q]))
        for q in DEGREES}


@st.composite
def split_sequences(draw, ring):
    """(i, j, exact): a random split sequence of RKMaps, perhaps with one or
    two entries at generators with no differential doubled or zeroed, and
    whether it is still exact."""
    (sub, sub_free), (quo, quo_free) = (with_free_part(draw) for _ in "sq")
    mid = direct_sum(sub, quo)
    n, m = ({q: len(cx[0][q]) for q in DEGREES} for cx in (sub, quo))
    i = {q: eye(n[q]) + zeros(m[q], n[q]) for q in DEGREES}
    j = {q: [[0] * n[q] + row for row in eye(m[q])] for q in DEGREES}
    spots = ([(i, q, k, k) for q in DEGREES for k in sub_free[q]]
             + [(j, q, k, n[q] + k) for q in DEGREES for k in quo_free[q]])
    kind = draw(st.sampled_from(("split", "double", "zero")))
    if kind != "split" and spots:
        for rows, q, r, c in draw(st.lists(st.sampled_from(spots),
                                           min_size=1, max_size=2)):
            rows[q][r][c] *= 2 if kind == "double" else 0
    exact = kind == "split" or not spots or (kind == "double" and ring is QQ)
    mix(draw, sub, out=[i])
    mix(draw, mid, into=[i], out=[j])
    mix(draw, quo, into=[j])
    middle = as_complex(ring, mid)

    def rkmap(src, tgt, comps):
        return RKMap(src, tgt, {q: as_matrix(ring, rows, tgt.rank(q),
                                             src.rank(q))
                                for q, rows in comps.items()})
    return (rkmap(as_complex(ring, sub), middle, i),
            rkmap(middle, as_complex(ring, quo), j), exact)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2], ids=["Z", "Q", "Z2"])
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_exactness_is_decided_as_its_labels_decide_it(ring, data):
    i, j, exact = data.draw(split_sequences(ring))
    found = exactness_by_components(i, j)
    assert (found is None) == exact
    if found is None:
        assert validate_exact(i, j) is None
        return
    sigma, degrees = found
    with pytest.raises(ChainComplexError, match=(
            f"^not exact at label {re.escape(simplex_name(sigma))}, "
            f"degree {degrees[0]}$")):
        validate_exact(i, j)
