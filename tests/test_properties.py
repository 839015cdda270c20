"""Property tests over hypothesis-drawn seeds, scales and class subsets,
over single-entry moves of a dimension-3 tensor and over malformed
document fields.

Inputs are admissible tensors on canonical and non-canonical structures
(the change of basis of conftest.random_structure). Examples are
derandomized and not stored, so every run checks the same cases.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acbm.cli import main
from acbm.decomposition import NUM_CLASSES, classify, component, decompose
from acbm.structure import DEFAULT_RTOL, _max_abs, canonical_structure
from acbm.tensors import _scale, is_structure_tensor, random_structure_tensor

from conftest import random_structure

_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_SEEDS = st.integers(0, 2**31 - 1)


@st.composite
def tensors(draw):
    """(structure, admissible tensor) with n in 1..3, canonical or not."""
    n, seed = draw(st.integers(1, 3)), draw(_SEEDS)
    s = canonical_structure(n) if draw(st.booleans()) else random_structure(n, seed)
    return s, random_structure_tensor(s, seed)


@_SETTINGS
@given(tensors(), st.sets(st.integers(1, NUM_CLASSES)), st.integers(-150, 150))
def test_classify_is_scale_free(sf, classes, exponent):
    """The class set of lam F is that of F for lam = 10^-150..10^150, on
    sums of any subset of the eleven components: the class threshold is
    relative to the tensor's own max-abs."""
    s, f = sf
    parts = decompose(s, f).components
    g = sum((parts[i - 1] for i in classes), np.zeros_like(f))
    lam = 10.0**exponent
    expected = classify(s, g).present
    assert classify(s, g * lam).present == expected


@pytest.mark.parametrize("i", range(1, NUM_CLASSES + 1))
@_SETTINGS
@given(tensors())
def test_component_is_idempotent(i, sf):
    """component_i fixes its own output and component_j kills it, j != i: within
    1e-12 of max(1, max-abs f). decompose gives each component_j, bit for bit
    (tests/test_kernel.py). At n = 1, F2, F3, F6 and F7 are 0, so their
    components are rounding noise, which the gate refuses in a changed basis."""
    s, f = sf
    if s.n == 1 and i in (2, 3, 6, 7):
        return
    ci = component(s, f, i)
    want = np.zeros((NUM_CLASSES,) + f.shape)
    want[i - 1] = ci
    assert _max_abs(decompose(s, ci).components - want) <= 1e-12 * max(_max_abs(f), 1.0)


# The eighteen entry relations of an admissible tensor in dimension 3 over the
# canonical structure, slot symmetry and the phi relation written out: nine
# pairs of index triples that agree and nine triples that vanish. They involve
# 27 distinct entries and are independent, so they cut out a space of
# dimension 9, the admissible space at n = 1. An oracle independent of the
# membership gate.
_DIM3_EQUAL_PAIRS = (
    ((1, 0, 1), (1, 1, 0)),
    ((2, 0, 2), (2, 2, 0)),
    ((1, 0, 2), (1, 2, 0)),
    ((2, 0, 1), (2, 1, 0)),
    ((0, 1, 1), (0, 2, 2)),
    ((0, 0, 1), (0, 1, 0)),
    ((0, 0, 2), (0, 2, 0)),
    ((1, 1, 1), (1, 2, 2)),
    ((2, 1, 1), (2, 2, 2)),
)
_DIM3_ZERO_TRIPLES = (
    (0, 0, 0),
    (1, 0, 0),
    (2, 0, 0),
    (0, 1, 2),
    (0, 2, 1),
    (1, 1, 2),
    (1, 2, 1),
    (2, 2, 1),
    (2, 1, 2),
)


def _dim3_oracle_admits(c: np.ndarray) -> bool:
    """The eighteen relations, each within DEFAULT_RTOL relative to _scale(c):
    the bound of the membership gate."""
    bound = DEFAULT_RTOL * _scale(c)
    pairs_agree = all(abs(c[left] - c[right]) <= bound for left, right in _DIM3_EQUAL_PAIRS)
    return pairs_agree and all(abs(c[triple]) <= bound for triple in _DIM3_ZERO_TRIPLES)


@pytest.mark.parametrize("entry", list(np.ndindex(3, 3, 3)))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    exponent=st.integers(-12, 12),
    size=st.floats(-11.0, -6.0),
    negative=st.booleans(),
)
def test_dim3_gate_agrees_with_the_eighteen_relations(entry, seed, exponent, size, negative):
    """One entry of an admissible tensor of max-abs about 10^exponent, moved by
    10^size of that magnitude: the gate admits it exactly when the eighteen
    relations hold."""
    s = canonical_structure(1)
    f = random_structure_tensor(s, seed) * 10.0**exponent
    c = np.array(f)
    c[entry] += (-1.0 if negative else 1.0) * 10.0**size * _max_abs(f)
    assert is_structure_tensor(s, c) is _dim3_oracle_admits(c)


_NUMBER = st.floats(allow_nan=False, allow_infinity=False, width=32) | st.integers(-9, 9)
_NOT_A_NUMBER = (
    st.dictionaries(st.text(max_size=2), _NUMBER, max_size=2)
    | st.text(max_size=4)
    | st.none()
    | st.booleans()
    | st.lists(_NUMBER, min_size=1, max_size=2)
)


@st.composite
def malformed_fields(draw):
    """(n, field, value): a value that no array field of dimension d = 2n + 1 accepts."""
    n = draw(st.integers(1, 2))
    d = 2 * n + 1
    field, size = draw(st.sampled_from([("comps", d**3), ("g", d * d), ("phi", d * d),
                                        ("xi", d), ("eta", d), ("coeffs", d)]))
    flat = [0.0] * size
    at = draw(st.integers(0, size - 1))
    kind = draw(st.sampled_from(["scalar", "entry", "non-finite", "length", "ragged"]))
    if kind == "scalar":  # an object, a string, null, a bool or a bare number
        value = draw(_NOT_A_NUMBER | _NUMBER)
    elif kind == "entry":  # one entry among numbers is not a number
        value = flat[:at] + [draw(_NOT_A_NUMBER)] + flat[at + 1:]
    elif kind == "non-finite":
        value = flat[:at] + [draw(st.sampled_from([np.nan, np.inf, -np.inf]))] + flat[at + 1:]
    elif kind == "length":
        value = draw(st.lists(_NUMBER, max_size=size + 2).filter(lambda v: len(v) != size))
    else:  # rows of unequal length
        value = [flat[:d], flat[:draw(st.integers(0, d - 1))]] + [flat[:d]] * (d - 2)
    return n, field, value


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(malformed_fields())
def test_malformed_document_fields_end_in_one_line(tmp_path_factory, nfv):
    """Every malformed array field of a document exits 2 or 3 with one
    stderr line naming the field and nothing on stdout; an escaping
    exception (a traceback at the command line) fails the test."""
    n, field, value = nfv
    d = 2 * n + 1
    if field == "coeffs":
        name, doc = "brackets[0].coeffs", {"n": n, "brackets": [{"i": 0, "j": 1, "coeffs": value}]}
    else:
        name, doc = field, {"n": n, "comps": [0.0] * d**3, field: value}
    path = tmp_path_factory.mktemp("doc") / "malformed.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["classify", str(path)])
    assert status in (2, 3)
    assert out.getvalue() == ""
    assert err.getvalue().startswith(f"error: {name} ")
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
