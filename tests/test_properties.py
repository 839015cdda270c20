"""Property tests over hypothesis-drawn seeds, scales and class subsets.

Inputs are admissible tensors on canonical and non-canonical structures
(the change of basis of conftest.random_structure). Examples are
derandomized and not stored, so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from acbm.decomposition import NUM_CLASSES, classify, component, decompose
from acbm.structure import canonical_structure
from acbm.tensors import _max_abs, random_structure_tensor

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
    sums of any subset of the eleven components. The absolute floor
    scales with lam: at the fixed default floor a tensor below it is F0
    by design."""
    s, f = sf
    parts = decompose(s, f).components
    g = sum((parts[i - 1] for i in classes), np.zeros_like(f))
    lam = 10.0**exponent
    expected = classify(s, g).present
    assert classify(s, g * lam, abs_floor=lam * 1e-12).present == expected


@_SETTINGS
@given(tensors(), st.integers(1, NUM_CLASSES))
def test_component_is_idempotent(sf, i):
    s, f = sf
    ci = component(s, f, i)
    scale = max(_max_abs(f), 1.0)
    assert _max_abs(component(s, ci, i) - ci) <= 1e-12 * scale
