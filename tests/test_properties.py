"""Property tests: exact invariants of the pipeline over drawn chains.

hypothesis draws the chains with derandomize=True, so every run tries the
same examples; the module skips where hypothesis is not installed.  The
examples stay small (N <= 400) so that the whole module runs in about 2 s.
"""

import numpy as np
import pytest

from kitaevchain import entropy
from kitaevchain.entropy import block_entropy_curve, block_spectra
from kitaevchain.model import ChainParams
from kitaevchain.pairing import majorana_rows, majorana_table, signed_rows

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given
# Reporting a failing example imports mypy_extensions where it is installed;
# its DeprecationWarning, an error under the ini's filterwarnings, would turn
# the report into a pytest internal error.
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict:DeprecationWarning")

SETTINGS = hypothesis.settings(derandomize=True, max_examples=25, deadline=None, database=None)

# Couplings and field of order one, either sign; a field of 0 is drawn too.
coupling = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda x: abs(x) >= 0.05)
field = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def chains(draw, min_sites=8, max_sites=400):
    """(ChainParams, L) with N a multiple of 4 and 1 <= L < N."""
    n = 4 * draw(st.integers(min_sites // 4, max_sites // 4))
    p = ChainParams(n, draw(coupling), draw(coupling), draw(field))
    return p, draw(st.integers(1, n - 1))


@SETTINGS
@given(chains())
def test_occupations_lie_between_zero_and_one_half(chain):
    p, length = chain
    [(_, nu)] = block_spectra(p, [length])
    assert len(nu) == length
    assert np.all((nu >= 0.0) & (nu <= 0.5)), nu


@SETTINGS
@given(chains())
def test_entropy_of_a_block_equals_its_complement(chain):
    # A pure state: S(L) = S(N - L), whichever route each side takes.
    p, length = chain
    bits = dict(block_entropy_curve(p, [length, p.n_sites - length]))
    assert abs(bits[length] - bits[p.n_sites - length]) <= 1e-12, bits


@SETTINGS
@given(chains())
def test_entropy_is_even_in_the_field(chain):
    p, length = chain
    flipped = ChainParams(p.n_sites, p.j_x, p.j_y, -p.h_field)
    [(_, bits)] = block_entropy_curve(p, [length])
    [(_, mirror)] = block_entropy_curve(flipped, [length])
    assert abs(bits - mirror) <= 1e-11, (bits, mirror)


@SETTINGS
@given(chains())
def test_odd_blocks_do_not_tell_the_couplings_apart(chain):
    # Reflecting an odd block about its centre maps it onto itself and
    # swaps the chain's x and y bonds, so S is unchanged when J_x and J_y swap.
    p, length = chain
    length -= 1 - length % 2
    swapped = ChainParams(p.n_sites, p.j_y, p.j_x, p.h_field)
    [(_, bits)] = block_entropy_curve(p, [length])
    [(_, mirror)] = block_entropy_curve(swapped, [length])
    assert abs(bits - mirror) <= 1e-12, (length, bits, mirror)


@SETTINGS
@given(chains(min_sites=132))
def test_tail_bound_covers_the_exact_mass_outside_the_window(chain):
    # The whole B laid out, its window at the cuts zeroed (the first and
    # last w rows against the first and last w columns), and the rest
    # summed directly.
    p, length = chain
    w = 4 * entropy.START_COLUMNS
    rows = signed_rows(majorana_table(p))
    cross = majorana_rows(rows, length, length, p.n_sites)
    cross[:w, :w] = cross[:w, -w:] = cross[-w:, :w] = cross[-w:, -w:] = 0.0
    outside = float(np.square(cross).sum())
    assert outside <= entropy._tail_bound(rows, w), (outside, entropy._tail_bound(rows, w))
