"""segment's hole filling, opening and labelling equal scipy.ndimage's.

scipy is a test-only dependency: it is the reference these numpy
implementations are checked against, byte for byte, on masks that a
derandomized hypothesis sweep draws.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperfield import segment

ndimage = pytest.importorskip("scipy.ndimage")


def _scipy_plots(mask, min_area_px):
    """``extract_plots`` as scipy's ``label``, ``sum_labels`` and ``find_objects`` give it."""
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    boxes = []
    if count:
        areas = ndimage.sum_labels(mask, labels, index=np.arange(1, count + 1))
        for idx, sl in enumerate(ndimage.find_objects(labels)):
            if areas[idx] >= min_area_px:
                boxes.append(
                    segment.PlotBox(
                        top=int(sl[0].start),
                        left=int(sl[1].start),
                        height=int(sl[0].stop - sl[0].start),
                        width=int(sl[1].stop - sl[1].start),
                        area_px=int(areas[idx]),
                    )
                )
    boxes.sort(key=lambda b: (b.top, b.left))
    return boxes


@st.composite
def masks(draw):
    """Random bits, or rectangles that may touch the border with holes cut in them."""
    rows = draw(st.integers(1, 16), label="rows")
    cols = draw(st.integers(1, 16), label="cols")
    if draw(st.booleans(), label="bits"):
        bits = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
        return np.array(bits, dtype=bool).reshape(rows, cols)
    mask = np.zeros((rows, cols), dtype=bool)
    rects = st.tuples(
        st.integers(0, rows - 1), st.integers(0, cols - 1),
        st.integers(1, rows), st.integers(1, cols),
    )
    for value in (True, False):  # blobs, then holes in them
        for top, left, height, width in draw(st.lists(rects, max_size=5)):
            mask[top : top + height, left : left + width] = value
    return mask


def _same_bytes(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


# Two components whose boxes both start at (0, 2): a bar down column 2,
# and a hook from (0, 5) down and back along row 4.
SHARED_CORNER = np.array(
    [
        [0, 0, 1, 0, 0, 1],
        [0, 0, 1, 0, 0, 1],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 1, 1, 1, 1],
    ],
    dtype=bool,
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    mask=masks(),
    se=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    min_area_px=st.integers(1, 6),
)
@example(mask=np.zeros((7, 9), dtype=bool), se=(3, 2), min_area_px=1)
@example(mask=np.ones((7, 9), dtype=bool), se=(2, 3), min_area_px=1)
@example(mask=np.ones((4, 5), dtype=bool), se=(6, 7), min_area_px=1)
@example(mask=np.array([[1, 1, 0, 1, 1, 1, 0, 0, 1]], dtype=bool), se=(1, 2), min_area_px=1)
@example(mask=np.array([[1, 1, 0, 1, 1, 1, 0, 0, 1]], dtype=bool).T, se=(3, 1), min_area_px=1)
@example(mask=SHARED_CORNER, se=(1, 1), min_area_px=1)
def test_morphology_matches_scipy(mask, se, min_area_px):
    _same_bytes(segment.fill_holes(mask), ndimage.binary_fill_holes(mask))
    _same_bytes(
        segment.binary_open(mask, se=se),
        ndimage.binary_opening(mask, structure=np.ones(se, dtype=bool)),
    )
    assert segment.extract_plots(mask, min_area_px) == _scipy_plots(mask, min_area_px)


def test_shared_corner_boxes_keep_scan_order():
    boxes = segment.extract_plots(SHARED_CORNER, min_area_px=1)
    assert [(b.top, b.left, b.area_px) for b in boxes] == [(0, 2, 2), (0, 2, 8)]
