"""Window tiling, yield allocation, and feature extraction."""

import csv
import io

import numpy as np
import pytest

from hyperfield.config import load_config
from hyperfield.errors import DataError
from hyperfield.subplot import (
    Records,
    allocate_yield,
    build_records,
    extract_features,
    middle_third_ratio,
    read_records_csv,
    read_yields_csv,
    window_counts,
    window_grid_shape,
    write_records_csv,
)

from oracles import identical_yield_fraction

CONFIG = load_config(None)
# [dataset]'s default window size and middle-third tolerance
WINDOW_PX = CONFIG.getint("dataset", "window_px")
MIDDLE_TAU = CONFIG.getfloat("dataset", "middle_tau")


def _random_plot(rng, rows=33, cols=71, bands=7, density=0.4):
    data = rng.uniform(0.0, 1.0, size=(rows, cols, bands))
    mask = rng.uniform(size=(rows, cols)) < density
    return data, mask


class TestTiling:
    def test_window_grid_counts(self):
        assert window_counts(np.ones((30, 75)), 15).shape == (2, 5)
        assert window_counts(np.ones((30, 72)), 15).shape == (2, 5)
        assert window_counts(np.ones((31, 76)), 15).shape == (3, 6)
        assert window_grid_shape(31, 76, 15) == (3, 6)

    def test_row_major_order(self):
        # window (r, c) counts the pixels of rows r*w.. and columns c*w..
        mask = np.zeros((20, 30), dtype=bool)
        for r in range(2):
            for c in range(3):
                mask[r * 10, c * 10 : c * 10 + 3 * r + c + 1] = True
        counts = window_counts(mask, 10)
        assert counts.tolist() == [[1, 2, 3], [4, 5, 6]]
        assert np.flatnonzero(counts).tolist() == list(range(6))

    def test_edge_windows_are_clipped(self):
        counts = window_counts(np.ones((25, 32), dtype=bool), 15)
        assert counts.tolist() == [[225, 225, 30], [150, 150, 20]]  # a 10x2 corner

    def test_every_pixel_in_exactly_one_window(self):
        rows, cols = 47, 61
        for r, c in np.ndindex(rows, cols):
            mask = np.zeros((rows, cols), dtype=bool)
            mask[r, c] = True
            expected = np.zeros(window_grid_shape(rows, cols, 10), dtype=int)
            expected[r // 10, c // 10] = 1
            assert np.array_equal(window_counts(mask, 10), expected)
        # so the counts of any mask add up to its foreground
        rng = np.random.default_rng(5)
        for rows, cols, w in [(47, 61, 10), (30, 90, 15), (7, 3, 2), (16, 16, 16)]:
            mask = rng.uniform(size=(rows, cols)) < 0.4
            assert window_counts(mask, w).sum() == mask.sum()

    def test_counts_match_padded_tiling(self):
        # Clipping the edge windows must agree with padding the mask
        # to a multiple of the window and tiling fully.
        rng = np.random.default_rng(11)
        mask = rng.uniform(size=(28, 44)) < 0.5
        w = 15
        counts = window_counts(mask, w)
        padded = np.zeros((30, 45), dtype=bool)
        padded[:28, :44] = mask
        expected = [
            [int(padded[r : r + w, c : c + w].sum()) for c in range(0, 45, w)]
            for r in range(0, 30, w)
        ]
        assert counts.tolist() == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(DataError, match="^window size must be at least 2, got 0$"):
            window_counts(np.ones((30, 30)), 0)
        with pytest.raises(DataError, match="^window size must be at least 2, got 1$"):
            window_counts(np.ones((30, 30)), 1)
        with pytest.raises(DataError, match="^plot extent 0x30 is empty$"):
            window_counts(np.ones((0, 30)), 10)


class TestAllocation:
    def test_proportional_and_conserving(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            counts = rng.integers(0, 50, size=12)
            if counts.sum() == 0:
                counts[0] = 1
            y = float(rng.uniform(100.0, 900.0))
            alloc = allocate_yield(counts, y)
            assert alloc.sum() == pytest.approx(y, rel=1e-12)
            n = counts.sum()
            for a, c in zip(alloc, counts):
                assert a == pytest.approx(y * c / n, rel=1e-12)

    def test_zero_count_window_gets_zero(self):
        alloc = allocate_yield(np.array([0, 3, 1]), 8.0)
        assert alloc[0] == 0.0
        assert alloc.sum() == pytest.approx(8.0)

    def test_empty_plot_raises(self):
        with pytest.raises(DataError, match="^plot has no foreground pixels; nothing to"):
            allocate_yield(np.zeros(6, dtype=int), 5.0)
        with pytest.raises(DataError, match="^plot has no foreground pixels; nothing to"):
            allocate_yield(np.array([]), 5.0)

    def test_negative_count_rejected(self):
        with pytest.raises(DataError):
            allocate_yield(np.array([2, -1]), 5.0)


class TestFeatures:
    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(7)
        data, mask = _random_plot(rng)
        for r, c in np.ndindex(window_grid_shape(*mask.shape, 15)):
            top, left = 15 * r, 15 * c
            height, width = min(15, mask.shape[0] - top), min(15, mask.shape[1] - left)
            sub_mask = mask[top : top + height, left : left + width]
            if not sub_mask.any():
                continue
            got = extract_features(data, mask, r, c, 15)
            pixels = data[top : top + height, left : left + width][sub_mask]
            expected = np.concatenate(
                [pixels.mean(axis=0), pixels.std(axis=0), [pixels.shape[0]]]
            )
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_background_pixels_do_not_leak(self):
        rng = np.random.default_rng(9)
        data, mask = _random_plot(rng, rows=15, cols=15)
        if not mask.any():
            mask[3, 4] = True
        base = extract_features(data, mask, 0, 0, 15)
        poisoned = data.copy()
        poisoned[~mask] = 1e9
        assert extract_features(poisoned, mask, 0, 0, 15) == pytest.approx(base)

    def test_length_and_count_entry(self):
        assert extract_features(np.ones((10, 10, 190)), np.ones((10, 10)), 0, 0, 10).size == 381
        data = np.ones((10, 10, 4))
        mask = np.zeros((10, 10), dtype=bool)
        mask[:3, :2] = True
        feats = extract_features(data, mask, 0, 0, 10)
        assert feats.size == 2 * 4 + 1
        assert feats[-1] == 6.0
        assert feats[:4] == pytest.approx(np.ones(4))
        assert feats[4:8] == pytest.approx(np.zeros(4))

    def test_empty_window_raises(self):
        data = np.ones((10, 10, 3))
        mask = np.zeros((10, 10), dtype=bool)
        with pytest.raises(DataError):
            extract_features(data, mask, 0, 0, 10)


class TestBuildRecords:
    def test_orders_and_excludes_empty_windows(self):
        rng = np.random.default_rng(21)
        data, mask = _random_plot(rng, rows=30, cols=45, density=0.3)
        mask[:, 15:30] = False  # middle column of windows is empty
        records = build_records("p7", data, mask, 120.0, window_px=15)
        keys = [(row, col) for row, col, _ in records.windows.tolist()]
        assert keys == sorted(keys)
        assert all(c != 1 for _, c in keys)
        assert all(records.windows[:, 2] >= 1)

    def test_surviving_records_conserve_yield(self):
        rng = np.random.default_rng(22)
        data, mask = _random_plot(rng, rows=31, cols=64, density=0.25)
        records = build_records("p1", data, mask, 333.25, window_px=10)
        assert sum(records.yields.tolist()) == pytest.approx(333.25, rel=1e-12)

    def test_yield_tracks_pixel_count(self):
        rng = np.random.default_rng(23)
        data, mask = _random_plot(rng, rows=30, cols=60)
        records = build_records("p1", data, mask, 90.0, window_px=15)
        n_sl = records.windows[:, 2].tolist()
        total = sum(n_sl)
        for n, grams in zip(n_sl, records.yields.tolist()):
            assert grams == pytest.approx(90.0 * n / total, rel=1e-12)

    def test_all_background_raises(self):
        data = np.ones((20, 20, 3))
        mask = np.zeros((20, 20), dtype=bool)
        with pytest.raises(DataError, match="^plot has no foreground pixels; nothing to"):
            build_records("p1", data, mask, 50.0, WINDOW_PX)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match=r"^data \(5, 5, 2\) and mask \(6, 5\) do not align$"):
            build_records("p1", np.ones((5, 5, 2)), np.ones((6, 5), dtype=bool), 1.0, WINDOW_PX)


class TestRecords:
    @pytest.mark.parametrize(
        "columns",
        [
            (["a", "b"], np.zeros((3, 3), int), np.zeros(3), np.zeros((3, 2))),
            (["a", "b", "c"], np.zeros((3, 2), int), np.zeros(3), np.zeros((3, 2))),
            (["a", "b", "c"], np.zeros((3, 3), int), np.zeros(2), np.zeros((3, 2))),
            (["a", "b", "c"], np.zeros((3, 3), int), np.zeros((3, 1)), np.zeros((3, 2))),
            (["a", "b", "c"], np.zeros((3, 3), int), np.zeros(3), np.zeros((2, 2))),
            (["a", "b", "c"], np.zeros((3, 3), int), np.zeros(3), np.zeros(3)),
        ],
        ids=["plot-ids", "windows", "yields", "yields-2d", "features", "features-1d"],
    )
    def test_misaligned_columns_rejected(self, columns):
        with pytest.raises(DataError, match="do not align"):
            Records(*columns)

    def test_length_is_the_row_count(self):
        records = Records(["a", "b"], np.zeros((2, 3), int), np.zeros(2), np.zeros((2, 4)))
        assert len(records) == 2

    def test_concat_keeps_row_order(self):
        rng = np.random.default_rng(32)
        parts = [build_records(f"p{i}", *_random_plot(rng), 10.0 + i, WINDOW_PX) for i in range(3)]
        joined = Records.concat(parts)
        assert joined.plot_ids == [pid for part in parts for pid in part.plot_ids]
        assert np.array_equal(joined.windows, np.concatenate([p.windows for p in parts]))
        assert np.array_equal(joined.yields, np.concatenate([p.yields for p in parts]))
        assert np.array_equal(joined.features, np.concatenate([p.features for p in parts]))

    def test_concat_rejects_differing_feature_lengths(self):
        rng = np.random.default_rng(33)
        parts = [
            build_records("p0", *_random_plot(rng, bands=3), 1.0, WINDOW_PX),
            build_records("p1", *_random_plot(rng, bands=4), 1.0, WINDOW_PX),
        ]
        with pytest.raises(DataError, match="^records carry differing feature lengths$"):
            Records.concat(parts)

    @pytest.mark.parametrize("cuts", [[2], [3, 5], [2, 4]])
    def test_records_joined_over_band_groups_have_the_bits_of_all_bands(self, cuts):
        """A band-major float32 crop, as ``dataset`` reads it, split into
        groups of two bands or more, as ``dataset`` splits it."""
        rng = np.random.default_rng(34)
        data, mask = _random_plot(rng)
        data = np.ascontiguousarray(data.astype(np.float32).transpose(2, 0, 1)).transpose(1, 2, 0)
        whole = build_records("p", data, mask, 12.5, WINDOW_PX)
        groups = np.split(np.arange(data.shape[2]), cuts)
        joined = Records.join_bands(
            [build_records("p", data[:, :, g[0] : g[-1] + 1], mask, 12.5, WINDOW_PX)
             for g in groups]
        )
        assert joined.plot_ids == whole.plot_ids
        assert np.array_equal(joined.windows, whole.windows)
        assert joined.yields.tobytes() == whole.yields.tobytes()
        assert joined.features.tobytes() == whole.features.tobytes()


class TestRecordsCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        data, mask = _random_plot(rng, rows=30, cols=45, bands=5)
        records = build_records("plot-03", data, mask, 217.4, window_px=15)
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        back = read_records_csv(path)
        assert back.plot_ids == records.plot_ids
        assert np.array_equal(back.windows, records.windows)
        assert back.yields.tobytes() == records.yields.tobytes()
        assert back.features.tobytes() == records.features.tobytes()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            read_records_csv(path)

    def test_bytes_are_what_csv_writer_writes(self, tmp_path):
        rng = np.random.default_rng(32)
        records = Records.concat([
            build_records(
                plot_id, *_random_plot(rng, rows=30, cols=45, bands=5), 100.0 + i, WINDOW_PX
            )
            for i, plot_id in enumerate(["P0000", "plot 03", "näher-7"])
        ])
        write_records_csv(tmp_path / "records.csv", records)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["plot_id", "window_row", "window_col", "n_sl", "yield_g"]
                        + [f"f{i + 1}" for i in range(records.features.shape[1])])
        for plot_id, window, grams, features in zip(
            records.plot_ids, records.windows.tolist(), records.yields.tolist(),
            records.features.tolist(),
        ):
            writer.writerow([plot_id, *window, repr(grams), *map(repr, features)])
        with open(tmp_path / "records.csv", newline="") as fh:
            assert fh.read() == expected.getvalue()

    @pytest.mark.parametrize("plot_id", ["", "..", "a,b", 'a"b', "a\nb", "a\rb", "../x", "a\\b"])
    def test_unsafe_plot_id_rejected(self, tmp_path, plot_id):
        records = Records([plot_id], np.ones((1, 3), dtype=np.int64), np.ones(1), np.ones((1, 3)))
        with pytest.raises(DataError, match="unsafe as a file name or CSV field"):
            write_records_csv(tmp_path / "records.csv", records)
        assert not (tmp_path / "records.csv").exists()

    def test_empty_list_rejected(self, tmp_path):
        empty = Records([], np.zeros((0, 3), int), np.zeros(0), np.zeros((0, 3)))
        with pytest.raises(DataError):
            write_records_csv(tmp_path / "none.csv", empty)


def _records(rows):
    """A table of ``(plot_id, window_row, window_col, yield_g)`` rows, one pixel each."""
    return Records(
        [plot_id for plot_id, *_ in rows],
        np.array([(row, col, 1) for _, row, col, _ in rows], dtype=np.int64).reshape(-1, 3),
        np.array([y for *_, y in rows], dtype=np.float64),
        np.zeros((len(rows), 3)),
    )


def _middle_third_ratio(rows, *shape, tau=MIDDLE_TAU):
    records = _records(rows)
    return middle_third_ratio(records.windows, records.yields, *shape, tau)


class TestMiddleThird:
    def test_uniform_plot_is_exactly_one_third(self):
        # 6 window columns split 2/2/2; equal yields put 1/3 in the middle.
        records = [("p", 0, c, 10.0) for c in range(6)]
        fraction, label = _middle_third_ratio(records, 1, 6)
        assert fraction == pytest.approx(1.0 / 3.0)
        assert label == "uniform"

    def test_side_heavy_detection(self):
        records = [("p", 0, c, y) for c, y in enumerate([30, 5, 5, 5, 5, 30])]
        fraction, label = _middle_third_ratio(records, 1, 6)
        assert fraction < 1.0 / 3.0 - 0.05
        assert label == "one-side-heavy"

    def test_middle_heavy_detection(self):
        records = [("p", 0, c, y) for c, y in enumerate([5, 5, 30, 30, 5, 5])]
        fraction, label = _middle_third_ratio(records, 1, 6)
        assert fraction > 1.0 / 3.0 + 0.05
        assert label == "middle-heavy"

    def test_remainder_windows_join_the_middle(self):
        # 7 columns split 2/3/2: only indices 2..4 count as middle.
        records = [("p", 0, c, 1.0) for c in range(7)]
        fraction, _ = _middle_third_ratio(records, 1, 7)
        assert fraction == pytest.approx(3.0 / 7.0)

    def test_long_axis_is_rows_when_taller(self):
        records = [("p", r, 0, y) for r, y in enumerate([1, 10, 10, 10, 1, 1])]
        fraction, label = _middle_third_ratio(records, 6, 1)
        assert fraction == pytest.approx(20.0 / 33.0)
        assert label == "middle-heavy"

    def test_tie_uses_columns(self):
        # 2x2 grid: yields vary across columns only; a row split would
        # see one half, the column split sees the outer columns.
        records = [
            ("p", 0, 0, 10.0),
            ("p", 0, 1, 1.0),
            ("p", 1, 0, 10.0),
            ("p", 1, 1, 1.0),
        ]
        fraction, _ = _middle_third_ratio(records, 2, 2)
        # 2 columns: base 0, middle = [0, 2) = everything.
        assert fraction == pytest.approx(1.0)

    def test_tau_widens_the_uniform_band(self):
        records = [("p", 0, c, y) for c, y in enumerate([12, 10, 10, 10, 10, 12])]
        _, wide = _middle_third_ratio(records, 1, 6, tau=0.2)
        _, tight = _middle_third_ratio(records, 1, 6, tau=0.001)
        assert wide == "uniform"
        assert tight == "one-side-heavy"

    def test_no_records_rejected(self):
        with pytest.raises(DataError):
            _middle_third_ratio([], 1, 6)


class TestIdenticalYieldFraction:
    def test_hand_example(self):
        records = [
            ("a", 0, 0, 5.0),
            ("a", 0, 1, 5.0),
            ("a", 0, 2, 7.0),
            ("b", 0, 0, 5.0),
            ("b", 0, 1, 3.0),
        ]
        # Duplicates within a plot: the two 5.0 records of plot a.
        assert identical_yield_fraction(_records(records)) == pytest.approx(2.0 / 5.0)

    def test_all_distinct_is_zero(self):
        records = [("a", 0, c, float(c)) for c in range(5)]
        assert identical_yield_fraction(_records(records)) == 0.0

    def test_duplicates_counted_per_plot_not_across(self):
        records = [("a", 0, 0, 5.0), ("b", 0, 0, 5.0)]
        assert identical_yield_fraction(_records(records)) == 0.0

    def test_smaller_windows_collide_more(self):
        # A dithered density mask: smaller windows see fewer distinct
        # counts, so more allocations repeat.
        rng = np.random.default_rng(41)
        fractions = {}
        for w in (10, 20):
            parts = []
            for p in range(12):
                mask = rng.uniform(size=(60, 60)) < 0.35
                data = np.ones((60, 60, 2))
                parts.append(build_records(f"p{p}", data, mask, 100.0, window_px=w))
            fractions[w] = identical_yield_fraction(Records.concat(parts))
        assert fractions[10] > fractions[20]


class TestPlotYieldRecord:
    """A row of the yields CSV: one plot's measured yield."""

    @pytest.mark.parametrize("value", ["-5.0", "nan", "inf"])
    def test_rejects_negative_and_non_finite(self, tmp_path, value):
        path = tmp_path / "yields.csv"
        path.write_text(f"plot_id,yield_grams\nP0000,1.5\nP0001,{value}\n")
        with pytest.raises(DataError, match=r"yields\.csv: line 3"):
            read_yields_csv(path)
