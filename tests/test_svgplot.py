"""Chart rendering tests: structure, determinism, and input validation."""

import math
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from tscnet.errors import TscnetError
from tscnet.svgplot import PALETTE, line_chart, scatter_chart


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def count_ticks(svg: str) -> int:
    """Tick labels on both axes: the 11-point text elements."""
    return len(re.findall(r'<text [^>]*font-size="11"', svg))


class TestLineChart:
    def test_well_formed_with_markers(self):
        svg = line_chart([1, 2, 3], [0.5, 0.25, 0.75], "t", "x", "y")
        root = parse(svg)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        # 3 samples <= 30, so each gets a point marker
        assert svg.count("<circle") == 3
        assert svg.count("<polyline") == 1

    def test_many_samples_skip_markers(self):
        n = 200
        svg = line_chart(range(n), [v * 0.001 for v in range(n)], "t", "x", "y")
        assert svg.count("<circle") == 0
        start = svg.index('<polyline points="') + len('<polyline points="')
        coords = svg[start:svg.index('"', start)]
        assert len(coords.split()) == n

    def test_deterministic(self):
        args = ([1, 2, 4], [9.0, 3.0, 1.0], "loss", "epoch", "mse")
        assert line_chart(*args) == line_chart(*args)

    def test_constant_series(self):
        svg = line_chart([1, 2, 3], [5.0, 5.0, 5.0], "flat", "x", "y")
        parse(svg)

    def test_single_point(self):
        svg = line_chart([3], [0.0], "one", "x", "y")
        parse(svg)

    def test_title_escaped(self):
        svg = line_chart([1, 2], [1, 2], "a < b & c", "x", "y")
        parse(svg)
        assert "a &lt; b &amp; c" in svg

    def test_empty_rejected(self):
        with pytest.raises(TscnetError, match=r"^need matching non-empty series, got 0 x 0$"):
            line_chart([], [], "t", "x", "y")

    def test_length_mismatch_rejected(self):
        with pytest.raises(TscnetError, match=r"^need matching non-empty series, got 2 x 1$"):
            line_chart([1, 2], [1], "t", "x", "y")

    @pytest.mark.parametrize("ys", [
        # one float apart: a tick step of the span's size does not move a float this large
        [0.1456654466814668, 0.14566544668146683],
        [0.25, 0.25 + 5e-17],
        # subnormal: a tenth of 5e-324 is 0, and so is 10.0 ** -324
        [5e-324, 5e-324],
        [0.0, 4.4e-323],
    ])
    def test_nearly_flat_series_drawn_flat(self, ys):
        svg = line_chart([1, 2], ys, "t", "x", "y")
        parse(svg)
        assert count_ticks(svg) <= 2 * 7

    @pytest.mark.parametrize("top", [1.0 + 1e-8, 1.0 + 1e-7])
    def test_tick_labels_tell_ticks_apart(self, top):
        # six significant digits would label every tick of these spans "1"
        svg = line_chart([1, 2], [1.0, top], "t", "x", "y")
        labels = re.findall(r'<text [^>]*text-anchor="end"[^>]*>([^<]*)</text>', svg)
        assert len(labels) >= 2
        assert len(set(labels)) == len(labels)
        assert [float(v) for v in labels] == sorted(float(v) for v in labels)

    def test_span_past_float_range_rejected(self):
        with pytest.raises(TscnetError, match=r"^chart values span more than a float can hold$"):
            line_chart([1, 2], [1e308, -1e308], "t", "x", "y")


class TestScatterChart:
    POINTS = [
        (0.1, 0.9, 0, False),
        (0.2, 0.5, 1, False),
        (0.3, -0.1, 2, True),
        (0.5, 1.5, 3, True),
        (0.15, 0.85, 0, False),
    ]

    def test_well_formed(self):
        svg = scatter_chart(self.POINTS, "t", "vol", "ret", 4)
        root = parse(svg)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"

    def test_miss_markers_counted(self):
        svg = scatter_chart(self.POINTS, "t", "vol", "ret", 4)
        assert svg.count('class="miss"') == 2

    def test_misses_get_ring_plus_dot(self):
        svg = scatter_chart(self.POINTS, "t", "vol", "ret", 4)
        # 5 data points + 2 rings + 4 legend swatches
        assert svg.count("<circle") == 11

    def test_legend_lists_every_cluster(self):
        svg = scatter_chart(self.POINTS, "t", "vol", "ret", 4)
        for c in range(4):
            assert f"cluster {c}</text>" in svg
        assert "cluster 4" not in svg

    def test_colors_follow_palette(self):
        svg = scatter_chart([(0.0, 0.0, 2, False)], "t", "x", "y", 3)
        assert f'fill="{PALETTE[2]}"' in svg

    def test_deterministic(self):
        assert scatter_chart(self.POINTS, "t", "x", "y", 4) == scatter_chart(
            self.POINTS, "t", "x", "y", 4
        )

    def test_degenerate_extent(self):
        svg = scatter_chart([(1.0, 2.0, 0, False), (1.0, 2.0, 1, True)], "t", "x", "y", 2)
        parse(svg)

    def test_empty_rejected(self):
        with pytest.raises(TscnetError, match=r"^no points to plot$"):
            scatter_chart([], "t", "x", "y", 2)

    def test_cluster_count_bounds(self):
        with pytest.raises(TscnetError, match=r"^num_clusters must be >= 1, got 0$"):
            scatter_chart(self.POINTS, "t", "x", "y", 0)

    def test_legend_cycles_palette_past_ten_clusters(self):
        k = len(PALETTE) + 1
        svg = scatter_chart(self.POINTS + [(0.4, 0.2, k - 1, False)], "t", "x", "y", k)
        fills = [c.get("fill") for c in parse(svg).iter("{http://www.w3.org/2000/svg}circle")]
        # 5 points + 2 rings, the cluster-10 point, then one legend swatch per cluster
        assert fills[7] == PALETTE[0]
        assert fills[-k:] == [PALETTE[c % len(PALETTE)] for c in range(k)]
        assert f">cluster {k - 1}</text>" in svg


finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(deadline=None, max_examples=200)
@given(finite, finite, st.integers(min_value=0, max_value=60))
def test_any_finite_values_give_a_bounded_chart(a, b, ulps):
    # b, and a moved by a few floats, cover the near-flat spans as well as wide ones
    near = a
    for _ in range(ulps):
        near = math.nextafter(near, math.inf)
    for ys in ([a, b], [a, near]):
        try:
            svg = line_chart([0, 1], ys, "t", "x", "y")
        except TscnetError as exc:
            assert str(exc) == "chart values span more than a float can hold"
            continue
        parse(svg)
        assert count_ticks(svg) <= 2 * 7
