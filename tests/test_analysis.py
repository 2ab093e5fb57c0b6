"""Tests for :mod:`repro.analysis` — numpy kernels, tables, plots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.distributions import (
    DistributionSummary,
    directed_summary,
    eq5_comparison_rows,
    figure2_series,
    normalized_gap_rows,
    undirected_summary,
)
from repro.analysis.exact import (
    directed_average_distance,
    directed_bfs_distance_matrix,
    directed_distance_matrix,
    distance_histogram,
    undirected_average_distance,
    undirected_distance_matrix,
)
from repro.analysis.tables import format_kv_block, format_table
from repro.analysis.textplot import render_plot
from repro.core.average_distance import (
    directed_average_distance_exact,
    undirected_average_distance_exact,
)
from repro.core.distance import directed_distance, undirected_distance
from repro.core.packed import PackedSpace
from repro.core.word import iter_words
from repro.exceptions import InvalidParameterError


# ----------------------------------------------------------------------
# Vectorised kernels vs pure-Python ground truth
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_directed_matrix_matches_pure_function(d, k):
    matrix = directed_distance_matrix(d, k)
    space = PackedSpace(d, k)
    for x in iter_words(d, k):
        for y in iter_words(d, k):
            assert matrix[space.pack(x), space.pack(y)] == directed_distance(x, y)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_undirected_matrix_matches_pure_function(d, k):
    matrix = undirected_distance_matrix(d, k)
    space = PackedSpace(d, k)
    for x in iter_words(d, k):
        for y in iter_words(d, k):
            assert matrix[space.pack(x), space.pack(y)] == undirected_distance(x, y)


@pytest.mark.parametrize("d,k", [(2, 4), (3, 3), (2, 6)])
def test_directed_formula_matrix_equals_bfs_matrix(d, k):
    assert np.array_equal(directed_distance_matrix(d, k), directed_bfs_distance_matrix(d, k))


def test_matrices_have_no_unreached_entries():
    for matrix in (undirected_distance_matrix(2, 5), directed_bfs_distance_matrix(2, 5)):
        assert (matrix >= 0).all()
        assert (matrix <= 5).all()


def test_average_helpers_match_core_enumeration():
    assert directed_average_distance(2, 3) == pytest.approx(directed_average_distance_exact(2, 3))
    assert undirected_average_distance(2, 3) == pytest.approx(
        undirected_average_distance_exact(2, 3)
    )


def test_memory_guard_rejects_huge_graphs():
    with pytest.raises(InvalidParameterError):
        directed_distance_matrix(2, 30)


def test_distance_histogram_counts_all_pairs():
    histogram = distance_histogram(directed_distance_matrix(2, 3))
    assert sum(histogram.values()) == 64
    assert histogram[0] == 8  # exactly the diagonal


# ----------------------------------------------------------------------
# Distribution summaries and experiment rows
# ----------------------------------------------------------------------


def test_summary_moments():
    summary = DistributionSummary.from_histogram({0: 1, 2: 3})
    assert summary.mean == pytest.approx(1.5)
    assert summary.minimum == 0 and summary.maximum == 2
    assert summary.total_pairs == 4
    assert summary.std == pytest.approx(np.sqrt((1 * 1.5**2 + 3 * 0.5**2) / 4))


def test_directed_summary_mean_matches_exact():
    assert directed_summary(2, 4).mean == pytest.approx(directed_average_distance_exact(2, 4))


def test_undirected_summary_bounds():
    summary = undirected_summary(2, 4)
    assert summary.minimum == 0 and summary.maximum == 4


def test_eq5_rows_show_positive_gap_for_k_ge_2():
    rows = eq5_comparison_rows(d_values=(2, 3), k_max=4)
    for d, k, closed, measured, gap in rows:
        assert gap == pytest.approx(closed - measured)
        if k >= 2:
            assert gap > 0
        else:
            assert gap == pytest.approx(0.0)


def test_figure2_series_monotone_in_k():
    series = figure2_series(d_values=(2, 3), k_max=6, cell_guard=262_144)
    for d, points in series.items():
        ks = [k for k, _ in points]
        means = [m for _, m in points]
        assert ks == sorted(ks)
        assert means == sorted(means)  # average distance grows with k


def test_normalized_gap_rows_shape():
    series = {2: [(1, 0.5), (2, 0.875)]}
    rows = normalized_gap_rows(series)
    assert rows == [(2, 1, 0.5, 0.5), (2, 2, 0.875, 1.125)]


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------


def test_format_table_alignment_and_precision():
    text = format_table(["d", "mean"], [[2, 1.84375]], precision=3)
    lines = text.splitlines()
    assert lines[0].startswith("d")
    assert "1.844" in lines[2]


def test_format_table_bool_rendering():
    assert "yes" in format_table(["ok"], [[True]])


def test_format_kv_block():
    block = format_kv_block("Title", [("key", 1.23456)], precision=2)
    assert block.splitlines()[0] == "Title"
    assert "key: 1.23" in block


def test_render_plot_contains_markers_and_legend():
    plot = render_plot({"d=2": [(1, 0.5), (2, 1.0)], "d=3": [(1, 0.7), (2, 1.4)]})
    assert "o = d=2" in plot
    assert "x = d=3" in plot
    assert "|" in plot


def test_render_plot_empty():
    assert render_plot({}) == "(no data)"


def test_render_plot_single_point():
    plot = render_plot({"s": [(1.0, 2.0)]})
    assert "o = s" in plot
