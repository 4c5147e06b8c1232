"""Cardinality heatmaps for the Performance Insight Assistant (Figure 6).

The assistant helps a developer choose cardinality limits by showing how the
predicted 99th-percentile latency of a query varies with the candidate
limits.  For SCADr's thoughtstream query the two knobs are the maximum
number of subscriptions per user and the number of records returned per
page; Figure 6 of the paper is exactly that grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from .model import OperatorModelKey, OperatorRequirement, QueryLatencyModel
from .slo import ServiceLevelObjective


@dataclass
class Heatmap:
    """A 2-D grid of predicted high-quantile latencies (seconds)."""

    row_label: str
    column_label: str
    row_values: List[int]
    column_values: List[int]
    cells_seconds: List[List[float]]        # cells[row][column]

    def cell_ms(self, row_value: int, column_value: int) -> float:
        row = self.row_values.index(row_value)
        column = self.column_values.index(column_value)
        return self.cells_seconds[row][column] * 1000.0

    def acceptable_settings(
        self, slo: ServiceLevelObjective
    ) -> List[tuple]:
        """(row_value, column_value) pairs whose prediction meets the SLO."""
        acceptable = []
        for i, row_value in enumerate(self.row_values):
            for j, column_value in enumerate(self.column_values):
                if self.cells_seconds[i][j] <= slo.latency_seconds:
                    acceptable.append((row_value, column_value))
        return acceptable

    def render(self, as_milliseconds: bool = True) -> str:
        """Plain-text rendering in the same layout as the paper's Figure 6."""
        lines = [f"{self.row_label} (rows) x {self.column_label} (columns)"]
        header = "      " + " ".join(f"{c:>6}" for c in self.column_values)
        lines.append(header)
        for row_value, row in zip(self.row_values, self.cells_seconds):
            cells = " ".join(
                f"{(cell * 1000.0 if as_milliseconds else cell):>6.0f}" for cell in row
            )
            lines.append(f"{row_value:>5} {cells}")
        return "\n".join(lines)


def prediction_heatmap(
    predict: Callable[[int, int], float],
    row_values: Sequence[int],
    column_values: Sequence[int],
    row_label: str = "cardinality",
    column_label: str = "page size",
) -> Heatmap:
    """Build a heatmap by calling ``predict(row_value, column_value)``."""
    cells = [
        [predict(row_value, column_value) for column_value in column_values]
        for row_value in row_values
    ]
    return Heatmap(
        row_label=row_label,
        column_label=column_label,
        row_values=list(row_values),
        column_values=list(column_values),
        cells_seconds=cells,
    )


#: Row sizes of SCADr's subscriptions and thoughts in the Figure 6 model,
#: and the quantile it predicts.
SUBSCRIPTION_BYTES = 40
THOUGHT_BYTES = 160
QUANTILE = 0.99


def thoughtstream_heatmap(
    model: QueryLatencyModel,
    subscription_counts: Sequence[int] = (100, 150, 200, 250, 300, 350, 400, 450, 500),
    page_sizes: Sequence[int] = (10, 15, 20, 25, 30, 35, 40, 45, 50),
) -> Heatmap:
    """Predicted 99th-percentile latency for SCADr's thoughtstream query.

    The query plan is the one of Figure 3(d): an IndexScan over the
    subscriptions of a user (bounded by the subscription cardinality limit)
    followed by a SortedIndexJoin fetching the most recent ``page_size``
    thoughts per subscription; its latency model is

        Θ_IndexScan(subs, SUBSCRIPTION_BYTES) *
        Θ_SortedJoin(subs, page, THOUGHT_BYTES)

    exactly as written in Section 6.2.
    """

    def predict(subscriptions: int, page_size: int) -> float:
        requirements = [
            OperatorRequirement(
                OperatorModelKey("index_scan", subscriptions, 0, SUBSCRIPTION_BYTES),
                f"IndexScan(subscriptions, {subscriptions})",
            ),
            OperatorRequirement(
                OperatorModelKey(
                    "sorted_index_join", subscriptions, page_size, THOUGHT_BYTES
                ),
                f"SortedIndexJoin(thoughts, {subscriptions}x{page_size})",
            ),
        ]
        return model.predict_from_requirements(requirements, QUANTILE).max_seconds

    return prediction_heatmap(
        predict,
        row_values=subscription_counts,
        column_values=page_sizes,
        row_label="subscriptions per user",
        column_label="records per page",
    )
