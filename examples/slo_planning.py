#!/usr/bin/env python
"""SLO compliance planning with the prediction framework (Sections 6 and 6.4).

Trains the per-operator latency models on a simulated 10-node cluster, then:

* predicts the 99th-percentile latency distribution of the SCADr
  thoughtstream query and checks it against an SLO,
* prints the cardinality heatmap of Figure 6, and
* asks the Performance Insight Assistant for the largest subscription limit
  that still meets the SLO.

Run with ``python examples/slo_planning.py`` (training takes a few seconds).
"""

from __future__ import annotations

from repro import ClusterConfig, PiqlDatabase
from repro.prediction.heatmap import thoughtstream_heatmap
from repro.prediction.model import QueryLatencyModel
from repro.prediction.slo import ServiceLevelObjective
from repro.prediction.training import TrainingConfig, train_default_model
from repro.workloads.scadr.queries import THOUGHTSTREAM
from repro.workloads.scadr.schema import scadr_ddl


def main() -> None:
    print("training operator models on a simulated 10-node cluster ...")
    store = train_default_model(config=TrainingConfig(intervals=10))
    print(f"  trained {len(store.keys())} (operator, cardinality, size) settings "
          f"over {len(store.intervals())} intervals")

    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=10, seed=5))
    db.execute_ddl(scadr_ddl(max_subscriptions=100))
    model = QueryLatencyModel(store, db.catalog)
    slo = ServiceLevelObjective(quantile=0.99, latency_seconds=0.5,
                                interval_seconds=600)

    prepared = db.prepare(THOUGHTSTREAM)
    prediction = model.predict(prepared.physical_plan, quantile=slo.quantile)
    print("\nthoughtstream query (subscription limit 100, 10 per page):")
    print(f"  predicted 99th percentile, worst interval: {prediction.max_ms:.1f} ms")
    print(f"  violation risk against a {slo.latency_ms:.0f} ms SLO: "
          f"{prediction.violation_risk(slo) * 100:.1f}% of intervals")
    print(f"  meets the SLO: {prediction.meets(slo)}")

    print("\nFigure 6 heatmap (predicted 99th percentile, ms):")
    heatmap = thoughtstream_heatmap(model)
    print(heatmap.render())

    def predict_for_limit(limit: int) -> float:
        return thoughtstream_heatmap(
            model, subscription_counts=(limit,), page_sizes=(10,)
        ).cells_seconds[0][0]

    recommended = db.assistant.recommend_max_cardinality(
        predict_for_limit,
        slo_latency_seconds=slo.latency_seconds,
        candidates=[100, 200, 300, 400, 500],
    )
    print(f"\nlargest subscription limit meeting the SLO at 10 per page: {recommended}")


if __name__ == "__main__":
    main()
