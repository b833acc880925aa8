"""``repro.campaign`` — declarative what-if sweeps with cached points.

The layer between the simulator and the analyses (DESIGN.md §12): a
JSON spec (:mod:`~repro.campaign.spec`) expands a parameter grid into
evaluation points, a content-addressed cache
(:mod:`~repro.campaign.cache_key`) makes re-runs incremental, a
fault-tolerant parallel runner (:mod:`~repro.campaign.runner`) fans the
misses across processes, and the summary/report layer
(:mod:`~repro.campaign.summary` / :mod:`~repro.campaign.report`)
renders trade-study tables plus the utilization / eviction / queueing
Pareto front.  Driven by ``borg-repro campaign run|status|report``.
"""

from repro.campaign.cache_key import (
    CACHE_SCHEMA_VERSION,
    canonical_json,
    normalize,
    point_key,
)
from repro.campaign.report import (
    REPORT_SCHEMA,
    build_report,
    render_report,
    render_report_json,
)
from repro.campaign.runner import (
    RESULT_SCHEMA,
    CampaignRunResult,
    campaign_status,
    evaluate_point,
    load_campaign_results,
    load_point_result,
    run_campaign,
    write_point_result,
)
from repro.campaign.spec import (
    CampaignSpec,
    CampaignSpecError,
    EvalPoint,
    load_spec,
    parse_spec,
)
from repro.campaign.summary import (
    OBJECTIVES,
    aggregate_points,
    pareto_front,
    point_metrics,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "OBJECTIVES",
    "REPORT_SCHEMA",
    "RESULT_SCHEMA",
    "CampaignRunResult",
    "CampaignSpec",
    "CampaignSpecError",
    "EvalPoint",
    "aggregate_points",
    "build_report",
    "campaign_status",
    "canonical_json",
    "evaluate_point",
    "load_campaign_results",
    "load_point_result",
    "load_spec",
    "normalize",
    "parse_spec",
    "pareto_front",
    "point_key",
    "point_metrics",
    "render_report",
    "render_report_json",
    "run_campaign",
    "write_point_result",
]
