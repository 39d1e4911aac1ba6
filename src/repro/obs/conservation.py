"""Conservation laws: counts of one piece of work agree across layers.

:func:`conservation_violations` checks them on a cluster's merged
snapshot (``ClusterFrontend.metrics()``) at quiescence, for the traffic
the stack's own front doors send: query kinds through
``ClusterFrontend.submit``, each one answered. Behind a TCP front door,
every request it routed is observed once in
``frontdoor_request_seconds`` when its future settles, so those counts
sum to ``cluster_submitted_total``. Metric names are plain strings
here, so this module imports nothing from the rest of :mod:`repro`.
"""

from __future__ import annotations

__all__ = ["conservation_violations"]

_READ_KINDS = ("distance", "path", "knn", "range")


def conservation_violations(snapshot: dict) -> list[str]:
    """One line per conservation law ``snapshot`` breaks (empty when
    all hold). Takes a plain or summarized snapshot; a missing series
    counts as zero; the front-door and admission laws apply only when
    their series are present."""

    def total(name: str, **labels) -> int:
        """A counter's value or a histogram's count, summed over the
        series of ``name`` that carry ``labels``."""
        return sum(entry["value"] if "value" in entry else entry["count"]
                   for section in ("counters", "histograms")
                   for entry in snapshot.get(section, {}).values()
                   if entry["name"] == name
                   and all(entry["labels"].get(k) == v
                           for k, v in labels.items()))

    def term(name: str, **labels) -> tuple[str, int]:
        tag = ",".join(f"{k}={v}" for k, v in labels.items())
        return (f"{name}{{{tag}}}" if tag else name), total(name, **labels)

    def plus(*names: str) -> tuple[str, int]:
        return " + ".join(names), sum(total(name) for name in names)

    violations: list[str] = []

    def law(*terms: tuple[str, int]) -> None:
        if len({value for _, value in terms}) > 1:
            violations.append(" = ".join(f"{label} [{value}]"
                                         for label, value in terms))

    if any(entry["name"] == "frontdoor_request_seconds"
           for entry in snapshot.get("histograms", {}).values()):
        law(term("frontdoor_request_seconds"), term("cluster_submitted_total"))

    shard_reads = ("read-kind shard_request_seconds",
                   sum(total("shard_request_seconds", kind=kind)
                       for kind in _READ_KINDS))
    submitted = [term("cluster_submitted_total")]
    if any(entry["name"].startswith("admission_")
           for entry in snapshot.get("counters", {}).values()):
        law(term("cluster_rejected_total"), term("admission_rejected_total"))
        submitted.append(term("admission_admitted_total"))
    law(*submitted,
        ("query-kind shard_request_seconds", shard_reads[1]
         + total("shard_request_seconds", kind="update")),
        term("router_requests_total"))
    for kind in _READ_KINDS:
        law(term(f"engine_{kind}_queries_total"),
            term("engine_query_seconds", kind=kind),
            plus(f"engine_{kind}_hits_total", f"engine_{kind}_misses_total"))
    law(plus(*(f"engine_{kind}_queries_total" for kind in _READ_KINDS)),
        shard_reads)
    law(term("engine_updates_total"),
        plus("router_log_appends_total", "router_log_replays_total"))
    law(term("router_write_backs_total"), term("router_write_back_seconds"))
    law(term("router_log_appends_total"), term("oplog_append_seconds"))
    dropped = term("engine_invalidation_entries_dropped_total")
    misses = plus("engine_knn_misses_total", "engine_range_misses_total")
    if dropped[1] > misses[1]:
        violations.append(f"{dropped[0]} [{dropped[1]}] <= "
                          f"{misses[0]} [{misses[1]}]")
    return violations
