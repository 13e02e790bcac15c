"""Plain-text rendering of figures, tables and claim results.

The benchmark harness prints these so ``pytest benchmarks/`` regenerates
the paper's artefacts as readable terminal output (and EXPERIMENTS.md
embeds the same renderings).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence

from ..obs.diff import ManifestDiff
from ..obs.manifest import RunManifest

if TYPE_CHECKING:
    # Type-only: these modules need scipy (the ``analysis`` extra), and
    # the serve path renders tables without it.
    from .claims import ClaimResult
    from .figures import Fig1aRow, Fig1bData, Fig2Data
    from .tables import Table1Row


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Monospace table with per-column widths."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_fig1a(rows: List[Fig1aRow], bar_width: int = 40) -> str:
    """ASCII bars on a log scale, mirroring Figure 1a's log axis."""
    import math
    peak = max((r.prefix_count for r in rows), default=1) or 1
    lines = ["Figure 1a — client prefixes detected per GDNS PoP "
             "(log scale)"]
    for row in rows:
        if row.prefix_count > 0:
            frac = math.log10(1 + row.prefix_count) / math.log10(1 + peak)
        else:
            frac = 0.0
        bar = "#" * max(0, int(round(frac * bar_width)))
        lines.append(f"{row.pop_name:24s} {row.prefix_count:7d} {bar}")
    return "\n".join(lines)


def render_fig1b(data: Fig1bData) -> str:
    """Country-coverage table + server-dot summary (Figure 1b)."""
    lines = [
        "Figure 1b — % of APNIC users in ASes detected by cache probing",
        f"(global coverage: {data.global_user_coverage:.1%}; paper: ~98%)",
    ]
    lines.append(render_table(
        ["country", "APNIC users (M)", "covered %"],
        [(r.country_name, f"{r.apnic_users / 1e6:.1f}",
          f"{r.covered_percent:.0f}%") for r in data.shading]))
    offnets = sum(1 for d in data.server_dots if d.is_offnet)
    lines.append(f"server dots (MetaBook): {len(data.server_dots)} "
                 f"locations, {offnets} off-net")
    return "\n".join(lines)


def render_fig2(data: Fig2Data) -> str:
    """Subscribers-vs-estimators table with orderings (Figure 2)."""
    lines = [
        "Figure 2 — ISP subscribers vs cache hits vs APNIC estimates",
        f"(hit-count correlation: pearson {data.hit_count_pearson:.3f}, "
        f"spearman {data.hit_count_spearman:.3f})",
    ]
    rows = []
    for r in sorted(data.rows, key=lambda r: (r.country_code,
                                              -r.subscribers_m)):
        rows.append((r.country_code, r.isp_name,
                     f"{r.subscribers_m:.1f}",
                     f"{r.cache_hit_count:.0f}",
                     f"{100 * r.cache_hit_rate:.2f}%",
                     "-" if r.apnic_estimate_m is None
                     else f"{r.apnic_estimate_m:.1f}"))
    lines.append(render_table(
        ["cc", "ISP", "subscribers (M)", "cache hits", "hit rate",
         "APNIC est (M)"], rows))
    ordering = ", ".join(f"{cc}:{'ok' if ok else 'X'}"
                         for cc, ok in data.orderings_correct.items())
    lines.append(f"within-country orderings: {ordering}")
    if data.hit_count_fit is not None:
        fit = data.hit_count_fit
        lines.append(f"fitted line (hits vs subscribers): "
                     f"{fit.slope:.1f}/M + {fit.intercept:.0f} "
                     f"(r={fit.r_value:.3f})")
    return "\n".join(lines)


def render_table1(rows: List[Table1Row]) -> str:
    """Monospace rendering of the regenerated Table 1."""
    lines = ["Table 1 — ITM components: desired vs achieved (this repro)"]
    lines.append(render_table(
        ["component", "question", "temporal d|now", "network d|now",
         "coverage desired", "coverage now"],
        [(r.component, r.question,
          f"{r.temporal_desired} | {r.temporal_now}",
          f"{r.network_desired} | {r.network_now}",
          r.coverage_desired, r.coverage_now) for r in rows]))
    return "\n".join(lines)


def render_claims(results: List[ClaimResult]) -> str:
    """One line per claim plus the pass count."""
    lines = ["Headline claims — paper vs measured"]
    lines.extend(result.render() for result in results)
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} claims within band")
    return "\n".join(lines)


def render_run_report(manifest: RunManifest) -> str:
    """Run-provenance section for an instrumented build.

    Renders the manifest a :class:`repro.obs.Recorder` collected: the
    stage timing tree (indented by span depth), the per-campaign
    delivery table, the route-cache totals, per-component coverage with
    its degradation notes, the checkpoint lineage of resumed builds,
    the serve section of served runs (admission arithmetic, answer-cache
    hit rate, circuit events, live-telemetry latency quantiles), and
    the peak-memory gauges of memory-profiled builds.
    """
    lines = [f"Run report — seed {manifest.seed}, "
             f"config {manifest.config_hash}"]
    if manifest.fault_plan is not None:
        lines.append(f"fault plan: {manifest.fault_plan.get('describe')} "
                     f"(digest {manifest.fault_plan.get('digest')})")
    if manifest.stages:
        lines.append("")
        lines.append("Stage timings (wall seconds, nested):")
        for stage in manifest.stages:
            depth = stage.path.count(".") - stage.name.count(".")
            lines.append(f"  {'  ' * depth}{stage.name:32s} "
                         f"{stage.wall_s:8.3f}s  x{stage.calls}")
    ran = [(name, manifest.campaign(name))
           for name in sorted(manifest.campaigns_ran())]
    if ran:
        lines.append("")
        lines.append(render_table(
            ["campaign", "units", "delivered", "drops", "retries",
             "giveups", "coverage", "wall s"],
            [(name, rec.units, rec.delivered, rec.drops, rec.retries,
              rec.giveups, f"{rec.coverage:.1%}",
              "-" if rec.wall_s is None else f"{rec.wall_s:.3f}")
             for name, rec in ran]))
    cache = manifest.route_cache
    if cache:
        lines.append("")
        lines.append(
            f"route cache: {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses "
            f"(hit rate {cache.get('hit_rate', 0.0):.1%}), "
            f"{cache.get('entries', 0)}/{cache.get('max_entries', 0)} "
            f"entries, {cache.get('evictions', 0)} evictions")
    if manifest.coverage:
        lines.append("")
        lines.append("Component coverage:")
        for component in sorted(manifest.coverage):
            record = manifest.coverage[component]
            value = float(record.get("coverage", 1.0))
            lost = (set(record.get("techniques_intended", ()))
                    - set(record.get("techniques_delivered", ())))
            line = f"  {component}: {value:.1%}"
            if lost:
                line += f", lost {', '.join(sorted(lost))}"
            lines.append(line)
            for note in record.get("notes", ()):
                lines.append(f"    - {note}")
    ckpt = manifest.checkpoint
    if ckpt:
        lines.append("")
        reused = ckpt.get("stages_reused", [])
        recomputed = ckpt.get("stages_recomputed", [])
        verb = "resumed from" if ckpt.get("resumed") else "checkpointed to"
        lines.append(f"Checkpoints: {verb} {ckpt.get('checkpoint_dir')}")
        lines.append(
            f"  reused {len(reused)}/{ckpt.get('stages_total')} stages"
            + (f" ({', '.join(reused)})" if reused else "")
            + f"; recomputed {len(recomputed)}"
            + (f" ({', '.join(recomputed)})" if recomputed else ""))
        for entry in ckpt.get("quarantined", []):
            lines.append(f"  quarantined {entry.get('stage')}: "
                         f"{entry.get('reason')}")
    serve = manifest.serve
    if serve:
        lines.append("")
        lines.append("Serving:")
        admit = serve.get("admit", {}) or {}
        offered = int(admit.get("offered", 0) or 0)
        shed = int(admit.get("shed", 0) or 0)
        line = (f"  admission: {offered} offered = "
                f"{admit.get('admitted', 0)} admitted + {shed} shed")
        if offered:
            line += f" ({shed / offered:.1%} shed)"
        lines.append(line)
        deadline = int(admit.get("deadline_expired", 0) or 0)
        if deadline:
            lines.append(f"  deadline expired: {deadline} of "
                         f"{admit.get('admitted', 0)} admitted")
        hits = int(manifest.counters.get("serve.cache.hits", 0))
        misses = int(manifest.counters.get("serve.cache.misses", 0))
        if hits + misses:
            lines.append(f"  answer cache: {hits} hits / {misses} misses "
                         f"(hit rate {hits / (hits + misses):.1%})")
        http = serve.get("http", {}) or {}
        lines.append(f"  http: {http.get('timeouts', 0)} timeout(s), "
                     f"{http.get('client_disconnects', 0)} client "
                     "disconnect(s)")
        watch = serve.get("watch", {}) or {}
        if any(watch.get(k, 0) for k in ("errors", "circuit_open",
                                         "circuit_close")):
            lines.append(f"  watch: {watch.get('errors', 0)} reload "
                         f"error(s), circuit opened "
                         f"{watch.get('circuit_open', 0)}x / closed "
                         f"{watch.get('circuit_close', 0)}x")
        chaos = serve.get("chaos", {}) or {}
        if chaos:
            fired = ", ".join(f"{kind}={count}"
                              for kind, count in sorted(chaos.items()))
            lines.append(f"  chaos injections: {fired}")
        latency = serve.get("latency") or {}
        if latency:
            rows = []
            for endpoint in sorted(latency.get("endpoints", {})):
                outcomes = latency["endpoints"][endpoint]
                for outcome in sorted(outcomes):
                    s = outcomes[outcome]
                    rows.append((endpoint, outcome, s.get("count", 0),
                                 f"{s.get('p50_ms', 0.0):.1f}",
                                 f"{s.get('p99_ms', 0.0):.1f}",
                                 f"{s.get('max_ms', 0.0):.1f}"))
            total = latency.get("total", {}) or {}
            rows.append(("total", "-", total.get("count", 0),
                         f"{total.get('p50_ms', 0.0):.1f}",
                         f"{total.get('p99_ms', 0.0):.1f}",
                         f"{total.get('max_ms', 0.0):.1f}"))
            lines.append("  latency (server-side histograms, ms):")
            table = render_table(
                ["endpoint", "outcome", "count", "p50", "p99", "max"],
                rows)
            lines.extend("  " + row for row in table.splitlines())
    peaks = sorted(
        ((name[len("mem."):-len(".peak_bytes")], value)
         for name, value in manifest.gauges.items()
         if name.startswith("mem.") and name.endswith(".peak_bytes")),
        key=lambda item: -item[1])
    if peaks:
        lines.append("")
        lines.append("Peak traced memory by span (profile_memory):")
        for span, value in peaks[:10]:
            lines.append(f"  {span:40s} {value / 2**20:8.1f} MiB")
    return "\n".join(lines)


def render_diff_report(diff: ManifestDiff) -> str:
    """Markdown-ish rendering of a :class:`repro.obs.ManifestDiff`.

    Printed by ``python -m repro compare`` and suitable for embedding
    in CI logs: an overall verdict line, then one table per finding
    category (categories without findings are omitted).
    """
    lines = [f"Manifest diff — status: {diff.status.upper()} "
             f"({len(diff.regressions())} regression(s), "
             f"{len(diff.warnings())} warning(s), "
             f"{len(diff.findings)} finding(s))"]
    lines.append(f"config {diff.config_hash}")
    if diff.ignored_categories:
        lines.append("ignored categories: "
                     + ", ".join(diff.ignored_categories))
    if diff.incomparable_reasons:
        lines.append("FORCED comparison despite: "
                     + "; ".join(diff.incomparable_reasons))
    if not diff.findings:
        lines.append("")
        lines.append("No drift: every classified metric is within "
                     "thresholds.")
        return "\n".join(lines)
    for category, findings in diff.by_category().items():
        lines.append("")
        lines.append(f"{category}:")
        lines.append(render_table(
            ["status", "metric", "old", "new", "detail"],
            [(f.status, f.metric,
              "-" if f.old is None else f"{f.old:g}",
              "-" if f.new is None else f"{f.new:g}",
              f.detail) for f in findings]))
    return "\n".join(lines)
