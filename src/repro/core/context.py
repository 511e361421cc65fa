"""The top-level analysis pipeline: a trace in, the paper's results out.

:class:`ContextStudy` owns one trace (synthetic, from logs, or from a
pcap) and lazily computes every analysis of the paper: DN-Hunter
pairing, the Figure 1 blocking analysis, the Table 2 classification,
the §5 source analyses, the §6 cost analyses, the §7 resolver
comparison, and the §8 improvement simulations.

Example::

    from repro.core.context import ContextStudy
    from repro.workload.scenario import default_scenario

    study = ContextStudy.from_scenario(default_scenario(seed=1))
    print(study.classification_table())
    quadrant = study.significance_quadrant()
    print(f"significant DNS cost: {100 * quadrant.significant_of_all:.1f}% of all connections")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.core.blocking import GapAnalysis, analyze_gaps
from repro.core.classify import (
    ClassBreakdown,
    ClassifiedConnection,
    Classifier,
    ClassifierConfig,
    ResolverFailureStats,
    class_breakdown,
    collect_failure_stats,
)
from repro.core.improvements import (
    RefreshComparison,
    RefreshSimulator,
    WholeHouseCacheAnalysis,
    whole_house_cache_analysis,
)
from repro.core.pairing import (
    PairedConnection,
    Pairer,
    PairingCensus,
    PairingPolicy,
    ambiguity_fraction,
)
from repro.core.performance import (
    ContributionAnalysis,
    LookupDelayAnalysis,
    SignificanceQuadrant,
    contribution_analysis,
    lookup_delay_analysis,
    significance_quadrant,
)
from repro.core.resolvers import (
    ResolverUsageRow,
    ThroughputByPlatform,
    hit_rate_by_platform,
    local_only_house_fraction,
    r_delay_by_platform,
    resolver_usage_table,
    throughput_by_platform,
)
from repro.core.sources import (
    NoDnsBreakdown,
    PrefetchStats,
    TtlViolationStats,
    no_dns_breakdown,
    prefetch_stats,
    ttl_violation_stats,
)
from repro.errors import AnalysisError
from repro.gcpolicy import frozen_build
from repro.monitor.capture import Trace

if TYPE_CHECKING:
    from repro.core.population import PopulationStats
    from repro.core.stats import Cdf
    from repro.monitor.logs import IngestReport
    from repro.workload.scenario import ScenarioConfig


@dataclass(frozen=True, slots=True)
class StudyOptions:
    """Analysis-stage knobs (all defaulting to the paper's choices).

    The one home of every analysis setting: the batch
    :class:`ContextStudy`, the sharded pipeline and the streaming engine
    all read their thresholds and policies from here. The §4 knee
    reference and the §6 significance cut are the paper's constants
    (:data:`~repro.core.blocking.KNEE_REFERENCE`,
    :data:`~repro.core.performance.ABS_INSIGNIFICANT`,
    :data:`~repro.core.performance.REL_INSIGNIFICANT`), not options.
    """

    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    pairing_policy: PairingPolicy = PairingPolicy.MOST_RECENT
    pairing_seed: int = 0


class ContextStudy:
    """One trace plus every analysis the paper runs on it."""

    def __init__(self, trace: Trace, options: StudyOptions | None = None) -> None:
        if not trace.conns:
            raise AnalysisError("the trace has no connections to analyse")
        self.trace = trace
        self.options = options if options is not None else StudyOptions()
        # One report per log read by from_logs(); empty otherwise.
        self.ingest_reports: tuple[IngestReport, ...] = ()

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_scenario(cls, config: "ScenarioConfig", options: StudyOptions | None = None) -> "ContextStudy":
        """Generate a synthetic trace for *config* and analyse it."""
        from repro.workload.generate import generate_trace

        return cls(generate_trace(config), options)

    @classmethod
    def from_logs(
        cls,
        dns_path: str,
        conn_path: str,
        options: StudyOptions | None = None,
        strict: bool = True,
    ) -> "ContextStudy":
        """Analyse previously saved dns.log / conn.log files.

        Each file is read through :func:`repro.monitor.ingest.open_log`,
        which detects its format: Zeek TSV (``#fields`` headers), Zeek
        JSON-streaming (one object per line) or the RBLG binary
        columnar format (:mod:`repro.monitor.binlog`).

        With ``strict=False``, malformed TSV or JSON lines are
        quarantined instead of aborting the ingest (RBLG refuses it);
        the :class:`~repro.monitor.logs.IngestReport` of each file is
        kept on ``study.ingest_reports`` so the caller can surface what
        was dropped. Loading is a :func:`repro.gcpolicy.frozen_build`:
        the cyclic collector is off while the records are read, and they
        are frozen out of later collections afterwards.
        """
        from repro.monitor.ingest import open_log

        with frozen_build():
            dns_log = open_log(dns_path, "dns", strict=strict)
            dns_records = list(dns_log)
            conn_log = open_log(conn_path, "conn", strict=strict)
            trace = Trace(dns=dns_records, conns=list(conn_log))
            trace.sort()
        if trace.conns:
            trace.duration = trace.conns[-1].ts - trace.conns[0].ts
        study = cls(trace, options)
        study.ingest_reports = (dns_log.report(), conn_log.report())
        return study

    @classmethod
    def from_pcap(
        cls,
        path: str,
        local_networks: tuple[str, ...] = ("10.",),
        options: StudyOptions | None = None,
    ) -> "ContextStudy":
        """Extract logs from a pcap file and analyse them."""
        from repro.monitor.pcap_ingest import trace_from_pcap

        return cls(trace_from_pcap(path, local_networks=local_networks), options)

    # -- pipeline stages -----------------------------------------------------

    @cached_property
    def paired(self) -> list[PairedConnection]:
        """DN-Hunter pairing of every connection (chronological order)."""
        pairer = Pairer(
            self.trace.dns,
            policy=self.options.pairing_policy,
            seed=self.options.pairing_seed,
        )
        return pairer.pair_all(self.trace.conns)

    @cached_property
    def classifier(self) -> Classifier:
        """The classifier with per-resolver SC/R thresholds."""
        return Classifier(self.trace.dns, self.options.classifier)

    @cached_property
    def classified(self) -> list[ClassifiedConnection]:
        """Every connection with its Table 2 class."""
        return self.classifier.classify_all(self.paired)

    @cached_property
    def breakdown(self) -> ClassBreakdown:
        """Table 2 counts."""
        return class_breakdown(self.classified)

    # -- §4 -----------------------------------------------------------------

    def gap_analysis(self) -> GapAnalysis:
        """Figure 1: the DNS-completion-to-connection-start gap analysis."""
        return analyze_gaps(self.paired, self.options.classifier.blocking_threshold)

    def pairing_ambiguity(self) -> float:
        """§4: share of paired connections with a unique candidate (paper: 82%)."""
        return ambiguity_fraction(self.paired)

    def pairing_census(self) -> PairingCensus:
        """§4 pairing counts (paired / unique-viable / expired)."""
        return PairingCensus.from_paired(self.paired)

    def population(self) -> PopulationStats:
        """§3-style dataset characterization (volumes, mixes, per-house)."""
        from repro.core.population import characterize

        return characterize(self.trace)

    # -- §3 / Table 1 ---------------------------------------------------------

    def resolver_usage(self) -> list[ResolverUsageRow]:
        """Table 1 rows."""
        return resolver_usage_table(self.trace.dns, self.classified, self.options.classifier)

    def local_only_houses(self) -> float:
        """§3: share of houses that only use the ISP resolvers (paper: ~16%)."""
        return local_only_house_fraction(self.trace.dns, self.options.classifier)

    def failure_stats(self) -> dict[str, ResolverFailureStats]:
        """Per-resolver transaction outcomes (timeouts, SERVFAILs, NXDOMAINs).

        Failed transactions are first-class in the record stream but can
        never pair; this surfaces their rates per resolver address so a
        faulty platform is visible instead of silently shrinking the
        paired population.
        """
        return collect_failure_stats(self.trace.dns)

    # -- §5 -------------------------------------------------------------------

    def no_dns(self) -> NoDnsBreakdown:
        """§5.1: anatomy of the N class."""
        return no_dns_breakdown(self.classified)

    def ttl_violations(self) -> TtlViolationStats:
        """§5.2: expired-record usage among LC/P connections."""
        return ttl_violation_stats(self.classified)

    def prefetching(self) -> PrefetchStats:
        """§5.2: speculative-lookup economics."""
        return prefetch_stats(self.trace.dns, self.paired, self.classified)

    # -- §6 -------------------------------------------------------------------

    def lookup_delays(self) -> LookupDelayAnalysis:
        """Figure 2 (top)."""
        return lookup_delay_analysis(self.classified)

    def contribution(self) -> ContributionAnalysis:
        """Figure 2 (bottom)."""
        return contribution_analysis(self.classified)

    def significance_quadrant(self) -> SignificanceQuadrant:
        """§6: the significance quadrant (>20 ms and >1 %)."""
        return significance_quadrant(self.classified)

    # -- §7 -------------------------------------------------------------------

    def hit_rates(self) -> dict[str, float]:
        """§7: shared-cache hit rate per platform."""
        return hit_rate_by_platform(self.classified)

    def r_delays(self) -> dict[str, Cdf]:
        """Figure 3 (top): per-platform R-lookup delay CDFs (seconds)."""
        return r_delay_by_platform(self.classified)

    def throughput(self) -> ThroughputByPlatform:
        """Figure 3 (bottom): per-platform throughput CDFs."""
        return throughput_by_platform(self.classified)

    # -- §8 -------------------------------------------------------------------

    def whole_house(self) -> WholeHouseCacheAnalysis:
        """§8: who would a whole-house cache help."""
        return whole_house_cache_analysis(self.trace.dns, self.classified)

    def refresh(self, ttl_floor_s: float = 10.0) -> RefreshComparison:
        """Table 3: standard vs refresh-all whole-house cache."""
        simulator = RefreshSimulator(
            self.trace.dns, self.classified, ttl_floor_s=ttl_floor_s, houses=self.trace.houses or None
        )
        return simulator.compare()

    # -- validation & rendering ------------------------------------------------

    def validate_against_truth(self) -> dict[str, object]:
        """Compare heuristic classes against simulation ground truth.

        Only available for synthetic traces carrying annotations. Returns
        the agreement rate and a confusion matrix keyed
        (truth class, inferred class).
        """
        if not self.trace.truth:
            raise AnalysisError("the trace carries no ground-truth annotations")
        confusion: dict[tuple[str, str], int] = {}
        agree = 0
        total = 0
        for item in self.classified:
            truth = self.trace.truth.get(item.conn.uid)
            if truth is None:
                continue
            total += 1
            key = (truth.truth_class.value, item.conn_class.value)
            confusion[key] = confusion.get(key, 0) + 1
            if truth.truth_class.value == item.conn_class.value:
                agree += 1
        return {
            "agreement": agree / total if total else 0.0,
            "confusion": confusion,
            "total": total,
        }

    def classification_table(self) -> str:
        """Table 2 rendered as text."""
        from repro.report.tables import render_table2

        return render_table2(self.breakdown)

    def summary(self) -> str:
        """A multi-line digest of the headline results."""
        breakdown = self.breakdown
        quadrant = self.significance_quadrant()
        lines = [
            self.trace.summary(),
            self.classification_table(),
            f"blocked on DNS: {100 * breakdown.blocked_fraction():.1f}% of connections",
            f"significant DNS cost (>20ms and >1%): "
            f"{100 * quadrant.significant_of_all:.1f}% of all connections",
        ]
        return "\n".join(lines)
