"""Fault localization from end-to-end observations (boolean tomography).

Given only what an outside observer could collect — per-link windowed
send/drop/latency observations (:class:`~repro.cluster.metrics.LinkObservatory`),
per-destination RPC timeout counters, and the recorded operation history —
infer *which components were at fault and when*.  The inference never reads
nemesis or simulator internals; the nemesis' :attr:`ChaosEnv.ground_truth`
is used only afterwards, to score the inference.

The rules are classic boolean network tomography, specialised to the
cluster's traffic patterns:

* **node-silent** — a node that keeps *receiving* probe traffic while
  sending nothing for two consecutive buckets has crashed: every live
  protocol endpoint here answers what it is sent (gossip windows are acked,
  RPCs are replied to), so sustained one-way traffic isolates the common
  endpoint of the failing paths.  An answer earns no answer, though: a
  message arriving on ``src→node`` is presumed to *be* one, not a probe,
  when ``node`` sent on ``node→src`` in the same or the previous bucket.
* **node-slow** — a gray-failure straggler: most links touching one node
  show mean latency far above the bucket's cross-link median while the
  rest of the fabric is normal.  Paths through the node fail the latency
  predicate; paths avoiding it pass; the intersection is the node.  A
  bucket already blamed for fabric-wide latency convicts no node: sampled
  thinly, its leave-one-out baseline can read pristine by accident.
* **fabric-loss / fabric-latency** — degradation spread across many links
  with no single common endpoint blames the shared fabric (partitions,
  drop spikes, congestion, latency spikes all land here).  Drops whose
  destination looks dead are *excluded* first: tomography always prefers
  the most specific explanation, and a dead endpoint explains its own
  drops.
* **client-crash** — clients are traffic sources, so silence rules do not
  apply; instead a crash shows up in the history itself, as ops frozen
  ``PENDING`` and/or an invocation gap far beyond the client's cadence.

Every threshold is a module constant, tuned against the standard schedule
across the CI sweep's seeds (precision and recall must both be ≥ 0.8 on
every seed — see :func:`check_fault_localization`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence

from repro.chaos.checkers import CheckResult
from repro.chaos.history import History

#: node-silent: minimum probes delivered in the silent bucket — one gossip
#: window or RPC is already a probe, since live receivers always answer.
SILENCE_MIN_INBOUND = 1
#: node-silent: the node must have transmitted within this many buckets
#: before the probed silence (crash *onset*, not ambient quiet).
SILENCE_ONSET_BUCKETS = 2
#: node-slow: a link is "slow" when its bucket-mean latency is at least
#: this multiple of the bucket's median across all links.
SLOW_RATIO = 2.0
#: node-slow: fraction of the node's sampled links that must be slow.
SLOW_LINK_FRACTION = 0.6
#: node-slow: minimum sampled links touching the node in a bucket (a single
#: slow link blames a link, not a node)...
SLOW_MIN_LINKS = 2
#: ...unless the lone sampled link is *extremely* elevated — under heavy
#: concurrent loss (a partition eating the node's other paths) one surviving
#: link at 3x the fabric median is still strong evidence.
SLOW_SINGLE_LINK_RATIO = 3.0
#: node-slow: qualifying buckets needed before the node is blamed.
SLOW_MIN_BUCKETS = 2
#: fabric-loss: minimum fraction of sent messages dropped in a bucket.
LOSS_FRACTION = 0.08
#: fabric-loss: drops must spread over at least this many links, and at
#: least this fraction of the bucket's active links, to implicate the
#: fabric rather than one endpoint.
LOSS_MIN_LINKS = 4
LOSS_LINK_SPREAD = 0.2
#: fabric-latency: bucket median latency vs the pristine expectation
#: (base_delay + jitter/2).
FABRIC_LATENCY_RATIO = 2.2
FABRIC_MIN_LINKS = 4
#: client-crash gap rule: an invocation gap this many times the client's
#: median cadence (and at least 1.5 observation buckets long) is a crash.
CLIENT_GAP_FACTOR = 3.0
CLIENT_GAP_MIN_BUCKETS = 1.5
#: Evidence enrichment: destinations with at least this many RPC timeouts
#: are noted on their blame entries.
TIMEOUT_NOTE_MIN = 3


@dataclass
class Blame:
    """One inferred culprit with its evidence."""

    subject: tuple
    kind: str
    windows: list[tuple[float, float]] = field(default_factory=list)
    evidence: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "subject": [str(part) for part in self.subject],
            "kind": self.kind,
            "windows": [[round(a, 2), round(b, 2)] for a, b in self.windows],
            "evidence": list(self.evidence),
        }


@dataclass
class DiagnosisReport:
    """Everything the localizer inferred for one scenario run."""

    blames: list[Blame] = field(default_factory=list)

    def subjects(self) -> set[tuple]:
        return {blame.subject for blame in self.blames}

    def to_dict(self) -> dict:
        return {"blames": [blame.to_dict() for blame in self.blames]}

    def render(self) -> str:
        if not self.blames:
            return "diagnosis: no faults localized"
        lines = [f"diagnosis: {len(self.subjects())} subject(s) blamed"]
        for blame in sorted(self.blames, key=lambda b: (str(b.subject), b.kind)):
            spans = ", ".join(f"[{a:.0f},{b:.0f}]" for a, b in blame.windows[:4])
            lines.append(f"  {'/'.join(str(p) for p in blame.subject)} "
                         f"<{blame.kind}> {spans}")
            for item in blame.evidence[:3]:
                lines.append(f"    - {item}")
        return "\n".join(lines)


def _merge_windows(spans: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


class _Observations:
    """Per-bucket digests of the observatory, shared by all rules.

    ``expected`` (optional) maps a link to its expected pristine delivery
    latency; when provided, every link mean is *normalized* by it before
    any rule sees it, so the latency rules compare links in units of
    "multiples of this link's own healthy latency".  Without normalization
    a locality-priced topology (a :class:`~repro.cluster.DelayMatrix`)
    breaks boolean tomography's homogeneity assumption: a node whose links
    are mostly cross-region sits far above the fabric median while
    perfectly healthy, and the node-slow rule convicts geography.  With
    ``expected=None`` the raw means are used, bit-for-bit as before.
    """

    def __init__(self, observatory, expected=None) -> None:
        self.observatory = observatory
        self.buckets = observatory.buckets()
        self.last_bucket = self.buckets[-1] if self.buckets else -1
        # per (node, bucket): *delivered* probes toward the node (one the
        # fabric dropped proves nothing about the receiver; one that answers
        # what the node sent its source in this bucket or the previous one
        # earns no answer itself) and *sent* messages away from it
        # (attempting to send proves liveness, even if the fabric then ate
        # the message).
        self.probes: dict[tuple[Hashable, int], int] = {}
        self.outbound: dict[tuple[Hashable, int], int] = {}
        # per bucket: {link: mean latency} over links with deliveries
        # (normalized to the link's expected latency when one is priced)
        self.link_means: dict[int, dict[tuple, float]] = {}
        self.median_latency: dict[int, float] = {}
        sent: dict[int, set[tuple]] = {}  # per bucket: links that sent
        for bucket in self.buckets:
            window = observatory.window(bucket)
            sent_here = sent[bucket] = {link for link, stat in window.items()
                                        if stat.sent_messages}
            sent_before = sent.get(bucket - 1, ())
            means: dict[tuple, float] = {}
            for (src, dst), stat in window.items():
                if stat.sent_messages:
                    key_out = (src, bucket)
                    self.outbound[key_out] = (self.outbound.get(key_out, 0)
                                              + stat.sent_messages)
                if stat.delivered_messages:
                    if ((dst, src) not in sent_here
                            and (dst, src) not in sent_before):
                        key_in = (dst, bucket)
                        self.probes[key_in] = (self.probes.get(key_in, 0)
                                               + stat.delivered_messages)
                    mean = stat.mean_latency
                    if expected is not None:
                        mean /= expected((src, dst))
                    means[(src, dst)] = mean
            self.link_means[bucket] = means
            self.median_latency[bucket] = _median(list(means.values()))
        self.nodes = sorted({node for node, _ in self.probes}
                            | {node for node, _ in self.outbound}, key=str)

    def looks_dead(self, node: Hashable, bucket: int) -> bool:
        """No outbound traffic in this bucket nor the next."""
        return (self.outbound.get((node, bucket), 0) == 0
                and self.outbound.get((node, bucket + 1), 0) == 0)


def _silent_node_blames(obs: _Observations,
                        client_ids: set[Hashable]) -> list[Blame]:
    blames = []
    for node in obs.nodes:
        if node in client_ids:
            continue  # clients are sources; silence is judged from history
        silent_spans = []
        evidence = []
        outbound_buckets = [bucket for bucket in obs.buckets
                            if obs.outbound.get((node, bucket), 0)]
        last_alive = outbound_buckets[-1] if outbound_buckets else None
        last_outbound_bucket: Optional[int] = None
        for bucket in obs.buckets:
            if obs.outbound.get((node, bucket), 0):
                last_outbound_bucket = bucket
                continue
            inbound_here = obs.probes.get((node, bucket), 0)
            if inbound_here < SILENCE_MIN_INBOUND:
                continue
            if not obs.looks_dead(node, bucket):
                continue
            # Distinguish "crashed" from "the run ended": demand evidence
            # the world kept turning past this bucket.
            if bucket + 1 > obs.last_bucket:
                continue
            # Attribution needs one of two anchors.  *Onset*: the node was
            # transmitting just before the probed silence.  *Resurrection*:
            # the node transmits again afterwards, bracketing the silence.
            # A node that went mute ages ago and never speaks again while
            # swallowing one-way traffic (a Paxos follower fed
            # fire-and-forget decides) is ambiguous — maybe that traffic
            # class never earns a reply — so it is not blamed.
            onset = (last_outbound_bucket is not None
                     and bucket - last_outbound_bucket <= SILENCE_ONSET_BUCKETS)
            resurrection = last_alive is not None and last_alive > bucket
            if not (onset or resurrection):
                continue
            start, end = obs.observatory.bucket_span(bucket)
            silent_spans.append((start, end + obs.observatory.bucket_width))
            evidence.append(
                f"bucket [{start:.0f},{end:.0f}): {inbound_here} inbound "
                "probe(s), zero outbound here and next bucket")
        if silent_spans:
            blames.append(Blame(subject=("node", node), kind="node-silent",
                                windows=_merge_windows(silent_spans),
                                evidence=evidence))
    return blames


def _run_wide_footprint(obs: "_Observations", endpoint) -> int:
    """How many (bucket, link) observations across the whole run show
    ``endpoint`` on a slow link, judged against each bucket's median."""
    footprint = 0
    for bucket in obs.buckets:
        median = obs.median_latency[bucket]
        if median <= 0:
            continue
        footprint += sum(1 for link, mean in obs.link_means[bucket].items()
                         if endpoint in link and mean >= SLOW_RATIO * median)
    return footprint


def _shared_with_bigger_culprit(node, slow, means, threshold, obs) -> bool:
    """Tomography's minimal explanation: latency on a link is shared
    evidence (either endpoint could explain it), so when every slow link
    touching ``node`` runs through one common peer whose slow-link
    footprint in the same bucket is strictly larger, the peer is the
    culprit and ``node`` is merely adjacent.  Decisive under a
    geo/locality profile, where a sparsely-sampled bucket often catches a
    victim replica only on its links to the actual straggler.

    When the in-bucket footprints tie — typically because the only slow
    links are the two directions of a single node↔peer pair — the bucket
    alone cannot tell the endpoints apart, so the tie is broken run-wide:
    a peer that shows up slow in more buckets across the whole run is the
    better minimal explanation.
    """
    common = set.intersection(
        *({end for end in link if end != node} for link in slow))
    for peer in sorted(common, key=str):
        peer_slow = sum(1 for link, mean in means.items()
                        if peer in link and mean >= threshold)
        if peer_slow > len(slow):
            return True
        if (peer_slow == len(slow)
                and _run_wide_footprint(obs, peer)
                > _run_wide_footprint(obs, node)):
            return True
    return False


def _unanimity_holds(node, slow, means, threshold) -> bool:
    """Whether a single unanimous-slow bucket is safe to blame on ``node``.

    A lone bucket convicts only if the slowness shows in *both* directions
    — a one-sided reading is usually a neighbouring fault caught
    mid-bucket.  (The shared-evidence common-peer test already ran when
    the bucket qualified.)
    """
    return (any(link[0] == node for link in slow)
            and any(link[1] == node for link in slow))


def _slow_node_blames(obs: _Observations, pristine_latency: float,
                      fabric_latency_buckets: set[int]) -> list[Blame]:
    blames = []
    for node in obs.nodes:
        qualifying = []
        unanimous = []
        evidence = []
        for bucket in obs.buckets:
            if bucket in fabric_latency_buckets:
                continue  # explained already; see the module docstring
            means = obs.link_means[bucket]
            touching = {link: mean for link, mean in means.items()
                        if node in link}
            if not touching:
                continue
            # Leave-one-out baseline: the candidate's own (possibly
            # elevated) links must not inflate the median they are judged
            # against — in a sparsely sampled bucket a genuine straggler
            # would otherwise suppress itself.
            others = [mean for link, mean in means.items()
                      if node not in link]
            baseline = (_median(others) if len(others) >= 3
                        else obs.median_latency[bucket])
            if baseline <= 0:
                continue
            if baseline >= FABRIC_LATENCY_RATIO * pristine_latency:
                continue  # the rest of the fabric is slow too: not node-local
            slow = [link for link, mean in touching.items()
                    if mean >= SLOW_RATIO * baseline]
            if len(touching) < SLOW_MIN_LINKS:
                qualifies = (len(touching) == 1 and len(slow) == 1
                             and next(iter(touching.values()))
                             >= SLOW_SINGLE_LINK_RATIO * baseline)
            else:
                qualifies = len(slow) / len(touching) >= SLOW_LINK_FRACTION
            if qualifies and _shared_with_bigger_culprit(
                    node, slow, means, SLOW_RATIO * baseline, obs):
                qualifies = False
            if qualifies:
                qualifying.append(bucket)
                if (len(touching) >= 2 and len(slow) == len(touching)
                        and _unanimity_holds(node, slow, means,
                                             SLOW_RATIO * baseline)):
                    unanimous.append(bucket)
                worst = max(touching[link] for link in slow)
                start, end = obs.observatory.bucket_span(bucket)
                evidence.append(
                    f"bucket [{start:.0f},{end:.0f}): {len(slow)}/"
                    f"{len(touching)} links ≥ {SLOW_RATIO}x baseline "
                    f"({baseline:.2f}), worst mean {worst:.2f}")
        # Two qualifying buckets make a straggler; so does one bucket where
        # *every* sampled link touching the node (≥ 2 of them) is slow —
        # under heavy partitioning a faulty node may only surface in a
        # single bucket, but a unanimous verdict across independent links
        # is not jitter.
        if len(qualifying) >= SLOW_MIN_BUCKETS or unanimous:
            spans = [obs.observatory.bucket_span(bucket)
                     for bucket in qualifying]
            blames.append(Blame(subject=("node", node), kind="node-slow",
                                windows=_merge_windows(spans),
                                evidence=evidence))
    return blames


def _fabric_blames(obs: _Observations,
                   pristine_latency: float,
                   pristine_drop_rate: float) -> tuple[list[Blame], set[int]]:
    loss_spans, loss_evidence = [], []
    latency_spans, latency_evidence = [], []
    latency_buckets: set[int] = set()
    loss_threshold = max(LOSS_FRACTION, 3 * pristine_drop_rate + 0.02)
    for bucket in obs.buckets:
        window = obs.observatory.window(bucket)
        sent = dropped = 0
        drop_links = set()
        active_links = 0
        for link, stat in window.items():
            if not stat.sent_messages:
                continue
            active_links += 1
            # Drops into a dead-looking endpoint are explained by the
            # endpoint, not the fabric — the node-silent rule owns those.
            if obs.looks_dead(link[1], bucket):
                continue
            sent += stat.sent_messages
            if stat.dropped_messages:
                dropped += stat.dropped_messages
                drop_links.add(link)
        start, end = obs.observatory.bucket_span(bucket)
        if (sent and dropped / sent >= loss_threshold
                and len(drop_links) >= max(LOSS_MIN_LINKS,
                                           LOSS_LINK_SPREAD * active_links)):
            loss_spans.append((start, end))
            loss_evidence.append(
                f"bucket [{start:.0f},{end:.0f}): {dropped}/{sent} messages "
                f"dropped across {len(drop_links)} links")
        means = obs.link_means[bucket]
        median = obs.median_latency[bucket]
        if (len(means) >= FABRIC_MIN_LINKS and pristine_latency > 0
                and median >= FABRIC_LATENCY_RATIO * pristine_latency):
            latency_buckets.add(bucket)
            latency_spans.append((start, end))
            latency_evidence.append(
                f"bucket [{start:.0f},{end:.0f}): median link latency "
                f"{median:.2f} vs pristine ~{pristine_latency:.2f}")
    blames = []
    if loss_spans:
        blames.append(Blame(subject=("fabric",), kind="fabric-loss",
                            windows=_merge_windows(loss_spans),
                            evidence=loss_evidence))
    if latency_spans:
        blames.append(Blame(subject=("fabric",), kind="fabric-latency",
                            windows=_merge_windows(latency_spans),
                            evidence=latency_evidence))
    return blames, latency_buckets


def _client_blames(history: History, client_ids: set[Hashable],
                   bucket_width: float) -> list[Blame]:
    blames = []
    by_client = history.by_client()
    for client in sorted(client_ids, key=str):
        spans, evidence = [], []
        for op in history.pending():
            if op.client == client:
                crashed_at = op.info.get("crashed_at", op.invoked_at)
                spans.append((op.invoked_at, crashed_at))
                evidence.append(f"op {op.op_id} ({op.action} {op.key!r}) "
                                f"frozen pending at t={crashed_at:.1f}")
        ops = by_client.get(client, [])
        invokes = sorted(op.invoked_at for op in ops)
        gaps = [b - a for a, b in zip(invokes, invokes[1:])]
        median_gap = _median(gaps)
        if median_gap > 0:
            floor = max(CLIENT_GAP_FACTOR * median_gap,
                        CLIENT_GAP_MIN_BUCKETS * bucket_width)
            for a, b in zip(invokes, invokes[1:]):
                if b - a >= floor:
                    spans.append((a, b))
                    evidence.append(
                        f"invocation gap [{a:.1f},{b:.1f}] "
                        f"({b - a:.1f} ticks vs median cadence "
                        f"{median_gap:.1f})")
        if spans:
            blames.append(Blame(subject=("client", client),
                                kind="client-crash",
                                windows=_merge_windows(spans),
                                evidence=evidence))
    return blames


def _expected_link_latency(env):
    """Per-link expected pristine latency under a :class:`DelayMatrix`.

    Returns ``None`` (no normalization, the homogeneous-fabric fast path)
    unless the config prices links per domain pair.  The
    expectation is propagation only — matrix delay (or base delay for
    unmatched pairs, e.g. workload clients in the ``default`` domain) plus
    mean jitter.  Serialization is deliberately *not* folded in: healthy
    serialization is small at the profile's bandwidths, and folding it in
    would teach the baseline to expect congestion.  Like ``diagnose``
    itself, this reads only deployment knowledge (who is placed where),
    never fault state.
    """
    config = env.network.config
    matrix = config.delay_matrix
    if matrix is None:
        return None
    domains = env.network.domains()
    jitter_mean = config.jitter / 2

    def expected(link):
        spec = matrix.link(domains.get(link[0]), domains.get(link[1]))
        base = config.base_delay
        if spec is not None and spec.delay is not None:
            base = spec.delay
        return base + jitter_mean

    return expected


def diagnose(env, history: History,
             client_ids: Optional[set[Hashable]] = None) -> DiagnosisReport:
    """Localize faults from end-to-end observations only.

    ``client_ids`` is topology knowledge (which machines are workload
    clients rather than cluster nodes), not fault knowledge — it defaults
    to the environment's registered clients.
    """
    if client_ids is None:
        client_ids = set(env.client_ids())
    expected = _expected_link_latency(env)
    obs = _Observations(env.network.observatory, expected=expected)
    config = env.network.config  # never written by a fault
    if expected is not None:
        # Link means are normalized to each link's own expectation, so the
        # pristine fabric reads ~1.0 by construction.
        pristine_latency = 1.0
    else:
        pristine_latency = config.base_delay + config.jitter / 2
    fabric, fabric_latency_buckets = _fabric_blames(
        obs, pristine_latency, config.drop_rate)
    report = DiagnosisReport()
    report.blames.extend(fabric)
    report.blames.extend(_silent_node_blames(obs, client_ids))
    report.blames.extend(_slow_node_blames(obs, pristine_latency,
                                           fabric_latency_buckets))
    report.blames.extend(_client_blames(
        history, client_ids, env.network.observatory.bucket_width))
    # Enrich node blames with RPC-timeout corroboration where the keyed
    # counters point at the same destination.
    timeouts = env.network.metrics.keyed_counters("transport.rpc_timeouts_to")
    for blame in report.blames:
        if blame.subject[0] != "node":
            continue
        count = timeouts.get(blame.subject[1], 0)
        if count >= TIMEOUT_NOTE_MIN:
            blame.evidence.append(
                f"corroborated by {count:.0f} RPC timeouts toward this node")
    return report


# -- scoring against the nemesis footprint ----------------------------------------


def _truth_windows(env) -> dict[tuple, list[tuple[float, float]]]:
    truth: dict[tuple, list[tuple[float, float]]] = {}
    for entry in env.ground_truth:
        truth.setdefault(entry["subject"], []).append(
            (entry["start"], entry["end"]))
    return {subject: _merge_windows(spans)
            for subject, spans in truth.items()}


def identifiable_truth(env, history: History) -> set[tuple]:
    """Ground-truth subjects an end-to-end observer could possibly see.

    Standard tomography identifiability: a component is in scope only if
    probe traffic actually crossed it during its fault window.  A node
    nobody sent anything to while it was down, or a client whose plan had
    already finished, leaves no observable trace — scoring recall against
    those would measure clairvoyance, not inference.
    """
    observatory = env.network.observatory
    obs = _Observations(observatory)
    in_scope = set()
    for entry in env.ground_truth:
        subject = entry["subject"]
        if subject in in_scope:
            continue
        start, end = entry["start"], entry["end"]
        if subject[0] == "fabric":
            if len(observatory):
                in_scope.add(subject)
            continue
        if subject[0] == "client":
            client = subject[1]
            pending = any(op.client == client for op in history.pending())
            ops = [op.invoked_at for op in history.ops if op.client == client]
            spanned = (any(at < start for at in ops)
                       and any(at > end for at in ops))
            if pending or spanned:
                in_scope.add(subject)
            continue
        node = subject[1]
        inside = [bucket for bucket in obs.buckets
                  if observatory.bucket_span(bucket)[0] >= start
                  and observatory.bucket_span(bucket)[1] <= end]
        if entry["kind"] == "SlowNode":
            # A straggler is observable iff its links produced latency
            # samples during the window.
            if any(node in link
                   for bucket in inside
                   for link in obs.link_means.get(bucket, ())):
                in_scope.add(subject)
            continue
        # Crash-shaped faults: observable iff some probe reached the node
        # in a window bucket during which it was actually silent — an
        # overlapping fault's recovery may have resurrected it early, and
        # a probed-but-answering node carries no trace of this fault.
        for bucket in inside:
            if obs.probes.get((node, bucket), 0) < SILENCE_MIN_INBOUND:
                continue
            if obs.outbound.get((node, bucket), 0):
                continue
            if bucket + 1 > obs.last_bucket:
                continue  # probed silence at the edge of the data
            if not obs.looks_dead(node, bucket):
                continue  # answered next bucket: below the 2-bucket resolution
            in_scope.add(subject)
            break
    return in_scope


def score_against_ground_truth(report: DiagnosisReport, env,
                               history: History) -> dict:
    """Precision/recall of the blame set vs the nemesis footprint.

    Precision counts a blame as correct if the subject appears anywhere in
    the ground truth (identifiable or not — correctly fingering a barely
    observable fault is not a false positive).  Recall is measured against
    the identifiable subjects only.
    """
    truth_all = set(_truth_windows(env))
    in_scope = identifiable_truth(env, history)
    blamed = report.subjects()
    true_positives = blamed & truth_all
    false_positives = blamed - truth_all
    misses = in_scope - blamed
    precision = len(true_positives) / len(blamed) if blamed else 1.0
    recall = (len(in_scope & blamed) / len(in_scope)) if in_scope else 1.0
    return {
        "precision": precision,
        "recall": recall,
        "blamed": sorted(blamed, key=str),
        "truth": sorted(truth_all, key=str),
        "identifiable": sorted(in_scope, key=str),
        "false_positives": sorted(false_positives, key=str),
        "misses": sorted(misses, key=str),
    }


def check_fault_localization(env, history: History,
                             threshold: float = 0.8,
                             report: Optional[DiagnosisReport] = None
                             ) -> CheckResult:
    """Checker: the localizer must rediscover the nemesis footprint."""
    result = CheckResult("fault-localization")
    if report is None:
        report = diagnose(env, history)
    score = score_against_ground_truth(report, env, history)
    if score["precision"] < threshold:
        result.failures.append(
            f"precision {score['precision']:.2f} < {threshold}: "
            f"false positives {score['false_positives']}")
    if score["recall"] < threshold:
        result.failures.append(
            f"recall {score['recall']:.2f} < {threshold}: "
            f"missed {score['misses']} (identifiable: "
            f"{score['identifiable']})")
    return result
