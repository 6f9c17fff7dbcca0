"""Turns the driver's raw samples into the benchmark's metrics.

Pure functions only, so the arithmetic is unit-tested without a build:
percentiles under the tail rule, span self time, and every end-to-end and
per-layer metric. ``perfbench/run.py`` does the I/O.
"""

import math
import statistics

# The standard percentiles the tail rule picks from.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

# Samples a tail percentile needs beyond it before it may be reported.
MIN_BEYOND = 10

# Samples the timings of a run come from, at least, when host steal
# disturbed most of its samples (see timed_samples).
MIN_UNDISTURBED = 2 * MIN_BEYOND

# The same floor for the handful of set-ups a run makes.
MIN_UNDISTURBED_SETUPS = 3

# The host-speed probe's median times (ns) on the host the benchmark's
# bounds were set on (a shared 4-vCPU x86-64 virtual machine), on one
# thread and on every CPU at once. Every end-to-end timing is scaled by
# reference / (the run's probe median): the time the run would have taken on
# a host as fast as that one (see host_scales).
PROBE_ONE_REFERENCE_NS = 2.0e6
PROBE_ALL_REFERENCE_NS = 2.2e6

# (name, unit, better) of every end-to-end metric BENCHMARK.json gates.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_ms_p50", "ms", "lower"),
    ("wall_ms_p90", "ms", "lower"),
    ("seq_ms_p50", "ms", "lower"),
    ("cpu_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Span names whose self time the traced run reports.
SPAN_NAMES = (
    "alter.sample",
    "alter.run",
    "workloads.setup",
    "workloads.validate",
    "runtime.runner.run_inner",
    "runtime.runner.invocation",
    "null_invocation",
    "replay.chunk",
    "replay.body",
    "replay.suspend",
    "replay.encode",
    "replay.decode",
    "replay.check",
    "replay.abort",
    "seq.run",
    "seq.chunk",
)

# (name, unit, better) of every per-layer metric, in report order. The
# schedule shares have no intrinsic direction; "higher" marks the picks the
# planner should make more of on the loops it currently loses on.
PER_LAYER = (
    ("workloads.setup_ms", "ms", "lower"),
    ("workloads.validate_ms", "ms", "lower"),
    ("workloads.outer_ms", "ms", "lower"),
    ("runtime.runner.invocations", "count", "lower"),
    ("runtime.runner.invocation_ms_p50", "ms", "lower"),
    ("runtime.runner.invocation_ms_p99", "ms", "lower"),
    ("runtime.runner.sched_sequential_frac", "ratio", "higher"),
    ("runtime.runner.sched_chunked_frac", "ratio", "lower"),
    ("runtime.runner.sched_staged_frac", "ratio", "higher"),
    ("runtime.runner.recovered_frac", "ratio", "lower"),
    ("runtime.engine.chunks", "count", "lower"),
    ("runtime.engine.retry_rate", "ratio", "lower"),
    ("runtime.engine.busy_ms", "ms", "lower"),
    ("runtime.engine.inflation", "x", "lower"),
    ("runtime.engine.occupancy", "ratio", "higher"),
    ("runtime.engine.idle_ms", "ms", "lower"),
    ("runtime.engine.stage_stalls", "count", "lower"),
    ("runtime.engine.queue_depth_peak", "count", "higher"),
    ("runtime.transport.null_invocation_us", "us", "lower"),
    ("runtime.transport.fixed_us_per_chunk", "us", "lower"),
    ("runtime.transport.warm_fork_rate", "ratio", "higher"),
    ("runtime.transport.child_reuse_rate", "ratio", "higher"),
    ("runtime.transport.cold_forks", "count", "lower"),
    ("runtime.transport.wire_bytes_per_chunk", "B", "lower"),
    ("runtime.transport.wire_compression", "ratio", "lower"),
    ("runtime.txn.chunk_us", "us", "lower"),
    ("runtime.txn.ns_per_iter", "ns", "lower"),
    ("runtime.txn.inflation", "x", "lower"),
    ("runtime.txn.instr_calls_per_chunk", "count", "lower"),
    ("memory.read_words_per_chunk", "words", "lower"),
    ("memory.write_words_per_chunk", "words", "lower"),
    ("memory.log_bytes_per_chunk", "B", "lower"),
    ("runtime.wire.encode_us", "us", "lower"),
    ("runtime.wire.decode_us", "us", "lower"),
    ("runtime.wire.frame_bytes", "B", "lower"),
    ("runtime.conflict.check_us", "us", "lower"),
    ("runtime.conflict.bloom_skip_rate", "ratio", "higher"),
    ("trace.overhead_ms", "ms", "lower"),
) + tuple(
    ("span.%s.self_us" % n, "us", "lower") for n in SPAN_NAMES)


def nearest_rank(n, p):
    """1-based rank of the nearest-rank p-th percentile of n samples. The
    rounding keeps float error (99.9% of 10000 = 9990.000000000002) from
    bumping the rank."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - nearest_rank(n, p)


def tail_percentile(n):
    """The highest ladder percentile with MIN_BEYOND samples beyond it, or
    None when even the median lacks them."""
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[nearest_rank(len(values), p) - 1]


def ratio(num, den):
    return num / den if den else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def self_times(spans):
    """Self time of every span, grouped by name.

    ``spans`` holds [sample, parent, name, start, end, arg] rows, parents
    before children. A span's self time is its duration minus the part of
    it covered by the union of its children's intervals.
    """
    children = {}
    for i, row in enumerate(spans):
        if row[1] >= 0:
            children.setdefault(row[1], []).append(i)
    out = {}
    for i, (_, _, name, start, end, _) in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        kids = sorted((max(spans[k][3], start), min(spans[k][4], end))
                      for k in children.get(i, ()))
        for ks, ke in kids:
            if ke <= ks:
                continue
            if cur_end is None or ks > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = ks, ke
            else:
                cur_end = max(cur_end, ke)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.setdefault(name, []).append((end - start) - covered)
    return out


def failures(raw):
    """(attempted, failed) ALTER runs of a driver document."""
    fails = raw["alter"]["failure"]
    return len(fails), sum(1 for f in fails if f)


def disturbed(samples, raw):
    """Whether each sample lost more than the driver's max_steal_share of
    the guest's CPU capacity to host steal."""
    return [share > raw["max_steal_share"] for share in samples["steal_share"]]


def timed_samples(candidates, steal_share, max_share,
                  minimum=MIN_UNDISTURBED):
    """The samples timings are taken from: the candidates host steal left
    undisturbed (at most ``max_share`` of the CPU capacity stolen), or, when
    fewer than ``minimum`` of those remain, the ``minimum`` least disturbed
    candidates."""
    candidates = list(candidates)
    clean = [i for i in candidates if steal_share[i] <= max_share]
    if len(clean) >= minimum:
        return clean
    ranked = sorted(candidates, key=lambda i: steal_share[i])
    return sorted(ranked[:minimum])


def host_scales(raw):
    """(one, all): each probe's reference time over the run's median of it,
    below 1 on a host (or at a moment) slower than the reference, above 1 on
    a faster one. The probe is a fixed kernel run before every sample pair,
    with none of the program's code in it, so the program cannot move it.
    ``one`` scales what runs on one thread (set-up, the sequential run);
    ``all`` what keeps every CPU busy (an ALTER run)."""
    return (PROBE_ONE_REFERENCE_NS / median(raw["probe_one_ns"]),
            PROBE_ALL_REFERENCE_NS / median(raw["probe_all_ns"]))


def end_to_end(raw):
    """{name: (value, unit, samples)} for the end-to-end metrics of an
    untraced run: the gated END_TO_END ones, plus fail_frac, speedup_p50
    and the host-speed probe, which are printed but never gated. fail_frac
    is 0 on correct code, so no relative bound applies to it; a faster
    sequential loop must never read as a regression of speedup_p50.

    The gated timings are host-normalised (see host_scales): the host's
    speed drifts by tens of percent over minutes on a shared virtual
    machine, and a fixed kernel timed beside the samples follows that
    drift, while the program's own speed does not move the kernel. Each
    ALTER wall clock, and each set-up (which ends in an ALTER run), is also
    scaled by (1 - its steal share): the share of the guest's capacity it
    actually had."""
    a, q = raw["alter"], raw["seq"]
    untraced = [i for i, t in enumerate(a["traced"]) if not t]
    passed = [i for i in untraced if not a["failure"][i]] or untraced
    cap = raw["max_steal_share"]
    timed = timed_samples(passed, a["steal_share"], cap)
    setups = [raw["setup_ns"][i] * (1 - raw["setup_steal_share"][i])
              for i in timed_samples(
        range(len(raw["setup_ns"])), raw["setup_steal_share"], cap,
        MIN_UNDISTURBED_SETUPS)]
    wall = [a["wall_ns"][i] * (1 - a["steal_share"][i]) / 1e6
            for i in timed]
    cpu = [a["cpu_ns"][i] / 1e6 for i in timed]
    seq = [q["wall_ns"][i] / 1e6 for i in timed_samples(
        range(len(q["wall_ns"])), q["steal_share"], cap)]
    attempted, failed = failures(raw)
    rss = raw["peak_rss_kb"]
    one, every = host_scales(raw)
    n_probes = len(raw["probe_all_ns"])
    out = {
        "setup_s": (one * median(setups) / 1e9, "s", len(setups)),
        "wall_ms_p50": (every * median(wall), "ms", len(wall)),
        "wall_ms_p90": (every * percentile(wall, 90), "ms", len(wall)),
        "seq_ms_p50": (one * median(seq), "ms", len(seq)),
        "cpu_ms_p50": (every * median(cpu), "ms", len(cpu)),
        "peak_rss_mb": (max(rss["self"], rss["children"]) / 1024.0, "MB", 1),
        "fail_frac": (ratio(failed, attempted), "ratio", attempted),
        "speedup_p50": (ratio(median(seq), median(wall)), "x", len(wall)),
        "host_probe_one_ms": (median(raw["probe_one_ns"]) / 1e6, "ms",
                              n_probes),
        "host_probe_all_ms": (median(raw["probe_all_ns"]) / 1e6, "ms",
                              n_probes),
        "host_scale_one": (one, "x", n_probes),
        "host_scale_all": (every, "x", n_probes),
    }
    return out


def _by_sample(records):
    grouped = {}
    for r in records:
        grouped.setdefault(r["sample"], []).append(r)
    return grouped


def per_layer(raw):
    """{name: (value, unit, samples)} for every per-layer metric of a
    traced run."""
    a = raw["alter"]
    traced = [i for i, t in enumerate(a["traced"]) if t]
    untraced = [i for i, t in enumerate(a["traced"]) if not t]
    invs = raw["invocations"]
    per_sample = _by_sample(invs)
    reps = raw["replays"]
    seq_chunks = raw["seq_chunks"]
    units = {n: u for n, u, _ in PER_LAYER}
    out = {}

    def put(name, value, n):
        out[name] = (value, units[name], n)

    def per_sample_median(field):
        return median([sum(r[field] for r in rs)
                       for rs in per_sample.values()])

    put("workloads.setup_ms",
        median([a["setup_ns"][i] / 1e6 for i in traced]), len(traced))
    put("workloads.validate_ms",
        median([a["validate_ns"][i] / 1e6 for i in traced]), len(traced))
    outer = [(a["wall_ns"][i] - sum(r["run_inner_ns"]
                                    for r in per_sample.get(i, ()))) / 1e6
             for i in traced]
    put("workloads.outer_ms", median(outer), len(outer))

    inv_ms = [r["ns"] / 1e6 for r in invs]
    n_inv = len(invs)
    put("runtime.runner.invocations",
        median([len(rs) for rs in per_sample.values()]), len(per_sample))
    put("runtime.runner.invocation_ms_p50", median(inv_ms), n_inv)
    put("runtime.runner.invocation_ms_p99",
        percentile(inv_ms, 99) if inv_ms else 0.0, n_inv)
    for kind in ("sequential", "chunked", "staged"):
        put("runtime.runner.sched_%s_frac" % kind,
            ratio(sum(1 for r in invs if r["schedule"] == kind), n_inv), n_inv)
    put("runtime.runner.recovered_frac",
        ratio(sum(r["recovered"] for r in invs), n_inv), n_inv)

    def total(field, records=invs):
        return sum(r[field] for r in records)

    seq_loop = [ns for ns in raw["seq"]["loop_ns"] if ns]
    busy_ms = per_sample_median("busy_ns") / 1e6
    n_s = len(per_sample)
    put("runtime.engine.chunks", per_sample_median("committed"), n_s)
    put("runtime.engine.retry_rate",
        ratio(total("retries"), total("transactions")), n_inv)
    put("runtime.engine.busy_ms", busy_ms, n_s)
    put("runtime.engine.inflation",
        ratio(busy_ms, median(seq_loop) / 1e6), n_s)
    put("runtime.engine.occupancy",
        ratio(total("busy_ns"), total("slot_ns")), n_inv)
    put("runtime.engine.idle_ms",
        median([sum(max(r["slot_ns"] - r["busy_ns"], 0) for r in rs)
                for rs in per_sample.values()]) / 1e6, n_s)
    put("runtime.engine.stage_stalls", per_sample_median("stage_stalled"),
        n_s)
    put("runtime.engine.queue_depth_peak",
        max((r["queue_depth_peak"] for r in invs), default=0), n_inv)

    nulls = raw["null_invocation_ns"]
    forks = total("warm_forks") + total("cold_forks")
    put("runtime.transport.null_invocation_us", median(nulls) / 1e3,
        len(nulls))
    put("runtime.transport.fixed_us_per_chunk",
        ratio(raw["host"]["workers"] * total("ns") - total("busy_ns"),
              total("transactions")) / 1e3, n_inv)
    put("runtime.transport.warm_fork_rate", ratio(total("warm_forks"), forks),
        n_inv)
    put("runtime.transport.child_reuse_rate",
        ratio(total("child_reuses"), forks), n_inv)
    put("runtime.transport.cold_forks", per_sample_median("cold_forks"), n_s)
    put("runtime.transport.wire_bytes_per_chunk",
        ratio(total("wire_bytes"), total("transactions")), n_inv)
    put("runtime.transport.wire_compression",
        ratio(total("wire_bytes"), total("wire_bytes_raw")), n_inv)

    n_rep = len(reps)
    txn_ns_iter = ratio(total("body_ns", reps), total("iterations", reps))
    seq_ns_iter = ratio(total("ns", seq_chunks),
                        total("iterations", seq_chunks))
    put("runtime.txn.chunk_us", median([r["body_ns"] / 1e3 for r in reps]),
        n_rep)
    put("runtime.txn.ns_per_iter", txn_ns_iter, n_rep)
    put("runtime.txn.inflation", ratio(txn_ns_iter, seq_ns_iter), n_rep)
    put("runtime.txn.instr_calls_per_chunk",
        mean([r["instr_calls"] for r in reps]), n_rep)
    put("memory.read_words_per_chunk", mean([r["read_words"] for r in reps]),
        n_rep)
    put("memory.write_words_per_chunk",
        mean([r["write_words"] for r in reps]), n_rep)
    put("memory.log_bytes_per_chunk", mean([r["log_bytes"] for r in reps]),
        n_rep)
    put("runtime.wire.encode_us", median([r["encode_ns"] / 1e3 for r in reps]),
        n_rep)
    put("runtime.wire.decode_us", median([r["decode_ns"] / 1e3 for r in reps]),
        n_rep)
    put("runtime.wire.frame_bytes", mean([r["frame_bytes"] for r in reps]),
        n_rep)
    put("runtime.conflict.check_us",
        median([r["check_ns"] / 1e3 for r in reps]), n_rep)
    put("runtime.conflict.bloom_skip_rate",
        ratio(total("bloom_skips", reps), total("bloom_checks", reps)), n_rep)

    # Replayed samples carry the replay's own cost; the overhead compares
    # spans-only samples with the untraced ones of the same run.
    cap = raw["max_steal_share"]
    spans_only = timed_samples([i for i in traced if not a["replayed"][i]],
                               a["steal_share"], cap)
    base = timed_samples(untraced, a["steal_share"], cap)
    put("trace.overhead_ms",
        median([a["wall_ns"][i] / 1e6 for i in spans_only]) -
        median([a["wall_ns"][i] / 1e6 for i in base]), len(spans_only))

    selfs = self_times(raw["spans"])
    for name in SPAN_NAMES:
        vals = selfs.get(name, [])
        put("span.%s.self_us" % name, mean(vals) / 1e3, len(vals))
    return out


def steal_frac(raw):
    """Share of the host's CPU capacity the hypervisor gave to other guests
    while the run measured: a disturbed run reads high."""
    return ratio(raw["measure_steal_ns"],
                 raw["measure_ns"] * raw["host"]["nproc"])


def run_is_correct(raw):
    """True when the run's references held and every replayed frame
    decoded back to the context it came from."""
    return (not raw["setup_failure"] and not raw["seq_failure"]
            and all(r["round_trip_ok"] for r in raw["replays"]))


def result_line(raw, trace):
    """The benchmark's last output line, as a dict."""
    attempted, failed = failures(raw)
    if trace:
        values = per_layer(raw)
        names = [n for n, _, _ in PER_LAYER]
    else:
        values = end_to_end(raw)
        names = [n for n, _, _ in END_TO_END]
    return {
        "correct": run_is_correct(raw) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n][0], "unit": values[n][1]}
                    for n in names},
    }
