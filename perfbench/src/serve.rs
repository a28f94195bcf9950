//! `serve-read-zipf` and `serve-ingest-mix`: open-loop traffic against an
//! in-process `Server`.
//!
//! The served checkpoint is `WidenModel::for_graph` on the Yelp-like
//! table-scale graph, untrained, so set-up stays short. After a short
//! warm-up, the timed phase runs the op stream at the workload's fixed
//! nominal rate for `--seconds` (latency percentiles). The traced run
//! repeats that phase, then climbs a geometric rate ladder (the highest
//! rate whose p99 meets the latency limit without a growing backlog),
//! reads the server's always-on phase histograms and replays a prefix of
//! the same stream against the public layer calls one at a time.

use std::time::{Duration, Instant};

use widen_bench::runners::table_widen_config;
use widen_bench::RunScale;
use widen_core::{WidenConfig, WidenModel};
use widen_data::{yelp_like, Scale};
use widen_graph::{EdgeTypeId, HeteroGraph, NodeTypeId};
use widen_obs::{HistogramSnapshot, Snapshot};
use widen_serve::protocol::{decode_response, encode_response, Response};
use widen_serve::{ModelRegistry, ServeConfig, ServeStats, Server, ServerHandle};
use widen_tensor::BackendKind;

use crate::checks::{check_serve_closure, closure_gap, rows_match};
use crate::loadgen::{encode_op, schedule, Generator, Record, RunLimits};
use crate::stats::{mean, median, peak_rss_mb, quantile};
use crate::stream::{Op, Stream, StreamSpec};
use crate::{Report, Workload};

/// Set-ups per round. `setup_s` is the median over three rounds (start,
/// after the nominal phase, end), so one slow spell of a shared host cannot
/// decide it.
const SETUP_REPS: usize = 5;
/// Untimed traffic before the nominal phase, so caches fill first.
const WARMUP_SECS: f64 = 1.0;
/// Ops per latency window. The end-to-end latencies are medians over the
/// windows' p50 and p80, so one stall moves one window, not the result.
/// On a shared two-core host every percentile from p90 up is set by CPU
/// interference from outside the run and differs up to twofold between
/// runs, so the whole-phase p99 is a per-layer number only.
const WINDOW_OPS: usize = 500;
/// Seconds the traced run gives the rate ladder, and the probes a ladder
/// usually takes, which set each probe's length.
const LADDER_SECS: f64 = 12.0;
const LADDER_PROBES: f64 = 8.0;
/// p99 latency limit that a ladder rung must meet: well above the stalls
/// an idle shared host adds, well below the latency of a growing queue.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// First ladder rung, as a multiple of the nominal rate.
const LADDER_START: f64 = 4.0;
/// Ratio between adjacent ladder rungs (less than a tenth apart).
const LADDER_STEP: f64 = 1.03;
/// The ladder climbs this many rungs per coarse step, then bisects.
const COARSE_RUNGS: i32 = 4;
/// The ladder climbs at most this many rungs (about 10x) above its first
/// rung, and descends at most `MAX_DESCENT` (about 3x) below it, where a
/// failing probe costs the most; a run stays within its time limit.
const MAX_CLIMB: i32 = 80;
const MAX_DESCENT: i32 = 40;
/// Ops answered late by more than this are still collected.
const GRACE: Duration = Duration::from_secs(7);
/// One read in this many of the nominal phase is checked against the
/// oracle (every ingest is).
const CHECK_ONE_IN: usize = 6;
/// Stream prefix replayed against the layer calls in the traced run.
const REPLAY_OPS: usize = 256;

impl Workload {
    /// Offered rate of the nominal phase, in ops per second: about a fifth
    /// of the highest sustainable rate when the benchmark was defined, so
    /// queueing stays small even while a shared host runs at half speed and
    /// the latencies measure service, not a queue that comes and goes with
    /// the host's load. The ladder starts at [`LADDER_START`] times this.
    fn nominal_rate(self) -> f64 {
        match self {
            Workload::ServeReadZipf => 250.0,
            Workload::ServeIngestMix => 200.0,
            Workload::TrainYelp => unreachable!("train-yelp has no request stream"),
        }
    }

    fn ingest_one_in(self) -> Option<u64> {
        (self == Workload::ServeIngestMix).then_some(20)
    }
}

fn type_id(graph: &HeteroGraph, name: &str) -> u16 {
    (0..graph.num_node_types() as u16)
        .find(|&t| graph.node_type_name(NodeTypeId(t)) == name)
        .unwrap_or_else(|| panic!("the Yelp-like schema has a {name} node type"))
}

fn edge_type_id(graph: &HeteroGraph, name: &str) -> u16 {
    (0..graph.num_edge_types() as u16)
        .find(|&t| graph.edge_type_name(EdgeTypeId(t)) == name)
        .unwrap_or_else(|| panic!("the Yelp-like schema has a {name} edge type"))
}

/// Restores the checkpoint into a registry and starts a server on it;
/// returns the server and the set-up time.
fn set_up(graph: &HeteroGraph, config: &WidenConfig, checkpoint: &[u8]) -> (ServerHandle, f64) {
    let graph = graph.clone();
    let start = Instant::now();
    let registry = ModelRegistry::from_checkpoint(graph, config.clone(), checkpoint)
        .expect("the checkpoint matches its own model")
        .with_backend(BackendKind::Optimized);
    let handle =
        Server::bind(registry, ServeConfig::default(), "127.0.0.1:0").expect("bind the server");
    (handle, start.elapsed().as_secs_f64())
}

/// One round of [`SETUP_REPS`] timed set-ups, each server shut down again.
fn setup_round(graph: &HeteroGraph, config: &WidenConfig, checkpoint: &[u8], out: &mut Vec<f64>) {
    for _ in 0..SETUP_REPS {
        let (handle, secs) = set_up(graph, config, checkpoint);
        out.push(secs);
        handle.shutdown();
    }
}

/// `(node, seed)` items, as the model's batched calls take them.
fn items(nodes: &[u32], seed: u64) -> Vec<(u32, u64)> {
    nodes.iter().map(|&v| (v, seed)).collect()
}

/// Ingest edges with typed edge ids, as the graph mutation takes them.
fn typed_edges(edges: &[(u32, u16)]) -> Vec<(u32, EdgeTypeId)> {
    edges.iter().map(|&(p, t)| (p, EdgeTypeId(t))).collect()
}

fn latencies_ms(records: &[Record], keep: impl Fn(usize) -> bool) -> Vec<f64> {
    records
        .iter()
        .enumerate()
        .filter(|(i, _)| keep(*i))
        .map(|(_, r)| match r.latency_ns() {
            Some(ns) if r.ok() => ns as f64 / 1e6,
            // A failed or unanswered op misses any latency limit.
            _ => f64::INFINITY,
        })
        .collect()
}

pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Report {
    let mut report = Report::default();
    let dataset = yelp_like(Scale::Table, seed);
    let graph = dataset.graph;
    let config = table_widen_config(RunScale::Table)
        .with_seed(seed)
        .with_backend(BackendKind::Optimized);
    let business = type_id(&graph, "business");
    let spec = StreamSpec {
        num_nodes: graph.num_nodes() as u32,
        businesses: graph.nodes_of_type(NodeTypeId(business)),
        user_type: type_id(&graph, "user"),
        user_business_edge: edge_type_id(&graph, "user-business"),
        feature_dim: graph.feature_dim(),
        ingest_one_in: workload.ingest_one_in(),
    };

    // The served checkpoint: an untrained model for this graph, which is
    // also the oracle the replies are checked against.
    let oracle = WidenModel::for_graph(&graph, config.clone());
    let checkpoint = oracle.save_weights();
    let mut setups = Vec::new();
    setup_round(&graph, &config, &checkpoint, &mut setups);
    let (handle, secs) = set_up(&graph, &config, &checkpoint);
    setups.push(secs);

    let conns = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut gen = Generator::connect(handle.local_addr(), conns).expect("connect the generator");
    let mut stream = Stream::new(spec, seed);
    let rate = workload.nominal_rate();
    let n = (rate * seconds as f64).round().max(1.0) as usize;
    eprintln!(
        "{workload:?}: {} nodes, {n} ops at {rate}/s over {conns} connections",
        graph.num_nodes()
    );
    // Warm-up and nominal phase share one clock, so the verifier can order
    // their replies against each other.
    let t0 = Instant::now();
    let limits = RunLimits {
        grace: GRACE,
        max_outstanding: None,
    };
    let warm = (rate * WARMUP_SECS).round() as usize;
    let mut ops = stream.take(warm);
    let mut records = gen
        .run(&ops, &schedule(rate, warm), t0, limits)
        .expect("warm-up phase");
    let telemetry_before = handle.metrics().snapshot();
    let stats_before = handle.stats();
    let offset = t0.elapsed().as_nanos() as u64;
    let nominal_ops = stream.take(n);
    let due: Vec<u64> = schedule(rate, n).iter().map(|d| d + offset).collect();
    records.extend(
        gen.run(&nominal_ops, &due, t0, limits)
            .expect("nominal phase"),
    );
    ops.extend(nominal_ops);
    let telemetry = handle.metrics().snapshot();
    let nominal_stats = stats_since(&handle.stats(), &stats_before);
    setup_round(&graph, &config, &checkpoint, &mut setups);
    if trace {
        let max_rps = ladder(&mut gen, &mut stream, LADDER_START * rate, LADDER_SECS);
        report.set("read_max_rps", max_rps);
    }
    drop(gen);
    handle.shutdown();
    setup_round(&graph, &config, &checkpoint, &mut setups);

    let mismatched = verify(&graph, &oracle, &ops, &records, &mut report);
    // Only the nominal phase counts; the warm-up is still verified.
    let (ops, records) = (&ops[warm..], &records[warm..]);
    let failed = records.iter().filter(|r| !r.ok()).count()
        + mismatched.iter().filter(|&&i| i >= warm).count();
    report.attempted = n as u64;
    report.failed = failed as u64;
    let all = latencies_ms(records, |_| true);
    let windows: Vec<(f64, f64)> = all
        .chunks(WINDOW_OPS)
        .filter(|w| w.len() * 2 >= WINDOW_OPS)
        .map(|w| {
            (
                median(w).expect("non-empty"),
                quantile(w, 0.8).expect("non-empty"),
            )
        })
        .collect();
    eprintln!("windows (p50, p80 ms): {windows:.2?}");
    let p50s: Vec<f64> = windows.iter().map(|w| w.0).collect();
    let p80s: Vec<f64> = windows.iter().map(|w| w.1).collect();

    if !trace {
        report.set("setup_s", median(&setups).expect("set-ups ran"));
        report.set("peak_rss_mb", peak_rss_mb());
        report.set("ok_ratio", 1.0 - report.failed as f64 / n as f64);
        report.set("latency_p50_ms", median(&p50s).unwrap_or(f64::NAN));
        report.set("latency_tail_ms", median(&p80s).unwrap_or(f64::NAN));
        return report;
    }

    report.set("failed_ratio", report.failed as f64 / n as f64);
    report.set("trace_overhead", 0.0);
    let reads = latencies_ms(records, |i| !ops[i].is_ingest());
    let ingests = latencies_ms(records, |i| ops[i].is_ingest());
    report.set("read_p50_ms", median(&reads).unwrap_or(0.0));
    report.set("read_p99_ms", quantile(&reads, 0.99).unwrap_or(0.0));
    report.set("ingest_p50_ms", median(&ingests).unwrap_or(0.0));
    report.set("ingest_p90_ms", quantile(&ingests, 0.9).unwrap_or(0.0));
    let lateness: Vec<f64> = records
        .iter()
        .filter_map(|r| r.lateness_ns().map(|ns| ns as f64 / 1e6))
        .collect();
    report.set(
        "gen.lateness_ms.p99",
        quantile(&lateness, 0.99).unwrap_or(0.0),
    );
    server_layers(
        &telemetry,
        &telemetry_before,
        &nominal_stats,
        records,
        &mut report,
    );
    replay(
        &graph,
        &config,
        &oracle,
        &checkpoint,
        ops,
        records,
        &mut report,
    );
    report
}

/// Climbs a geometric rate ladder from `first` (either way) and returns the
/// highest rung that passed [`probe`].
fn ladder(gen: &mut Generator, stream: &mut Stream, first: f64, budget: f64) -> f64 {
    let probe_secs = (budget / LADDER_PROBES).max(0.4);
    let rung = |k: i32| first * LADDER_STEP.powi(k);
    // A rung fails only if a second probe at it fails too, so one
    // transient stall of the shared host cannot end the climb.
    let mut probe_at = |k: i32| {
        let ok = (0..2).any(|_| probe(gen, stream, rung(k), probe_secs));
        eprintln!(
            "ladder: {:.1}/s {}",
            rung(k),
            if ok { "meets" } else { "misses" }
        );
        ok
    };
    // Bracket: `pass` meets the limit, `fail` misses it. Both directions
    // are capped so a run stays bounded whatever the server does; a server
    // that misses even the lowest rung is reported at that rung, and its
    // nominal phase has already failed ops.
    let (mut pass, mut fail) = if probe_at(0) {
        let mut k = 0;
        while k < MAX_CLIMB && probe_at(k + COARSE_RUNGS) {
            k += COARSE_RUNGS;
        }
        (k, k + COARSE_RUNGS)
    } else {
        let mut k = -COARSE_RUNGS;
        while k > -MAX_DESCENT && !probe_at(k) {
            k -= COARSE_RUNGS;
        }
        (k, k + COARSE_RUNGS)
    };
    while fail - pass > 1 {
        let mid = (pass + fail) / 2;
        if probe_at(mid) {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    // A slow spell of the host during the bracketing probes leaves the
    // bracket too low: recheck upward, a rung at a time, until one misses
    // again.
    let top = fail + 2 * COARSE_RUNGS;
    while pass < top && probe_at(pass + 1) {
        pass += 1;
    }
    rung(pass)
}

/// Whether `rate` sustains: every op answered without error, and p99
/// latency within the limit over the whole probe and over its second half
/// (a backlog that grows through the probe fails the second).
fn probe(gen: &mut Generator, stream: &mut Stream, rate: f64, secs: f64) -> bool {
    let n = (rate * secs).round().max(1.0) as usize;
    let ops = stream.take(n);
    let limits = RunLimits {
        grace: Duration::from_secs(2),
        // Past this backlog the limit is already missed; stop feeding it.
        max_outstanding: Some((rate * LATENCY_LIMIT_MS / 1e3 * 4.0).ceil() as usize + 8),
    };
    let records = gen
        .run(&ops, &schedule(rate, n), Instant::now(), limits)
        .expect("ladder probe");
    let all = latencies_ms(&records, |_| true);
    let late_half = latencies_ms(&records, |i| i >= n / 2);
    let within = |v: &[f64]| quantile(v, 0.99).is_some_and(|p| p <= LATENCY_LIMIT_MS);
    records.iter().all(Record::ok) && within(&all) && within(&late_half)
}

/// Checks served outputs against offline oracles on a replica graph that
/// replays the server's ingests in the order it applied them. A read may
/// have been served from any graph version between the ingests answered
/// before it was sent and those sent before its reply came back; it must
/// equal the oracle at one of them. Returns the indices of mismatched ops.
fn verify(
    graph: &HeteroGraph,
    oracle: &WidenModel,
    ops: &[Op],
    records: &[Record],
    report: &mut Report,
) -> Vec<usize> {
    let base = graph.num_nodes() as u32;
    // (version, op index), version = position in the server's apply order.
    let mut ingests: Vec<(u32, usize)> = records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match &r.reply {
            Some(Response::Ingested { node, .. }) => Some((node.wrapping_sub(base) + 1, i)),
            _ => None,
        })
        .collect();
    ingests.sort_unstable();
    if ingests
        .iter()
        .enumerate()
        .any(|(k, &(v, _))| v as usize != k + 1)
    {
        report.fail("ingested node ids are not consecutive new ids".to_string());
        return ingests.iter().map(|&(_, i)| i).collect();
    }
    // Versions form a prefix of the apply order, so the newest matching
    // ingest bounds the version.
    let newest = |ingests: &[(u32, usize)], pred: &dyn Fn(usize) -> bool| {
        ingests
            .iter()
            .filter(|&&(_, k)| pred(k))
            .map(|&(v, _)| v as usize)
            .max()
            .unwrap_or(0)
    };
    let sent = |i: usize| records[i].sent_ns.expect("answered ops were sent");
    let done = |i: usize| records[i].done_ns.expect("answered ops have a reply time");

    struct Check {
        op: usize,
        lo: usize,
        hi: usize,
        matched: bool,
    }
    let mut checks: Vec<Check> = (0..ops.len())
        .filter(|&i| !ops[i].is_ingest() && records[i].ok())
        .step_by(CHECK_ONE_IN)
        .map(|i| Check {
            op: i,
            lo: newest(&ingests, &|k| done(k) <= sent(i)),
            hi: newest(&ingests, &|k| sent(k) <= done(i)),
            matched: false,
        })
        .collect();

    let mut replica = graph.clone();
    let mut mismatched = Vec::new();
    for version in 0..=ingests.len() {
        if version > 0 {
            let i = ingests[version - 1].1;
            let Op::Ingest {
                node_type,
                features,
                edges,
                seed,
            } = &ops[i]
            else {
                report.fail(format!("op {i} got an Ingested reply"));
                mismatched.push(i);
                continue;
            };
            let typed = typed_edges(edges);
            let id = replica
                .add_node_with_edges(NodeTypeId(*node_type), features.clone(), None, &typed)
                .expect("the server accepted this ingest");
            let Some(Response::Ingested { node, values, .. }) = &records[i].reply else {
                unreachable!("selected by its Ingested reply");
            };
            if *node != id || !rows_match(values, &oracle.embed_requests(&replica, &[(id, *seed)]))
            {
                report.fail(format!(
                    "ingest {i} (node {node}) differs from the offline oracle"
                ));
                mismatched.push(i);
            }
        }
        for c in checks
            .iter_mut()
            .filter(|c| !c.matched && (c.lo..=c.hi).contains(&version))
        {
            c.matched = match (&ops[c.op], &records[c.op].reply) {
                (Op::Embed { nodes, seed }, Some(Response::Embeddings { values, .. })) => {
                    rows_match(
                        values,
                        &oracle.embed_requests(&replica, &items(nodes, *seed)),
                    )
                }
                (
                    Op::Classify {
                        nodes,
                        seed,
                        rounds,
                    },
                    Some(Response::Classes { labels, .. }),
                ) => {
                    let want = oracle.predict_ensemble(&replica, nodes, *seed, *rounds as usize);
                    want.iter().map(|&l| l as u32).eq(labels.iter().copied())
                }
                _ => false,
            };
        }
    }
    for c in checks.iter().filter(|c| !c.matched) {
        report.fail(format!(
            "read {} differs from the oracle at every graph version {}..={}",
            c.op, c.lo, c.hi
        ));
        mismatched.push(c.op);
    }
    eprintln!(
        "verified {} reads and {} ingests against the oracle",
        checks.len(),
        ingests.len()
    );
    mismatched
}

/// Counters accumulated between two server snapshots.
fn stats_since(after: &ServeStats, before: &ServeStats) -> ServeStats {
    ServeStats {
        requests: after.requests - before.requests,
        jobs: after.jobs - before.jobs,
        batches: after.batches - before.batches,
        deadline_drops: after.deadline_drops - before.deadline_drops,
        dedup_hits: after.dedup_hits - before.dedup_hits,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        ingests: after.ingests - before.ingests,
        shed: after.shed - before.shed,
        conns_rejected: after.conns_rejected - before.conns_rejected,
        accept_errors: after.accept_errors - before.accept_errors,
    }
}

/// Observations recorded between two snapshots of one histogram. The
/// later maximum stays as the cap quantiles are clamped to.
fn histogram_since(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        bounds: after.bounds.clone(),
        buckets: after
            .buckets
            .iter()
            .zip(&before.buckets)
            .map(|(a, b)| a - b)
            .collect(),
        overflow: after.overflow - before.overflow,
        count: after.count - before.count,
        sum: after.sum - before.sum,
        max: after.max,
    }
}

/// Per-layer numbers from the server's own histograms and counters over
/// the nominal phase, plus the serving closure check.
fn server_layers(
    after: &Snapshot,
    before: &Snapshot,
    stats: &ServeStats,
    records: &[Record],
    report: &mut Report,
) {
    let hist = |name: &str| match (after.histogram(name), before.histogram(name)) {
        (Some(a), Some(b)) => Some(histogram_since(a, b)),
        (a, _) => a.cloned(),
    };
    let q = |name: &str, p: f64| hist(name).and_then(|h| h.quantile(p)).unwrap_or(0.0);
    let hist_mean = |name: &str| hist(name).map_or(0.0, |h| h.mean());
    report.set("serve.decode_us.p99", q("serve_request_decode_us", 0.99));
    report.set("serve.queue_wait_us.p50", q("serve_queue_wait_us", 0.5));
    report.set("serve.queue_wait_us.p99", q("serve_queue_wait_us", 0.99));
    report.set("serve.coalesce_us.p50", q("serve_coalesce_us", 0.5));
    report.set("serve.forward_us.p50", q("serve_forward_us", 0.5));
    report.set("serve.forward_us.p99", q("serve_forward_us", 0.99));
    report.set("serve.write_flush_us.p99", q("serve_write_flush_us", 0.99));
    report.set(
        "batcher.batch_size.mean",
        stats.jobs as f64 / stats.batches.max(1) as f64,
    );
    report.set(
        "batcher.dedup_ratio",
        stats.dedup_hits as f64 / stats.jobs.max(1) as f64,
    );
    report.set(
        "cache.hit_ratio",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
    );
    report.set("serve.shed", stats.shed as f64);
    report.set("serve.deadline_drops", stats.deadline_drops as f64);
    let errors = records
        .iter()
        .filter(|r| matches!(r.reply, Some(Response::Error { .. })))
        .count();
    report.set("serve.errors", errors as f64);

    // Client view: send to reply. Server view: decode, then decoded to
    // response buffered, then the socket flush.
    let client: Vec<f64> = records
        .iter()
        .filter_map(|r| r.service_ns().map(|ns| ns as f64 / 1e3))
        .collect();
    let server = hist_mean("serve_request_decode_us")
        + hist_mean("serve_request_latency_us")
        + hist_mean("serve_write_flush_us");
    let gap = closure_gap(mean(&client).unwrap_or(0.0), server);
    report.set("serve.closure_gap", gap);
    if let Err(e) = check_serve_closure(gap) {
        report.fail(e);
    }
}

/// Replays a prefix of the stream against the public layer calls, one
/// call at a time, outside the server.
fn replay(
    graph: &HeteroGraph,
    config: &WidenConfig,
    model: &WidenModel,
    checkpoint: &[u8],
    ops: &[Op],
    records: &[Record],
    report: &mut Report,
) {
    let prefix = &ops[..ops.len().min(REPLAY_OPS)];
    let per_call = |calls: usize, start: Instant, scale: f64| {
        if calls == 0 {
            0.0
        } else {
            start.elapsed().as_secs_f64() * scale / calls as f64
        }
    };

    let start = Instant::now();
    for (i, op) in prefix.iter().enumerate() {
        std::hint::black_box(encode_op(op, i as u64 + 1));
    }
    report.set("protocol.encode_us", per_call(prefix.len(), start, 1e6));
    let frames: Vec<Vec<u8>> = records[..prefix.len()]
        .iter()
        .filter_map(|r| r.reply.as_ref().map(encode_response))
        .collect();
    let start = Instant::now();
    for frame in &frames {
        std::hint::black_box(decode_response(&frame[4..]).expect("re-encoded reply decodes"));
    }
    report.set("protocol.decode_us", per_call(frames.len(), start, 1e6));

    let mut calls = 0;
    let start = Instant::now();
    for op in prefix {
        if let Op::Embed { nodes, seed } | Op::Classify { nodes, seed, .. } = op {
            for &v in nodes {
                std::hint::black_box(model.sample_state(graph, v, *seed));
                calls += 1;
            }
        }
    }
    report.set("sampling.sample_state_us", per_call(calls, start, 1e6));

    let mut calls = 0;
    let start = Instant::now();
    for op in prefix {
        if let Op::Embed { nodes, seed } = op {
            std::hint::black_box(model.embed_requests(graph, &items(nodes, *seed)));
            calls += 1;
        }
    }
    report.set("model.embed_ms_per_batch", per_call(calls, start, 1e3));

    let mut calls = 0;
    let start = Instant::now();
    for op in prefix {
        if let Op::Classify {
            nodes,
            seed,
            rounds,
        } = op
        {
            std::hint::black_box(model.ensemble_logits(
                graph,
                &items(nodes, *seed),
                *rounds as usize,
            ));
            calls += 1;
        }
    }
    report.set("model.classify_ms_per_batch", per_call(calls, start, 1e3));

    // Ingests are rarer than reads: replay every one of the nominal phase.
    let registry = ModelRegistry::from_checkpoint(graph.clone(), config.clone(), checkpoint)
        .expect("the checkpoint matches its own model")
        .with_backend(BackendKind::Optimized);
    let mut calls = 0;
    let start = Instant::now();
    for op in ops {
        if let Op::Ingest {
            node_type,
            features,
            edges,
            seed,
        } = op
        {
            let typed = typed_edges(edges);
            let outcome = registry.try_ingest_for(
                NodeTypeId(*node_type),
                features.clone(),
                None,
                &typed,
                *seed,
                Duration::from_secs(1),
            );
            if !matches!(outcome, Some(Ok(_))) {
                report.fail("registry replay rejected an ingest".to_string());
            }
            calls += 1;
        }
    }
    report.set("registry.ingest_ms", per_call(calls, start, 1e3));
}
