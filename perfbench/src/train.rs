//! `train-yelp`: `Trainer::new` and a full `Trainer::fit` on the Yelp-like
//! table-scale graph with the table configuration (20 epochs), then
//! micro-F1 on held-out labelled nodes.
//!
//! Twenty epochs cross the first KL-triggered downsampling and run on into
//! the late regime, where deep downsampling has nothing left to drop and
//! backward time per epoch climbs. End-to-end numbers come from identical
//! untraced fits; the traced run makes those fits too, then fits again with
//! the per-epoch metrics sink and the op profiler on and attributes the
//! time to phases.

use std::path::PathBuf;
use std::time::Instant;

use widen_bench::runners::table_widen_config;
use widen_bench::RunScale;
use widen_core::{TrainReport, Trainer, WidenConfig, WidenModel};
use widen_data::{yelp_like, Scale};
use widen_eval::micro_f1;
use widen_graph::{HeteroGraph, NodeId};
use widen_tensor::{BackendKind, ProfileReport};

use crate::checks::{check_train_closure, closure_gap};
use crate::stats::{mean, median, peak_rss_mb};
use crate::Report;

/// Identical fits per run. Epoch times follow the shared host's speed,
/// which drifts by a quarter within seconds, so the per-epoch metrics pool
/// the epochs of several fits, each in its own stretch of the run.
const FITS: usize = 2;
/// Set-ups per round; one round runs before each fit and one after the
/// last. `setup_s` is the median over all rounds, so one slow spell of a
/// shared host cannot decide it.
const SETUP_REPS: usize = 40;
/// Held-out labelled nodes scored for micro-F1.
const EVAL_NODES: usize = 1000;
const EVAL_SEED: u64 = 0xE7A1;
const EVAL_ROUNDS: usize = 3;
/// Three classes give chance-level micro-F1 near 1/3 and the fitted model
/// scores about 0.94; a change that costs more accuracy than this floor
/// allows fails the run.
const MICRO_F1_FLOOR: f64 = 0.8;
/// Nodes replayed through `WidenModel::sample_state`.
const SAMPLE_REPLAY_NODES: usize = 1000;
/// Ops whose backward time is reported as `tensor.<op>.bwd_s`: the largest
/// backward costs at the late epochs.
const PROFILED_OPS: &[(&str, &str)] = &[
    ("matmul", "tensor.matmul.bwd_s"),
    ("segment_weighted_sum", "tensor.segment_weighted_sum.bwd_s"),
    (
        "padded_segment_scores",
        "tensor.padded_segment_scores.bwd_s",
    ),
    ("select_rows", "tensor.select_rows.bwd_s"),
];

struct Inputs {
    graph: HeteroGraph,
    train: Vec<NodeId>,
    eval: Vec<NodeId>,
    config: WidenConfig,
}

fn inputs(seed: u64) -> Inputs {
    let dataset = yelp_like(Scale::Table, seed);
    let config = table_widen_config(RunScale::Table)
        .with_seed(seed)
        .with_backend(BackendKind::Optimized);
    let eval = dataset
        .transductive
        .test
        .iter()
        .copied()
        .take(EVAL_NODES)
        .collect();
    Inputs {
        train: dataset.transductive.train,
        graph: dataset.graph,
        eval,
        config,
    }
}

/// Builds a model and its trainer; returns it with the set-up time and the
/// part of it spent in `Trainer::new` (initial neighbourhood sampling).
fn set_up<'g>(inp: &'g Inputs) -> (Trainer<'g>, f64, f64) {
    let start = Instant::now();
    let model = WidenModel::for_graph(&inp.graph, inp.config.clone());
    let built = Instant::now();
    let trainer = Trainer::new(model, &inp.graph, &inp.train);
    let end = Instant::now();
    (
        trainer,
        (end - start).as_secs_f64(),
        (end - built).as_secs_f64(),
    )
}

/// Epochs (0-based) after the last one in which deep downsampling dropped
/// anything: the late regime. If the last epoch still dropped, the final
/// epoch stands in for it.
fn late_epochs(report: &TrainReport) -> Vec<usize> {
    let epochs = report.epoch_secs.len();
    let first = report
        .epoch_stats
        .iter()
        .rposition(|s| s.deep_drops > 0)
        .map_or(0, |last| last + 1);
    if first < epochs {
        (first..epochs).collect()
    } else {
        vec![epochs - 1]
    }
}

pub fn run(seed: u64, trace: bool) -> Report {
    let mut report = Report::default();
    let inp = inputs(seed);
    eprintln!(
        "train-yelp: {} nodes, {} train, {} epochs",
        inp.graph.num_nodes(),
        inp.train.len(),
        inp.config.epochs
    );

    let mut setups = Vec::new();
    let mut inits = Vec::new();
    let mut setup_round = || {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let (trainer, setup, init) = set_up(&inp);
            setups.push(setup);
            inits.push(init);
            last = Some(trainer);
        }
        last.expect("at least one set-up")
    };
    let mut fits = Vec::new();
    let mut fit_walls = Vec::new();
    let mut model = None;
    for _ in 0..FITS {
        let mut trainer = setup_round();
        let start = Instant::now();
        fits.push(trainer.fit(&inp.train));
        fit_walls.push(start.elapsed().as_secs_f64());
        model = Some(trainer.into_model());
    }
    setup_round();
    let model = model.expect("at least one fit");
    let fit = &fits[0];

    let epochs = fit.epoch_secs.len();
    report.attempted = (epochs * FITS) as u64;
    report.failed = fits
        .iter()
        .flat_map(|f| &f.epoch_losses)
        .filter(|l| !l.is_finite())
        .count() as u64;
    if report.failed > 0 {
        report.fail(format!("{} epochs had a non-finite loss", report.failed));
    }
    let truth: Vec<usize> = inp
        .eval
        .iter()
        .map(|&v| inp.graph.label(v).expect("held-out nodes are labelled") as usize)
        .collect();
    let preds = model.predict_ensemble(&inp.graph, &inp.eval, EVAL_SEED, EVAL_ROUNDS);
    let f1 = micro_f1(&truth, &preds);
    if f1 < MICRO_F1_FLOOR {
        report.fail(format!(
            "micro-F1 {f1:.4} is below the floor {MICRO_F1_FLOOR}"
        ));
    }
    // Epoch times of both regimes, pooled over the fits. Before the late
    // regime means the whole fit when the late regime is only the stand-in
    // final epoch.
    let mut early_secs = Vec::new();
    let mut late_secs = Vec::new();
    for f in &fits {
        let late = late_epochs(f);
        late_secs.extend(late.iter().map(|&e| f.epoch_secs[e]));
        early_secs.extend_from_slice(match &f.epoch_secs[..late[0]] {
            [] => &f.epoch_secs[..],
            early => early,
        });
        eprintln!(
            "fit: late regime from epoch {}; epoch secs (deep drops) {:?}",
            late[0] + 1,
            f.epoch_secs
                .iter()
                .zip(&f.epoch_stats)
                .map(|(s, st)| format!("{s:.3} ({})", st.deep_drops))
                .collect::<Vec<_>>()
        );
    }
    let fit_wall = mean(&fit_walls).expect("at least one fit");
    eprintln!("fits {fit_walls:.2?} s, micro-F1 {f1:.4}");

    if !trace {
        report.set("setup_s", median(&setups).expect("set-ups ran"));
        report.set("peak_rss_mb", peak_rss_mb());
        report.set(
            "ok_ratio",
            1.0 - report.failed as f64 / report.attempted as f64,
        );
        // Mean epoch times: epoch time falls through the early regime as
        // downsampling shrinks neighbourhoods and climbs through the late
        // one, so a mean weighs every epoch where a median picks one. A
        // median over all epochs would sit where the two regimes meet and
        // jump with the epoch the late regime starts.
        report.set(
            "latency_p50_ms",
            mean(&early_secs).expect("epochs ran") * 1e3,
        );
        report.set(
            "latency_tail_ms",
            mean(&late_secs).expect("late regime is never empty") * 1e3,
        );
        return report;
    }

    report.set("micro_f1", f1);
    report.set(
        "train_nodes_per_s",
        (inp.train.len() * epochs) as f64 / fit_wall,
    );
    report.set(
        "failed_ratio",
        report.failed as f64 / report.attempted as f64,
    );
    report.set("sampling.init_s", median(&inits).expect("set-ups ran"));
    let replay: Vec<NodeId> = inp
        .train
        .iter()
        .copied()
        .take(SAMPLE_REPLAY_NODES)
        .collect();
    let start = Instant::now();
    for &v in &replay {
        std::hint::black_box(model.sample_state(&inp.graph, v, seed));
    }
    report.set(
        "sampling.sample_state_us",
        start.elapsed().as_secs_f64() * 1e6 / replay.len() as f64,
    );
    traced_fit(&inp, fit_wall, &mut report);
    report
}

/// Fits again with the per-epoch metrics sink and the op profiler on, and
/// attributes epoch time to the trainer's phases.
fn traced_fit(inp: &Inputs, plain_wall: f64, report: &mut Report) {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.out"));
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    let path = dir.join(format!("train-epochs-{}.jsonl", std::process::id()));
    let (mut trainer, _, _) = set_up(inp);
    trainer
        .set_metrics_out(&path)
        .expect("open the per-epoch metrics file");
    trainer.set_profiling(true);
    let start = Instant::now();
    let fit = trainer.fit(&inp.train);
    let traced_wall = start.elapsed().as_secs_f64();
    let counters = trainer.metrics().snapshot();
    drop(trainer);
    let text = std::fs::read_to_string(&path).expect("read the per-epoch metrics file");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    let epochs: Vec<EpochRecord> = text.lines().filter_map(EpochRecord::parse).collect();
    if epochs.len() != fit.epoch_secs.len() {
        report.fail(format!(
            "metrics sink wrote {} epoch records for {} epochs",
            epochs.len(),
            fit.epoch_secs.len()
        ));
        return;
    }

    report.set("trace_overhead", traced_wall / plain_wall - 1.0);
    let wall: f64 = epochs.iter().map(|e| e.secs).sum();
    let parts: f64 = epochs.iter().map(EpochRecord::phase_secs).sum();
    let gap = closure_gap(wall, parts);
    report.set("trainer.closure_gap", gap);
    if let Err(e) = check_train_closure(gap) {
        report.fail(e);
    }

    let late = late_epochs(&fit);
    let per_epoch = |f: &dyn Fn(&EpochRecord) -> f64, which: &[usize]| {
        let v: Vec<f64> = which.iter().map(|&e| f(&epochs[e])).collect();
        median(&v).unwrap_or(0.0)
    };
    let all: Vec<usize> = (0..epochs.len()).collect();
    let early: Vec<usize> = (0..late[0]).collect();
    report.set("packaging.epoch_s", per_epoch(&|e| e.packaging, &all));
    report.set("forward.epoch_s", per_epoch(&|e| e.forward_self(), &all));
    report.set("backward.epoch_s.early", per_epoch(&|e| e.backward, &early));
    report.set("backward.epoch_s.late", per_epoch(&|e| e.backward, &late));
    report.set("optim.epoch_s", per_epoch(&|e| e.optim, &all));
    report.set("downsample.epoch_s", per_epoch(&|e| e.downsample, &all));
    report.set("downsample.wide_drops", fit.wide_drops as f64);
    report.set("downsample.deep_drops", fit.deep_drops as f64);
    // 1-based: the first epoch of the late regime.
    report.set("downsample.deep_exhausted_epoch", (late[0] + 1) as f64);

    let mut profile = ProfileReport::default();
    for p in &fit.epoch_profiles {
        profile.merge(p);
    }
    for &(op, metric) in PROFILED_OPS {
        let nanos: u64 = profile
            .ops
            .iter()
            .filter(|o| o.name == op)
            .map(|o| o.bwd_nanos)
            .sum();
        report.set(metric, nanos as f64 / 1e9);
    }
    eprintln!("{}", profile.render_table(8));
    let hits = counters.counter("core_grad_pool_hits_total").unwrap_or(0);
    let misses = counters.counter("core_grad_pool_misses_total").unwrap_or(0);
    report.set(
        "tensor.grad_pool_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}

/// One `"epoch"` record of the trainer's metrics sink, in seconds.
#[derive(Debug, PartialEq)]
struct EpochRecord {
    secs: f64,
    packaging: f64,
    forward: f64,
    backward: f64,
    optim: f64,
    downsample: f64,
}

impl EpochRecord {
    /// Parses an epoch line; other events yield `None`. The sink writes
    /// flat objects, so a key scan is enough.
    fn parse(line: &str) -> Option<Self> {
        if !line.starts_with("{\"event\":\"epoch\"") {
            return None;
        }
        let num = |key: &str| -> Option<f64> {
            let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
            let rest = &line[at..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        let nanos = |key: &str| num(key).map(|n| n / 1e9);
        Some(Self {
            secs: num("secs")?,
            packaging: nanos("packaging_nanos")?,
            forward: nanos("forward_nanos")?,
            backward: nanos("backward_nanos")?,
            optim: nanos("optim_nanos")?,
            downsample: nanos("downsample_nanos")?,
        })
    }

    /// Forward time outside packaging: packaging runs inside the forward
    /// pass, so the forward counter already includes it.
    fn forward_self(&self) -> f64 {
        self.forward - self.packaging
    }

    /// Sum of the disjoint phases.
    fn phase_secs(&self) -> f64 {
        self.packaging + self.forward_self() + self.backward + self.optim + self.downsample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widen_core::EpochStats;

    #[test]
    fn epoch_records_parse_from_the_sink_format() {
        let line = "{\"event\":\"epoch\",\"epoch\":3,\"loss\":0.5,\"secs\":0.25,\"kl_mean\":null,\
                    \"packaging_nanos\":10000000,\"forward_nanos\":60000000,\
                    \"backward_nanos\":150000000,\"optim_nanos\":5000000,\
                    \"downsample_nanos\":20000000,\"grad_max_param\":\"w\"}";
        let r = EpochRecord::parse(line).unwrap();
        assert_eq!(r.secs, 0.25);
        assert!((r.forward_self() - 0.05).abs() < 1e-12);
        assert!((r.phase_secs() - 0.235).abs() < 1e-12);
        assert!(EpochRecord::parse("{\"event\":\"op_profile\",\"epoch\":3}").is_none());
    }

    #[test]
    fn late_regime_starts_after_the_last_deep_drop() {
        let with_drops = |drops: &[u64]| TrainReport {
            epoch_secs: vec![1.0; drops.len()],
            epoch_stats: drops
                .iter()
                .map(|&d| EpochStats {
                    deep_drops: d,
                    ..EpochStats::default()
                })
                .collect(),
            ..TrainReport::default()
        };
        assert_eq!(late_epochs(&with_drops(&[0, 5, 3, 0, 0])), vec![3, 4]);
        assert_eq!(late_epochs(&with_drops(&[0, 5, 3])), vec![2]);
        assert_eq!(late_epochs(&with_drops(&[0, 0])), vec![0, 1]);
    }
}
