//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-yelp|serve-read-zipf|serve-ingest-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones, measured with every probe off; with
//! `--trace 1` they are the per-layer ones from a separate, instrumented
//! run. See `perfbench/README.md` for what each metric means.

mod checks;
mod loadgen;
mod serve;
mod stats;
mod stream;
mod train;

use std::collections::BTreeMap;
use std::process::ExitCode;

use widen_tensor::BackendKind;

/// End-to-end metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`). A layer that does no work in a
/// workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sampling.init_s", "s"),
    ("sampling.sample_state_us", "us"),
    ("packaging.epoch_s", "s"),
    ("forward.epoch_s", "s"),
    ("backward.epoch_s.early", "s"),
    ("backward.epoch_s.late", "s"),
    ("optim.epoch_s", "s"),
    ("downsample.epoch_s", "s"),
    ("tensor.matmul.bwd_s", "s"),
    ("tensor.segment_weighted_sum.bwd_s", "s"),
    ("tensor.padded_segment_scores.bwd_s", "s"),
    ("tensor.select_rows.bwd_s", "s"),
    ("tensor.grad_pool_hit_ratio", "ratio"),
    ("downsample.wide_drops", "count"),
    ("downsample.deep_drops", "count"),
    ("downsample.deep_exhausted_epoch", "epoch"),
    ("trainer.closure_gap", "ratio"),
    ("trace_overhead", "ratio"),
    ("micro_f1", "ratio"),
    ("gen.lateness_ms.p99", "ms"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("serve.decode_us.p99", "us"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.coalesce_us.p50", "us"),
    ("serve.forward_us.p50", "us"),
    ("serve.forward_us.p99", "us"),
    ("serve.write_flush_us.p99", "us"),
    ("batcher.batch_size.mean", "count"),
    ("batcher.dedup_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("model.embed_ms_per_batch", "ms"),
    ("model.classify_ms_per_batch", "ms"),
    ("registry.ingest_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.deadline_drops", "count"),
    ("serve.errors", "count"),
    ("serve.closure_gap", "ratio"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
    ("train_nodes_per_s", "1/s"),
    ("read_max_rps", "1/s"),
    ("failed_ratio", "ratio"),
];

/// What one run measured and whether its outputs were correct.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Broken correctness or closure checks; any entry fails the run.
    pub errors: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.errors.push(why);
    }

    /// The result line: end-to-end metrics for an untraced run, per-layer
    /// metrics for a traced one.
    fn result_line(&mut self, trace: bool) -> String {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in list {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.fail(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                // A layer with no work in this workload.
                None if trace => 0.0,
                None => {
                    self.fail(format!("end-to-end metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainYelp,
    ServeReadZipf,
    ServeIngestMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "train-yelp" => Some(Self::TrainYelp),
            "serve-read-zipf" => Some(Self::ServeReadZipf),
            "serve-ingest-mix" => Some(Self::ServeIngestMix),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <train-yelp|serve-read-zipf|serve-ingest-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pinned before any tensor work, so the kernel backend never comes
    // from the environment.
    widen_tensor::set_default_backend(BackendKind::Optimized);
    let mut report = match args.workload {
        Workload::TrainYelp => train::run(args.seed, args.trace),
        w => serve::run(w, args.seed, args.seconds, args.trace),
    };
    let line = report.result_line(args.trace);
    println!("{line}");
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve-ingest-mix --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeIngestMix);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload train-yelp --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv(
            "--workload train-yelp --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
    }

    /// BENCHMARK.json must name exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let section = |key: &str, next: &str| {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..]
                .find(&format!("\"{next}\""))
                .map_or(text.len(), |e| start + e);
            text[start..end].to_string()
        };
        for (list, body) in [
            (END_TO_END, section("end_to_end", "per_layer")),
            (PER_LAYER, section("per_layer", "run_seconds")),
        ] {
            let named = body.matches("\"name\"").count();
            assert_eq!(named, list.len(), "metric count in BENCHMARK.json");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
        for w in ["train-yelp", "serve-read-zipf", "serve-ingest-mix"] {
            assert!(Workload::parse(w).is_some());
            assert!(text.contains(&format!("\"name\": \"{w}\"")));
        }
    }

    #[test]
    fn untraced_result_has_every_end_to_end_metric() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());

        let mut missing = Report::default();
        assert!(missing
            .result_line(false)
            .starts_with("{\"correct\": false"));
    }
}
