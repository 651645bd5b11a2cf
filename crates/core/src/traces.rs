//! One-call preparation of a trace: generate -> merge -> analyze, and
//! the on-disk counterpart of the merge step.

use std::path::Path;

use irma_data::{inner_join, read_csv_path, Frame};
use irma_obs::Metrics;
use irma_synth::{pai, philly, supercloud, TraceBundle, TraceConfig};

use crate::specs::{pai_spec, philly_spec, supercloud_spec};
use crate::workflow::{analyze, Analysis, AnalysisConfig};

/// A fully prepared trace: the generated bundle, the merged frame, and the
/// completed workflow run.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Trace name (`"pai"`, `"supercloud"`, `"philly"`).
    pub name: &'static str,
    /// The generated scheduler + monitoring files.
    pub bundle: TraceBundle,
    /// The joined per-job frame.
    pub merged: Frame,
    /// The workflow output (encoded transactions, itemsets, rules).
    pub analysis: Analysis,
}

/// Job counts and seed for a full three-trace experiment run.
///
/// Defaults reproduce the paper's *relative* scale (PAI ~8.5x the others)
/// at a size that runs in seconds; pass larger counts for full-scale runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// PAI job count.
    pub pai_jobs: usize,
    /// SuperCloud job count.
    pub supercloud_jobs: usize,
    /// Philly job count.
    pub philly_jobs: usize,
    /// Shared RNG seed.
    pub seed: u64,
}

impl Default for ExperimentScale {
    fn default() -> ExperimentScale {
        ExperimentScale {
            pai_jobs: 85_000,
            supercloud_jobs: 10_000,
            philly_jobs: 10_000,
            seed: 0xdcc0,
        }
    }
}

impl ExperimentScale {
    /// A scale small enough for debug-build tests.
    pub fn tiny() -> ExperimentScale {
        ExperimentScale {
            pai_jobs: 8_000,
            supercloud_jobs: 4_000,
            philly_jobs: 4_000,
            seed: 0xdcc0,
        }
    }
}

/// Generates and analyses one trace by name.
pub fn prepare(
    name: &str,
    trace_config: &TraceConfig,
    analysis_config: &AnalysisConfig,
) -> TraceAnalysis {
    let (bundle, spec) = match name {
        "pai" => (pai(trace_config), pai_spec()),
        "supercloud" => (supercloud(trace_config), supercloud_spec()),
        "philly" => (philly(trace_config), philly_spec()),
        other => panic!("unknown trace `{other}`"),
    };
    let merged = bundle.merged();
    let analysis = analyze(&merged, &spec, analysis_config);
    TraceAnalysis {
        name: bundle.name,
        bundle,
        merged,
        analysis,
    }
}

/// Prepares all three traces at the given scale.
pub fn prepare_all(scale: &ExperimentScale, config: &AnalysisConfig) -> [TraceAnalysis; 3] {
    let make = |name: &str, n: usize| {
        prepare(
            name,
            &TraceConfig {
                n_jobs: n,
                seed: scale.seed,
                max_monitor_samples: 128,
            },
            config,
        )
    };
    [
        make("pai", scale.pai_jobs),
        make("supercloud", scale.supercloud_jobs),
        make("philly", scale.philly_jobs),
    ]
}

/// Reads a trace previously written by [`TraceBundle::write_csv_dir`] and
/// re-joins it into the analysis frame. Records one `data.read_csv` span
/// per file (fields `bytes` and `rows`) and one `data.join` span into
/// `metrics`.
pub fn read_merged_csv_dir<P: AsRef<Path>>(
    dir: P,
    name: &str,
    metrics: &Metrics,
) -> irma_data::Result<Frame> {
    let dir = dir.as_ref();
    let read = |file: String| -> irma_data::Result<Frame> {
        let path = dir.join(file);
        let mut span = metrics.span("data.read_csv");
        let frame = read_csv_path(&path)?;
        span.field("bytes", std::fs::metadata(&path).map_or(0, |m| m.len()));
        span.field("rows", frame.n_rows() as u64);
        Ok(frame)
    };
    let scheduler = read(format!("{name}_scheduler.csv"))?;
    let monitoring = read(format!("{name}_monitoring.csv"))?;
    let _span = metrics.span("data.join");
    inner_join(&scheduler, &monitoring, "job_id")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_csv_dir_round_trip() {
        let bundle = supercloud(&TraceConfig {
            n_jobs: 200,
            seed: 3,
            max_monitor_samples: 16,
        });
        let dir = std::env::temp_dir().join(format!("irma_bundle_{}", std::process::id()));
        let (sched, mon) = bundle.write_csv_dir(&dir).unwrap();
        assert!(sched.exists() && mon.exists());
        let metrics = Metrics::enabled();
        let merged = read_merged_csv_dir(&dir, "supercloud", &metrics).unwrap();
        assert_eq!(merged.n_rows(), bundle.n_jobs());
        assert_eq!(merged.n_cols(), bundle.merged().n_cols());
        let snapshot = metrics.snapshot();
        let reads: Vec<_> = snapshot
            .stages
            .iter()
            .filter(|s| s.stage == "data.read_csv")
            .collect();
        assert_eq!(reads.len(), 2);
        for read in reads {
            assert_eq!(read.field("rows"), Some(200));
            assert!(read.field("bytes").is_some_and(|b| b > 0));
        }
        assert!(snapshot.stage("data.join").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prepare_runs_all_traces() {
        let tc = TraceConfig {
            n_jobs: 2_000,
            seed: 5,
            max_monitor_samples: 32,
        };
        let ac = AnalysisConfig::default();
        for name in ["pai", "supercloud", "philly"] {
            let t = prepare(name, &tc, &ac);
            assert_eq!(t.name, name);
            assert_eq!(t.analysis.n_jobs(), 2_000);
            assert!(!t.analysis.frequent.is_empty(), "{name}: no itemsets");
            assert!(!t.analysis.rules.is_empty(), "{name}: no rules");
        }
    }

    #[test]
    #[should_panic(expected = "unknown trace")]
    fn unknown_trace_panics() {
        prepare(
            "helios",
            &TraceConfig::with_jobs(10),
            &AnalysisConfig::default(),
        );
    }
}
