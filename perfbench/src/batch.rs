//! `analyze-pai-200k`: the `irma analyze --dir` library path over
//! on-disk PAI CSVs.
//!
//! One operation opens both CSVs, joins them, runs `try_analyze_traced`
//! with the paper defaults, renders the
//! `SM Util = 0%` report, and drops the `Analysis` — the work a CLI run
//! pays from start to exit. Between the report and the drop, untimed by
//! the operation, the benchmark checks the counts and times warm rule
//! lookups against the in-memory rule set.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use irma_core::{pai_spec, try_analyze_traced, AnalysisConfig, Metrics, Provenance, KW_SM_ZERO};
use irma_synth::{pai, TraceConfig};

use crate::report::{digest, peak_rss_mb, Outcome};
use crate::spans::{self, Recorder};
use crate::{Ctx, Measured};

/// Jobs in the trace.
const JOBS: usize = 200_000;
/// Layers whose combined self time the workload is expected to be
/// dominated by; the traced run reports whether that still holds.
const CLAIM: [&str; 2] = ["data", "prep"];

/// Keyword whose report the operation renders (the CLI's `--top` default).
const KEYWORD: &str = KW_SM_ZERO;
const TOP: usize = 6;
/// Warm operations per analysis: explain-style `Analysis::find_rule`
/// lookups of seeded rules through the rule trie.
const WARM_LOOKUPS: usize = 2_000;

/// Distinct traces per workload: `--seed n` generates the trace of seed
/// `n % PINNED_SEEDS`, so every run's answers are checked against
/// `pinned.tsv`, which holds all of them.
const PINNED_SEEDS: u64 = 32;

/// The trace seed behind a run's `--seed`.
fn data_seed(seed: u64) -> u64 {
    seed % PINNED_SEEDS
}

/// Writes the seeded trace as `pai_scheduler.csv` + `pai_monitoring.csv`.
pub fn setup(seed: u64, dir: &Path) -> Result<(), String> {
    pai(&TraceConfig::with_jobs(JOBS).seeded(data_seed(seed)))
        .write_csv_dir(dir)
        .map(|_| ())
        .map_err(|e| format!("writing trace CSVs: {e}"))
}

/// What one operation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub itemsets: usize,
    pub rules: usize,
    pub kept: usize,
    pub report_digest: String,
}

impl Answer {
    /// The pinned-table form: `itemsets rules kept digest`.
    pub fn pinned_form(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}",
            self.itemsets, self.rules, self.kept, self.report_digest
        )
    }
}

struct Iteration {
    answer: Answer,
    /// Rules entering the keyword's pruning stage.
    rules_in: usize,
    items_emitted: usize,
    op_s: f64,
    warm_s: Vec<f64>,
}

/// One operation plus its untimed checks and warm queries. With a
/// recorder, the benchmark's spans (and the program's, nested under
/// them) land in it: root `bench.analyze` over open → report, root
/// `rules.drop` over the drop.
fn iteration(seed: u64, dir: &Path, recorder: Option<&Recorder>) -> Result<Iteration, String> {
    let metrics = recorder.map(|r| r.metrics.clone()).unwrap_or_default();
    let config = AnalysisConfig::default();
    let read = |name: &str| {
        let path = dir.join(name);
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let mut span = metrics.span("data.read_csv");
        span.field("bytes", bytes);
        irma_data::read_csv_path(&path).map_err(|e| format!("reading {name}: {e}"))
    };

    let started = Instant::now();
    let (analysis, frame, report) = {
        let _root = metrics.span("bench.analyze");
        let scheduler = read("pai_scheduler.csv")?;
        let monitoring = read("pai_monitoring.csv")?;
        let frame = {
            let _span = metrics.span("data.join");
            let joined = irma_data::inner_join(&scheduler, &monitoring, "job_id");
            drop((scheduler, monitoring));
            joined.map_err(|e| format!("joining: {e}"))?
        };
        let analysis = {
            let _span = metrics.span("core.try_analyze");
            try_analyze_traced(
                &frame,
                &pai_spec(),
                &config,
                &metrics,
                &Provenance::disabled(),
            )
            .map_err(|e| format!("analysis failed: {e}"))?
        };
        let report = {
            let _span = metrics.span("core.render");
            analysis.render_keyword_with(KEYWORD, TOP, &metrics)
        };
        (analysis, frame, report)
    };
    let analyzed_s = started.elapsed().as_secs_f64();

    let quiet = Metrics::disabled();
    let keyword = analysis
        .keyword_with(KEYWORD, &quiet)
        .ok_or_else(|| format!("keyword `{KEYWORD}` missing from the catalog"))?;
    let db = &analysis.encoded.db;
    let items_emitted = (0..db.len()).map(|i| db.transaction(i).len()).sum();
    let answer = Answer {
        itemsets: analysis.frequent.len(),
        rules: analysis.rules.len(),
        kept: keyword.outcome.kept.len(),
        report_digest: digest(&report),
    };
    let rules_in = keyword.outcome.total();
    drop(keyword);
    let mut warm_s = Vec::with_capacity(WARM_LOOKUPS);
    for i in 0..WARM_LOOKUPS {
        let rule =
            &analysis.rules[(crate::mix(seed ^ i as u64) % answer.rules.max(1) as u64) as usize];
        let (ante, cons) = (rule.antecedent.items(), rule.consequent.items());
        let t = Instant::now();
        let found = analysis.find_rule(ante, cons);
        warm_s.push(t.elapsed().as_secs_f64());
        if !found.is_some_and(|f| f.antecedent.items() == ante && f.consequent.items() == cons) {
            return Err(format!("rule lookup {i} did not find its rule"));
        }
    }

    let dropping = Instant::now();
    {
        let _span = metrics.span("rules.drop");
        drop(analysis);
        drop(frame);
    }
    let op_s = analyzed_s + dropping.elapsed().as_secs_f64();
    Ok(Iteration {
        answer,
        rules_in,
        items_emitted,
        op_s,
        warm_s,
    })
}

/// The pinned answer for `(workload, seed)`.
fn pinned(workload: &str, seed: u64) -> Option<String> {
    let seed = data_seed(seed);
    include_str!("../pinned.tsv").lines().find_map(|line| {
        let mut cols = line.splitn(3, '\t');
        (cols.next()? == workload && cols.next()?.parse::<u64>().ok()? == seed)
            .then(|| cols.next().map(str::to_string))
            .flatten()
    })
}

/// One pinned-table line for `seed`, computed from a set-up directory.
pub fn pin(workload: &str, seed: u64, dir: &Path) -> Result<String, String> {
    let answer = iteration(seed, dir, None)?.answer;
    Ok(format!(
        "{workload}\t{}\t{}",
        data_seed(seed),
        answer.pinned_form()
    ))
}

/// Runs the workload for `ctx.seconds`.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<Measured, String> {
    let mut measured = Measured::default();
    let mut traced_op = Vec::new();
    let mut layer_samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut trace_log = String::new();
    let mut answers = Vec::new();
    let mut last = None;
    let started = Instant::now();
    let mut index = 0usize;
    // A traced run alternates untraced and traced operations, so the
    // tracing overhead is measured on the same data and the same host
    // state; it needs at least one of each.
    while started.elapsed().as_secs_f64() < ctx.seconds || (ctx.trace && index < 2) {
        let traced = ctx.trace && index % 2 == 1;
        let recorder = traced.then(Recorder::new);
        let it = iteration(ctx.seed, &ctx.data_dir, recorder.as_ref())?;
        if let Some(recorder) = &recorder {
            traced_op.push(it.op_s);
            let spans = recorder.spans();
            let layers = spans::layer_self_times(&spans);
            let wall =
                spans::wall_of(&spans, "bench.analyze") + spans::wall_of(&spans, "rules.drop");
            let unattributed = layers.get("unattributed").copied().unwrap_or(0.0) / wall;
            out.op(unattributed <= 0.05, || {
                format!(
                    "layer spans cover {:.1}% of the wall (< 95%)",
                    100.0 * (1.0 - unattributed)
                )
            });
            let read_s = spans::wall_of(&spans, "data.read_csv");
            let read_bytes: u64 = spans
                .iter()
                .filter(|s| s.stage == "data.read_csv")
                .filter_map(|s| s.field("bytes"))
                .sum();
            let own = spans::self_times(&spans);
            let self_of = |stage: &str| -> f64 {
                spans
                    .iter()
                    .filter(|s| s.stage == stage)
                    .map(|s| own[&s.id])
                    .sum()
            };
            let mut sample = |name: &str, value: f64| {
                layer_samples
                    .entry(name.to_string())
                    .or_default()
                    .push(value);
            };
            sample("data.read_csv_s", read_s);
            sample("data.read_csv_mb_per_s", read_bytes as f64 / 1e6 / read_s);
            sample("data.join_s", spans::wall_of(&spans, "data.join"));
            sample("prep.fit_s", spans::wall_of(&spans, "prep.fit"));
            sample("prep.transform_s", spans::wall_of(&spans, "prep.transform"));
            sample(
                "mine.fpgrowth_s",
                layers.get("mine").copied().unwrap_or(0.0),
            );
            sample("rules.generate_s", spans::wall_of(&spans, "rules.generate"));
            sample("rules.trie_build_s", self_of("core.analyze"));
            sample("rules.prune_s", spans::wall_of(&spans, "rules.prune"));
            sample("rules.drop_s", spans::wall_of(&spans, "rules.drop"));
            sample("core.render_s", self_of("core.render"));
            sample("unattributed_share", unattributed);
            sample("trace.wall_s", wall);
            for layer in spans::LAYERS {
                let own = layers.get(layer).copied().unwrap_or(0.0);
                sample(&format!("self.{layer}_s"), own);
                sample(&format!("share.{layer}"), own / wall);
            }
            trace_log.push_str(&recorder.log());
        } else {
            measured.op_ms.push(it.op_s * 1e3);
            measured.warm_ms.extend(it.warm_s.iter().map(|s| s * 1e3));
        }
        answers.push(it.answer.clone());
        last = Some(it);
        index += 1;
    }
    measured.rss_mb = peak_rss_mb();

    // Output check: every operation's answer equals the pinned one.
    let expected = pinned(&ctx.workload, ctx.seed).ok_or_else(|| {
        format!(
            "pinned.tsv has no answer for trace seed {}",
            data_seed(ctx.seed)
        )
    })?;
    out.detail_num("data_seed", data_seed(ctx.seed) as f64);
    for answer in &answers {
        let got = answer.pinned_form();
        out.op(got == expected, || {
            format!("answer `{got}` differs from the reference `{expected}`")
        });
    }

    if let Some(path) = &ctx.trace_log {
        spans::write_log(path, &trace_log).map_err(|e| format!("writing trace log: {e}"))?;
    }
    out.detail_num("jobs", JOBS as f64);
    out.detail_num("min_support", AnalysisConfig::default().miner.min_support);
    let last = last.expect("at least one operation ran");
    out.detail_num("itemsets", last.answer.itemsets as f64);
    out.detail_num("rules", last.answer.rules as f64);
    out.detail_num("kept", last.answer.kept as f64);
    out.detail_str("report_digest", &last.answer.report_digest);
    if ctx.trace {
        for (name, values) in layer_samples {
            measured.layer.insert(name, crate::stats::median(&values));
        }
        let mut put = |name: &str, value: f64| measured.layer.insert(name.to_string(), value);
        put("prep.items_emitted", last.items_emitted as f64);
        put("mine.itemsets", last.answer.itemsets as f64);
        put("rules.generated", last.answer.rules as f64);
        put(
            "rules.kept_share",
            last.answer.kept as f64 / last.rules_in.max(1) as f64,
        );
        put(
            "trace.overhead_share",
            crate::stats::median(&traced_op) * 1e3 / crate::stats::median(&measured.op_ms) - 1.0,
        );
        check_split(&measured.layer, out);
    }
    Ok(measured)
}

/// Reports whether the claimed layers still hold the largest share of the
/// traced wall time (`share.<layer>` values).
fn check_split(layer: &BTreeMap<String, f64>, out: &mut Outcome) {
    let share = |l: &str| layer.get(&format!("share.{l}")).copied().unwrap_or(0.0);
    let claimed: f64 = CLAIM.iter().map(|l| share(l)).sum();
    let rival = spans::LAYERS
        .iter()
        .filter(|l| !CLAIM.contains(l))
        .map(|l| (share(l), *l))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap_or((0.0, "none"));
    out.detail_str(
        "split_claim",
        &format!("{} is the largest share", CLAIM.join("+")),
    );
    out.detail_num("split_claim_share", claimed);
    out.detail_str("split_runner_up", rival.1);
    out.detail_num("split_runner_up_share", rival.0);
    out.details
        .push(("split_holds".to_string(), (claimed > rival.0).to_string()));
}
