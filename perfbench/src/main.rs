//! End-to-end and per-layer benchmark of the IRMA workspace.
//!
//! ```text
//! irma-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up from the seed (in child processes, several times,
//! reporting the median as `setup_s`), measures it for `--seconds`,
//! checks every output, and prints a details line followed by the result
//! line: one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics with tracing
//! off; `--trace 1` is the separate traced run that reports the
//! per-layer metrics and writes its spans to
//! `.bench_out/<workload>-seed<n>.trace.jsonl`. See `README.md`.

mod batch;
mod report;
mod serve;
mod spans;
mod stats;
mod watch;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use report::Outcome;

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Batch,
    Serve,
    Watch,
}

struct Workload {
    name: &'static str,
    why: &'static str,
    kind: Kind,
}

/// The workloads; `why` repeats the sentence in `BENCHMARK.json`.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "analyze-pai-200k",
        why: "irma analyze --dir path over a seeded 200k-job PAI trace (32 MB CSV) at min_support 0.05: CSV read, join and prep dominate",
        kind: Kind::Batch,
    },
    Workload {
        name: "serve-mixed",
        why: "in-process irma-serve, 2 workers, open loop: a cold 10k-job PAI body with provenance every 4 s; every 20 ms a warm body re-post, fp: replay or explain in turn",
        kind: Kind::Serve,
    },
    Workload {
        name: "watch-paced",
        why: "watch_feed over 80k seeded PAI records, a 20k pre-fill then 6000/s in batches of 50 (replayed), window 20k, cadence 5k: sliding-window mining and core::watch",
        kind: Kind::Watch,
    },
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// End-to-end metrics (tracing off), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("ok_share", "share"),
    ("op_p50_ms", "ms"),
    ("warm_p50_ms", "ms"),
];

/// Per-layer metrics (traced run), with units. Every workload prints all
/// of them; one that does not exercise a layer reports 0 there.
const PER_LAYER: [(&str, &str); 38] = [
    ("data.read_csv_s", "s"),
    ("data.read_csv_mb_per_s", "MB/s"),
    ("data.join_s", "s"),
    ("prep.fit_s", "s"),
    ("prep.transform_s", "s"),
    ("prep.items_emitted", "count"),
    ("mine.fpgrowth_s", "s"),
    ("mine.itemsets", "count"),
    ("rules.generate_s", "s"),
    ("rules.generated", "count"),
    ("rules.trie_build_s", "s"),
    ("rules.prune_s", "s"),
    ("rules.kept_share", "share"),
    ("rules.drop_s", "s"),
    ("obs.provenance_s", "s"),
    ("obs.provenance_records", "count"),
    ("core.render_s", "s"),
    ("unattributed_share", "share"),
    ("serve.cache_hit_share", "share"),
    ("serve.rejected", "count"),
    ("serve.response_kb", "kB"),
    ("gen.late_p50_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("watch.arrivals", "count"),
    ("watch.shed", "count"),
    ("watch.backpressure_waits", "count"),
    ("watch.emissions", "count"),
    ("watch.failed_emissions", "count"),
    ("trace.overhead_share", "share"),
    ("self.data_s", "s"),
    ("self.prep_s", "s"),
    ("self.mine_s", "s"),
    ("self.rules_s", "s"),
    ("self.obs_s", "s"),
    ("self.core_s", "s"),
    ("self.serve_s", "s"),
    ("self.watch_s", "s"),
    ("trace.wall_s", "s"),
];

/// What a workload's run needs to know.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where set-up wrote the inputs.
    pub data_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_log: Option<PathBuf>,
}

/// A workload's raw samples.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency of the workload's main operation, in ms.
    pub op_ms: Vec<f64>,
    /// Latency of its warm (state-reusing) operation, in ms.
    pub warm_ms: Vec<f64>,
    /// Resident memory, in MB: the peak (VmHWM) on the batch and watch
    /// workloads, the median over the timed phase on `serve-mixed`.
    pub rss_mb: f64,
    /// Per-layer values (traced run); names outside [`PER_LAYER`] go to
    /// the details line.
    pub layer: BTreeMap<String, f64>,
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_out: Option<PathBuf>,
    pin_seeds: Option<(u64, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |key: &str| flags.get(key).map(String::as_str);
    let name = get("workload").ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let number = |key: &str, default: &str| -> Result<f64, String> {
        let raw = get(key).unwrap_or(default);
        raw.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("--{key} must be a non-negative number (got `{raw}`)"))
    };
    let pin_seeds = match get("pin-seeds") {
        None => None,
        Some(range) => {
            let (lo, hi) = range
                .split_once('-')
                .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                .ok_or_else(|| format!("--pin-seeds wants FROM-TO (got `{range}`)"))?;
            Some((lo, hi))
        }
    };
    Ok(Args {
        workload,
        seed: get("seed")
            .unwrap_or("0")
            .parse()
            .map_err(|_| "--seed must be a whole number".to_string())?,
        seconds: number("seconds", "10")?,
        trace: get("trace").unwrap_or("0") == "1",
        setup_out: get("setup-out").map(PathBuf::from),
        pin_seeds,
    })
}

fn main() {
    if let Err(message) = real_main() {
        eprintln!("irma-perfbench: {message}");
        std::process::exit(1);
    }
}

/// Writes the workload's inputs for `seed` into `dir`.
fn setup(workload: &Workload, seed: u64, seconds: f64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    match workload.kind {
        Kind::Batch => batch::setup(seed, dir),
        Kind::Serve => serve::setup(seed, seconds, dir),
        Kind::Watch => watch::setup(seed, dir),
    }
}

/// Runs set-up [`SETUP_REPEATS`] times, each in a child process so that
/// its memory never counts toward the workload's peak RSS; returns the
/// median wall time.
fn timed_setups(args: &Args, dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let mut times = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let status = Command::new(&exe)
            .arg("--workload")
            .arg(args.workload.name)
            .arg("--seed")
            .arg(args.seed.to_string())
            .arg("--seconds")
            .arg(args.seconds.to_string())
            .arg("--setup-out")
            .arg(dir)
            .status()
            .map_err(|e| format!("starting set-up: {e}"))?;
        if !status.success() {
            return Err(format!("set-up failed ({status})"));
        }
        times.push(started.elapsed().as_secs_f64());
    }
    Ok(stats::median(&times))
}

/// Removes a directory, and its parent once empty, when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(dir) = &args.setup_out {
        return setup(args.workload, args.seed, args.seconds, dir);
    }
    let scratch = Scratch(PathBuf::from(".bench_data").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    )));
    if let Some((lo, hi)) = args.pin_seeds {
        if !matches!(args.workload.kind, Kind::Batch) {
            return Err("--pin-seeds applies to the batch workload only".to_string());
        }
        for seed in lo..=hi {
            setup(args.workload, seed, args.seconds, &scratch.0)?;
            println!("{}", batch::pin(args.workload.name, seed, &scratch.0)?);
        }
        return Ok(());
    }

    let setup_s = timed_setups(&args, &scratch.0)?;
    let trace_log = args.trace.then(|| {
        PathBuf::from(".bench_out").join(format!(
            "{}-seed{}.trace.jsonl",
            args.workload.name, args.seed
        ))
    });
    if let Some(path) = &trace_log {
        let _ = std::fs::remove_file(path);
    }
    let ctx = Ctx {
        workload: args.workload.name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        data_dir: scratch.0.clone(),
        trace_log,
    };
    let mut out = Outcome::default();
    out.detail_str("workload", args.workload.name);
    out.detail_num("seed", args.seed as f64);
    out.detail_str("why", args.workload.why);
    out.detail_num("seconds", args.seconds);
    out.detail_num("setup_repeats", SETUP_REPEATS as f64);
    host_facts(&mut out);
    let measured = match args.workload.kind {
        Kind::Batch => batch::run(&ctx, &mut out)?,
        Kind::Serve => serve::run(&ctx, &mut out)?,
        Kind::Watch => watch::run(&ctx, &mut out)?,
    };
    drop(scratch);
    out.detail_num("peak_rss_mb", report::peak_rss_mb());

    let op_tail = stats::tail(&measured.op_ms);
    let warm_tail = stats::tail(&measured.warm_ms);
    let rounded: Vec<String> = measured.op_ms.iter().map(|v| format!("{v:.1}")).collect();
    out.details
        .push(("op_ms".to_string(), format!("[{}]", rounded.join(","))));
    for (name, tail) in [("op", op_tail), ("warm", warm_tail)] {
        out.detail_num(&format!("{name}_samples"), tail.samples as f64);
        out.detail_num(&format!("{name}_tail_ms"), tail.value);
        out.detail_num(&format!("{name}_tail_percentile"), tail.percentile);
        out.detail_num(&format!("{name}_tail_beyond"), tail.beyond as f64);
    }
    if let Some(path) = &ctx.trace_log {
        out.detail_str("trace_log", &path.display().to_string());
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = measured.layer.get(name).copied().unwrap_or(0.0);
            out.metric(name, value, unit);
        }
        for (name, value) in &measured.layer {
            if !PER_LAYER.iter().any(|(n, _)| n == name) {
                out.detail_num(name, *value);
            }
        }
    } else {
        let values = [
            setup_s,
            measured.rss_mb,
            out.ok_share(),
            stats::median(&measured.op_ms),
            stats::median(&measured.warm_ms),
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            out.metric(name, value, unit);
        }
    }
    println!("{}", out.details_line());
    println!("{}", out.result_line());
    Ok(())
}

/// Host facts recorded with every run.
fn host_facts(out: &mut Outcome) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.detail_num("nproc", nproc as f64);
    out.detail_num("pool_width", rayon::current_num_threads() as f64);
    out.detail_str("rustc", env!("PERFBENCH_RUSTC"));
    out.detail_str("profile", env!("PERFBENCH_PROFILE"));
}

/// Deterministic 64-bit mix (the splitmix64 finaliser), for seeded picks.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
