//! `watch-paced`: `watch_feed` over PAI transaction records released at
//! a fixed rate.
//!
//! The feed releases a full window of records at once (so the first
//! emission finds a full window), then [`RATE_PER_S`] records a second,
//! in batches of [`BATCH`], until `--seconds` have passed; the paced
//! records cycle through a pool of [`POOL`] seeded records. An emission's
//! latency runs from the due time of the last arrival it counts to its
//! `on_emit` call. While the daemon runs, its metrics registry is
//! rendered to OpenMetrics on a fixed schedule, the body each
//! `irma watch --listen` scrape serves; those renders, timed from their
//! start to their end, are the warm operation.

use std::io::{BufRead, Read};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use irma_core::{pai_spec, watch_feed, Emission, Metrics, WatchConfig};
use irma_mine::SlidingWindowMiner;
use irma_synth::{pai, TraceConfig};

use crate::report::{peak_rss_mb, Outcome};
use crate::spans::{self, Recorder};
use crate::stats::median;
use crate::{Ctx, Measured};

const WINDOW: usize = 20_000;
const CADENCE: usize = 5_000;
/// Records released per second after the first window: an emission
/// every 0.83 s, so a run has about thirty to take the median of. At
/// 10000/s the daemon's ingest and mining keep one core nearly busy and
/// the emission latency grows through the run.
const RATE_PER_S: f64 = 6_000.0;
/// Distinct paced records set-up generates; the feed replays them in
/// order as often as the run needs, which keeps set-up independent of
/// `--seconds`.
const POOL: usize = 60_000;
/// Paced records released together, at the due time of the batch's last
/// record. It divides [`CADENCE`], so the arrival that completes an
/// emission's cadence is the last of its batch and released on time, and
/// the feed wakes once per batch instead of once per record.
const BATCH: usize = 50;
/// Ring capacity: the sampler sheds above 75% occupancy, so this leaves
/// about eight seconds of arrivals at [`RATE_PER_S`] for an emission that
/// normally takes ~0.2 s.
const RING: usize = 65_536;
/// Seconds between metric renders: about 250 a run, while the renders
/// take under 1% of a core away from the daemon.
const SCRAPE_PERIOD_S: f64 = 0.1;

fn records_needed(seconds: f64) -> usize {
    WINDOW + ((RATE_PER_S * seconds).ceil() as usize).div_ceil(BATCH) * BATCH
}

/// Encodes a seeded PAI trace of [`WINDOW`] + [`POOL`] jobs into the
/// feed's line format (comma-separated item ids, one transaction a line).
pub fn setup(seed: u64, dir: &Path) -> Result<(), String> {
    let frame = pai(&TraceConfig::with_jobs(WINDOW + POOL).seeded(seed)).merged();
    let db = irma_prep::fit(&frame, &pai_spec()).transform(&frame);
    let mut lines = String::new();
    for i in 0..db.len() {
        let ids: Vec<String> = db.transaction(i).iter().map(u32::to_string).collect();
        lines.push_str(&ids.join(","));
        lines.push('\n');
    }
    std::fs::write(dir.join("feed.txt"), lines).map_err(|e| format!("writing feed: {e}"))
}

/// Seconds after the start at which record `index` (0-based) is due.
fn due_s(index: usize) -> f64 {
    index.saturating_sub(WINDOW) as f64 / RATE_PER_S
}

/// A `BufRead` that releases the feed's lines on schedule.
struct PacedFeed {
    data: Vec<u8>,
    /// Byte offset just past each line.
    ends: Vec<usize>,
    pos: usize,
    released: usize,
    start: Instant,
    /// Lateness of each release batch, in seconds.
    lateness: Arc<Mutex<Vec<f64>>>,
}

impl Read for PacedFeed {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PacedFeed {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        loop {
            let released_end = if self.released == 0 {
                0
            } else {
                self.ends[self.released - 1]
            };
            if self.pos < released_end || self.released == self.ends.len() {
                return Ok(&self.data[self.pos..released_end]);
            }
            let elapsed = self.start.elapsed().as_secs_f64();
            // Paced records whose batch's last record is due by now.
            let paced = ((elapsed * RATE_PER_S) as usize + 1) / BATCH * BATCH;
            let due_count = (WINDOW + paced).min(self.ends.len());
            let next_due = due_s(self.released + BATCH - 1);
            if due_count > self.released {
                let late = elapsed - next_due;
                self.lateness
                    .lock()
                    .expect("the feed reader panicked")
                    .push(late.max(0.0));
                self.released = due_count;
            } else {
                let wait = next_due - elapsed;
                std::thread::sleep(Duration::from_secs_f64(wait.max(0.0005)));
            }
        }
    }

    fn consume(&mut self, amount: usize) {
        self.pos += amount;
    }
}

/// Runs the workload for `ctx.seconds`.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<Measured, String> {
    let text = std::fs::read_to_string(ctx.data_dir.join("feed.txt"))
        .map_err(|e| format!("reading feed: {e}"))?;
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != WINDOW + POOL {
        return Err(format!("feed has {} records", lines.len()));
    }
    let offered = records_needed(ctx.seconds);
    let mut data = Vec::new();
    let mut ends = Vec::with_capacity(offered);
    for i in 0..offered {
        let line = if i < WINDOW {
            lines[i]
        } else {
            lines[WINDOW + (i - WINDOW) % POOL]
        };
        data.extend_from_slice(line.as_bytes());
        data.push(b'\n');
        ends.push(data.len());
    }
    out.detail_num("window", WINDOW as f64);
    out.detail_num("cadence", CADENCE as f64);
    out.detail_num("rate_per_s", RATE_PER_S);
    out.detail_num("records", offered as f64);
    out.detail_num("distinct_paced_records", POOL as f64);
    out.detail_num("release_batch", BATCH as f64);
    out.detail_num("ring_capacity", RING as f64);

    let recorder = ctx.trace.then(Recorder::new);
    let metrics = recorder
        .as_ref()
        .map_or_else(Metrics::enabled, |r| r.metrics.clone());
    let config = WatchConfig {
        window: WINDOW,
        cadence: CADENCE,
        warmup: WINDOW,
        ring_capacity: RING,
        ..WatchConfig::default()
    };
    let lateness = Arc::new(Mutex::new(Vec::new()));
    let start = Instant::now();
    let feed = PacedFeed {
        data,
        ends,
        pos: 0,
        released: 0,
        start,
        lateness: Arc::clone(&lateness),
    };
    let done = AtomicBool::new(false);
    let mut emissions: Vec<(Emission, f64)> = Vec::new();
    let (summary, renders) = std::thread::scope(|scope| {
        let renders = scope.spawn(|| {
            let mut renders = Vec::new();
            let mut k = 1;
            while !done.load(Ordering::Acquire) {
                let due = k as f64 * SCRAPE_PERIOD_S;
                let wait = due - start.elapsed().as_secs_f64();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                let began = Instant::now();
                let complete = metrics.snapshot().to_openmetrics().ends_with("# EOF\n");
                renders.push((complete, began.elapsed().as_secs_f64()));
                k += 1;
            }
            renders
        });
        let summary = watch_feed(feed, &config, &metrics, |emission| {
            emissions.push((emission.clone(), start.elapsed().as_secs_f64()));
        });
        done.store(true, Ordering::Release);
        (summary, renders.join().expect("render thread"))
    });

    let mut measured = Measured {
        rss_mb: peak_rss_mb(),
        ..Measured::default()
    };
    for (emission, at) in &emissions {
        out.op(
            emission.degradation_steps == 0 && !emission.rules.is_empty(),
            || format!("emission {} degraded or empty", emission.seq),
        );
        // The first emission counts the pre-released window, not paced
        // arrivals.
        if emission.arrivals as usize > WINDOW {
            measured
                .op_ms
                .push((at - due_s(emission.arrivals as usize - 1)) * 1e3);
        }
    }
    for &(complete, latency) in &renders {
        out.op(complete, || {
            "metrics render is not complete OpenMetrics".to_string()
        });
        measured.warm_ms.push(latency * 1e3);
    }
    for (what, count) in [
        ("failed emissions", summary.failed_emissions),
        ("degraded emissions", summary.degraded_emissions),
        ("garbled lines", summary.garbled_lines),
        ("records shed", summary.sampled_out),
    ] {
        out.op(count == 0, || format!("{count} {what}"));
    }
    out.op(summary.arrivals as usize == offered, || {
        format!("{} of {offered} records arrived", summary.arrivals)
    });
    let lateness = lateness.lock().expect("the feed reader panicked").clone();
    let late_ms: Vec<f64> = lateness.iter().map(|s| s * 1e3).collect();
    let late_max = late_ms.iter().copied().fold(0.0, f64::max);
    out.detail_num("gen_late_p50_ms", median(&late_ms));
    out.detail_num("gen_late_max_ms", late_max);
    out.detail_num("shed_share", summary.sampled_out as f64 / offered as f64);
    out.detail_num("emissions", summary.emissions as f64);

    if let Some(recorder) = recorder {
        let mut put = |name: &str, value: f64| measured.layer.insert(name.to_string(), value);
        put("watch.arrivals", summary.arrivals as f64);
        put("watch.shed", summary.sampled_out as f64);
        put(
            "watch.backpressure_waits",
            summary.backpressure_waits as f64,
        );
        put("watch.emissions", summary.emissions as f64);
        put("watch.failed_emissions", summary.failed_emissions as f64);
        put("gen.late_p50_ms", median(&late_ms));
        put("gen.late_max_ms", late_max);

        // Per-emission layer split: program spans per layer; the rest of
        // the emission latency (waiting in the ring, window upkeep) is
        // charged to `watch`.
        let spans = recorder.spans();
        let layers = spans::layer_self_times(&spans);
        let n = summary.emissions.max(1) as f64;
        let spanned: f64 = layers.values().sum::<f64>() / n;
        for layer in spans::LAYERS {
            put(
                &format!("self.{layer}_s"),
                layers.get(layer).copied().unwrap_or(0.0) / n,
            );
        }
        let emit_s = median(&measured.op_ms) / 1e3;
        put("self.watch_s", (emit_s - spanned).max(0.0));
        put("unattributed_share", (emit_s - spanned).max(0.0) / emit_s);
        put("trace.wall_s", emit_s);
        put(
            "mine.fpgrowth_s",
            layers.get("mine").copied().unwrap_or(0.0) / n,
        );
        put(
            "rules.generate_s",
            spans::wall_of(&spans, "rules.generate") / n,
        );
        if let Some(last) = spans.iter().rev().find(|s| s.stage == "rules.generate") {
            put(
                "mine.itemsets",
                last.field("itemsets_in").unwrap_or(0) as f64,
            );
            put(
                "rules.generated",
                last.field("rules_out").unwrap_or(0) as f64,
            );
        }
        put("trace.overhead_share", remine_overhead(ctx)?);
        if let Some(path) = &ctx.trace_log {
            spans::write_log(path, &recorder.log())
                .map_err(|e| format!("writing trace log: {e}"))?;
        }
    }
    Ok(measured)
}

/// Traced over untraced wall of re-mining the feed's last window of
/// distinct records, minus 1.
fn remine_overhead(ctx: &Ctx) -> Result<f64, String> {
    let text = std::fs::read_to_string(ctx.data_dir.join("feed.txt"))
        .map_err(|e| format!("reading feed: {e}"))?;
    let records: Vec<Vec<u32>> = text
        .lines()
        .map(|l| l.split(',').filter_map(|t| t.parse().ok()).collect())
        .collect();
    let window = &records[records.len().saturating_sub(WINDOW)..];
    let config = WatchConfig::default().miner;
    let remine = |metrics: Metrics| {
        let mut miner = SlidingWindowMiner::new(WINDOW, config.clone()).with_metrics(metrics);
        for txn in window {
            miner.push(txn.iter().copied());
        }
        let started = Instant::now();
        std::hint::black_box(miner.mine());
        started.elapsed().as_secs_f64()
    };
    let mut plain = f64::INFINITY;
    let mut traced = f64::INFINITY;
    for _ in 0..3 {
        plain = plain.min(remine(Metrics::enabled()));
        traced = traced.min(remine(Recorder::new().metrics));
    }
    Ok(traced / plain - 1.0)
}
