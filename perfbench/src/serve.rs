//! `serve-mixed`: an in-process `irma-serve` driven open-loop.
//!
//! The schedule is fixed (only the bodies depend on the seed): a cold
//! `POST /v1/analyze?trace=pai&keyword=…` with a fresh ~10k-job PAI body
//! every [`COLD_PERIOD_S`], and a warm request every [`WARM_PERIOD_S`]
//! cycling through a full-body re-post (cache hit), an `fp:` replay and a
//! `GET /v1/explain` lookup against the most recent body whose cold
//! answer is cached. The warm metric times the full-body re-posts, the
//! only warm request that reads, fingerprints and looks up a whole body;
//! the `fp:` and explain medians go to the details line.
//! At most `nproc` requests are in flight; each is timed from its due
//! time, so a stall also delays the requests queued behind it. Two bodies
//! are posted before the clock starts so warm requests always have a
//! cached target.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use irma_core::{
    dataset_fingerprint, pai_spec, try_analyze_traced, Analysis, AnalysisConfig, Metrics,
    Provenance, KW_SM_ZERO,
};
use irma_mine::ItemCatalog;
use irma_rules::Rule;
use irma_serve::http::json_escape;
use irma_serve::{ServeConfig, Server};
use irma_synth::{pai, TraceConfig};

use crate::report::{Outcome, RssSampler};
use crate::spans::{self, Recorder};
use crate::stats::median;
use crate::{Ctx, Measured};

/// Jobs per cold body.
const COLD_JOBS: usize = 10_000;
/// Seconds between cold requests. A cold request takes 1.5–2.4 s on the
/// reference host (2 cores, both used by the request's mining), so a
/// cold request is in service about half the time. At a 2.5 s period the
/// slower end of that range kept both cores busy 94% of the time, and
/// the warm median jumped between seeds with the share of warm requests
/// that waited for a time slice.
const COLD_PERIOD_S: f64 = 4.0;
/// Seconds between warm requests.
const WARM_PERIOD_S: f64 = 0.02;
/// Bodies posted before the clock starts.
const PRIMED: usize = 2;
/// Tenants the requests rotate through (each stays under the default
/// per-tenant rate limit).
const TENANTS: usize = 8;
/// Result-cache capacity. Each cached cold answer keeps its provenance
/// (~180 MB at 10k jobs), so the default 64 entries would grow the
/// process by gigabytes within one run.
const CACHE_ENTRIES: usize = 2;
/// The server's default `top`.
const TOP: usize = 10;
/// Why a client-side lock can fail: the holder panicked.
const POISONED: &str = "a client thread panicked while holding a lock";
const ANALYZE_PATH: &str = "/v1/analyze?trace=pai&keyword=SM%20Util%20%3D%200%25";

fn bodies_needed(seconds: f64) -> usize {
    PRIMED + (seconds / COLD_PERIOD_S).ceil() as usize + 1
}

fn body_path(dir: &Path, index: usize) -> std::path::PathBuf {
    dir.join(format!("body_{index:03}.csv"))
}

/// Writes one merged PAI CSV body per cold request.
pub fn setup(seed: u64, seconds: f64, dir: &Path) -> Result<(), String> {
    for index in 0..bodies_needed(seconds) {
        let config = TraceConfig::with_jobs(COLD_JOBS)
            .seeded(seed.wrapping_mul(1_000).wrapping_add(index as u64));
        let body = irma_data::write_csv_string(&pai(&config).merged());
        std::fs::write(body_path(dir, index), body).map_err(|e| format!("writing body: {e}"))?;
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Request {
    Cold(usize),
    BodyHit,
    Replay,
    Explain,
}

/// A body whose cold answer the server has cached.
struct Cached {
    body: usize,
    fingerprint: String,
    response: Arc<String>,
    explain_path: String,
}

/// One HTTP exchange as the client saw it.
struct Reply {
    status: u16,
    body: String,
    bytes: usize,
    connect_s: f64,
    first_byte_s: f64,
}

fn exchange(addr: SocketAddr, head: &str, body: &[u8]) -> Result<Reply, String> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connect_s = started.elapsed().as_secs_f64();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut first_byte_s = 0.0;
    loop {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            break;
        }
        if raw.is_empty() {
            first_byte_s = started.elapsed().as_secs_f64();
        }
        raw.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("response has no head")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status")?;
    Ok(Reply {
        status,
        bytes: body.len(),
        body: body.to_string(),
        connect_s,
        first_byte_s,
    })
}

fn post(addr: SocketAddr, path: &str, tenant: usize, body: &[u8]) -> Result<Reply, String> {
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\
         x-irma-tenant: tenant-{}\r\nx-irma-timeout-ms: 30000\r\n\r\n",
        body.len(),
        tenant % TENANTS
    );
    exchange(addr, &head, body)
}

fn get(addr: SocketAddr, path: &str) -> Result<Reply, String> {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"),
        &[],
    )
}

fn percent_encode(text: &str) -> String {
    text.bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                (b as char).to_string()
            }
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// The explain path for the first rule of a cold response.
fn explain_path(response: &str, fingerprint: &str) -> Option<String> {
    let rules = &response[response.find("\"rules\":[{")?..];
    let spec = &rules[rules.find("\"spec\":\"")? + 8..];
    let spec = &spec[..spec.find('"')?];
    Some(format!(
        "/v1/explain/{}?fp={fingerprint}",
        percent_encode(spec)
    ))
}

/// The same rule rendering and ordering the server uses.
fn render_rule(rule: &Rule, catalog: &ItemCatalog) -> String {
    let quoted = |items: &[u32]| {
        items
            .iter()
            .map(|&id| format!("\"{}\"", json_escape(catalog.label(id))))
            .collect::<Vec<_>>()
            .join(",")
    };
    let plain = |items: &[u32]| {
        items
            .iter()
            .map(|&id| catalog.label(id).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let (ante, cons) = (rule.antecedent.items(), rule.consequent.items());
    format!(
        "{{\"antecedent\":[{}],\"consequent\":[{}],\"spec\":\"{}\",\"support\":{},\"confidence\":{},\"lift\":{}}}",
        quoted(ante),
        quoted(cons),
        json_escape(&format!("{} => {}", plain(ante), plain(cons))),
        rule.support,
        rule.confidence,
        rule.lift,
    )
}

fn render_top(rules: &[Rule], catalog: &ItemCatalog) -> String {
    let mut sorted: Vec<&Rule> = rules.iter().collect();
    sorted.sort_by(|a, b| {
        b.lift
            .total_cmp(&a.lift)
            .then_with(|| a.antecedent.items().cmp(b.antecedent.items()))
            .then_with(|| a.consequent.items().cmp(b.consequent.items()))
    });
    sorted
        .iter()
        .take(TOP)
        .map(|rule| render_rule(rule, catalog))
        .collect::<Vec<_>>()
        .join(",")
}

/// Library analysis of one body, as the cold path runs it.
fn analyze(body: &str, metrics: &Metrics, provenance: &Provenance) -> Result<Analysis, String> {
    let frame = {
        let _span = metrics.span("data.read_csv");
        irma_data::read_csv_str(body).map_err(|e| format!("parsing body: {e}"))?
    };
    let analysis = try_analyze_traced(
        &frame,
        &pai_spec(),
        &AnalysisConfig::default(),
        metrics,
        provenance,
    )
    .map_err(|e| format!("analysis failed: {e}"))?;
    analysis.keyword_traced(KW_SM_ZERO, metrics, provenance);
    Ok(analysis)
}

/// The parts of a cold response an in-process analysis pins down: the
/// counts, the top rules, and the keyword's causes.
fn expected_fragments(body: &str) -> Result<[String; 2], String> {
    let quiet = Metrics::disabled();
    let analysis = analyze(body, &quiet, &Provenance::disabled())?;
    let catalog = &analysis.encoded.catalog;
    let causes = analysis
        .keyword_with(KW_SM_ZERO, &quiet)
        .map(|k| k.causes)
        .unwrap_or_default();
    Ok([
        format!(
            "\"frequent_itemsets\":{},\"rules_total\":{},\"rules\":[{}]",
            analysis.frequent.len(),
            analysis.rules.len(),
            render_top(&analysis.rules, catalog)
        ),
        format!("\"causes\":[{}]", render_top(&causes, catalog)),
    ])
}

/// One scheduled request's outcome.
struct Sample {
    request: Request,
    late_s: f64,
    latency_s: f64,
    /// Send to completion (no generator lateness).
    service_s: f64,
    status: u16,
    bytes: usize,
    connect_s: f64,
    first_byte_s: f64,
    problem: Option<String>,
}

fn schedule(seconds: f64) -> Vec<(f64, Request)> {
    let mut due = Vec::new();
    let mut k = 0;
    while (k as f64) * COLD_PERIOD_S < seconds {
        due.push((k as f64 * COLD_PERIOD_S, Request::Cold(PRIMED + k)));
        k += 1;
    }
    // One of each warm request type in turn.
    let warm = [Request::BodyHit, Request::Replay, Request::Explain];
    let mut j = 0;
    while (j as f64 + 0.5) * WARM_PERIOD_S < seconds {
        due.push(((j as f64 + 0.5) * WARM_PERIOD_S, warm[j % warm.len()]));
        j += 1;
    }
    due.sort_by(|a, b| a.0.total_cmp(&b.0));
    due
}

/// Runs the workload for `ctx.seconds`.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<Measured, String> {
    let plan = schedule(ctx.seconds);
    let cold_count = plan
        .iter()
        .filter(|(_, r)| matches!(r, Request::Cold(_)))
        .count();
    let bodies: Vec<Arc<String>> = (0..PRIMED + cold_count)
        .map(|i| {
            std::fs::read_to_string(body_path(&ctx.data_dir, i))
                .map(Arc::new)
                .map_err(|e| format!("reading body {i}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let recorder = ctx.trace.then(Recorder::new);
    // `irma serve` always records metrics (it serves /metrics); a traced
    // run only adds the in-memory event log.
    let metrics = recorder
        .as_ref()
        .map_or_else(Metrics::enabled, |r| r.metrics.clone());
    let config = ServeConfig {
        cache_entries: CACHE_ENTRIES,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config.clone(), metrics)
        .map_err(|e| format!("starting server: {e}"))?;
    let addr = server.local_addr();
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.detail_num("clients", clients as f64);
    out.detail_num("cold_jobs", COLD_JOBS as f64);
    out.detail_num("cold_period_s", COLD_PERIOD_S);
    out.detail_num("warm_period_s", WARM_PERIOD_S);
    out.detail_num("server_workers", config.workers as f64);
    out.detail_num("cache_entries", CACHE_ENTRIES as f64);

    let cached: Mutex<Vec<Cached>> = Mutex::new(Vec::new());
    let cold_responses: Mutex<Vec<(usize, Arc<String>)>> = Mutex::new(Vec::new());
    let mut cold_service = Vec::new();
    let remember = |body: usize, reply: &Reply| {
        let response = Arc::new(reply.body.clone());
        cold_responses
            .lock()
            .expect(POISONED)
            .push((body, Arc::clone(&response)));
        if reply.status != 200 {
            return;
        }
        let fingerprint = dataset_fingerprint(bodies[body].as_bytes());
        if let Some(explain_path) = explain_path(&response, &fingerprint) {
            cached.lock().expect(POISONED).push(Cached {
                body,
                fingerprint,
                response,
                explain_path,
            });
        }
    };
    for (body, text) in bodies.iter().enumerate().take(PRIMED) {
        let started = Instant::now();
        let reply = post(addr, ANALYZE_PATH, body, text.as_bytes())?;
        cold_service.push(started.elapsed().as_secs_f64());
        remember(body, &reply);
    }

    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    // The median resident set rather than the peak: which server worker,
    // and so which allocator arena, takes a cold request depends on
    // timing, and the peak of one seed ranged from 778 to 998 MB.
    let rss = RssSampler::start();
    let clock = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(due, request)) = plan.get(index) else {
                    break;
                };
                let wait = due - clock.elapsed().as_secs_f64();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                let sent = clock.elapsed().as_secs_f64();
                let sample = send(addr, request, index, &bodies, &cached, &remember);
                let done = clock.elapsed().as_secs_f64();
                let (status, bytes, connect_s, first_byte_s, problem) = match sample {
                    Ok((reply, problem)) => (
                        reply.status,
                        reply.bytes,
                        reply.connect_s,
                        reply.first_byte_s,
                        problem,
                    ),
                    Err(error) => (0, 0, 0.0, 0.0, Some(error)),
                };
                samples.lock().expect(POISONED).push(Sample {
                    request,
                    late_s: sent - due,
                    latency_s: done - due,
                    service_s: done - sent,
                    status,
                    bytes,
                    connect_s,
                    first_byte_s,
                    problem,
                });
            });
        }
    });
    let rss_mb = rss.stop();
    let samples = samples.into_inner().expect(POISONED);
    let scrape = if ctx.trace {
        Some(get(addr, "/metrics")?.body)
    } else {
        None
    };
    server.shutdown();

    // Output checks: every request answered 200 and, for warm ones,
    // matched the cached cold answer (checked as it arrived); every cold
    // answer equals an in-process analysis of the same body.
    let mut measured = Measured {
        rss_mb,
        ..Measured::default()
    };
    let mut late = Vec::new();
    let mut sizes = Vec::new();
    let mut replay_ms = Vec::new();
    let mut explain_ms = Vec::new();
    for sample in &samples {
        let ok = sample.status == 200 && sample.problem.is_none();
        out.op(ok, || {
            format!(
                "{:?} answered {}: {}",
                sample.request,
                sample.status,
                sample.problem.as_deref().unwrap_or("")
            )
        });
        late.push(sample.late_s * 1e3);
        sizes.push(sample.bytes as f64 / 1e3);
        match sample.request {
            Request::Cold(_) => {
                measured.op_ms.push(sample.latency_s * 1e3);
                cold_service.push(sample.service_s);
            }
            Request::BodyHit => measured.warm_ms.push(sample.latency_s * 1e3),
            Request::Replay => replay_ms.push(sample.latency_s * 1e3),
            Request::Explain => explain_ms.push(sample.latency_s * 1e3),
        }
    }
    for (body, response) in cold_responses.into_inner().expect(POISONED) {
        let [counts, causes] = expected_fragments(&bodies[body])?;
        let ok = response.contains(&counts) && response.contains(&causes);
        out.op(ok, || {
            format!("cold answer for body {body} differs from the library's")
        });
    }
    out.detail_num("replay_p50_ms", median(&replay_ms));
    out.detail_num("explain_p50_ms", median(&explain_ms));
    let late_max = late.iter().copied().fold(0.0, f64::max);
    out.detail_num("gen_late_p50_ms", median(&late));
    out.detail_num("gen_late_max_ms", late_max);
    out.detail_num("cold_service_p50_ms", median(&cold_service) * 1e3);
    out.detail_num("cold_busy_share", median(&cold_service) / COLD_PERIOD_S);

    if let (Some(recorder), Some(scrape)) = (recorder, scrape) {
        let put = |m: &mut Measured, name: &str, value: f64| {
            m.layer.insert(name.to_string(), value);
        };
        let counter = |name: &str| -> f64 {
            scrape
                .lines()
                .find_map(|l| l.strip_prefix(&format!("irma_{name}_total ")))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0.0)
        };
        let hits = counter("serve_cache_hits");
        let misses = counter("serve_cache_misses");
        put(
            &mut measured,
            "serve.cache_hit_share",
            hits / (hits + misses).max(1.0),
        );
        let rejected = samples
            .iter()
            .filter(|s| matches!(s.status, 429 | 503))
            .count();
        put(&mut measured, "serve.rejected", rejected as f64);
        put(&mut measured, "serve.response_kb", median(&sizes));
        put(&mut measured, "gen.late_p50_ms", median(&late));
        put(&mut measured, "gen.late_max_ms", late_max);
        let connect: Vec<f64> = samples.iter().map(|s| s.connect_s * 1e3).collect();
        let first: Vec<f64> = samples.iter().map(|s| s.first_byte_s * 1e3).collect();
        out.detail_num("client_connect_p50_ms", median(&connect));
        out.detail_num("client_first_byte_p50_ms", median(&first));

        // Layer split of the cold requests: program spans per layer; the
        // rest of the client-observed service time (HTTP, the server's
        // unspanned CSV parse, cache, payload rendering) is `serve`.
        let spans = recorder.spans();
        let layers = spans::layer_self_times(&spans);
        let colds = cold_service.len() as f64;
        let cold_wall: f64 = cold_service.iter().sum();
        let spanned: f64 = layers.values().sum();
        for layer in spans::LAYERS {
            let own = layers.get(layer).copied().unwrap_or(0.0);
            put(&mut measured, &format!("self.{layer}_s"), own / colds);
        }
        put(
            &mut measured,
            "self.serve_s",
            (cold_wall - spanned).max(0.0) / colds,
        );
        put(
            &mut measured,
            "unattributed_share",
            (cold_wall - spanned).max(0.0) / cold_wall,
        );
        put(&mut measured, "trace.wall_s", cold_wall / colds);
        let own = spans::self_times(&spans);
        let trie: f64 = spans
            .iter()
            .filter(|s| s.stage == "core.analyze")
            .map(|s| own[&s.id])
            .sum();
        put(&mut measured, "rules.trie_build_s", trie / colds);
        for (metric, stage) in [
            ("prep.fit_s", "prep.fit"),
            ("prep.transform_s", "prep.transform"),
            ("rules.generate_s", "rules.generate"),
            ("rules.prune_s", "rules.prune"),
        ] {
            put(&mut measured, metric, spans::wall_of(&spans, stage) / colds);
        }
        put(
            &mut measured,
            "mine.fpgrowth_s",
            layers.get("mine").copied().unwrap_or(0.0) / colds,
        );
        if let Some(path) = &ctx.trace_log {
            spans::write_log(path, &recorder.log())
                .map_err(|e| format!("writing trace log: {e}"))?;
        }
        replays(ctx, &bodies[0], median(&cold_service), &mut measured, out)?;
    }
    Ok(measured)
}

/// Sends one scheduled request; returns the reply and, for a warm
/// request, any mismatch with the cached cold answer.
fn send(
    addr: SocketAddr,
    request: Request,
    index: usize,
    bodies: &[Arc<String>],
    cached: &Mutex<Vec<Cached>>,
    remember: &(impl Fn(usize, &Reply) + Sync),
) -> Result<(Reply, Option<String>), String> {
    if let Request::Cold(body) = request {
        let reply = post(addr, ANALYZE_PATH, index, bodies[body].as_bytes())?;
        remember(body, &reply);
        return Ok((reply, None));
    }
    let (body, fingerprint, response, explain) = {
        let cached = cached.lock().expect(POISONED);
        let pick = cached.last().ok_or("no cached body to target")?;
        (
            pick.body,
            pick.fingerprint.clone(),
            Arc::clone(&pick.response),
            pick.explain_path.clone(),
        )
    };
    let expected = response.replacen("{\"cached\":false,", "{\"cached\":true,", 1);
    let reply = match request {
        Request::BodyHit => post(addr, ANALYZE_PATH, index, bodies[body].as_bytes())?,
        Request::Replay => post(
            addr,
            ANALYZE_PATH,
            index,
            format!("fp:{fingerprint}").as_bytes(),
        )?,
        Request::Explain => get(addr, &explain)?,
        Request::Cold(_) => unreachable!("handled above"),
    };
    let problem = match request {
        Request::Explain if !reply.body.contains("\"metrics\":{") => {
            Some("explain answered without rule metrics".to_string())
        }
        Request::BodyHit | Request::Replay if reply.body != expected => {
            Some("cached answer differs from the cold answer".to_string())
        }
        _ => None,
    };
    Ok((reply, problem))
}

/// Library replays of one cold body: with and without provenance (the
/// difference in generate + prune time is `obs.provenance_s`), and once
/// traced (for `trace.overhead_share` and the CSV parse the server does
/// not span).
fn replays(
    ctx: &Ctx,
    body: &str,
    cold_p50_s: f64,
    measured: &mut Measured,
    out: &mut Outcome,
) -> Result<(), String> {
    let rules_time = |metrics: &Metrics| -> f64 {
        metrics
            .snapshot()
            .stages
            .iter()
            .filter(|e| e.stage == "rules.generate" || e.stage == "rules.prune")
            .map(|e| e.wall.as_secs_f64())
            .sum()
    };
    let mut with = (f64::INFINITY, f64::INFINITY);
    let mut without = f64::INFINITY;
    let mut records = 0;
    let mut counts = (0, 0, 0.0);
    for _ in 0..2 {
        let metrics = Metrics::enabled();
        let provenance = Provenance::enabled();
        let started = Instant::now();
        let analysis = analyze(body, &metrics, &provenance)?;
        with = (
            with.0.min(started.elapsed().as_secs_f64()),
            with.1.min(rules_time(&metrics)),
        );
        records = provenance.records().len();
        let keyword = analysis.keyword_with(KW_SM_ZERO, &Metrics::disabled());
        let kept_share = keyword.map_or(0.0, |k| {
            k.outcome.kept.len() as f64 / k.outcome.total().max(1) as f64
        });
        counts = (analysis.frequent.len(), analysis.rules.len(), kept_share);

        let metrics = Metrics::enabled();
        analyze(body, &metrics, &Provenance::disabled())?;
        without = without.min(rules_time(&metrics));
    }
    let recorder = Recorder::new();
    let started = Instant::now();
    analyze(body, &recorder.metrics, &Provenance::enabled())?;
    let traced_s = started.elapsed().as_secs_f64();
    let spans = recorder.spans();
    let read_s = spans::wall_of(&spans, "data.read_csv");
    if let Some(path) = &ctx.trace_log {
        spans::write_log(path, &recorder.log()).map_err(|e| format!("writing trace log: {e}"))?;
    }

    let provenance_s = with.1 - without;
    let mut put = |name: &str, value: f64| measured.layer.insert(name.to_string(), value);
    put("obs.provenance_s", provenance_s);
    put("obs.provenance_records", records as f64);
    put("data.read_csv_s", read_s);
    put("data.read_csv_mb_per_s", body.len() as f64 / 1e6 / read_s);
    put("mine.itemsets", counts.0 as f64);
    put("rules.generated", counts.1 as f64);
    put("rules.kept_share", counts.2);
    put("trace.overhead_share", traced_s / with.0 - 1.0);
    out.detail_str(
        "split_claim",
        "obs.provenance_s is most of the cold request's service time",
    );
    out.detail_num("split_claim_share", provenance_s / cold_p50_s);
    out.details.push((
        "split_holds".to_string(),
        (provenance_s > 0.5 * cold_p50_s).to_string(),
    ));
    Ok(())
}
