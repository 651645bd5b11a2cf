//! Span bookkeeping for traced runs.
//!
//! A traced run records into an enabled `irma_obs::Metrics` whose event
//! sink is an in-memory buffer, so the spans stay in memory until the
//! run ends and are then written out unchanged in the `--trace-log` JSONL
//! envelope (`irma trace` converts that file to a Chrome trace). The
//! snapshot supplies each span's parent and fields; the `span_close`
//! lines supply its position on the registry's clock.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use irma_obs::{EventSink, Metrics};

/// The layers a traced run splits wall time into, named after the crates
/// (`watch` is `irma_core::watch`).
pub const LAYERS: [&str; 8] = [
    "data", "prep", "mine", "rules", "obs", "core", "serve", "watch",
];

/// The layer a span's self time is charged to. `core.analyze` is the
/// program's own root span; its self time is the unspanned
/// `RuleTrie::over_antecedents` build, so it counts as `rules`. Spans
/// named `bench.*` are the benchmark's own roots: their self time is
/// wall time no layer span covers.
pub fn layer_of(stage: &str) -> Option<&'static str> {
    if stage == "core.analyze" {
        return Some("rules");
    }
    match stage.split('.').next().unwrap_or("") {
        "stream" => Some("mine"),
        prefix => LAYERS.iter().copied().find(|&layer| layer == prefix),
    }
}

/// A recording registry plus the buffer its JSONL events land in.
pub struct Recorder {
    /// The registry handed to the program and to the benchmark's spans.
    pub metrics: Metrics,
    buffer: Arc<Mutex<Vec<u8>>>,
}

impl Recorder {
    /// An enabled registry writing its event log to memory.
    pub fn new() -> Recorder {
        let (sink, buffer) = EventSink::shared_buffer();
        Recorder {
            metrics: Metrics::enabled().with_event_sink(sink),
            buffer,
        }
    }

    /// The closed spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        let log = self.log();
        let mut placed: HashMap<u64, (u64, u64)> = HashMap::new();
        for line in log.lines() {
            if !line.starts_with("{\"event\":\"span_close\"") {
                continue;
            }
            if let (Some(id), Some(end), Some(wall)) = (
                number(line, "span"),
                number(line, "offset_us"),
                number(line, "wall_us"),
            ) {
                placed.insert(id, (end.saturating_sub(wall), end));
            }
        }
        self.metrics
            .snapshot()
            .stages
            .into_iter()
            .filter_map(|event| {
                let &(start_us, end_us) = placed.get(&event.id)?;
                Some(Span {
                    id: event.id,
                    parent: event.parent,
                    stage: event.stage,
                    start_us,
                    end_us,
                    fields: event.fields,
                })
            })
            .collect()
    }

    /// The JSONL event log, as `--trace-log` would have written it.
    pub fn log(&self) -> String {
        let bytes = self.buffer.lock().unwrap_or_else(|e| e.into_inner());
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// Reads the unsigned number after `"key":` in one event line.
fn number(line: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let at = line.find(&pattern)? + pattern.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// One closed span on its registry's clock (microseconds).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub stage: String,
    pub start_us: u64,
    pub end_us: u64,
    pub fields: Vec<(String, u64)>,
}

impl Span {
    /// Wall time in seconds.
    pub fn wall_s(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e6
    }

    /// A named cardinality.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children on parallel workers overlap, so
/// the cover is an interval union, and each child's time is scaled by
/// its sibling group's union over their summed durations (compounded
/// down the tree). The self times of a tree then add up to its root's
/// wall time, which is what a split of wall time by layer needs.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (index, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push(index);
        }
    }
    // Per parent: the union its children cover, and the children's scale.
    let mut cover: HashMap<u64, (u64, f64)> = HashMap::new();
    for span in spans {
        let Some(kids) = children.get(&span.id) else {
            continue;
        };
        let mut intervals: Vec<(u64, u64)> = kids
            .iter()
            .map(|&k| {
                let kid = &spans[k];
                (kid.start_us.max(span.start_us), kid.end_us.min(span.end_us))
            })
            .filter(|(start, end)| end > start)
            .collect();
        intervals.sort_unstable();
        let total: u64 = intervals.iter().map(|(start, end)| end - start).sum();
        let (mut union, mut cursor) = (0u64, span.start_us);
        for (start, end) in intervals {
            let start = start.max(cursor);
            if end > start {
                union += end - start;
                cursor = end;
            }
        }
        let scale = if total == 0 {
            1.0
        } else {
            union as f64 / total as f64
        };
        cover.insert(span.id, (union, scale));
    }
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let weight = |span: &Span| -> f64 {
        let mut weight = 1.0;
        let mut parent = span.parent;
        while let Some(id) = parent {
            weight *= cover.get(&id).map_or(1.0, |&(_, scale)| scale);
            parent = by_id.get(&id).and_then(|p| p.parent);
        }
        weight
    };
    spans
        .iter()
        .map(|span| {
            let covered = cover.get(&span.id).map_or(0, |&(union, _)| union);
            let own = (span.end_us - span.start_us).saturating_sub(covered);
            (span.id, own as f64 / 1e6 * weight(span))
        })
        .collect()
}

/// Self time per layer, plus the self time of the benchmark's own
/// `bench.*` roots under the key `"unattributed"`.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for span in spans {
        let key = layer_of(&span.stage).unwrap_or("unattributed");
        *layers.entry(key).or_insert(0.0) += own[&span.id];
    }
    layers
}

/// Summed wall time of the spans named `stage`.
pub fn wall_of(spans: &[Span], stage: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.stage == stage)
        .map(Span::wall_s)
        .sum()
}

/// Appends `log` to `path`, creating parent directories.
pub fn write_log(path: &Path, log: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(log.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, stage: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            stage: stage.to_string(),
            start_us: start,
            end_us: end,
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "bench.analyze", 0, 100),
            span(2, Some(1), "mine.mine", 10, 60),
            span(3, Some(2), "mine.conditional_tree", 20, 40),
            span(4, Some(2), "mine.conditional_tree", 30, 50),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 50e-6);
        assert_eq!(own[&2], 20e-6);
        // The two overlapping workers cover 30 us of their parent's 40.
        assert!((own[&3] - 15e-6).abs() < 1e-12);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["unattributed"], 50e-6);
        assert!((layers["mine"] - 50e-6).abs() < 1e-12);
    }

    #[test]
    fn recorder_places_spans_on_the_clock() {
        let recorder = Recorder::new();
        {
            let _outer = recorder.metrics.span("bench.analyze");
            let _inner = recorder.metrics.span("data.join");
        }
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        let join = spans.iter().find(|s| s.stage == "data.join").unwrap();
        let root = spans.iter().find(|s| s.stage == "bench.analyze").unwrap();
        assert_eq!(join.parent, Some(root.id));
        assert!(root.start_us <= join.start_us && join.end_us <= root.end_us);
        assert!(recorder.log().contains("\"event\":\"span_open\""));
        // The log is in the envelope `irma trace` converts.
        let chrome = irma_core::chrome_trace(&recorder.log()).expect("log converts");
        assert!(chrome.contains("data.join"));
    }

    #[test]
    fn program_root_counts_as_rules() {
        assert_eq!(layer_of("core.analyze"), Some("rules"));
        assert_eq!(layer_of("core.render"), Some("core"));
        assert_eq!(layer_of("stream.remine"), Some("mine"));
        assert_eq!(layer_of("bench.analyze"), None);
    }
}
