//! `irma analyze --dir` end to end through the built binary: the ingest
//! layers show up as spans under the run's root, and reading a trace back
//! from disk prints exactly what analysing it in memory prints.

use std::path::{Path, PathBuf};
use std::process::Command;

fn irma(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_irma"))
        .args(args)
        .output()
        .expect("irma runs");
    assert!(
        out.status.success(),
        "irma {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("irma_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

#[test]
fn dir_analysis_spans_ingest_and_matches_in_memory_run() {
    let dir = scratch_dir("analyze_dir");
    let trace = dir.join("trace");
    let metrics = dir.join("metrics.json");
    let log = dir.join("trace.jsonl");
    irma(&[
        "generate",
        "pai",
        "--jobs",
        "400",
        "--seed",
        "3",
        "--out",
        path(&trace),
    ]);
    let from_disk = irma(&[
        "analyze",
        "pai",
        "--dir",
        path(&trace),
        "--metrics",
        path(&metrics),
        "--trace-log",
        path(&log),
    ]);
    let in_memory = irma(&["analyze", "pai", "--jobs", "400", "--seed", "3"]);
    assert_eq!(from_disk, in_memory);

    let json = std::fs::read_to_string(&metrics)
        .expect("metrics written")
        .replace("\": ", "\":");
    let root = json
        .find("\"stage\":\"cli.analyze\"")
        .expect("root cli.analyze span");
    assert_eq!(json.matches("\"stage\":\"data.read_csv\"").count(), 2);
    assert!(json.contains("\"stage\":\"data.join\""));
    assert!(json.contains("\"rows\":400"));
    assert!(json.contains("\"bytes\":"));
    // The root closes last, so it is recorded after every other stage.
    assert!(json.rfind("\"stage\":").is_some_and(|last| last == root));

    let events = std::fs::read_to_string(&log).expect("trace log written");
    for stage in ["cli.analyze", "data.read_csv", "data.join"] {
        let closed = format!("\"stage\":\"{stage}\"");
        assert!(
            events
                .lines()
                .any(|line| line.contains("\"event\":\"span_close\"") && line.contains(&closed)),
            "{stage} never closes in the trace log"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
