//! Golden digests of the provenance read surface on a seeded PAI run.
//!
//! The recorder's storage is free to change; what operators read from it
//! is not. This suite runs a seeded 3k-job PAI analysis with provenance on
//! (keyword `SM Util = 0%`, paper defaults) and pins FNV-1a 64 digests of
//! the full JSONL dump and of three `render_explain` texts: a kept rule,
//! a pruned rule whose killer was itself pruned (a marking chain), and a
//! rule dropped by the generation filter. Generation and pruning fan out
//! over the rayon pool and record in batches, so every digest is asserted
//! at pool widths 1, 2 and 8.

use rayon::ThreadPoolBuilder;

use irma_core::{
    analyze_traced, dataset_fingerprint, pai_spec, AnalysisConfig, Metrics, Provenance, KW_SM_ZERO,
};
use irma_obs::RuleProvenance;
use irma_synth::{pai, TraceConfig};

const JOBS: usize = 3_000;
const SEED: u64 = 11;

/// Digests taken from the key-ordered `BTreeMap` recorder that preceded
/// the id-keyed log; a storage change must reproduce them exactly.
const JSONL: &str = "0afc3e12470dd068";
const KEPT: &str = "99b53715299dd93e";
const CHAIN: &str = "4a68a4a1d63935cf";
const FILTERED: &str = "b536bc0754b38901";

struct Golden {
    records: usize,
    jsonl: String,
    kept: String,
    chain: String,
    filtered: String,
}

fn key(record: &RuleProvenance) -> (&[u32], &[u32]) {
    (&record.info.antecedent, &record.info.consequent)
}

fn run() -> Golden {
    let frame = pai(&TraceConfig::with_jobs(JOBS).seeded(SEED)).merged();
    let provenance = Provenance::enabled();
    let metrics = Metrics::disabled();
    let analysis = analyze_traced(
        &frame,
        &pai_spec(),
        &AnalysisConfig::default(),
        &metrics,
        &provenance,
    );
    analysis
        .keyword_traced(KW_SM_ZERO, &metrics, &provenance)
        .expect("keyword is an item of the trace");
    let labeler = |id: u32| analysis.encoded.catalog.label(id).to_string();

    let records = provenance.records();
    let verdict = |k: (&[u32], &[u32])| records.iter().find(|r| key(r) == k).and_then(|r| r.kept);
    let kept = records
        .iter()
        .find(|r| r.kept == Some(true) && !r.steps.is_empty())
        .expect("a kept rule with decisions");
    let chain = records
        .iter()
        .find(|r| {
            r.killed_by()
                .is_some_and(|kill| verdict((&kill.opponent.0, &kill.opponent.1)) == Some(false))
        })
        .expect("a pruned rule whose winner was pruned too");
    let filtered = records
        .iter()
        .find(|r| r.filtered.is_some())
        .expect("a rule dropped at generation");
    let explain = |record: &RuleProvenance| {
        let (ante, cons) = key(record);
        provenance
            .render_explain(ante, cons, &labeler)
            .expect("recorded rule renders")
    };
    Golden {
        records: records.len(),
        jsonl: provenance.to_jsonl(&labeler),
        kept: explain(kept),
        chain: explain(chain),
        filtered: explain(filtered),
    }
}

fn digest(text: &str) -> String {
    dataset_fingerprint(text.as_bytes())
}

#[test]
fn provenance_output_matches_golden_digests_at_every_width() {
    for width in [1, 2, 8] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("pool");
        let golden = pool.install(run);
        assert_eq!(golden.jsonl.lines().count(), golden.records);
        assert!(golden.kept.contains("verdict: KEPT"), "{}", golden.kept);
        assert!(
            golden.chain.contains("the winner's own fate:")
                && golden.chain.matches("verdict: PRUNED").count() >= 2,
            "{}",
            golden.chain
        );
        assert!(
            golden.filtered.contains("generation: dropped"),
            "{}",
            golden.filtered
        );
        let got = [
            digest(&golden.jsonl),
            digest(&golden.kept),
            digest(&golden.chain),
            digest(&golden.filtered),
        ];
        assert_eq!(got, [JSONL, KEPT, CHAIN, FILTERED], "width {width}");
    }
}
