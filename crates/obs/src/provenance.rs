//! Per-rule decision lineage ("why did rule X survive pruning while rule
//! Y died?").
//!
//! The mining pipeline makes two kinds of per-rule decisions: generation
//! thresholds (min lift/confidence/support) and the four keyword pruning
//! conditions. A [`Provenance`] handle — same `Option<Arc<Mutex<..>>>`
//! shape as [`Metrics`](crate::Metrics), disabled by default and one
//! branch per call when disabled — records every such decision, so the
//! CLI `explain` subcommand can replay the exact path afterwards.
//!
//! Rules are identified by raw item ids (`u32`); this crate knows nothing
//! about catalogs, so every renderer takes a `labeler` closure mapping an
//! id to its human label.
//!
//! Pruning uses *marking* semantics (a rule dominated by an itself-dead
//! rule is still removed), which makes chains the interesting case: the
//! recorder keeps **every** winner/loser edge — including kills of
//! already-dead rules (`effective: false`) — so
//! [`Provenance::render_explain`] can walk the full chain, e.g. "A lost
//! to B, and B itself lost to C".
//!
//! ## Storage: an id-keyed log
//!
//! * The **rule table** gives each rule a dense [`RuleId`] the first time
//!   it is seen and stores its key (in one flat item arena), metrics,
//!   generation filter, verdict and undecided count once. A hash index
//!   over the keys resolves a borrowed key to its id without allocating.
//!   A key registered again with different metrics (two rule sets pruned
//!   into one recorder) gets an *alias* row: the record stays the key's
//!   first registration, but decisions against the alias render their
//!   detail from the metrics that were actually compared.
//! * The **decision log** appends one `Copy` [`PruneDecision`] per
//!   pairwise decision, naming both rules by id.
//! * Nothing is formatted while recording: a step's `detail` text is
//!   rendered on read from the two rules' stored metrics and the
//!   decision's margins (`render_detail`).
//!
//! The pipeline records in batches, one lock per batch: generation
//! registers all its candidates in one [`Provenance::record_candidates`]
//! call, and pruning resolves its rules to ids once
//! ([`Provenance::register`]) and appends each condition's decisions with
//! one [`Provenance::record_decisions`]. The keyed one-event calls
//! ([`Provenance::record_decision`] and friends) land in the same log; a
//! detail string passed to them is kept verbatim.
//!
//! Reads return records sorted by key, each rule's steps in evaluation
//! order. A per-rule step index over the log is built on the first read
//! after a write, so explaining one rule never scans the whole log.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, MutexGuard};

/// A rule's identity: sorted antecedent and consequent item ids.
pub type RuleKey = (Vec<u32>, Vec<u32>);

/// A rule's dense index in one recorder's rule table (see
/// [`Provenance::register`]).
pub type RuleId = u32;

/// "No rule" in a hash chain; "no stored text" for a logged decision.
const NONE: u32 = u32::MAX;

/// A table length or offset as a `u32` index.
fn as_index(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&i| i != NONE)
        .expect("provenance log exceeds u32 indexing")
}

/// The metric inputs of one rule, as the recorder needs them.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleInfo {
    /// Antecedent item ids (sorted).
    pub antecedent: Vec<u32>,
    /// Consequent item ids (sorted).
    pub consequent: Vec<u32>,
    /// Absolute support count of the full itemset.
    pub support_count: u64,
    /// Rule support P(X, Y).
    pub support: f64,
    /// Rule confidence P(Y | X).
    pub confidence: f64,
    /// Rule lift.
    pub lift: f64,
}

impl RuleInfo {
    /// A borrowed view of this rule.
    pub fn rule_ref(&self) -> RuleRef<'_> {
        RuleRef {
            antecedent: &self.antecedent,
            consequent: &self.consequent,
            support_count: self.support_count,
            support: self.support,
            confidence: self.confidence,
            lift: self.lift,
        }
    }
}

/// [`RuleInfo`] borrowed: what the batch calls take, so resolving a rule
/// already in the table clones nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleRef<'a> {
    /// Antecedent item ids (sorted).
    pub antecedent: &'a [u32],
    /// Consequent item ids (sorted).
    pub consequent: &'a [u32],
    /// Absolute support count of the full itemset.
    pub support_count: u64,
    /// Rule support P(X, Y).
    pub support: f64,
    /// Rule confidence P(Y | X).
    pub confidence: f64,
    /// Rule lift.
    pub lift: f64,
}

/// Why a candidate rule was dropped at generation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenFilter {
    /// Which threshold fired: `"lift"`, `"confidence"`, or `"support"`.
    pub metric: &'static str,
    /// The rule's value of that metric.
    pub value: f64,
    /// The configured floor it failed.
    pub threshold: f64,
}

/// Which side of a pruning decision a rule was on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneRole {
    /// This rule dominated the opponent.
    Winner,
    /// This rule was removed (or would have been, were it still alive).
    Loser,
}

/// One pairwise pruning decision between two registered rules: the
/// decision log's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneDecision {
    /// Paper condition number (1–4).
    pub condition: u8,
    /// Which comparison decided: `"lift"`, `"support"`, or
    /// `"lift+support"` (condition 2's two-part short-rule branch).
    pub branch: &'static str,
    /// The lift margin `C_lift` the condition ran with.
    pub c_lift: f64,
    /// The support margin `C_supp` the condition ran with.
    pub c_supp: f64,
    /// The dominating rule.
    pub winner: RuleId,
    /// The dominated rule.
    pub loser: RuleId,
    /// Whether the loser was still alive when the decision fired.
    pub effective: bool,
}

impl PruneDecision {
    /// The margin the deciding branch applied: `C_supp` for condition 1's
    /// support branch, `C_lift` for every other branch.
    fn margin(&self) -> f64 {
        if self.branch == "support" {
            self.c_supp
        } else {
            self.c_lift
        }
    }

    /// Whether the loser is the pair's rule with the smaller varying side:
    /// only the two branches that prefer the more specific rule remove
    /// the shorter one.
    fn loser_is_short(&self) -> bool {
        matches!(self.branch, "support" | "lift+support")
    }
}

/// One pairwise pruning decision, recorded on both participants.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneStep {
    /// Paper condition number (1–4).
    pub condition: u8,
    /// This rule's side of the decision.
    pub role: PruneRole,
    /// The other rule of the nested pair.
    pub opponent: RuleKey,
    /// Which comparison decided: `"lift"`, `"support"`, or
    /// `"lift+support"` (condition 2's two-part short-rule branch).
    pub branch: &'static str,
    /// The relaxation margin (`C_lift` or `C_supp`) used.
    pub margin: f64,
    /// Human-readable rendering of the comparison actually evaluated,
    /// e.g. `1.50 x 1.11 = 1.67 >= 1.33`.
    pub detail: String,
    /// Whether the loser was still alive when the decision fired. A
    /// `false` here is a marking-chain echo: the loser was already dead,
    /// but the edge still documents domination.
    pub effective: bool,
}

/// Everything recorded about one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleProvenance {
    /// The rule's metric inputs.
    pub info: RuleInfo,
    /// Set when the rule was dropped by a generation threshold.
    pub filtered: Option<GenFilter>,
    /// Pruning decisions this rule participated in, in evaluation order.
    pub steps: Vec<PruneStep>,
    /// Pairwise comparisons evaluated against this rule that decided
    /// nothing (neither branch of the condition fired).
    pub undecided_comparisons: u64,
    /// Final pruning verdict: `Some(true)` kept, `Some(false)` pruned,
    /// `None` when keyword pruning never saw the rule.
    pub kept: Option<bool>,
}

impl RuleProvenance {
    /// The first effective losing decision, if the rule was pruned.
    pub fn killed_by(&self) -> Option<&PruneStep> {
        self.steps
            .iter()
            .find(|s| s.role == PruneRole::Loser && s.effective)
    }
}

/// One rule-table row. A rule's record holds the metrics of its first
/// registration; an alias row only carries other metrics for detail
/// rendering.
#[derive(Debug)]
struct Slot {
    /// `items[start..split]` is the antecedent, `items[split..end]` the
    /// consequent.
    start: u32,
    split: u32,
    end: u32,
    support_count: u64,
    support: f64,
    confidence: f64,
    lift: f64,
    filtered: Option<GenFilter>,
    kept: Option<bool>,
    undecided: u64,
    /// The next rule whose key hashes the same, or `NONE`.
    next: RuleId,
    /// The row whose record this alias row's decisions count toward, or
    /// `NONE` for a key's own row.
    alias_of: RuleId,
}

impl Slot {
    fn same_metrics(&self, rule: &RuleRef<'_>) -> bool {
        self.support_count == rule.support_count
            && self.support.to_bits() == rule.support.to_bits()
            && self.confidence.to_bits() == rule.confidence.to_bits()
            && self.lift.to_bits() == rule.lift.to_bits()
    }
}

/// A decision-log entry: the decision, plus the index of a caller-given
/// detail string in [`Log::details`] (`NONE`: render on read).
#[derive(Debug, Clone, Copy)]
struct Logged {
    decision: PruneDecision,
    detail: u32,
}

/// Each rule's steps over the decision log, in compressed sparse rows:
/// rule `id`'s steps are `entries[start[id]..start[id + 1]]` (log index
/// and role), in log order.
#[derive(Debug)]
struct StepIndex {
    start: Vec<u32>,
    entries: Vec<(u32, PruneRole)>,
}

impl StepIndex {
    fn build(log: &Log) -> StepIndex {
        let mut start = vec![0u32; log.rules.len() + 1];
        for logged in &log.decisions {
            start[log.record_id(logged.decision.winner) as usize + 1] += 1;
            start[log.record_id(logged.decision.loser) as usize + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut fill = start.clone();
        let mut entries = vec![(0, PruneRole::Winner); 2 * log.decisions.len()];
        for (i, logged) in log.decisions.iter().enumerate() {
            let d = &logged.decision;
            for (id, role) in [(d.winner, PruneRole::Winner), (d.loser, PruneRole::Loser)] {
                let id = log.record_id(id);
                entries[fill[id as usize] as usize] = (as_index(i), role);
                fill[id as usize] += 1;
            }
        }
        StepIndex { start, entries }
    }
}

/// The recorder's state behind the handle's lock.
#[derive(Debug, Default)]
struct Log {
    hasher: RandomState,
    /// Every rule's antecedent then consequent, back to back.
    items: Vec<u32>,
    rules: Vec<Slot>,
    /// Key hash -> the most recently added rule with that hash.
    heads: HashMap<u64, RuleId>,
    decisions: Vec<Logged>,
    /// Detail strings passed to the keyed [`Provenance::record_decision`].
    details: Vec<String>,
    /// Built on the first read after a write.
    steps: Option<StepIndex>,
}

impl Log {
    fn key(&self, id: RuleId) -> (&[u32], &[u32]) {
        let slot = &self.rules[id as usize];
        (
            &self.items[slot.start as usize..slot.split as usize],
            &self.items[slot.split as usize..slot.end as usize],
        )
    }

    /// The row holding the record `id` counts toward.
    fn record_id(&self, id: RuleId) -> RuleId {
        match self.rules[id as usize].alias_of {
            NONE => id,
            of => of,
        }
    }

    fn find_hashed(&self, antecedent: &[u32], consequent: &[u32], hash: u64) -> Option<RuleId> {
        let mut id = *self.heads.get(&hash)?;
        while id != NONE {
            if self.key(id) == (antecedent, consequent) {
                return Some(id);
            }
            id = self.rules[id as usize].next;
        }
        None
    }

    fn find(&self, antecedent: &[u32], consequent: &[u32]) -> Option<RuleId> {
        let hash = self.hasher.hash_one((antecedent, consequent));
        self.find_hashed(antecedent, consequent, hash)
    }

    /// Resolves a rule to its id, adding it to the table on first sight
    /// (or as an alias row when its key is known with other metrics).
    fn intern(&mut self, rule: RuleRef<'_>) -> RuleId {
        let hash = self.hasher.hash_one((rule.antecedent, rule.consequent));
        let id = as_index(self.rules.len());
        let (next, alias_of) = match self.find_hashed(rule.antecedent, rule.consequent, hash) {
            Some(known) if self.rules[known as usize].same_metrics(&rule) => return known,
            Some(known) => (NONE, known),
            None => (self.heads.insert(hash, id).unwrap_or(NONE), NONE),
        };
        let start = as_index(self.items.len());
        self.items.extend_from_slice(rule.antecedent);
        let split = as_index(self.items.len());
        self.items.extend_from_slice(rule.consequent);
        self.rules.push(Slot {
            start,
            split,
            end: as_index(self.items.len()),
            support_count: rule.support_count,
            support: rule.support,
            confidence: rule.confidence,
            lift: rule.lift,
            filtered: None,
            kept: None,
            undecided: 0,
            next,
            alias_of,
        });
        id
    }

    /// The record row of a rule, registering it first if needed.
    fn record_row(&mut self, rule: RuleRef<'_>) -> &mut Slot {
        let id = self.intern(rule);
        let id = self.record_id(id);
        &mut self.rules[id as usize]
    }

    fn push_undecided(&mut self, a: RuleId, b: RuleId) {
        for id in [a, b] {
            let id = self.record_id(id);
            self.rules[id as usize].undecided += 1;
        }
    }

    /// Builds the step index if a write dropped it.
    fn index_steps(&mut self) {
        if self.steps.is_none() {
            self.steps = Some(StepIndex::build(self));
        }
    }

    /// Rule `id`'s steps; requires [`Log::index_steps`].
    fn steps_of(&self, id: RuleId) -> &[(u32, PruneRole)] {
        let index = self.steps.as_ref().expect("step index built before reads");
        let (start, end) = (index.start[id as usize], index.start[id as usize + 1]);
        &index.entries[start as usize..end as usize]
    }

    /// The ids of all records, sorted by key.
    fn ids_by_key(&self) -> Vec<RuleId> {
        let mut ids: Vec<RuleId> = (0..as_index(self.rules.len()))
            .filter(|&id| self.rules[id as usize].alias_of == NONE)
            .collect();
        ids.sort_unstable_by(|&a, &b| self.key(a).cmp(&self.key(b)));
        ids
    }

    fn detail(&self, logged: &Logged) -> String {
        if logged.detail != NONE {
            return self.details[logged.detail as usize].clone();
        }
        let d = &logged.decision;
        let (short, long) = if d.loser_is_short() {
            (d.loser, d.winner)
        } else {
            (d.winner, d.loser)
        };
        render_detail(d, &self.rules[short as usize], &self.rules[long as usize])
    }

    fn opponent(&self, (index, role): (u32, PruneRole)) -> RuleId {
        let d = &self.decisions[index as usize].decision;
        match role {
            PruneRole::Winner => d.loser,
            PruneRole::Loser => d.winner,
        }
    }

    /// The first effective losing decision of rule `id`.
    fn killed_by(&self, id: RuleId) -> Option<&PruneDecision> {
        self.steps_of(id)
            .iter()
            .map(|&(index, role)| (&self.decisions[index as usize].decision, role))
            .find(|(d, role)| *role == PruneRole::Loser && d.effective)
            .map(|(d, _)| d)
    }

    /// Every decision's detail, rendered once for a read that lists both
    /// of its steps.
    fn all_details(&self) -> Vec<String> {
        self.decisions
            .iter()
            .map(|logged| self.detail(logged))
            .collect()
    }

    /// Rule `id`'s record; `details` holds [`Log::all_details`] when the
    /// caller reads many records.
    fn record(&self, id: RuleId, details: Option<&[String]>) -> RuleProvenance {
        let slot = &self.rules[id as usize];
        let (antecedent, consequent) = self.key(id);
        let steps = self
            .steps_of(id)
            .iter()
            .map(|&(index, role)| {
                let logged = &self.decisions[index as usize];
                let (op_ante, op_cons) = self.key(self.opponent((index, role)));
                PruneStep {
                    condition: logged.decision.condition,
                    role,
                    opponent: (op_ante.to_vec(), op_cons.to_vec()),
                    branch: logged.decision.branch,
                    margin: logged.decision.margin(),
                    detail: match details {
                        Some(all) => all[index as usize].clone(),
                        None => self.detail(logged),
                    },
                    effective: logged.decision.effective,
                }
            })
            .collect();
        RuleProvenance {
            info: RuleInfo {
                antecedent: antecedent.to_vec(),
                consequent: consequent.to_vec(),
                support_count: slot.support_count,
                support: slot.support,
                confidence: slot.confidence,
                lift: slot.lift,
            },
            filtered: slot.filtered,
            steps,
            undecided_comparisons: slot.undecided,
            kept: slot.kept,
        }
    }
}

/// A cloneable handle to a provenance recorder; disabled (free) by
/// default, mirroring [`Metrics`](crate::Metrics).
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    sink: Option<Arc<Mutex<Log>>>,
}

impl Provenance {
    /// A recording handle.
    pub fn enabled() -> Provenance {
        Provenance {
            sink: Some(Arc::new(Mutex::new(Log::default()))),
        }
    }

    /// The no-op handle (same as `Provenance::default`).
    pub fn disabled() -> Provenance {
        Provenance::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Log>> {
        self.sink
            .as_ref()
            .map(|sink| sink.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The lock for a write, which makes the step index stale.
    fn write(&self) -> Option<MutexGuard<'_, Log>> {
        let mut log = self.lock()?;
        log.steps = None;
        Some(log)
    }

    /// Records a candidate rule seen at generation time; `filtered` names
    /// the threshold that dropped it (or `None` when it passed).
    pub fn record_candidate(&self, info: RuleInfo, filtered: Option<GenFilter>) {
        self.record_candidates([(info.rule_ref(), filtered)]);
    }

    /// [`Provenance::record_candidate`] for a whole batch, under one lock.
    pub fn record_candidates<'a>(
        &self,
        candidates: impl IntoIterator<Item = (RuleRef<'a>, Option<GenFilter>)>,
    ) {
        if let Some(mut log) = self.write() {
            for (rule, filtered) in candidates {
                log.record_row(rule).filtered = filtered;
            }
        }
    }

    /// Resolves each rule to its id, registering the ones not seen yet,
    /// in input order. Empty when disabled.
    pub fn register<'a>(&self, rules: impl IntoIterator<Item = RuleRef<'a>>) -> Vec<RuleId> {
        match self.write() {
            Some(mut log) => rules.into_iter().map(|rule| log.intern(rule)).collect(),
            None => Vec::new(),
        }
    }

    /// Appends a batch of pruning decisions, and counts a batch of
    /// comparisons that decided nothing (one on each rule of a pair),
    /// under one lock. Ids come from [`Provenance::register`] on this
    /// recorder.
    pub fn record_decisions(
        &self,
        decisions: impl IntoIterator<Item = PruneDecision>,
        undecided: impl IntoIterator<Item = (RuleId, RuleId)>,
    ) {
        if let Some(mut log) = self.write() {
            let n = as_index(log.rules.len());
            for decision in decisions {
                assert!(
                    decision.winner < n && decision.loser < n,
                    "rule ids come from this recorder's `register`"
                );
                log.decisions.push(Logged {
                    decision,
                    detail: NONE,
                });
            }
            for (a, b) in undecided {
                log.push_undecided(a, b);
            }
        }
    }

    /// Records final pruning verdicts by rule id.
    pub fn mark_kept_ids(&self, verdicts: impl IntoIterator<Item = (RuleId, bool)>) {
        if let Some(mut log) = self.write() {
            for (id, kept) in verdicts {
                let id = log.record_id(id);
                log.rules[id as usize].kept = Some(kept);
            }
        }
    }

    /// Records one pairwise pruning decision on both participants, with
    /// the caller's own rendering of the comparison.
    #[allow(clippy::too_many_arguments)]
    pub fn record_decision(
        &self,
        condition: u8,
        branch: &'static str,
        margin: f64,
        detail: &str,
        winner: &RuleInfo,
        loser: &RuleInfo,
        effective: bool,
    ) {
        let Some(mut log) = self.write() else {
            return;
        };
        let winner = log.intern(winner.rule_ref());
        let loser = log.intern(loser.rule_ref());
        let text = as_index(log.details.len());
        log.details.push(detail.to_string());
        log.decisions.push(Logged {
            decision: PruneDecision {
                condition,
                branch,
                c_lift: margin,
                c_supp: margin,
                winner,
                loser,
                effective,
            },
            detail: text,
        });
    }

    /// Counts a pairwise comparison that decided nothing, on both rules.
    pub fn record_undecided(&self, a: &RuleInfo, b: &RuleInfo) {
        if let Some(mut log) = self.write() {
            let (a, b) = (log.intern(a.rule_ref()), log.intern(b.rule_ref()));
            log.push_undecided(a, b);
        }
    }

    /// Records a rule's final pruning verdict.
    pub fn mark_kept(&self, info: &RuleInfo, kept: bool) {
        if let Some(mut log) = self.write() {
            log.record_row(info.rule_ref()).kept = Some(kept);
        }
    }

    /// The record for one rule key, if any decision touched it.
    pub fn get(&self, antecedent: &[u32], consequent: &[u32]) -> Option<RuleProvenance> {
        let mut log = self.lock()?;
        let id = log.find(antecedent, consequent)?;
        log.index_steps();
        Some(log.record(id, None))
    }

    /// All records, sorted by rule key.
    pub fn records(&self) -> Vec<RuleProvenance> {
        let Some(mut log) = self.lock() else {
            return Vec::new();
        };
        log.index_steps();
        let details = log.all_details();
        log.ids_by_key()
            .into_iter()
            .map(|id| log.record(id, Some(&details)))
            .collect()
    }

    /// Serializes every record as one JSON object per line (JSONL), ids
    /// and labels both included. Schema documented in DESIGN.md §4.
    pub fn to_jsonl(&self, labeler: &dyn Fn(u32) -> String) -> String {
        let mut out = String::new();
        let Some(mut log) = self.lock() else {
            return out;
        };
        log.index_steps();
        let details = log.all_details();
        for id in log.ids_by_key() {
            out.push_str(&record_to_json(&log.record(id, Some(&details)), labeler));
            out.push('\n');
        }
        out
    }

    /// Renders the decision path for one rule as human-readable text,
    /// following winner edges through marking chains (a winner that was
    /// itself pruned gets its own indented explanation, recursively).
    ///
    /// Returns `None` when the rule was never recorded.
    pub fn render_explain(
        &self,
        antecedent: &[u32],
        consequent: &[u32],
        labeler: &dyn Fn(u32) -> String,
    ) -> Option<String> {
        let mut log = self.lock()?;
        let id = log.find(antecedent, consequent)?;
        log.index_steps();
        let mut out = String::new();
        let mut visited = Vec::new();
        render_chain(&log, id, labeler, 0, &mut visited, &mut out);
        Some(out)
    }
}

/// Renders the comparison a firing decision evaluated — the `detail` of
/// its two steps — from the nested pair's stored metrics (`short` has the
/// smaller varying side).
fn render_detail(decision: &PruneDecision, short: &Slot, long: &Slot) -> String {
    let (c_lift, c_supp) = (decision.c_lift, decision.c_supp);
    match (decision.condition, decision.branch) {
        // Condition 2 short-rule branch: long covers short on both axes.
        (2, "lift+support") => format!(
            "C_lift x lift(long) = {:.2} x {:.4} = {:.4} >= lift(short) = {:.4} and \
             C_supp x supp(long) = {:.2} x {:.4} = {:.4} >= supp(short) = {:.4}",
            c_lift,
            long.lift,
            c_lift * long.lift,
            short.lift,
            c_supp,
            long.support,
            c_supp * long.support,
            short.support
        ),
        // Condition 2 long-rule branch: even relaxed, long falls short.
        (2, _) => format!(
            "C_lift x lift(long) = {:.2} x {:.4} = {:.4} < lift(short) = {:.4}",
            c_lift,
            long.lift,
            c_lift * long.lift,
            short.lift
        ),
        // Condition 1 support branch: the long rule keeps enough support.
        (1, "support") => format!(
            "C_supp x supp(long) = {:.2} x {:.4} = {:.4} >= supp(short) = {:.4}",
            c_supp,
            long.support,
            c_supp * long.support,
            short.support
        ),
        // Conditions 1/3/4 lift branch: the short rule's lift, relaxed,
        // covers the long rule's.
        (_, _) => format!(
            "C_lift x lift(short) = {:.2} x {:.4} = {:.4} >= lift(long) = {:.4}",
            c_lift,
            short.lift,
            c_lift * short.lift,
            long.lift
        ),
    }
}

fn render_key(
    (antecedent, consequent): (&[u32], &[u32]),
    labeler: &dyn Fn(u32) -> String,
) -> String {
    let side = |items: &[u32]| {
        items
            .iter()
            .map(|&i| labeler(i))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!("{{{}}} => {{{}}}", side(antecedent), side(consequent))
}

/// Renders one rule's record at `depth`, then recurses into the winner of
/// its fatal decision (marking chains). `visited` guards against cycles,
/// which cannot arise from the pruner but are cheap to rule out.
fn render_chain(
    log: &Log,
    id: RuleId,
    labeler: &dyn Fn(u32) -> String,
    depth: usize,
    visited: &mut Vec<RuleId>,
    out: &mut String,
) {
    const MAX_DEPTH: usize = 8;
    let pad = "  ".repeat(depth);
    let slot = &log.rules[id as usize];
    out.push_str(&format!(
        "{pad}rule {}\n{pad}  supp={:.4} conf={:.4} lift={:.4} (count={})\n",
        render_key(log.key(id), labeler),
        slot.support,
        slot.confidence,
        slot.lift,
        slot.support_count
    ));
    if let Some(filter) = &slot.filtered {
        out.push_str(&format!(
            "{pad}  generation: dropped — {} {:.4} below threshold {:.4}\n",
            filter.metric, filter.value, filter.threshold
        ));
    }
    // A strong short rule can beat hundreds of longer ones; cap the win
    // listing (losses are always shown — they are the interesting part).
    const MAX_WINS: usize = 12;
    let mut wins_shown = 0usize;
    let mut wins_suppressed = 0usize;
    for &(index, role) in log.steps_of(id) {
        if role == PruneRole::Winner {
            wins_shown += 1;
            if wins_shown > MAX_WINS {
                wins_suppressed += 1;
                continue;
            }
        }
        let logged = &log.decisions[index as usize];
        let d = &logged.decision;
        let verb = match role {
            PruneRole::Winner => "beat",
            PruneRole::Loser => "LOST to",
        };
        let echo = if d.effective { "" } else { " [already dead]" };
        out.push_str(&format!(
            "{pad}  condition {} ({} branch, C={:.2}): {verb} {} — {}{echo}\n",
            d.condition,
            d.branch,
            d.margin(),
            render_key(log.key(log.opponent((index, role))), labeler),
            log.detail(logged),
        ));
    }
    if wins_suppressed > 0 {
        out.push_str(&format!(
            "{pad}  ... and {wins_suppressed} more win(s) not shown\n"
        ));
    }
    if slot.undecided > 0 {
        out.push_str(&format!(
            "{pad}  {} pairwise comparison(s) decided nothing\n",
            slot.undecided
        ));
    }
    match slot.kept {
        Some(true) => out.push_str(&format!("{pad}  verdict: KEPT\n")),
        Some(false) => {
            if let Some(fatal) = log.killed_by(id) {
                out.push_str(&format!(
                    "{pad}  verdict: PRUNED by condition {} (winner: {})\n",
                    fatal.condition,
                    render_key(log.key(fatal.winner), labeler)
                ));
                // Marking chains: explain the winner's own fate, which may
                // itself be "pruned" — that is exactly the chain operators
                // need to see.
                let winner = log.record_id(fatal.winner);
                if depth < MAX_DEPTH && !visited.contains(&winner) {
                    visited.push(id);
                    if !visited.contains(&winner) {
                        out.push_str(&format!("{pad}  the winner's own fate:\n"));
                        render_chain(log, winner, labeler, depth + 2, visited, out);
                    }
                }
            } else {
                out.push_str(&format!("{pad}  verdict: PRUNED\n"));
            }
        }
        None => {
            if slot.filtered.is_some() {
                out.push_str(&format!("{pad}  verdict: never reached pruning\n"));
            } else {
                out.push_str(&format!(
                    "{pad}  verdict: not part of this keyword analysis\n"
                ));
            }
        }
    }
}

fn json_items(items: &[u32], labeler: &dyn Fn(u32) -> String) -> (String, String) {
    let ids = items
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let labels = items
        .iter()
        .map(|&i| format!("\"{}\"", crate::json::escape(&labeler(i))))
        .collect::<Vec<_>>()
        .join(",");
    (format!("[{ids}]"), format!("[{labels}]"))
}

fn record_to_json(record: &RuleProvenance, labeler: &dyn Fn(u32) -> String) -> String {
    let info = &record.info;
    let (ante_ids, ante_labels) = json_items(&info.antecedent, labeler);
    let (cons_ids, cons_labels) = json_items(&info.consequent, labeler);
    let mut out = format!(
        "{{\"antecedent\":{ante_ids},\"consequent\":{cons_ids},\
         \"antecedent_labels\":{ante_labels},\"consequent_labels\":{cons_labels},\
         \"support_count\":{},\"support\":{},\"confidence\":{},\"lift\":{}",
        info.support_count,
        crate::json::f64_value(info.support),
        crate::json::f64_value(info.confidence),
        crate::json::f64_value(info.lift),
    );
    match &record.filtered {
        Some(f) => out.push_str(&format!(
            ",\"filtered\":{{\"metric\":\"{}\",\"value\":{},\"threshold\":{}}}",
            f.metric,
            crate::json::f64_value(f.value),
            crate::json::f64_value(f.threshold)
        )),
        None => out.push_str(",\"filtered\":null"),
    }
    out.push_str(",\"steps\":[");
    for (i, step) in record.steps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (op_ante, _) = json_items(&step.opponent.0, labeler);
        let (op_cons, _) = json_items(&step.opponent.1, labeler);
        out.push_str(&format!(
            "{{\"condition\":{},\"role\":\"{}\",\"opponent\":{{\"antecedent\":{op_ante},\"consequent\":{op_cons}}},\
             \"branch\":\"{}\",\"margin\":{},\"detail\":\"{}\",\"effective\":{}}}",
            step.condition,
            match step.role {
                PruneRole::Winner => "winner",
                PruneRole::Loser => "loser",
            },
            step.branch,
            crate::json::f64_value(step.margin),
            crate::json::escape(&step.detail),
            step.effective
        ));
    }
    out.push_str(&format!(
        "],\"undecided_comparisons\":{},\"kept\":{}}}",
        record.undecided_comparisons,
        match record.kept {
            Some(true) => "true",
            Some(false) => "false",
            None => "null",
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(ante: &[u32], cons: &[u32], lift: f64) -> RuleInfo {
        RuleInfo {
            antecedent: ante.to_vec(),
            consequent: cons.to_vec(),
            support_count: 10,
            support: 0.1,
            confidence: 0.5,
            lift,
        }
    }

    fn labels(i: u32) -> String {
        format!("item{i}")
    }

    #[test]
    fn disabled_records_nothing() {
        let p = Provenance::disabled();
        assert!(!p.is_enabled());
        p.record_candidate(info(&[0], &[1], 2.0), None);
        p.mark_kept(&info(&[0], &[1], 2.0), true);
        assert!(p.register([info(&[0], &[1], 2.0).rule_ref()]).is_empty());
        assert!(p.records().is_empty());
        assert!(p.get(&[0], &[1]).is_none());
        assert!(p.render_explain(&[0], &[1], &labels).is_none());
        assert_eq!(p.to_jsonl(&labels), "");
    }

    #[test]
    fn decisions_land_on_both_rules() {
        let p = Provenance::enabled();
        let winner = info(&[0], &[2], 3.0);
        let loser = info(&[0, 1], &[2], 3.2);
        p.record_decision(
            1,
            "lift",
            1.5,
            "1.50 x 3.00 = 4.50 >= 3.20",
            &winner,
            &loser,
            true,
        );
        let w = p.get(&[0], &[2]).unwrap();
        assert_eq!(w.steps[0].role, PruneRole::Winner);
        let l = p.get(&[0, 1], &[2]).unwrap();
        assert_eq!(l.steps[0].role, PruneRole::Loser);
        assert!(l.killed_by().is_some());
        assert_eq!(l.steps[0].opponent, (vec![0], vec![2]));
    }

    #[test]
    fn explain_renders_marking_chain() {
        // C kills B (B alive), B kills A: the chain A -> B -> C must all
        // appear in A's explanation.
        let p = Provenance::enabled();
        let a = info(&[0], &[9], 2.0);
        let b = info(&[0, 1], &[9], 2.1);
        let c = info(&[0, 1, 2], &[9], 2.2);
        p.record_decision(1, "support", 1.5, "s", &b, &a, true);
        p.record_decision(1, "lift", 1.5, "l", &c, &b, true);
        p.mark_kept(&a, false);
        p.mark_kept(&b, false);
        p.mark_kept(&c, true);
        let text = p.render_explain(&[0], &[9], &labels).unwrap();
        assert!(text.contains("LOST to {item0, item1} => {item9}"), "{text}");
        assert!(text.contains("the winner's own fate:"), "{text}");
        assert!(text.contains("{item0, item1, item2} => {item9}"), "{text}");
        assert!(text.contains("verdict: KEPT"), "{text}");
    }

    #[test]
    fn filtered_rules_explainable() {
        let p = Provenance::enabled();
        p.record_candidate(
            info(&[0], &[1], 1.2),
            Some(GenFilter {
                metric: "lift",
                value: 1.2,
                threshold: 1.5,
            }),
        );
        let text = p.render_explain(&[0], &[1], &labels).unwrap();
        assert!(text.contains("generation: dropped"), "{text}");
        assert!(text.contains("never reached pruning"), "{text}");
    }

    #[test]
    fn jsonl_one_line_per_rule_and_balanced() {
        let p = Provenance::enabled();
        let winner = info(&[0], &[2], 3.0);
        let loser = info(&[0, 1], &[2], 3.2);
        p.record_candidate(winner.clone(), None);
        p.record_candidate(loser.clone(), None);
        p.record_decision(1, "lift", 1.5, "d", &winner, &loser, true);
        p.mark_kept(&winner, true);
        p.mark_kept(&loser, false);
        let jsonl = p.to_jsonl(&labels);
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert!(line.contains("\"antecedent_labels\":[\"item0\""), "{line}");
        }
        assert!(jsonl.contains("\"kept\":true"));
        assert!(jsonl.contains("\"kept\":false"));
    }

    #[test]
    fn undecided_comparisons_counted() {
        let p = Provenance::enabled();
        let a = info(&[0], &[2], 2.0);
        let b = info(&[0, 1], &[2], 9.0);
        p.record_undecided(&a, &b);
        p.record_undecided(&a, &b);
        assert_eq!(p.get(&[0], &[2]).unwrap().undecided_comparisons, 2);
    }

    #[test]
    fn handle_is_send_sync_and_shared() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Provenance>();
        let p = Provenance::enabled();
        let clone = p.clone();
        clone.record_candidate(info(&[3], &[4], 1.0), None);
        assert!(p.get(&[3], &[4]).is_some());
    }

    fn decision(
        winner: RuleId,
        loser: RuleId,
        condition: u8,
        branch: &'static str,
    ) -> PruneDecision {
        PruneDecision {
            condition,
            branch,
            c_lift: 1.5,
            c_supp: 2.0,
            winner,
            loser,
            effective: true,
        }
    }

    #[test]
    fn batch_recording_matches_keyed_recording() {
        // The keyed calls carry their own detail text; the id-keyed batch
        // renders it on read from the stored metrics. Both must agree.
        let short = info(&[0], &[2], 3.0);
        let long = info(&[0, 1], &[2], 3.2);
        let keyed = Provenance::enabled();
        keyed.record_candidate(short.clone(), None);
        keyed.record_candidate(long.clone(), None);
        keyed.record_decision(
            1,
            "lift",
            1.5,
            "C_lift x lift(short) = 1.50 x 3.0000 = 4.5000 >= lift(long) = 3.2000",
            &short,
            &long,
            true,
        );
        keyed.record_decision(
            1,
            "support",
            2.0,
            "C_supp x supp(long) = 2.00 x 0.1000 = 0.2000 >= supp(short) = 0.1000",
            &long,
            &short,
            false,
        );
        keyed.record_undecided(&short, &long);
        keyed.mark_kept(&short, true);
        keyed.mark_kept(&long, false);

        let batch = Provenance::enabled();
        batch.record_candidates([(short.rule_ref(), None), (long.rule_ref(), None)]);
        let ids = batch.register([short.rule_ref(), long.rule_ref()]);
        let mut echo = decision(ids[1], ids[0], 1, "support");
        echo.effective = false;
        batch.record_decisions(
            [decision(ids[0], ids[1], 1, "lift"), echo],
            [(ids[0], ids[1])],
        );
        batch.mark_kept_ids([(ids[0], true), (ids[1], false)]);

        assert_eq!(batch.records(), keyed.records());
        assert_eq!(batch.to_jsonl(&labels), keyed.to_jsonl(&labels));
        assert_eq!(
            batch.render_explain(&[0, 1], &[2], &labels),
            keyed.render_explain(&[0, 1], &[2], &labels)
        );
    }

    #[test]
    fn detail_renders_each_branch_from_the_short_and_long_rule() {
        let p = Provenance::enabled();
        let short = info(&[0], &[2], 3.0);
        let long = info(&[0, 1], &[2], 1.5);
        let ids = p.register([short.rule_ref(), long.rule_ref()]);
        let (s, l) = (ids[0], ids[1]);
        p.record_decisions(
            [
                decision(l, s, 2, "lift+support"),
                decision(s, l, 2, "lift"),
                decision(l, s, 1, "support"),
                decision(s, l, 3, "lift"),
            ],
            [],
        );
        let steps = p.get(&[0], &[2]).unwrap().steps;
        let details: Vec<(&str, f64)> = steps
            .iter()
            .map(|s| (s.detail.as_str(), s.margin))
            .collect();
        assert_eq!(
            details,
            [
                (
                    "C_lift x lift(long) = 1.50 x 1.5000 = 2.2500 >= lift(short) = 3.0000 and \
                     C_supp x supp(long) = 2.00 x 0.1000 = 0.2000 >= supp(short) = 0.1000",
                    1.5
                ),
                (
                    "C_lift x lift(long) = 1.50 x 1.5000 = 2.2500 < lift(short) = 3.0000",
                    1.5
                ),
                (
                    "C_supp x supp(long) = 2.00 x 0.1000 = 0.2000 >= supp(short) = 0.1000",
                    2.0
                ),
                (
                    "C_lift x lift(short) = 1.50 x 3.0000 = 4.5000 >= lift(long) = 1.5000",
                    1.5
                ),
            ]
        );
    }

    #[test]
    fn reads_after_a_write_see_the_new_steps() {
        let p = Provenance::enabled();
        let a = info(&[0], &[2], 3.0);
        let b = info(&[0, 1], &[2], 3.2);
        let ids = p.register([a.rule_ref(), b.rule_ref()]);
        p.record_decisions([decision(ids[0], ids[1], 1, "lift")], []);
        assert_eq!(p.get(&[0], &[2]).unwrap().steps.len(), 1);
        // The first read built the step index; this write must drop it.
        let c = info(&[0, 1, 3], &[2], 3.3);
        let c_id = p.register([c.rule_ref()])[0];
        p.record_decisions([decision(ids[0], c_id, 1, "lift")], []);
        assert_eq!(p.get(&[0], &[2]).unwrap().steps.len(), 2);
        assert_eq!(p.get(&[0, 1, 3], &[2]).unwrap().steps.len(), 1);
        assert_eq!(p.records().len(), 3);
    }

    #[test]
    fn a_key_seen_again_with_other_metrics_keeps_one_record() {
        // Two rule sets pruned into one recorder can share a key with
        // different metrics: the record stays the first registration,
        // while the detail shows the metrics actually compared.
        let p = Provenance::enabled();
        let first = info(&[0], &[2], 3.0);
        let again = info(&[0], &[2], 2.0);
        let long = info(&[0, 1], &[2], 2.5);
        let ids = p.register([first.rule_ref(), again.rule_ref(), long.rule_ref()]);
        assert_ne!(ids[0], ids[1]);
        p.record_decisions([decision(ids[1], ids[2], 1, "lift")], [(ids[1], ids[2])]);
        p.mark_kept_ids([(ids[1], true)]);

        assert_eq!(p.records().len(), 2);
        let record = p.get(&[0], &[2]).unwrap();
        assert_eq!(record.info.lift, 3.0);
        assert_eq!(record.kept, Some(true));
        assert_eq!(record.undecided_comparisons, 1);
        assert_eq!(
            record.steps[0].detail,
            "C_lift x lift(short) = 1.50 x 2.0000 = 3.0000 >= lift(long) = 2.5000"
        );
        let text = p.render_explain(&[0, 1], &[2], &labels).unwrap();
        assert!(text.contains("LOST to {item0} => {item2}"), "{text}");
    }
}
