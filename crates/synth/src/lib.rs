//! # irma-synth — synthetic GPU-cluster trace substrate
//!
//! The paper analyses three production traces (Alibaba PAI, MIT SuperCloud,
//! Microsoft Philly). The raw traces are not redistributable inside this
//! repository, so this crate implements the closest synthetic equivalent:
//! an archetype-mixture job generator per trace, backed by real simulators
//! for the parts whose structure matters to the analysis —
//!
//! * [`monitor`]: a per-job GPU monitoring time-series simulator
//!   (SM / memory-bandwidth / memory / power) reduced to the paper's
//!   per-job features (mean, min, max, variance);
//! * [`sched`]: an event-driven FCFS queue simulator over per-type GPU
//!   pools (queue-wait features);
//! * [`users`]: Zipf-skewed user and job-group populations (frequent /
//!   new-user semantics).
//!
//! Each profile ([`pai`], [`supercloud`], [`philly`]) returns a
//! [`TraceBundle`] holding *two* frames — a scheduler-level log and a
//! node-level monitoring file — reproducing the paper's "features are
//! scattered across files" situation, plus per-job ground-truth archetype
//! labels used only by tests.
//!
//! Every generator is deterministic per [`TraceConfig::seed`].

#![warn(missing_docs)]

mod config;
pub mod monitor;
mod pai;
mod philly;
pub mod rng;
pub mod sched;
mod supercloud;
pub mod users;

pub use config::{PaperScale, TraceBundle, TraceConfig, PAI_SCALE, PHILLY_SCALE, SUPERCLOUD_SCALE};
pub use pai::{pai, STD_CPU_REQUEST, STD_MEM_REQUEST_GB};
pub use philly::philly;
pub use supercloud::supercloud;

/// Generator signature shared by the three trace profiles.
pub type ProfileFn = fn(&TraceConfig) -> TraceBundle;

/// The three trace profiles by name, for sweep-style callers.
pub fn all_profiles() -> [(&'static str, ProfileFn); 3] {
    [
        ("pai", pai as ProfileFn),
        ("supercloud", supercloud as ProfileFn),
        ("philly", philly as ProfileFn),
    ]
}
