//! Stress for the job-completion handshake: a thief that finishes a
//! stolen `join` half must never touch the job after its owner returns.
//!
//! Thousands of small nested joins on a pool with four times more
//! threads than cores keep stealing (and preemption between a thief's
//! `done` store and its last access) as frequent as possible. The
//! window is narrow, so a pass does not prove the handshake; the test
//! exists to exercise it under `cargo test --release`.

use rayon::ThreadPoolBuilder;

/// Sums `lo..hi` by recursive halving, each level one `join`.
fn tree_sum(lo: u64, hi: u64) -> u64 {
    if hi - lo <= 2 {
        return (lo..hi).sum();
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = rayon::join(|| tree_sum(lo, mid), || tree_sum(mid, hi));
    a + b
}

#[test]
fn nested_joins_on_an_oversubscribed_pool() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = ThreadPoolBuilder::new()
        .num_threads(4 * cores.max(2))
        .build()
        .expect("pool builds");
    for round in 0..2000u64 {
        let n = 256 + round % 64;
        let got = pool.install(|| tree_sum(0, n));
        assert_eq!(got, n * (n - 1) / 2, "round {round}");
    }
}

#[test]
fn external_callers_race_the_pool() {
    // Several non-worker threads migrate joins into one pool at once,
    // which exercises the parked-waiter path alongside worker stealing.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = ThreadPoolBuilder::new()
        .num_threads(4 * cores.max(2))
        .build()
        .expect("pool builds");
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let pool = &pool;
            scope.spawn(move || {
                for round in 0..200u64 {
                    let n = 64 + (round + t) % 32;
                    let got = pool.install(|| tree_sum(0, n));
                    assert_eq!(got, n * (n - 1) / 2, "thread {t} round {round}");
                }
            });
        }
    });
}
