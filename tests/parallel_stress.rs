//! Stress test: wide fan-out, shared cancellation, no torn results.
//!
//! A 64-way `par_iter` drives budgeted VF2 kernels that all share one
//! [`CancelToken`]. One worker trips the token mid-flight. The contract
//! under fire:
//!
//! * all 64 results come back, in input order;
//! * every result is a whole `(bool, Completeness)` pair tagged either
//!   `Exact` or `Cancelled` — cancellation can never tear a result or
//!   surface a bogus tag;
//! * the executor survives: follow-up fan-outs on the same pool work,
//!   and no scoped worker threads outlive their `par_iter` call.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// Test code may share state (serialization locks, counters); the
// clippy.toml interior-mutability bans target library code.
#![allow(clippy::disallowed_types)]

use catapult::graph::iso::contains_tagged;
use catapult::graph::{CancelToken, Completeness, Graph, Label, SearchBudget, VertexId};
use rayon::prelude::*;
use std::sync::Mutex;

/// `rayon::set_threads` is process-global; hold this across every flip.
static SERIAL: Mutex<()> = Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::set_threads(n);
    let out = f();
    rayon::set_threads(0);
    out
}

fn ring(n: u32, label: u32) -> Graph {
    let mut g = Graph::new();
    for _ in 0..n {
        g.add_vertex(Label(label));
    }
    for i in 0..n {
        g.add_edge(VertexId(i), VertexId((i + 1) % n)).unwrap();
    }
    g
}

fn path(n: u32, label: u32) -> Graph {
    let mut g = Graph::new();
    for _ in 0..n {
        g.add_vertex(Label(label));
    }
    for i in 0..n - 1 {
        g.add_edge(VertexId(i), VertexId(i + 1)).unwrap();
    }
    g
}

/// Live threads of this process (Linux); `None` where /proc is absent.
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// One fan-out: 64 budgeted kernels sharing `token`; worker `canceller`
/// trips it before running its own probe. Returns the collected tags.
fn cancelling_fanout(token: &CancelToken, canceller: usize) -> Vec<(bool, Completeness)> {
    let target = ring(14, 0);
    let pattern = path(7, 0);
    // Poll cadence 1: a kernel started after the trip observes it on its
    // first expansion instead of after DEFAULT_CHECK_EVERY nodes.
    let budget = SearchBudget::unbounded()
        .with_cancel(token.clone())
        .with_check_every(1);
    (0..64usize)
        .into_par_iter()
        .map(|i| {
            if i == canceller {
                token.cancel();
            }
            contains_tagged(&target, &pattern, &budget)
        })
        .collect()
}

#[test]
fn cancellation_mid_flight_never_tears_a_result() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [8usize, 64] {
        with_threads(threads, || {
            let token = CancelToken::new();
            let results = cancelling_fanout(&token, 0);
            assert_eq!(results.len(), 64, "threads={threads}: lost results");
            for (i, (found, c)) in results.iter().enumerate() {
                match c {
                    Completeness::Exact => {
                        // A ring always contains a shorter path.
                        assert!(found, "threads={threads} item {i}: exact but wrong");
                    }
                    Completeness::Cancelled => {
                        // Best-so-far semantics: a cancelled probe may or
                        // may not have found the embedding yet; both are
                        // whole, sound results.
                    }
                    other => {
                        panic!("threads={threads} item {i}: torn/bogus tag {other:?}")
                    }
                }
            }
            // Worker 0 cancels before its own probe: with poll cadence 1
            // that probe must come back Cancelled, proving the trip
            // happened mid-flight rather than after the fan-out drained.
            assert_eq!(
                results[0].1,
                Completeness::Cancelled,
                "threads={threads}: the cancelling worker's own probe escaped"
            );
        });
    }
}

#[test]
fn executor_survives_repeated_cancelled_fanouts() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    with_threads(8, || {
        let before = live_threads();
        // Hammer the pool: every round shares a fresh token and cancels
        // from a different position, so the Exact/Cancelled frontier
        // lands differently each time.
        for round in 0..12usize {
            let token = CancelToken::new();
            let results = cancelling_fanout(&token, (round * 5) % 64);
            assert_eq!(results.len(), 64, "round {round}: lost results");
            assert!(
                results
                    .iter()
                    .all(|(_, c)| matches!(c, Completeness::Exact | Completeness::Cancelled)),
                "round {round}: torn result"
            );
        }
        // A clean fan-out on the same pool still works afterwards.
        let token = CancelToken::new();
        let clean: Vec<(bool, Completeness)> = {
            let target = ring(14, 0);
            let pattern = path(7, 0);
            let budget = SearchBudget::unbounded().with_cancel(token);
            (0..64usize)
                .into_par_iter()
                .map(|_| contains_tagged(&target, &pattern, &budget))
                .collect()
        };
        assert!(
            clean
                .iter()
                .all(|&(found, c)| found && c == Completeness::Exact),
            "pool unhealthy after cancelled fan-outs"
        );
        // Scoped workers must all have joined: thread count is back to
        // (at most) where it started. Skipped where /proc is missing.
        if let (Some(b), Some(a)) = (before, live_threads()) {
            assert!(a <= b, "leaked worker threads: {b} before, {a} after");
        }
    });
}
