//! Commit tests across worker counts: the epoch commit pushes every
//! worker's outbox as it stands, so which messages share an outbox, and
//! in which order outboxes reach a mailbox, depends on the worker count
//! and on the host. Delivery logs, per-rank results, virtual clocks and
//! model counters must nevertheless be **byte-identical** to the 1-worker
//! run, whose one outbox per epoch is pushed by one worker. The storms
//! here are built to stress exactly the commit phase: wildcard receives
//! (delivery order is observable), colliding tags (several matching
//! streams per mailbox), heavy fan-in (many senders per mailbox in one
//! commit), and nonblocking collectives (library-internal traffic
//! interleaved with user traffic).
//!
//! A fixed-seed golden additionally pins the p = 1024 storm to constants
//! recorded at the last commit that ordered wide epochs with a published
//! k-way merge round, so the commit is checked against that one's output
//! and not only against itself.

use std::sync::{Arc, Mutex};

use mpisim::nbcoll;
use mpisim::{ops, MetricsSnapshot, SimConfig, Src, Time, Transport, Universe};
use proptest::prelude::*;

/// One rank's full observation of a storm run: the exact `(source, tag,
/// value)` sequence its wildcard receives matched, its iallreduce result,
/// and its final virtual clock.
type RankLog = (Vec<(usize, u64, u64)>, u64, Time);

/// Messages rank `r` sends per `(i, k)` step: 4 deterministic targets at
/// offsets {1, 4, 9, 16} with tags colliding in {0, 1, 2}. Every rank's
/// in-degree equals its out-degree, so receive counts are known exactly.
const FANOUT_OFFSETS: [usize; 4] = [1, 4, 9, 16];

fn tag_of(k: usize) -> u64 {
    (k % 3) as u64
}

/// Run the storm and capture every rank's observation plus the run's
/// deterministic model counters.
fn storm_log(p: usize, per: usize, seed: u64, workers: usize) -> (Vec<RankLog>, MetricsSnapshot) {
    assert!(p > *FANOUT_OFFSETS.iter().max().unwrap());
    type LogStore = Arc<Mutex<Vec<Vec<(usize, u64, u64)>>>>;
    let logs: LogStore = Arc::new(Mutex::new(vec![Vec::new(); p]));
    let logs2 = Arc::clone(&logs);
    let cfg = SimConfig::cooperative()
        .with_seed(seed)
        .with_workers(workers);
    let res = Universe::run(p, cfg, move |env| {
        let w = &env.world;
        let r = w.rank();
        // Fan-out storm with colliding tags.
        for i in 0..per {
            for (k, off) in FANOUT_OFFSETS.iter().enumerate() {
                let dst = (r + off) % p;
                w.send(&[(r * 1000 + i * 10 + k) as u64], dst, tag_of(k))
                    .unwrap();
            }
        }
        // A nonblocking collective runs concurrently with the storm, so
        // library-internal traffic shares the same epoch commits.
        let coll = nbcoll::iallreduce(w, &[r as u64 + 1], 300, ops::sum::<u64>()).unwrap();
        // Wildcard-drain each colliding tag stream: per tag t the rank's
        // in-degree is per * |{k : tag_of(k) == t}| (offsets are distinct
        // and nonzero mod p, so in-degree mirrors out-degree).
        let mut got = Vec::new();
        for t in 0..3u64 {
            let n = per
                * (0..FANOUT_OFFSETS.len())
                    .filter(|&k| tag_of(k) == t)
                    .count();
            for _ in 0..n {
                let (v, st) = w.recv::<u64>(Src::Any, t).unwrap();
                got.push((st.source, t, v[0]));
            }
        }
        let sum = coll.wait_result().unwrap()[0];
        logs2.lock().unwrap()[r] = got;
        sum
    });
    let logs = Arc::try_unwrap(logs).unwrap().into_inner().unwrap();
    let logs = logs
        .into_iter()
        .zip(res.per_rank)
        .zip(res.clocks)
        .map(|((log, sum), clock)| (log, sum, clock))
        .collect();
    (logs, res.metrics)
}

/// Assert 4 and 8 workers reproduce the 1-worker run bit for bit, model
/// counters included. Their storms' epochs are wide enough that several
/// workers step senders and hand in outboxes to one commit.
fn assert_workers_match_one(p: usize, per: usize, seed: u64) {
    let oracle = storm_log(p, per, seed, 1);
    for workers in [4usize, 8] {
        let got = storm_log(p, per, seed, workers);
        assert_eq!(oracle, got, "commit diverged (workers={workers})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    // p = 64: dense storms, 256 to 768 messages per wave.
    #[test]
    fn commit_identical_across_workers_p64(
        per in 1usize..4,
        seed in any::<u64>(),
    ) {
        assert_workers_match_one(64, per, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2, ..ProptestConfig::default() })]

    // p = 1024: the paper-scale regime. per = 2 stages 8192 messages per
    // epoch wave, spread over the outboxes of every worker.
    #[test]
    fn commit_identical_across_workers_p1024(seed in any::<u64>()) {
        assert_workers_match_one(1024, 2, seed);
    }
}

/// FNV-1a over every rank's full observation, in rank order.
fn digest(logs: &[RankLog]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (log, sum, clock) in logs {
        eat(log.len() as u64);
        for &(src, tag, v) in log {
            eat(src as u64);
            eat(tag);
            eat(v);
        }
        eat(*sum);
        eat(clock.as_nanos());
    }
    h
}

/// `(max clock in ns, messages, epochs, wakeups, digest of every RankLog)` of
/// the seed-`GOLDEN_SEED` p = 1024, per = 2 storm, recorded at commit
/// 03ee533 — the last one whose multi-worker runs ordered these
/// 8192-entry waves (its publish threshold) with the k-way merge round.
/// The wake-up count alone was re-recorded (1024 → 2558) when
/// `coll.wait_result()` stopped yielding once per epoch and started
/// parking until a deposit: each of those parks ends in a wake-up. Clock,
/// messages, epochs and the digest are the 03ee533 values.
const GOLDEN_SEED: u64 = 0x5eed_1024;
const GOLDEN: (u64, u64, u64, u64, u64) = (216_170, 10_238, 21, 2558, 9_424_414_640_993_364_611);

#[test]
fn golden_storm_p1024_matches_the_published_merge_commit() {
    for workers in [1usize, 2, 8] {
        let (logs, m) = storm_log(1024, 2, GOLDEN_SEED, workers);
        let clock = logs.iter().map(|l| l.2.as_nanos()).max().unwrap();
        assert_eq!(
            (clock, m.messages, m.epochs, m.wakeups, digest(&logs)),
            GOLDEN,
            "storm diverged from the recorded output (workers={workers})"
        );
    }
}
