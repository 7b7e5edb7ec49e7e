//! Seeded, deterministic fault injection: stragglers, crash-stop, jitter.
//!
//! The paper's headline claim for JQuick is *robustness* — near-perfect
//! balance where samplesort and multilevel degrade — but a simulator that
//! only ever runs clean schedules cannot exercise that claim. This module
//! injects three hostile-condition fault classes, all **pure functions of
//! `(program, seed, perturbation seed)`** — never of the worker count, so
//! the cooperative scheduler's bit-identical any-worker-count
//! determinism (DESIGN.md §5/§7) is fully preserved:
//!
//! * **Slowdown distributions** ([`SlowdownSpec`]): each rank draws a
//!   multiplicative factor from the perturbation seed; a slowed rank's
//!   local work *and* outgoing transfers take `factor ×` as long. The
//!   draw is a splitmix64 hash of `(perturb_seed, rank)` — the rank's
//!   ordinary RNG stream is untouched, so a plan whose magnitudes are all
//!   zero is byte-identical to no plan at all.
//! * **Crash-stop** ([`FaultPlan::crashes`]): at a chosen *virtual* time a
//!   rank stops participating — its sends stop matching (dropped before
//!   pricing) and its own receives fail. Peers observe the crash through
//!   timeouts carrying a [`RoundBlame`], never through a hang: the
//!   cooperative scheduler's stagnation detector poisons spinning peers,
//!   and blocked peers are poisoned by the exact deadlock detector.
//! * **Message-delay jitter** ([`FaultPlan::jitter`]): every message's
//!   arrival is inflated by a hash of `(perturb_seed, sender, send
//!   counter)` — applied at send-pricing time, *before* the message is
//!   staged, so the §5 window argument is untouched (see DESIGN.md §8).
//!
//! Every timeout and deadlock carries a [`RoundBlame`]: which ranks the
//! stalled operation is waiting on, their last virtual-time activity, and
//! whether each is crashed, slowed, or live — the shape of dkg-substrate's
//! `round_blame()` diagnostic, adapted to virtual time.

use crate::time::Time;

// ---------------------------------------------------------------------------
// Fault plans (configuration)
// ---------------------------------------------------------------------------

/// Per-rank slowdown distribution: each rank independently becomes a
/// straggler with probability `frac`, drawing a multiplicative factor
/// uniformly from `[1, max_factor]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowdownSpec {
    /// Fraction of ranks that straggle (each rank's membership is an
    /// independent draw from the perturbation seed), in `[0, 1]`.
    pub frac: f64,
    /// Upper bound of the multiplicative slowdown factor (`>= 1`). A
    /// straggler's compute charges and outgoing transfer times are scaled
    /// by its drawn factor.
    pub max_factor: f64,
}

/// A seeded fault-injection plan, attached to
/// [`SimConfig`](crate::SimConfig). The default plan injects nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of the perturbation stream — independent of
    /// [`SimConfig::seed`](crate::SimConfig::seed) so the same program can
    /// be swept over fault draws without changing its own randomness.
    pub perturb_seed: u64,
    /// Straggler distribution, if any.
    pub slowdown: Option<SlowdownSpec>,
    /// `(rank, virtual crash time)` pairs: each listed rank crash-stops
    /// the moment its own clock reaches the given time.
    pub crashes: Vec<(usize, Time)>,
    /// Maximum per-message arrival jitter ([`Time::ZERO`] disables).
    pub jitter: Time,
}

impl FaultPlan {
    /// Whether this plan is structurally empty (injects nothing).
    pub fn is_noop(&self) -> bool {
        self.slowdown.is_none() && self.crashes.is_empty() && self.jitter == Time::ZERO
    }

    /// Replace the perturbation seed.
    pub fn with_perturb_seed(mut self, seed: u64) -> FaultPlan {
        self.perturb_seed = seed;
        self
    }

    /// Add a straggler distribution.
    pub fn with_slowdown(mut self, frac: f64, max_factor: f64) -> FaultPlan {
        self.slowdown = Some(SlowdownSpec { frac, max_factor });
        self
    }

    /// Crash-stop `rank` at virtual time `at`.
    pub fn with_crash(mut self, rank: usize, at: Time) -> FaultPlan {
        self.crashes.push((rank, at));
        self
    }

    /// Add per-message arrival jitter up to `max`.
    pub fn with_jitter(mut self, max: Time) -> FaultPlan {
        self.jitter = max;
        self
    }

    /// Build a plan from the `MPISIM_FAULT_*` environment knobs (see the
    /// parsers below). Unset knobs leave their field at the default;
    /// malformed values **panic**: a mistyped fault sweep silently running
    /// fault-free would make every faulted-vs-clean diff vacuously green.
    pub fn from_env() -> FaultPlan {
        FaultPlan {
            perturb_seed: fault_seed_from(crate::env::var("MPISIM_FAULT_SEED").as_deref()),
            slowdown: fault_slow_from(crate::env::var("MPISIM_FAULT_SLOW").as_deref()),
            crashes: fault_crash_from(crate::env::var("MPISIM_FAULT_CRASH").as_deref()),
            jitter: fault_jitter_from(crate::env::var("MPISIM_FAULT_JITTER").as_deref()),
        }
    }
}

// ---------------------------------------------------------------------------
// Strict env-knob parsers — consolidated in [`crate::env`]; re-exported
// here because they are part of this module's public API surface.
// ---------------------------------------------------------------------------

pub use crate::env::{fault_crash_from, fault_jitter_from, fault_seed_from, fault_slow_from};

// ---------------------------------------------------------------------------
// Resolved fault state (attached to the Router)
// ---------------------------------------------------------------------------

/// splitmix64: the perturbation hash. Every fault draw is a direct hash of
/// `(perturb_seed, coordinates)` rather than a stateful RNG stream, so
/// fault sampling can never consume — or be perturbed by — the ranks'
/// ordinary seeded RNG streams.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 53-bit-mantissa uniform draw in `[0, 1)` from a hash value.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Draw rank `rank`'s slowdown factor under `spec` from `perturb_seed`:
/// exactly `1.0` for non-stragglers (and whenever `max_factor == 1`), a
/// uniform draw from `[1, max_factor]` otherwise. Seed-stable: the same
/// `(seed, rank, spec)` always yields the same factor.
pub fn sample_slowdown(perturb_seed: u64, rank: usize, spec: &SlowdownSpec) -> f64 {
    let h1 = splitmix64(perturb_seed ^ (rank as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    if unit_f64(h1) >= spec.frac {
        return 1.0;
    }
    // 1.0 + u*(max-1) is exactly 1.0 when max == 1.0, which is what makes
    // a zero-magnitude plan byte-identical to no plan at all.
    1.0 + unit_f64(splitmix64(h1)) * (spec.max_factor - 1.0)
}

/// The resolved, per-universe fault state: plan fields expanded into O(1)
/// per-rank lookups. Lives on the [`Router`](crate::proc::Router); the
/// default state injects nothing.
#[derive(Debug, Default)]
pub struct FaultState {
    /// Per-rank multiplicative slowdown factor (1.0 = unaffected).
    slowdown: Vec<f64>,
    /// Per-rank crash time, if the rank crash-stops.
    crash_at: Vec<Option<Time>>,
    /// The crash list, sorted by rank (blame scans this, not all of `p`).
    crashes: Vec<(usize, Time)>,
    /// Maximum arrival jitter in nanoseconds (0 disables).
    jitter_max_ns: u64,
    /// The perturbation seed (jitter hashes mix it in).
    perturb_seed: u64,
}

impl FaultState {
    /// Expand `plan` over a universe of `p` ranks. Panics on invalid plans
    /// (out-of-range crash ranks, non-finite or out-of-range slowdown
    /// parameters) — a silently ignored fault is a vacuous experiment.
    pub fn resolve(plan: &FaultPlan, p: usize) -> FaultState {
        let slowdown = match &plan.slowdown {
            None => Vec::new(),
            Some(spec) => {
                assert!(
                    spec.frac.is_finite()
                        && (0.0..=1.0).contains(&spec.frac)
                        && spec.max_factor.is_finite()
                        && spec.max_factor >= 1.0,
                    "invalid slowdown spec {spec:?}"
                );
                (0..p)
                    .map(|r| sample_slowdown(plan.perturb_seed, r, spec))
                    .collect()
            }
        };
        let mut crash_at = vec![None; if plan.crashes.is_empty() { 0 } else { p }];
        let mut crashes = plan.crashes.clone();
        crashes.sort_unstable_by_key(|&(r, _)| r);
        for &(r, at) in &crashes {
            assert!(r < p, "fault plan crashes rank {r}, universe has {p} ranks");
            crash_at[r] = Some(match crash_at[r] {
                // Two entries for one rank: the earlier crash wins.
                Some(prev) => at.min(prev),
                None => at,
            });
        }
        crashes.dedup_by_key(|&mut (r, _)| r);
        for c in crashes.iter_mut() {
            c.1 = crash_at[c.0].expect("deduped crash rank resolved");
        }
        FaultState {
            slowdown,
            crash_at,
            crashes,
            jitter_max_ns: plan.jitter.as_nanos(),
            perturb_seed: plan.perturb_seed,
        }
    }

    /// Rank `r`'s slowdown factor (1.0 when unaffected).
    #[inline]
    pub fn factor(&self, r: usize) -> f64 {
        self.slowdown.get(r).copied().unwrap_or(1.0)
    }

    /// Rank `r`'s crash time, if it is scheduled to crash-stop.
    #[inline]
    pub fn crash_time(&self, r: usize) -> Option<Time> {
        self.crash_at.get(r).copied().flatten()
    }

    /// Whether any rank is scheduled to crash (gates the cooperative
    /// scheduler's stagnation detector).
    #[inline]
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// The resolved crash list, sorted by rank.
    pub fn crashes(&self) -> &[(usize, Time)] {
        &self.crashes
    }

    /// Arrival jitter (in nanoseconds) for the `seq`-th message rank
    /// `src` ever sends: a pure hash of `(perturb_seed, src, seq)`, so it
    /// is identical for every worker count.
    #[inline]
    pub fn jitter_ns(&self, src: usize, seq: u64) -> u64 {
        if self.jitter_max_ns == 0 {
            return 0;
        }
        let h = splitmix64(
            self.perturb_seed
                ^ (src as u64).wrapping_mul(0x9E6D_5C4A_F1B2_8D01)
                ^ seq.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        h % (self.jitter_max_ns + 1)
    }

    /// The health classification of rank `r` whose clock reads `clock`.
    pub fn health_of(&self, r: usize, clock: Time) -> RankHealth {
        if let Some(at) = self.crash_time(r) {
            if clock >= at {
                return RankHealth::Crashed { at };
            }
        }
        let f = self.factor(r);
        if f > 1.0 {
            RankHealth::Slowed {
                percent: ((f - 1.0) * 100.0).round() as u32,
            }
        } else {
            RankHealth::Live
        }
    }
}

// ---------------------------------------------------------------------------
// RoundBlame diagnostics
// ---------------------------------------------------------------------------

/// Cap on the ranks a [`RoundBlame`] lists explicitly; the rest are
/// summarised by [`RoundBlame::omitted`].
pub const BLAME_CAP: usize = 8;

/// The health of one blamed rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankHealth {
    /// The rank crash-stopped at this virtual time.
    Crashed {
        /// Virtual time of the crash.
        at: Time,
    },
    /// The rank is a straggler slowed by this many percent.
    Slowed {
        /// Slowdown above nominal speed, in percent (rounded).
        percent: u32,
    },
    /// The rank is healthy.
    Live,
}

impl std::fmt::Display for RankHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankHealth::Crashed { at } => write!(f, "crashed at {at}"),
            RankHealth::Slowed { percent } => write!(f, "slowed {percent}%"),
            RankHealth::Live => write!(f, "live"),
        }
    }
}

/// One rank a stalled operation is waiting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankBlame {
    /// The blamed rank (global).
    pub rank: usize,
    /// The rank's virtual clock when the blame was taken — its last
    /// virtual-time activity.
    pub last_activity: Time,
    /// Crashed, slowed, or live.
    pub health: RankHealth,
}

/// Which ranks a timed-out / deadlocked operation was waiting on —
/// attached to every [`MpiError::Timeout`](crate::MpiError::Timeout).
///
/// When any rank's crash has *triggered* (its own clock reached its crash
/// time), the blame names exactly the triggered-crashed ranks: whatever
/// the stalled pattern was nominally waiting on, the crash is the root
/// cause. Otherwise the blame lists the pattern's candidate source ranks
/// (capped at [`BLAME_CAP`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundBlame {
    /// The blamed ranks, most significant first.
    pub waiting_on: Vec<RankBlame>,
    /// Candidate ranks beyond [`BLAME_CAP`] not listed individually.
    pub omitted: usize,
}

impl RoundBlame {
    /// Whether the blame carries no information (not yet enriched).
    pub fn is_empty(&self) -> bool {
        self.waiting_on.is_empty()
    }

    /// The blamed rank indices, in order.
    pub fn ranks(&self) -> Vec<usize> {
        self.waiting_on.iter().map(|b| b.rank).collect()
    }
}

impl std::fmt::Display for RoundBlame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.waiting_on.is_empty() {
            return write!(f, "waiting on: unknown");
        }
        write!(f, "waiting on:")?;
        for (i, b) in self.waiting_on.iter().enumerate() {
            let sep = if i == 0 { ' ' } else { ',' };
            write!(
                f,
                "{sep}rank {} [{}, last active {}]",
                b.rank, b.health, b.last_activity
            )?;
        }
        if self.omitted > 0 {
            write!(f, " (+{} more)", self.omitted)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The env-knob parser tests live with the parsers in `crate::env`.

    // ---- sampler -----------------------------------------------------------

    #[test]
    fn sampler_is_seed_stable() {
        let spec = SlowdownSpec {
            frac: 0.5,
            max_factor: 4.0,
        };
        for r in 0..64 {
            assert_eq!(
                sample_slowdown(7, r, &spec),
                sample_slowdown(7, r, &spec),
                "rank {r} factor must be a pure function of (seed, rank)"
            );
        }
        // Different seeds decorrelate the straggler set.
        let set = |seed| -> Vec<usize> {
            (0..256)
                .filter(|&r| sample_slowdown(seed, r, &spec) > 1.0)
                .collect()
        };
        assert_ne!(set(1), set(2));
    }

    #[test]
    fn sampler_quantiles_in_bounds() {
        let spec = SlowdownSpec {
            frac: 0.25,
            max_factor: 8.0,
        };
        let n = 4096;
        let factors: Vec<f64> = (0..n).map(|r| sample_slowdown(99, r, &spec)).collect();
        let slowed = factors.iter().filter(|&&f| f > 1.0).count();
        // All draws within [1, max_factor].
        assert!(factors.iter().all(|&f| (1.0..=8.0).contains(&f)));
        // The straggler fraction concentrates around `frac` (±5 σ).
        let expect = 0.25 * n as f64;
        let sigma = (n as f64 * 0.25 * 0.75).sqrt();
        assert!(
            (slowed as f64 - expect).abs() < 5.0 * sigma,
            "{slowed} stragglers out of {n}"
        );
        // Median of the slowed factors sits near the middle of [1, 8].
        let mut sl: Vec<f64> = factors.iter().copied().filter(|&f| f > 1.0).collect();
        sl.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sl[sl.len() / 2];
        assert!((2.5..=6.5).contains(&median), "median {median}");
    }

    #[test]
    fn zero_magnitude_draws_are_exactly_one() {
        // frac = 0: nobody straggles. max_factor = 1: stragglers draw 1.0.
        for r in 0..128 {
            assert_eq!(
                sample_slowdown(
                    3,
                    r,
                    &SlowdownSpec {
                        frac: 0.0,
                        max_factor: 9.0
                    }
                ),
                1.0
            );
            assert_eq!(
                sample_slowdown(
                    3,
                    r,
                    &SlowdownSpec {
                        frac: 1.0,
                        max_factor: 1.0
                    }
                ),
                1.0
            );
        }
    }

    // ---- resolved state ----------------------------------------------------

    #[test]
    fn resolve_expands_plan() {
        let plan = FaultPlan::default()
            .with_perturb_seed(5)
            .with_slowdown(1.0, 2.0)
            .with_crash(3, Time::from_micros(50))
            .with_crash(1, Time::from_micros(10))
            .with_jitter(Time::from_micros(20));
        let fs = FaultState::resolve(&plan, 8);
        assert!(fs.has_crashes());
        assert_eq!(
            fs.crashes(),
            &[(1, Time::from_micros(10)), (3, Time::from_micros(50))]
        );
        assert_eq!(fs.crash_time(3), Some(Time::from_micros(50)));
        assert_eq!(fs.crash_time(0), None);
        assert!(fs.factor(2) >= 1.0);
        assert_eq!(fs.factor(99), 1.0); // out of range reads as unaffected
        assert!(fs.jitter_ns(0, 0) <= 20_000);
        // Jitter is a pure function of (src, seq).
        assert_eq!(fs.jitter_ns(4, 17), fs.jitter_ns(4, 17));
        assert_ne!(
            (0..64).map(|s| fs.jitter_ns(0, s)).collect::<Vec<_>>(),
            (0..64).map(|s| fs.jitter_ns(1, s)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn resolve_duplicate_crash_keeps_earliest() {
        let plan = FaultPlan::default()
            .with_crash(2, Time::from_micros(50))
            .with_crash(2, Time::from_micros(10));
        let fs = FaultState::resolve(&plan, 4);
        assert_eq!(fs.crashes(), &[(2, Time::from_micros(10))]);
        assert_eq!(fs.crash_time(2), Some(Time::from_micros(10)));
    }

    #[test]
    #[should_panic(expected = "crashes rank 9")]
    fn resolve_rejects_out_of_range_crash() {
        FaultState::resolve(&FaultPlan::default().with_crash(9, Time::ZERO), 4);
    }

    #[test]
    #[should_panic(expected = "invalid slowdown spec")]
    fn resolve_rejects_invalid_spec() {
        FaultState::resolve(&FaultPlan::default().with_slowdown(2.0, 4.0), 4);
    }

    #[test]
    fn default_state_is_inert() {
        let fs = FaultState::default();
        assert!(!fs.has_crashes());
        assert_eq!(fs.factor(0), 1.0);
        assert_eq!(fs.crash_time(0), None);
        assert_eq!(fs.jitter_ns(0, 0), 0);
    }

    // ---- blame -------------------------------------------------------------

    #[test]
    fn health_classification() {
        let plan = FaultPlan::default()
            .with_slowdown(1.0, 3.0)
            .with_crash(1, Time::from_micros(10));
        let fs = FaultState::resolve(&plan, 4);
        // Crash dominates once triggered; before the crash time the rank
        // reads as slowed/live.
        assert_eq!(
            fs.health_of(1, Time::from_micros(10)),
            RankHealth::Crashed {
                at: Time::from_micros(10)
            }
        );
        assert_ne!(
            fs.health_of(1, Time::from_micros(9)),
            RankHealth::Crashed {
                at: Time::from_micros(10)
            }
        );
        match fs.health_of(2, Time::ZERO) {
            RankHealth::Slowed { percent } => assert!(percent <= 200),
            RankHealth::Live => {} // rank 2 may have drawn factor 1.0
            other => panic!("unexpected health {other:?}"),
        }
    }

    #[test]
    fn blame_display() {
        let b = RoundBlame {
            waiting_on: vec![
                RankBlame {
                    rank: 2,
                    last_activity: Time::from_micros(50),
                    health: RankHealth::Crashed {
                        at: Time::from_micros(50),
                    },
                },
                RankBlame {
                    rank: 5,
                    last_activity: Time::from_micros(80),
                    health: RankHealth::Live,
                },
            ],
            omitted: 3,
        };
        let s = format!("{b}");
        assert!(s.contains("rank 2 [crashed at 50.00us"), "{s}");
        assert!(s.contains("rank 5 [live"), "{s}");
        assert!(s.contains("(+3 more)"), "{s}");
        assert_eq!(format!("{}", RoundBlame::default()), "waiting on: unknown");
    }

    // `fault_scenarios.rs` asserts blame text byte-for-byte inside timeout
    // messages, and the trace layer embeds the same rendering in `Blame`
    // events — so the hand-rolled `Display` impls are pinned here exactly,
    // one test per `RankHealth` variant plus the empty-blame edge case.

    #[test]
    fn health_display_crashed_round_trips() {
        let h = RankHealth::Crashed {
            at: Time::from_micros(50),
        };
        assert_eq!(format!("{h}"), "crashed at 50.00us");
        let b = RoundBlame {
            waiting_on: vec![RankBlame {
                rank: 2,
                last_activity: Time::from_micros(50),
                health: h,
            }],
            omitted: 0,
        };
        assert_eq!(
            format!("{b}"),
            "waiting on: rank 2 [crashed at 50.00us, last active 50.00us]"
        );
    }

    #[test]
    fn health_display_slowed_round_trips() {
        let h = RankHealth::Slowed { percent: 150 };
        assert_eq!(format!("{h}"), "slowed 150%");
        let b = RoundBlame {
            waiting_on: vec![RankBlame {
                rank: 0,
                last_activity: Time::from_nanos(12),
                health: h,
            }],
            omitted: 0,
        };
        assert_eq!(
            format!("{b}"),
            "waiting on: rank 0 [slowed 150%, last active 12ns]"
        );
    }

    #[test]
    fn health_display_live_round_trips() {
        assert_eq!(format!("{}", RankHealth::Live), "live");
        let b = RoundBlame {
            waiting_on: vec![
                RankBlame {
                    rank: 5,
                    last_activity: Time::from_micros(80),
                    health: RankHealth::Live,
                },
                RankBlame {
                    rank: 7,
                    last_activity: Time::from_millis(2),
                    health: RankHealth::Live,
                },
            ],
            omitted: 2,
        };
        // Separator contract: space before the first entry, comma after,
        // omitted summary last.
        assert_eq!(
            format!("{b}"),
            "waiting on: rank 5 [live, last active 80.00us],\
             rank 7 [live, last active 2.00ms] (+2 more)"
        );
    }

    #[test]
    fn empty_blame_displays_unknown() {
        let b = RoundBlame::default();
        assert!(b.is_empty());
        assert!(b.ranks().is_empty());
        assert_eq!(format!("{b}"), "waiting on: unknown");
    }
}
