//! Overlapping process groups with a janus process — the scenario that
//! motivates the whole paper (§I, §VII).
//!
//! Process p/2 belongs to two groups at once (left: 0..=p/2, right:
//! p/2..=p−1). Each group runs a chain of nonblocking collectives
//! (reduce → broadcast of the result); the janus drives both chains
//! simultaneously, so neither group waits for the other. With native
//! blocking communicator creation this layout needs a creation schedule;
//! with RBC both communicators exist instantly.
//!
//! Run with: `cargo run --release --example overlapping_groups`

use mpisim::nbcoll::Progress;
use mpisim::{ops, Time, Transport, Universe};
use rbc::RbcComm;

fn main() {
    let p = 9;
    let res = Universe::run_default(p, |env| {
        let world = RbcComm::create(&env.world);
        let r = world.rank();
        let mid = p / 2;

        // Local, O(1), no synchronization — overlapping at rank `mid` only.
        let left = (r <= mid).then(|| world.split(0, mid).unwrap());
        let right = (r >= mid).then(|| world.split(mid, p - 1).unwrap());

        // Simulate the right group being busy with other work first.
        if r > mid {
            env.state().charge(Time::from_millis(2));
        }

        // Each group: all-reduce its ranks, then everyone learns the sum.
        // The janus starts BOTH operations before finishing either.
        let mut left_op = left
            .as_ref()
            .map(|c| c.iallreduce(&[r as u64], ops::sum::<u64>(), None).unwrap());
        let mut right_op = right.as_ref().map(|c| {
            c.iallreduce(&[r as u64 * 10], ops::sum::<u64>(), None)
                .unwrap()
        });

        let mut left_done_at = None;
        let mut right_done_at = None;
        loop {
            if let Some(op) = left_op.as_mut() {
                if left_done_at.is_none() && op.poll().unwrap() {
                    left_done_at = Some(env.now());
                }
            } else {
                left_done_at.get_or_insert(Time::ZERO);
            }
            if let Some(op) = right_op.as_mut() {
                if right_done_at.is_none() && op.poll().unwrap() {
                    right_done_at = Some(env.now());
                }
            } else {
                right_done_at.get_or_insert(Time::ZERO);
            }
            if left_done_at.is_some() && right_done_at.is_some() {
                break;
            }
            mpisim::yield_now();
        }

        let l = left_op.map(|op| op.result().unwrap()[0]);
        let rr = right_op.map(|op| op.result().unwrap()[0]);
        (r, l, rr, left_done_at.unwrap(), right_done_at.unwrap())
    });

    println!("rank | left sum | right sum | left done | right done");
    for (r, l, rr, lt, rt) in &res.per_rank {
        println!(
            "{r:>4} | {:>8} | {:>9} | {lt:>9} | {rt}",
            l.map_or("-".into(), |v| v.to_string()),
            rr.map_or("-".into(), |v| v.to_string()),
        );
    }
    let mid = p / 2;
    let (_, l, rr, ..) = &res.per_rank[mid];
    println!(
        "\njanus rank {mid} computed BOTH group results ({} and {}).",
        l.unwrap(),
        rr.unwrap()
    );
    // The pure left-group members finished long before the right group's
    // artificial 2 ms delay — the busy right group did not hold them back,
    // even though the janus sits in both groups (paper §VII).
    let (_, _, _, left_done, _) = res.per_rank[mid - 1];
    let (_, _, _, _, right_done) = res.per_rank[mid + 1];
    println!("left group finished at {left_done} (vs busy right group at {right_done}):");
    println!("progress in one subtask did not delay progress in the other (paper §VII).");
    assert!(
        left_done < Time::from_millis(2),
        "left group must not wait for the busy right group"
    );
    assert!(right_done >= Time::from_millis(2));
}
