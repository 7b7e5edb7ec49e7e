//! The epoch commit: deliver a round's staged messages.
//!
//! **Invariant:** the commit keeps no order but the senders' own. Every
//! worker hands in its outbox (`sched/task.rs`, "Staging") before its
//! share of the round counts as done, and the committing worker pushes
//! each outbox front to back, so each sender's messages reach each
//! mailbox in send order: MPI's non-overtaking rule. Across senders the
//! push order is the order the workers handed their outboxes in, which is
//! up to the host, and nothing observes it: a mailbox matches on the
//! *set* of pending messages (one FIFO per `(context, tag, source)`,
//! sources ordered by the virtual arrival of their oldest message), a
//! wait fires once per commit, and `scans` counts every deposit a pattern
//! sees (DESIGN.md §7). A message moves once on its way: from the outbox
//! it was staged in into the destination mailbox's slab.
//!
//! A wake-up is a rank number: a push reports whether it satisfied the
//! destination mailbox's armed wait, and the destination is appended to
//! the next round, whose order is not kept either: the epoch layer sorts
//! it by rank.
//!
//! The outboxes themselves are recycled: each full one a worker hands in
//! is swapped for a spare the commit drained earlier, so a steady-state
//! commit allocates nothing (DESIGN.md §10).

use std::sync::Arc;

use parking_lot::Mutex;

use super::task::Outbox;
use crate::proc::Router;

/// The outboxes of one scheduler, between workers and the commit.
#[derive(Default)]
struct Handed {
    /// Handed in during the current round, in hand-in order.
    full: Vec<Outbox>,
    /// Drained by an earlier commit; a worker takes one in exchange for
    /// its full outbox. Only their capacity survives an epoch.
    spare: Vec<Outbox>,
}

/// One scheduler's commit pipeline.
pub(super) struct Commit {
    pub(super) router: Arc<Router>,
    handed: Mutex<Handed>,
}

impl Commit {
    pub(super) fn new(router: Arc<Router>) -> Commit {
        Commit {
            router,
            handed: Mutex::new(Handed::default()),
        }
    }

    /// A worker ran out of round tasks: take what it staged, leaving it a
    /// spare outbox (a new one if none is left). An empty outbox is kept.
    pub(super) fn hand_in(&self, outbox: &mut Outbox) {
        if !outbox.is_empty() {
            let mut handed = self.handed.lock();
            let spare = handed.spare.pop().unwrap_or_default();
            handed.full.push(std::mem::replace(outbox, spare));
        }
    }

    /// Push everything handed in during the round, appending to `next`
    /// (the tasks that yielded) every rank a push woke, and keep each
    /// drained outbox as a spare. Returns how many messages the epoch
    /// staged. Must be called after the round barrier, by one worker.
    pub(super) fn deliver(&self, next: &mut Vec<usize>) -> usize {
        let mut handed = self.handed.lock();
        let Handed { full, spare } = &mut *handed;
        let mut msgs = 0;
        for mut outbox in full.drain(..) {
            msgs += outbox.len();
            self.push_outbox(&mut outbox, next);
            spare.push(outbox);
        }
        msgs
    }

    /// Drain `outbox` front to back into the mailboxes: one
    /// [`push_all`](crate::mailbox::Mailbox::push_all) per run of
    /// messages to one destination (one lock acquisition per run),
    /// appending to `woken` every destination whose armed wait a message
    /// of its run satisfied.
    fn push_outbox(&self, outbox: &mut Outbox, woken: &mut Vec<usize>) {
        let mut msgs = outbox.drain(..).peekable();
        while let Some(&(dest, _)) = msgs.peek() {
            let run = std::iter::from_fn(|| msgs.next_if(|(d, _)| *d == dest));
            if self.router.mailboxes[dest]
                .push_all(run.map(|(_, msg)| msg))
                .is_some()
            {
                woken.push(dest);
            }
        }
    }
}
