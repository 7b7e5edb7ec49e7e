//! Messages and matching.
//!
//! A message carries its sender's *global* rank, a tag, and the context ID
//! of the communicator it was sent over — exactly the header fields MPI uses
//! for matching (§III of the paper). A payload is a typed `Vec<T>`, or a
//! view of one (see "Sliced payloads"), behind an `Arc` with `T` erased
//! (no serialization): element count, byte size
//! and type name are read through it ([`Message::count`],
//! [`Message::bytes`], [`Message::type_name`]) instead of being stored, and
//! neither is the send time (a receive reads only the arrival), so a
//! message is 64 bytes: the simulator moves one by value at every hop of
//! a send (stage, commit, mailbox slab, claim), and below roughly a
//! hundred bytes such a move is a few inline vector stores where the
//! former 136-byte header was a `memcpy` call each time. The price of the
//! one representation is one heap block per message, the `Arc`'s 40-byte
//! header (two counts and the `Vec`), next to the payload buffer itself.
//!
//! # Zero-copy fan-out
//!
//! One-to-many patterns (broadcast trees, scatter setup, RBC tree stages)
//! send the *same* buffer to many destinations. Cloning a `Vec<T>` per
//! destination puts O(children · bytes) of copying on the critical path of
//! every interior tree node, so a payload can instead be **shared**: an
//! [`std::sync::Arc`]`<Vec<T>>` cloned per destination in O(1)
//! ([`Message::new_shared`]). Receivers that only read or forward keep the
//! `Arc` ([`Message::take_shared`]); a receiver that needs ownership pays
//! at most one copy, at its own rank, off the sender's critical path
//! ([`Message::take`] unwraps without copying when it holds the last
//! reference, as a point-to-point message always does). Virtual-time
//! cost accounting is unchanged — a shared send is still a full
//! `α + bytes·β` message; only the *simulator's* wall-clock copying is
//! elided.
//!
//! # Sliced payloads
//!
//! A message can also carry a sub-range of a shared buffer, a
//! [`SharedSlice`] ([`Message::new_slice`],
//! [`crate::Transport::send_slice`]): a sender that lays out all its
//! outgoing data in one buffer (JQuick's partition, whose greedy exchange
//! cuts each side into per-target chunks) sends each chunk as a view of
//! it, with no copy per message. The message reports the range's length,
//! so `count`, `bytes` and every α–β charge are those of an owned send of
//! the same elements. A receiver that keeps the view
//! ([`Message::take_slice`], [`crate::Transport::try_recv_slice`]) reads
//! the sender's buffer in place; [`Message::take`] and
//! [`Message::take_shared`] copy exactly the range, so every receiver
//! written for owned payloads works unchanged. A view of a whole buffer
//! travels as that buffer's `Arc`, like a shared send. The buffer lives
//! until its last view is dropped: a receiver that holds views holds the
//! senders' whole buffers, which is what keeping them costs, and why
//! JQuick cuts each side of its partition into a buffer of its own (its
//! readers are in one subtask).

use std::any::Any;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

use crate::datum::Datum;
use crate::error::{MpiError, Result};
use crate::time::Time;

/// Message tag. The simulator reserves the top bit of the tag space for
/// library-internal collectives (see [`crate::tags`]).
pub type Tag = u64;

/// A communicator context ID.
///
/// `Small` IDs come from the MPICH-style context-ID-mask agreement
/// (`comm_split` / `comm_create_group`). `Wide` IDs implement the paper's
/// §VI proposal for `MPI_Icomm_create_group`: a 5-tuple `⟨a, b, f, l, c⟩`
/// where `a` is the originating process, `b` its counter value, `f..l` the
/// range within the parent, and `c` a same-group generation counter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ContextId {
    /// A classic small integer context ID from the mask agreement.
    Small(u32),
    /// A §VI 5-tuple context ID, allocatable without communication.
    Wide {
        /// Originating process (global rank).
        a: u32,
        /// Per-process creation counter at the originator.
        b: u32,
        /// First rank of the range within the parent group.
        f: u32,
        /// Last rank of the range within the parent group.
        l: u32,
        /// Same-group generation counter (distinguishes re-creations).
        c: u32,
    },
}

impl ContextId {
    /// Context ID of `MPI_COMM_WORLD`.
    pub const WORLD: ContextId = ContextId::Small(0);
}

impl fmt::Display for ContextId {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContextId::Small(x) => write!(fm, "ctx#{x}"),
            ContextId::Wide { a, b, f, l, c } => write!(fm, "ctx<{a},{b},{f},{l},{c}>"),
        }
    }
}

/// Source specifier for receives and probes.
#[derive(Clone)]
pub enum SrcFilter {
    /// A specific *global* rank.
    Exact(usize),
    /// `MPI_ANY_SOURCE` within the communicator's group: any message in the
    /// context matches (all senders into a context are group members).
    Any,
    /// Wildcard restricted by a membership predicate over global ranks.
    /// RBC uses this for `ANY_SOURCE` on a sub-range communicator: probe any
    /// message, then test whether its source lies in the range (§V-C).
    Filter(Arc<dyn Fn(usize) -> bool + Send + Sync>),
    /// The same restriction as plain data, for the one shape RBC needs:
    /// the global ranks `first, first + stride, ...`, `len` of them.
    /// Building it allocates nothing, so a polling loop can afford a
    /// fresh wildcard per `try_recv`. `stride` and `len` are `u32` so that
    /// the enum stays three words: a pattern is copied into the mailbox's
    /// wait slot by every receive that has to wait.
    Strided {
        /// First member (global rank).
        first: usize,
        /// Distance between members, at least 1.
        stride: u32,
        /// Number of members.
        len: u32,
    },
}

impl SrcFilter {
    /// Whether a message from global rank `global_src` passes this filter.
    pub fn matches(&self, global_src: usize) -> bool {
        match self {
            SrcFilter::Exact(r) => *r == global_src,
            SrcFilter::Any => true,
            SrcFilter::Filter(f) => f(global_src),
            SrcFilter::Strided { first, stride, len } => {
                global_src.checked_sub(*first).is_some_and(|off| {
                    off.is_multiple_of(*stride as usize) && off / (*stride as usize) < *len as usize
                })
            }
        }
    }
}

impl fmt::Debug for SrcFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SrcFilter::Exact(r) => write!(f, "Exact({r})"),
            SrcFilter::Any => write!(f, "Any"),
            // `Strided` prints as the predicate it stands for: the text
            // is part of every timeout diagnostic of an RBC wildcard.
            SrcFilter::Filter(_) | SrcFilter::Strided { .. } => write!(f, "Filter(..)"),
        }
    }
}

/// What a receive/probe is looking for.
#[derive(Clone, Debug)]
pub struct MatchPattern {
    /// Context the operation runs in.
    pub ctx: ContextId,
    /// Which senders are acceptable.
    pub src: SrcFilter,
    /// Exact tag to match (no tag wildcard — the libraries never need one).
    pub tag: Tag,
}

impl MatchPattern {
    /// Whether `m` satisfies this pattern (same context, same tag,
    /// acceptable source).
    pub fn matches(&self, m: &Message) -> bool {
        m.ctx == self.ctx && m.tag == self.tag && self.src.matches(m.src_global)
    }
}

/// Metadata returned by probes and receives (analogue of `MPI_Status`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgInfo {
    /// Sender's global rank (callers translate to communicator ranks).
    pub src_global: usize,
    /// Tag the message was sent with.
    pub tag: Tag,
    /// Number of payload elements.
    pub count: usize,
    /// Payload size in bytes (elements × element width).
    pub bytes: usize,
    /// Virtual time at which the message is available at the receiver.
    pub arrival: Time,
}

/// An in-flight message.
pub struct Message {
    /// Sender's global rank.
    pub src_global: usize,
    /// Tag the message was sent with.
    pub tag: Tag,
    /// Context ID of the communicator it was sent over.
    pub ctx: ContextId,
    /// The sender's clock at the send plus `α + bytes·β` under its cost
    /// model: all a receive needs of the send's timing.
    pub arrival: Time,
    /// The payload, shared with the sibling messages of a one-to-many send
    /// (and possibly with the sender itself) or held by this message alone.
    payload: Arc<dyn SharedVec>,
}

/// A read-only view of the elements `range` of a shared buffer. Cloning
/// it clones the `Arc`, not the elements; the buffer is freed with its
/// last view (or other `Arc`). The range is kept as two `u32`s, so a view
/// is two words and an enum of it and a `Vec` is three: a view lies
/// within the first 2^32 − 1 elements of its buffer.
#[derive(Clone)]
pub struct SharedSlice<T> {
    buf: Arc<Vec<T>>,
    start: u32,
    end: u32,
}

impl<T> SharedSlice<T> {
    /// The view of `buf[range]`.
    ///
    /// # Panics
    /// If `range` is not within `buf`, or ends past element 2^32 − 1.
    pub fn new(buf: Arc<Vec<T>>, range: Range<usize>) -> SharedSlice<T> {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "slice {range:?} of a buffer of {}",
            buf.len()
        );
        let end = u32::try_from(range.end).expect("a view ends below element 2^32");
        SharedSlice {
            buf,
            start: range.start as u32,
            end,
        }
    }

    /// The whole buffer this view is part of.
    pub fn buffer(&self) -> &Arc<Vec<T>> {
        &self.buf
    }

    /// Where in [`SharedSlice::buffer`] this view lies.
    pub fn range(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    /// Whether this view spans its whole buffer.
    fn is_whole(&self) -> bool {
        self.start == 0 && self.end as usize == self.buf.len()
    }

    /// The buffer itself, moved out without copying, when this view spans
    /// all of it and holds its last reference; the view otherwise.
    pub fn try_unwrap(self) -> std::result::Result<Vec<T>, SharedSlice<T>> {
        if !self.is_whole() {
            return Err(self);
        }
        let end = self.end;
        Arc::try_unwrap(self.buf).map_err(|buf| SharedSlice { buf, start: 0, end })
    }

    /// The elements as an owned `Vec`: the buffer itself when
    /// [`SharedSlice::try_unwrap`] can move it out, a copy of exactly the
    /// range otherwise.
    pub fn into_vec(self) -> Vec<T>
    where
        T: Clone,
    {
        self.try_unwrap().unwrap_or_else(|view| view.to_vec())
    }
}

impl<T> From<Arc<Vec<T>>> for SharedSlice<T> {
    /// The view of all of `buf`.
    fn from(buf: Arc<Vec<T>>) -> SharedSlice<T> {
        let end = buf.len();
        SharedSlice::new(buf, 0..end)
    }
}

impl<T> Deref for SharedSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.start as usize..self.end as usize]
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A payload: a `Vec<T>` or a [`SharedSlice<T>`] behind an `Arc` with `T`
/// erased. It reports its length, element width and element type name
/// from behind the `Arc`, and upcasts to `dyn Any` for the typed downcast
/// of a take.
trait SharedVec: Any + Send + Sync {
    fn len(&self) -> usize;
    fn width(&self) -> usize;
    fn type_name(&self) -> &'static str;
}

impl<T: Datum> SharedVec for Vec<T> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn width(&self) -> usize {
        T::width()
    }

    fn type_name(&self) -> &'static str {
        std::any::type_name::<T>()
    }
}

impl<T: Datum> SharedVec for SharedSlice<T> {
    fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    fn width(&self) -> usize {
        T::width()
    }

    fn type_name(&self) -> &'static str {
        std::any::type_name::<T>()
    }
}

/// A payload downcast to its element type: a whole buffer or a view.
enum Typed<T> {
    Whole(Arc<Vec<T>>),
    Slice(Arc<SharedSlice<T>>),
}

impl Message {
    /// Package `data` into a message with precomputed arrival time: the
    /// `Vec` moves behind a fresh `Arc`, its elements are not copied.
    /// `send_time` is only checked against `arrival` (debug builds); the
    /// message does not store it.
    pub fn new<T: Datum>(
        src_global: usize,
        tag: Tag,
        ctx: ContextId,
        data: Vec<T>,
        send_time: Time,
        arrival: Time,
    ) -> Message {
        Message::new_shared(src_global, tag, ctx, Arc::new(data), send_time, arrival)
    }

    /// Package a shared buffer into a message without copying it: the `Arc`
    /// is cloned per destination, so a p-way fan-out of `l` bytes costs
    /// O(p) instead of O(p·l) at the sender. `send_time` as in
    /// [`Message::new`].
    pub fn new_shared<T: Datum>(
        src_global: usize,
        tag: Tag,
        ctx: ContextId,
        data: Arc<Vec<T>>,
        send_time: Time,
        arrival: Time,
    ) -> Message {
        debug_assert!(send_time <= arrival, "a message arrives after its send");
        Message {
            src_global,
            tag,
            ctx,
            arrival,
            payload: data,
        }
    }

    /// Package a view of a shared buffer into a message without copying
    /// it: the message counts, and is priced by, the view's elements only.
    /// A view of a whole buffer travels as that buffer's `Arc`, exactly as
    /// [`Message::new_shared`] sends it, and costs no block of its own.
    /// `send_time` as in [`Message::new`].
    pub fn new_slice<T: Datum>(
        src_global: usize,
        tag: Tag,
        ctx: ContextId,
        data: SharedSlice<T>,
        send_time: Time,
        arrival: Time,
    ) -> Message {
        if data.is_whole() {
            return Message::new_shared(src_global, tag, ctx, data.buf, send_time, arrival);
        }
        debug_assert!(send_time <= arrival, "a message arrives after its send");
        Message {
            src_global,
            tag,
            ctx,
            arrival,
            payload: Arc::new(data),
        }
    }

    /// The status header of this message.
    pub fn info(&self) -> MsgInfo {
        let count = self.payload.len();
        MsgInfo {
            src_global: self.src_global,
            tag: self.tag,
            count,
            bytes: count * self.payload.width(),
            arrival: self.arrival,
        }
    }

    /// Number of payload elements.
    pub fn count(&self) -> usize {
        self.payload.len()
    }

    /// Payload size in bytes (elements × element width).
    pub fn bytes(&self) -> usize {
        self.info().bytes
    }

    /// `type_name` of the payload element type, for mismatch diagnostics.
    pub fn type_name(&self) -> &'static str {
        self.payload.type_name()
    }

    /// Consume the message, extracting its typed payload. The `Vec` is
    /// moved out without copying when this message holds the last
    /// reference, as every point-to-point message does, and cloned
    /// otherwise (at most one copy per receiver of a fan-out). A sliced
    /// payload is copied, exactly its range.
    pub fn take<T: Datum>(self) -> Result<(Vec<T>, MsgInfo)> {
        let (data, info) = self.typed::<T>()?;
        let data = match data {
            Typed::Whole(v) => Arc::unwrap_or_clone(v),
            Typed::Slice(s) => s.to_vec(),
        };
        Ok((data, info))
    }

    /// Consume the message, extracting its payload behind its `Arc`
    /// without copying — the receive path of fan-out stages that only
    /// read or forward the buffer. A sliced payload is copied, exactly its
    /// range, into a fresh `Arc`.
    pub fn take_shared<T: Datum>(self) -> Result<(Arc<Vec<T>>, MsgInfo)> {
        let (data, info) = self.typed::<T>()?;
        let data = match data {
            Typed::Whole(v) => v,
            Typed::Slice(s) => Arc::new(s.to_vec()),
        };
        Ok((data, info))
    }

    /// Consume the message, extracting its payload as a view without
    /// copying, whichever way it was sent: a whole buffer becomes the view
    /// of all of it.
    pub fn take_slice<T: Datum>(self) -> Result<(SharedSlice<T>, MsgInfo)> {
        let (data, info) = self.typed::<T>()?;
        let data = match data {
            Typed::Whole(v) => SharedSlice::from(v),
            Typed::Slice(s) => Arc::unwrap_or_clone(s),
        };
        Ok((data, info))
    }

    /// The payload downcast to `T`, and the status header.
    fn typed<T: Datum>(self) -> Result<(Typed<T>, MsgInfo)> {
        let info = self.info();
        let got = self.type_name();
        let any: Arc<dyn Any + Send + Sync> = self.payload;
        let data = match any.downcast() {
            Ok(whole) => Typed::Whole(whole),
            Err(any) => Typed::Slice(any.downcast().map_err(|_| MpiError::TypeMismatch {
                expected: std::any::type_name::<T>(),
                got,
            })?),
        };
        Ok((data, info))
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Message{{src={}, tag={}, {}, count={}, arrival={}}}",
            self.src_global,
            self.tag,
            self.ctx,
            self.count(),
            self.arrival
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(src: usize, tag: Tag, ctx: ContextId) -> Message {
        Message::new::<u64>(src, tag, ctx, vec![1, 2, 3], Time(0), Time(10))
    }

    #[test]
    fn take_roundtrip() {
        let m = mk(2, 7, ContextId::WORLD);
        let (v, info) = m.take::<u64>().unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(info.src_global, 2);
        assert_eq!(info.count, 3);
        assert_eq!(info.bytes, 24);
    }

    #[test]
    fn shared_payload_roundtrip_and_last_ref_moves() {
        let buf = Arc::new(vec![1u64, 2, 3]);
        let a =
            Message::new_shared::<u64>(0, 1, ContextId::WORLD, Arc::clone(&buf), Time(0), Time(5));
        let b =
            Message::new_shared::<u64>(0, 1, ContextId::WORLD, Arc::clone(&buf), Time(0), Time(5));
        assert_eq!(a.bytes(), 24);
        // Reader path: no copy, still shared.
        let (shared, info) = a.take_shared::<u64>().unwrap();
        assert_eq!(*shared, vec![1, 2, 3]);
        assert_eq!(info.count, 3);
        // Owner path while other refs live: one clone.
        let (owned, _) = b.take::<u64>().unwrap();
        assert_eq!(owned, vec![1, 2, 3]);
        // Last reference: take() must move, not clone.
        drop((buf, shared));
        let last = Message::new_shared::<u64>(
            0,
            1,
            ContextId::WORLD,
            Arc::new(vec![9u64]),
            Time(0),
            Time(5),
        );
        let (v, _) = last.take::<u64>().unwrap();
        assert_eq!(v, vec![9]);
    }

    #[test]
    fn takes_move_the_sent_buffer_without_copying() {
        let sent = vec![1u64, 2, 3];
        let at = sent.as_ptr();
        let m = Message::new::<u64>(0, 1, ContextId::WORLD, sent, Time(0), Time(5));
        assert_eq!(m.take::<u64>().unwrap().0.as_ptr(), at);
        let sent = vec![4u64, 5];
        let at = sent.as_ptr();
        let m = Message::new::<u64>(0, 1, ContextId::WORLD, sent, Time(0), Time(5));
        assert_eq!(m.take_shared::<u64>().unwrap().0.as_ptr(), at);
        // The last reference of a shared payload moves too.
        let sent = Arc::new(vec![6u64]);
        let at = sent.as_ptr();
        let m = Message::new_shared::<u64>(0, 1, ContextId::WORLD, sent, Time(0), Time(5));
        assert_eq!(m.take::<u64>().unwrap().0.as_ptr(), at);
    }

    #[test]
    fn shared_payload_type_mismatch_detected() {
        let m = Message::new_shared::<u64>(
            0,
            0,
            ContextId::WORLD,
            Arc::new(vec![1u64]),
            Time(0),
            Time(1),
        );
        assert!(matches!(
            m.take::<f64>().unwrap_err(),
            MpiError::TypeMismatch { .. }
        ));
        let m = Message::new_shared::<u64>(
            0,
            0,
            ContextId::WORLD,
            Arc::new(vec![1u64]),
            Time(0),
            Time(1),
        );
        assert!(matches!(
            m.take_shared::<f64>().unwrap_err(),
            MpiError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn a_sliced_payload_counts_and_takes_its_range_only() {
        let buf = Arc::new(vec![1u64, 2, 3, 4, 5]);
        let slice = |r| {
            let view = SharedSlice::new(Arc::clone(&buf), r);
            Message::new_slice(0, 1, ContextId::WORLD, view, Time(0), Time(5))
        };
        let m = slice(1..4);
        assert_eq!((m.count(), m.bytes(), m.type_name()), (3, 24, "u64"));
        assert_eq!((m.info().count, m.info().bytes), (3, 24));
        // The view comes out without a copy: it reads the sent buffer.
        let (view, info) = m.take_slice::<u64>().unwrap();
        assert_eq!((&*view, info.count), (&[2u64, 3, 4][..], 3));
        assert_eq!(view.as_ptr(), buf[1..].as_ptr());
        // Owned and shared takes copy exactly the range.
        let (owned, _) = slice(2..5).take::<u64>().unwrap();
        assert_eq!((owned.len(), owned.capacity()), (3, 3));
        assert_eq!(owned, vec![3, 4, 5]);
        let (shared, _) = slice(0..2).take_shared::<u64>().unwrap();
        assert_eq!((*shared).clone(), vec![1, 2]);
        assert_ne!(shared.as_ptr(), buf.as_ptr());
        let (empty, info) = slice(5..5).take::<u64>().unwrap();
        assert!(empty.is_empty() && info.bytes == 0);
        // A whole-buffer payload taken as a view is the view of all of it.
        let m = Message::new_shared(0, 1, ContextId::WORLD, Arc::clone(&buf), Time(0), Time(5));
        let (view, _) = m.take_slice::<u64>().unwrap();
        assert_eq!((view.len(), view.as_ptr()), (5, buf.as_ptr()));
        // A sliced payload of the wrong type names both types.
        match slice(0..1).take_slice::<f64>().unwrap_err() {
            MpiError::TypeMismatch { expected, got } => assert_eq!((expected, got), ("f64", "u64")),
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn a_full_view_holding_the_last_reference_moves_its_buffer_out() {
        let v = vec![7u64, 8, 9];
        let at = v.as_ptr();
        let back = SharedSlice::from(Arc::new(v)).into_vec();
        assert_eq!(back.as_ptr(), at);
        // A part, or a buffer another view still holds, is copied.
        let buf = Arc::new(vec![7u64, 8, 9]);
        let part = SharedSlice::new(Arc::clone(&buf), 1..3).into_vec();
        assert_eq!(part, vec![8, 9]);
        let whole = SharedSlice::from(Arc::clone(&buf)).into_vec();
        assert_ne!(whole.as_ptr(), buf.as_ptr());
    }

    #[test]
    fn a_view_is_two_words_and_unwraps_only_whole_and_alone() {
        assert_eq!(size_of::<SharedSlice<u64>>(), 2 * size_of::<usize>());
        let buf = Arc::new(vec![1u64, 2]);
        let view = SharedSlice::from(Arc::clone(&buf));
        let view = view.try_unwrap().expect_err("another reference is alive");
        let part = SharedSlice::new(Arc::clone(&buf), 0..1);
        assert!(part.try_unwrap().is_err(), "a part is never the buffer");
        drop(buf);
        assert_eq!(view.try_unwrap().ok(), Some(vec![1, 2]));
    }

    #[test]
    #[should_panic(expected = "slice 2..4 of a buffer of 3")]
    fn a_slice_past_its_buffer_panics() {
        let _ = SharedSlice::new(Arc::new(vec![1u64, 2, 3]), 2..4);
    }

    #[test]
    fn type_mismatch_detected() {
        let m = mk(0, 0, ContextId::WORLD);
        let err = m.take::<f64>().unwrap_err();
        assert!(matches!(err, MpiError::TypeMismatch { .. }));
    }

    #[test]
    fn matching_by_ctx_src_tag() {
        let m = mk(2, 7, ContextId::Small(5));
        let hit = MatchPattern {
            ctx: ContextId::Small(5),
            src: SrcFilter::Exact(2),
            tag: 7,
        };
        assert!(hit.matches(&m));
        let wrong_ctx = MatchPattern {
            ctx: ContextId::Small(6),
            ..hit.clone()
        };
        assert!(!wrong_ctx.matches(&m));
        let wrong_src = MatchPattern {
            src: SrcFilter::Exact(3),
            ..hit.clone()
        };
        assert!(!wrong_src.matches(&m));
        let wrong_tag = MatchPattern { tag: 8, ..hit };
        assert!(!wrong_tag.matches(&m));
    }

    #[test]
    fn wildcard_and_filter() {
        let m = mk(4, 1, ContextId::WORLD);
        let any = MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Any,
            tag: 1,
        };
        assert!(any.matches(&m));
        let in_range = MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Filter(Arc::new(|g| (2..=5).contains(&g))),
            tag: 1,
        };
        assert!(in_range.matches(&m));
        let out_of_range = MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Filter(Arc::new(|g| g > 10)),
            tag: 1,
        };
        assert!(!out_of_range.matches(&m));
    }

    #[test]
    fn strided_filter_is_the_membership_predicate() {
        let strided = SrcFilter::Strided {
            first: 10,
            stride: 3,
            len: 4,
        };
        let members: Vec<usize> = (0..40).filter(|&g| strided.matches(g)).collect();
        assert_eq!(members, vec![10, 13, 16, 19]);
        // It prints like the closure it replaces (the text is in timeout
        // errors) and keeps the enum at the closure variant's size.
        assert_eq!(format!("{strided:?}"), "Filter(..)");
        assert_eq!(
            std::mem::size_of::<SrcFilter>(),
            3 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn a_message_moves_inline_and_its_option_is_free() {
        // Every hop of a send moves a `Message` by value, and the staging
        // vectors and mailbox slab hold `Option<Message>`: past ~100 bytes
        // each move is a `memcpy` call (see the module docs), and every
        // byte is held once per pending message.
        assert!(std::mem::size_of::<Message>() <= 64);
        assert_eq!(
            std::mem::size_of::<Option<Message>>(),
            std::mem::size_of::<Message>()
        );
    }

    #[test]
    fn count_bytes_and_type_name_on_owned_and_shared_payloads() {
        let owned = Message::new::<u32>(0, 0, ContextId::WORLD, vec![7; 5], Time(0), Time(1));
        let shared = Message::new_shared::<(u64, u64)>(
            0,
            0,
            ContextId::WORLD,
            Arc::new(vec![(1, 2); 3]),
            Time(0),
            Time(1),
        );
        assert_eq!((owned.count(), owned.bytes()), (5, 20));
        assert_eq!(owned.type_name(), "u32");
        assert_eq!((shared.count(), shared.bytes()), (3, 48));
        assert_eq!(shared.type_name(), "(u64, u64)");
        assert_eq!((shared.info().count, shared.info().bytes), (3, 48));
        // The diagnostic names both types, whichever constructor built the
        // message and whichever take was asked for.
        for (m, got) in [(owned, "u32"), (shared, "(u64, u64)")] {
            match m.take_shared::<f64>().unwrap_err() {
                MpiError::TypeMismatch { expected, got: g } => {
                    assert_eq!((expected, g), ("f64", got));
                }
                other => panic!("expected TypeMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn wide_context_ids_distinct_from_small() {
        let wide = ContextId::Wide {
            a: 0,
            b: 0,
            f: 0,
            l: 3,
            c: 0,
        };
        assert_ne!(wide, ContextId::Small(0));
        assert_eq!(format!("{wide}"), "ctx<0,0,0,3,0>");
    }
}
