//! Messages and matching.
//!
//! A message carries its sender's *global* rank, a tag, and the context ID
//! of the communicator it was sent over — exactly the header fields MPI uses
//! for matching (§III of the paper). Payloads are typed `Vec<T>` stored as
//! raw parts plus a reference to the element type's `&'static`
//! `ElemType` table: type id, name, width and the routine that frees a
//! buffer as the `Vec<T>` it came from, one table per `T` however many
//! messages carry it (no serialization, and no per-message `Box`
//! allocation). Element count, byte size and
//! type name are read through that table ([`Message::count`],
//! [`Message::bytes`], [`Message::type_name`]) instead of being stored, and
//! neither is the send time (a receive reads only the arrival), so a
//! message is 80 bytes: the simulator moves one by value at every hop
//! of a send (stage, commit, mailbox slab, claim), and below roughly a
//! hundred bytes such a move is a few inline vector stores where the
//! former 136-byte header was a `memcpy` call each time. An
//! exclusively-owned payload that is dropped untaken (a type mismatch, a
//! message left in a mailbox at teardown) is freed as the `Vec<T>` it was.
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
//! reference). Virtual-time cost accounting is unchanged — a shared send is
//! still a full `α + bytes·β` message; only the *simulator's* wall-clock
//! copying is elided.

use std::any::{Any, TypeId};
use std::fmt;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;
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
    payload: Payload,
}

/// What a message knows about its payload's element type once the static
/// `T` is erased: one `&'static` table per `T` (a promoted constant, see
/// [`ElemType::of`]), referenced by every payload of that type.
struct ElemType {
    id: TypeId,
    /// `type_name::<T>`, for mismatch diagnostics (not yet a `const fn`,
    /// hence a pointer).
    name: fn() -> &'static str,
    /// `T::width`.
    width: fn() -> usize,
    /// Frees an owned payload's buffer as the empty `Vec<T>` it came
    /// from.
    free: unsafe fn(NonNull<u8>, usize),
}

struct ElemTypeOf<T>(std::marker::PhantomData<T>);

impl<T: Datum> ElemTypeOf<T> {
    const TABLE: ElemType = ElemType {
        id: TypeId::of::<T>(),
        name: std::any::type_name::<T>,
        width: T::width,
        free: free_as::<T>,
    };
}

impl ElemType {
    fn of<T: Datum>() -> &'static ElemType {
        &ElemTypeOf::<T>::TABLE
    }

    /// The error of taking a payload of this type as a `Vec<T>`.
    fn mismatch<T: Datum>(&self) -> MpiError {
        MpiError::TypeMismatch {
            expected: std::any::type_name::<T>(),
            got: (self.name)(),
        }
    }
}

/// Frees a payload buffer by reassembling and dropping the empty `Vec<T>`
/// it came from (elements are `Copy`, so no destructors are skipped).
unsafe fn free_as<T: Datum>(ptr: NonNull<u8>, cap: usize) {
    drop(unsafe { Vec::from_raw_parts(ptr.as_ptr().cast::<T>(), 0, cap) });
}

/// Payload storage: exclusively owned (ordinary point-to-point) or shared
/// among the messages of one fan-out (see the module docs).
enum Payload {
    /// A `Vec<T>` owned by this message alone, stored as raw parts.
    Owned(OwnedVec),
    /// A `Vec<T>` behind an `Arc`, shared with the sibling messages of a
    /// one-to-many send (and possibly with the sender itself).
    Shared(Arc<dyn SharedVec>),
}

/// An `Arc<Vec<T>>` with `T` erased: it reports its length and element
/// table from behind the `Arc`, and upcasts to `dyn Any` for the typed
/// downcast of a take.
trait SharedVec: Any + Send + Sync {
    fn len(&self) -> usize;
    fn elem(&self) -> &'static ElemType;
}

impl<T: Datum> SharedVec for Vec<T> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn elem(&self) -> &'static ElemType {
        ElemType::of::<T>()
    }
}

/// The raw parts of an exclusively-owned `Vec<T>` payload: no heap
/// allocation beyond the buffer itself (a `Box<dyn Any + Send>` would be
/// one more per message). Its `Drop` frees the buffer through the
/// element table's `free`.
///
/// Safety invariant: `(ptr, len, cap)` are the raw parts of a live
/// `Vec<T>` exclusively owned by this value, and `elem` is the table of
/// that same `T`.
struct OwnedVec {
    ptr: NonNull<u8>,
    len: usize,
    cap: usize,
    elem: &'static ElemType,
}

// SAFETY: the buffer is exclusively owned (moved out of a unique `Vec`)
// and `T: Datum` implies `T: Send`.
unsafe impl Send for OwnedVec {}

impl OwnedVec {
    fn new<T: Datum>(data: Vec<T>) -> OwnedVec {
        let mut data = ManuallyDrop::new(data);
        OwnedVec {
            ptr: NonNull::new(data.as_mut_ptr().cast::<u8>()).expect("a Vec's pointer is non-null"),
            len: data.len(),
            cap: data.capacity(),
            elem: ElemType::of::<T>(),
        }
    }

    /// Reassemble the owned `Vec<T>`, or `None` on an element-type
    /// mismatch (in which case dropping `self` frees the buffer under its
    /// true type).
    fn take<T: Datum>(self) -> Option<Vec<T>> {
        if self.elem.id != TypeId::of::<T>() {
            return None;
        }
        let this = ManuallyDrop::new(self);
        // SAFETY: the type just matched, so these are the raw parts of a
        // Vec<T>; ManuallyDrop forgoes the freeing drop.
        Some(unsafe { Vec::from_raw_parts(this.ptr.as_ptr().cast::<T>(), this.len, this.cap) })
    }
}

impl Drop for OwnedVec {
    fn drop(&mut self) {
        // SAFETY: struct invariant — `elem` is the table of the buffer's
        // element type, so its `free` is monomorphized for it.
        unsafe { (self.elem.free)(self.ptr, self.cap) }
    }
}

impl Message {
    /// Package `data` into a message with precomputed arrival time.
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
        debug_assert!(send_time <= arrival, "a message arrives after its send");
        Message {
            src_global,
            tag,
            ctx,
            arrival,
            payload: Payload::Owned(OwnedVec::new(data)),
        }
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
            payload: Payload::Shared(data),
        }
    }

    /// The status header and the payload's element table, whichever way
    /// the payload is stored.
    fn header(&self) -> (MsgInfo, &'static ElemType) {
        let (count, elem) = match &self.payload {
            Payload::Owned(v) => (v.len, v.elem),
            Payload::Shared(a) => (a.len(), a.elem()),
        };
        let info = MsgInfo {
            src_global: self.src_global,
            tag: self.tag,
            count,
            bytes: count * (elem.width)(),
            arrival: self.arrival,
        };
        (info, elem)
    }

    /// The status header of this message.
    pub fn info(&self) -> MsgInfo {
        self.header().0
    }

    /// Number of payload elements.
    pub fn count(&self) -> usize {
        self.info().count
    }

    /// Payload size in bytes (elements × element width).
    pub fn bytes(&self) -> usize {
        self.info().bytes
    }

    /// `type_name` of the payload element type, for mismatch diagnostics.
    pub fn type_name(&self) -> &'static str {
        (self.header().1.name)()
    }

    /// Consume the message, extracting its typed payload. A shared payload
    /// is unwrapped without copying when this message holds the last
    /// reference, and cloned otherwise (at most one copy per receiver).
    pub fn take<T: Datum>(self) -> Result<(Vec<T>, MsgInfo)> {
        let (info, elem) = self.header();
        let data = match self.payload {
            Payload::Owned(b) => b.take::<T>(),
            Payload::Shared(a) => downcast::<T>(a).map(Arc::unwrap_or_clone),
        };
        data.map(|v| (v, info)).ok_or_else(|| elem.mismatch::<T>())
    }

    /// Consume the message, extracting its payload behind an `Arc` without
    /// copying — the receive path of fan-out stages that only read or
    /// forward the buffer. An owned payload is wrapped in a fresh `Arc`
    /// (moves the `Vec`, no element copy).
    pub fn take_shared<T: Datum>(self) -> Result<(Arc<Vec<T>>, MsgInfo)> {
        let (info, elem) = self.header();
        let data = match self.payload {
            Payload::Owned(b) => b.take::<T>().map(Arc::new),
            Payload::Shared(a) => downcast::<T>(a),
        };
        data.map(|v| (v, info)).ok_or_else(|| elem.mismatch::<T>())
    }
}

/// The typed `Arc` behind a shared payload, `None` on an element-type
/// mismatch.
fn downcast<T: Datum>(shared: Arc<dyn SharedVec>) -> Option<Arc<Vec<T>>> {
    let any: Arc<dyn Any + Send + Sync> = shared;
    any.downcast().ok()
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
        assert!(std::mem::size_of::<Message>() <= 80);
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
        // The diagnostic names both types, whichever way the payload is
        // stored and whichever take was asked for.
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
