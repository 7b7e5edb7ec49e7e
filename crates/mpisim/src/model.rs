//! The α–β cost model and vendor profiles.
//!
//! `CostModel` describes the *machine* (network latency/bandwidth and local
//! per-operation overheads). `VendorProfile` describes an *MPI
//! implementation* running on that machine: how much its collectives cost on
//! top of raw point-to-point transfers, and which algorithm its communicator
//! construction uses. The paper benchmarks against Intel MPI and IBM MPI,
//! whose observed pathologies (Fig. 4, 5, 8, 9) the two non-neutral profiles
//! model; see DESIGN.md §1 for the substitution argument.

use crate::obs::OpClass;
use crate::time::Time;

/// Machine-level communication costs (α–β model, §II of the paper).
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Message startup overhead α.
    pub alpha: Time,
    /// Per-byte transfer time β (the paper's β is per machine word; one
    /// element of type `T` costs `size_of::<T>() * beta`).
    pub beta_ns_per_byte: f64,
    /// Sender-side CPU overhead charged to the sender's clock per message.
    pub send_overhead: Time,
    /// Receiver-side CPU overhead charged on message completion.
    pub recv_overhead: Time,
    /// Messages larger than this use a rendezvous protocol with an extra
    /// round trip (adds `rendezvous_penalty` to the arrival time).
    pub eager_threshold: usize,
    /// Extra arrival delay for messages above [`CostModel::eager_threshold`].
    pub rendezvous_penalty: Time,
    /// Per-element cost of local computation helpers (`charge_compute`).
    pub compute_ns_per_elem: f64,
}

impl CostModel {
    /// Constants loosely calibrated to a SuperMUC-like fat-tree InfiniBand
    /// system. Absolute numbers are not claimed to match the paper; shapes
    /// are (see EXPERIMENTS.md).
    pub fn supermuc_like() -> CostModel {
        CostModel {
            alpha: Time::from_micros(10),
            beta_ns_per_byte: 1.0,
            send_overhead: Time::from_nanos(500),
            recv_overhead: Time::from_nanos(500),
            eager_threshold: 64 * 1024,
            rendezvous_penalty: Time::from_micros(20),
            compute_ns_per_elem: 1.0,
        }
    }

    /// Point-to-point transfer time of `bytes` payload bytes, excluding
    /// sender/receiver CPU overheads: `α + bytes·β` plus the rendezvous
    /// penalty for large messages.
    pub fn transfer_time(&self, bytes: usize) -> Time {
        let wire = Time((bytes as f64 * self.beta_ns_per_byte).round() as u64);
        let mut t = self.alpha + wire;
        if bytes > self.eager_threshold {
            t += self.rendezvous_penalty;
        }
        t
    }

    /// Scaled transfer time used by vendor-internal collective traffic.
    pub fn transfer_time_scaled(&self, bytes: usize, scale: CostScale) -> Time {
        let wire = Time((bytes as f64 * self.beta_ns_per_byte * scale.beta_factor).round() as u64);
        let mut t = self.alpha.scale(scale.alpha_factor) + wire;
        if bytes > self.eager_threshold {
            t += self.rendezvous_penalty.scale(scale.beta_factor);
        }
        t
    }

    /// Virtual cost of a local computation touching `elems` elements.
    pub fn compute_cost(&self, elems: usize) -> Time {
        Time((elems as f64 * self.compute_ns_per_elem).round() as u64)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::supermuc_like()
    }
}

/// Multiplicative factors applied to α and β of individual messages.
/// `CostScale::NEUTRAL` is raw point-to-point (what RBC uses).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostScale {
    /// Multiplier on the startup latency α.
    pub alpha_factor: f64,
    /// Multiplier on the per-byte cost β (and the rendezvous penalty).
    pub beta_factor: f64,
}

impl CostScale {
    /// No scaling: raw point-to-point cost.
    pub const NEUTRAL: CostScale = CostScale {
        alpha_factor: 1.0,
        beta_factor: 1.0,
    };

    /// Scale α by `alpha_factor` and β by `beta_factor`.
    pub fn new(alpha_factor: f64, beta_factor: f64) -> CostScale {
        CostScale {
            alpha_factor,
            beta_factor,
        }
    }
}

/// Which algorithm a vendor's `comm_create_group` uses (drives Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CreateGroupAlgo {
    /// Context-ID-mask all-reduce over the new group plus explicit O(g)
    /// group-array construction (MPICH / Open MPI style; the paper observes
    /// Intel MPI's creation time grows linearly with the group size).
    MaskAllreduce,
    /// Additionally serialises the agreement through a leader ring — one
    /// α-latency hop per member. Models IBM MPI's `MPI_Comm_create_group`
    /// being "disproportionately slow ... by multiple orders of magnitude"
    /// (paper §VIII-B, Fig. 5).
    LeaderRing,
}

/// An MPI implementation personality.
#[derive(Clone, Debug)]
pub struct VendorProfile {
    /// Profile name, used in benchmark output.
    pub name: &'static str,
    /// Cost scaling for traffic *inside vendor collectives* (vendor
    /// collectives do extra internal buffering/copying compared with RBC's
    /// p2p-composed binomial trees; paper Fig. 4 sees up to 16× on Iscan).
    pub coll_scale: CollScales,
    /// Multiplicative jitter on vendor-collective messages larger than
    /// `jitter_threshold` bytes; 0.0 disables. Models Intel MPI's "immense
    /// fluctuations" for large inputs (paper §VIII-C).
    pub jitter_max: f64,
    /// Payload size (bytes) above which jitter applies.
    pub jitter_threshold: usize,
    /// Jitter on *all* point-to-point traffic above `jitter_threshold` —
    /// vendor p2p fluctuations also hit RBC, which runs on the vendor's p2p
    /// layer (the paper observes JQuick-with-RBC on Intel MPI suffering the
    /// same fluctuations as native Intel runs). 0.0 disables.
    pub p2p_jitter_max: f64,
    /// Which `comm_create_group` algorithm this vendor runs (drives Fig. 5).
    pub create_group_algo: CreateGroupAlgo,
    /// Extra per-member CPU overhead inside `create_group` (only meaningful
    /// for the `LeaderRing` algorithm; models the heavy bookkeeping the
    /// paper observed in IBM MPI).
    pub create_group_member_overhead_ns: f64,
    /// Per-member cost of building the explicit rank array during
    /// communicator construction (both `split` and `create_group`).
    /// The distributed-sort split skips this charge for groups it can
    /// represent as a stride range (no array is materialised).
    pub group_build_ns_per_member: f64,
}

/// Per-operation-class collective scaling factors, one field per
/// collective [`OpClass`].
#[derive(Clone, Copy, Debug)]
pub struct CollScales {
    /// Scaling of broadcast-internal traffic.
    pub bcast: CostScale,
    /// Scaling of reduce/allreduce-internal traffic.
    pub reduce: CostScale,
    /// Scaling of scan/exscan-internal traffic (the paper's worst case).
    pub scan: CostScale,
    /// Scaling of gather/allgather-internal traffic.
    pub gather: CostScale,
    /// Scaling of barrier-internal traffic.
    pub barrier: CostScale,
    /// Scaling of every other collective's traffic.
    pub other: CostScale,
}

impl CollScales {
    /// All operation classes at raw point-to-point cost.
    pub const NEUTRAL: CollScales = CollScales {
        bcast: CostScale::NEUTRAL,
        reduce: CostScale::NEUTRAL,
        scan: CostScale::NEUTRAL,
        gather: CostScale::NEUTRAL,
        barrier: CostScale::NEUTRAL,
        other: CostScale::NEUTRAL,
    };

    /// The scale of the traffic of class `class`: neutral for
    /// point-to-point traffic, the class's field otherwise.
    pub fn of(&self, class: OpClass) -> CostScale {
        match class {
            OpClass::P2p => CostScale::NEUTRAL,
            OpClass::Bcast => self.bcast,
            OpClass::Reduce => self.reduce,
            OpClass::Scan => self.scan,
            OpClass::Gather => self.gather,
            OpClass::Barrier => self.barrier,
            OpClass::Other => self.other,
        }
    }
}

impl VendorProfile {
    /// A perfectly behaved MPI: collectives cost exactly what RBC's do.
    /// Useful as a control in experiments.
    pub fn neutral() -> VendorProfile {
        VendorProfile {
            name: "neutral",
            coll_scale: CollScales::NEUTRAL,
            jitter_max: 0.0,
            jitter_threshold: usize::MAX,
            p2p_jitter_max: 0.0,
            create_group_member_overhead_ns: 0.0,
            create_group_algo: CreateGroupAlgo::MaskAllreduce,
            group_build_ns_per_member: 150.0,
        }
    }

    /// Intel-MPI-like personality: linear-in-p `comm_create_group` (explicit
    /// group representation), moderately slower vendor collectives at large
    /// messages, and strong large-message jitter.
    pub fn intel_like() -> VendorProfile {
        VendorProfile {
            name: "intel-like",
            coll_scale: CollScales {
                bcast: CostScale::new(1.2, 3.0),
                reduce: CostScale::new(1.2, 4.0),
                scan: CostScale::new(1.2, 8.0),
                gather: CostScale::new(1.2, 2.5),
                barrier: CostScale::new(1.2, 1.0),
                other: CostScale::new(1.2, 2.0),
            },
            jitter_max: 6.0,
            jitter_threshold: 8 * 1024,
            p2p_jitter_max: 2.5,
            create_group_member_overhead_ns: 0.0,
            create_group_algo: CreateGroupAlgo::MaskAllreduce,
            // Per-member cost of the explicit group representation. The
            // paper measures ~300 ns/member at p = 2^15; our sweeps stop at
            // p = 2^11, so the constant is scaled up to keep the linear
            // regime visible within the sweep (see EXPERIMENTS.md).
            group_build_ns_per_member: 2000.0,
        }
    }

    /// IBM-MPI-like personality: `comm_create_group` serialised through a
    /// leader ring (orders of magnitude slower, Fig. 5), collectives close
    /// to RBC except scan (Fig. 4: up to 16×), no jitter.
    pub fn ibm_like() -> VendorProfile {
        VendorProfile {
            name: "ibm-like",
            coll_scale: CollScales {
                bcast: CostScale::new(1.1, 1.3),
                reduce: CostScale::new(1.1, 1.5),
                scan: CostScale::new(1.1, 12.0),
                gather: CostScale::new(1.1, 1.5),
                barrier: CostScale::new(1.1, 1.0),
                other: CostScale::new(1.1, 1.5),
            },
            jitter_max: 0.0,
            jitter_threshold: usize::MAX,
            p2p_jitter_max: 0.0,
            create_group_member_overhead_ns: 20_000.0,
            create_group_algo: CreateGroupAlgo::LeaderRing,
            group_build_ns_per_member: 3000.0,
        }
    }
}

impl Default for VendorProfile {
    fn default() -> Self {
        VendorProfile::neutral()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_alpha_beta() {
        let m = CostModel::supermuc_like();
        // Empty message costs exactly alpha.
        assert_eq!(m.transfer_time(0), m.alpha);
        // 1000 bytes at 1 ns/byte adds 1 us.
        assert_eq!(m.transfer_time(1000), m.alpha + Time::from_micros(1));
    }

    #[test]
    fn rendezvous_kicks_in_above_threshold() {
        let m = CostModel::supermuc_like();
        let below = m.transfer_time(m.eager_threshold);
        let above = m.transfer_time(m.eager_threshold + 1);
        assert!(above > below + m.rendezvous_penalty.saturating_sub(Time(2)));
    }

    #[test]
    fn scaled_transfer() {
        let m = CostModel::supermuc_like();
        let s = CostScale::new(2.0, 3.0);
        let t = m.transfer_time_scaled(1000, s);
        assert_eq!(t, m.alpha.scale(2.0) + Time::from_nanos(3000));
        assert_eq!(
            m.transfer_time_scaled(1000, CostScale::NEUTRAL),
            m.transfer_time(1000)
        );
    }

    #[test]
    fn profiles_distinct() {
        assert_eq!(
            VendorProfile::neutral().create_group_algo,
            CreateGroupAlgo::MaskAllreduce
        );
        assert_eq!(
            VendorProfile::ibm_like().create_group_algo,
            CreateGroupAlgo::LeaderRing
        );
        assert!(VendorProfile::intel_like().jitter_max > 0.0);
        assert!(VendorProfile::ibm_like().coll_scale.scan.beta_factor > 8.0);
    }

    #[test]
    fn compute_cost_linear() {
        let m = CostModel::supermuc_like();
        assert_eq!(m.compute_cost(1000), Time::from_micros(1));
    }
}
