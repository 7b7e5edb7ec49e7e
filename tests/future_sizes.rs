//! Future sizes of the blocking collectives' async cores, counted without
//! a timer. A blocking collective run from a poll-mode rank body keeps its
//! core's future inside the body, and the nonblocking requests box futures
//! built from the same receive leaf and trees; growth fails here, not in a
//! ledger run. The boxed futures themselves are pinned by `mpisim`'s unit
//! test `nbcoll::tests::the_boxed_cores_stay_within_their_byte_budgets`.

use mpisim::{coll, ops, recv_async, Comm, SimConfig, Src, Universe};

#[test]
fn the_collective_cores_stay_within_their_byte_budgets() {
    Universe::run(1, SimConfig::default(), |env| {
        let w: &Comm = &env.world;
        let (v, mut shared) = (vec![1.0f64], vec![1.0f64]);
        let sum = ops::sum::<f64>;
        let recv = size_of_val(&recv_async::<f64, _>(w, Src::Rank(0), 1));
        let bcast = size_of_val(&coll::bcast_async(w, &mut shared, 0, 1));
        let reduce = size_of_val(&coll::reduce_async(w, &v, 0, 1, sum()));
        let exscan = size_of_val(&coll::exscan_async(w, &v, 1, sum()));
        let gatherv = size_of_val(&coll::gatherv_async(w, v.clone(), 0, 1));
        let barrier = size_of_val(&coll::barrier_async(w, 1));
        let sizes = [
            ("recv_async", recv, 32),
            ("bcast_async", bcast, 184),
            ("reduce_async", reduce, 240),
            ("exscan_async", exscan, 240),
            ("gatherv_async", gatherv, 336),
            ("barrier_async", barrier, 112),
        ];
        for (name, bytes, budget) in sizes {
            assert!(bytes <= budget, "{name}: {bytes} B, budget {budget} B");
        }
    });
}
