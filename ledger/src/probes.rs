//! Standalone probe loops (source **P**): each drives one layer's public
//! functions alone, so a traced self time has a ns/op row to reconcile
//! against. A figure is the median of five timed batches.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ermia::{Database, DbConfig, Lsn, TableId, WorkerPool};
use ermia_common::{Oid, Stamp};
use ermia_server::protocol::{read_frame, write_frame, FrameAssembler, MAX_FRAME_LEN};
use ermia_server::{Request, Response};

use crate::gen::{fill_value, key, Rng};
use crate::stats::median;

const BATCHES: u32 = 5;

/// Median ns/op over [`BATCHES`] batches of `budget / BATCHES` each.
/// `chunk` runs a fixed number of operations and returns that number.
fn probe(budget: Duration, mut chunk: impl FnMut() -> u64) -> f64 {
    chunk(); // warm caches and lazy set-up
    let per_batch = budget / BATCHES;
    let mut ns_per_op = Vec::new();
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        let mut ops = 0;
        while t0.elapsed() < per_batch {
            ops += chunk();
        }
        ns_per_op.push(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&ns_per_op)
}

/// The reply each workload's requests get, for the decode probe.
fn reply_shape(workload: &str) -> Response {
    let puts = |n: usize| Response::BatchDone {
        results: vec![Response::Done { existed: true }; n],
        outcome: Box::new(Response::Committed { lsn: 1 << 20 }),
    };
    match workload {
        "wire_sync_write" => puts(4),
        "wire_2pc" => puts(2),
        _ => Response::Value { value: Some(vec![7u8; 64]) },
    }
}

/// Run every probe within `budget` overall; results keyed by metric name.
pub fn run_all(budget: Duration, workload: &str) -> BTreeMap<&'static str, f64> {
    let each = budget / 12;
    let mut out = BTreeMap::new();
    let mut rng = Rng::new(0x70_72_6f_62_65); // probes do not depend on --seed

    // --- index: 100k 16-byte keys -----------------------------------
    {
        const N: u64 = 100_000;
        let tree = ermia_index::BTree::new();
        let mgr = ermia_epoch::EpochManager::new("probe-index");
        let handle = mgr.register();
        let g = handle.pin();
        for i in 0..N {
            tree.insert(&g, &key(b"prob", i, 0), i);
        }
        out.insert(
            "index.get_ns",
            probe(each, || {
                for _ in 0..1024 {
                    black_box(tree.get(&g, &key(b"prob", rng.below(N), 0)).0);
                }
                1024
            }),
        );
        out.insert(
            "index.scan_row_ns",
            probe(each, || {
                let lo = rng.below(N - 100);
                let mut n = 0u64;
                tree.scan(
                    &g,
                    &key(b"prob", lo, 0),
                    &key(b"prob", lo + 99, 0),
                    |_| {},
                    |_, v| {
                        n += 1;
                        black_box(v);
                        ermia_index::ScanControl::Continue
                    },
                );
                n
            }),
        );
        let mut next = N;
        out.insert(
            "index.insert_ns",
            probe(each, || {
                for _ in 0..256 {
                    next += 1;
                    black_box(tree.insert(&g, &key(b"prob", next, 0), next));
                }
                256
            }),
        );
    }

    // --- storage ----------------------------------------------------
    {
        let arr = ermia_storage::OidArray::new();
        let oid: Oid = arr.allocate();
        let stamp = |n| Stamp::from_lsn(Lsn::from_parts(n, 0));
        let v0 = ermia_storage::Version::alloc(stamp(1), &[0u8; 64], false);
        arr.store_head(oid, v0);
        out.insert(
            "storage.head_load_ns",
            probe(each, || {
                for _ in 0..4096 {
                    black_box(arr.head(black_box(oid)));
                }
                4096
            }),
        );
        let mut cache =
            ermia_storage::VersionCache::new(Arc::new(ermia_storage::VersionPool::default()));
        let payload = [1u8; 64];
        out.insert(
            "storage.cas_install_ns",
            probe(each, || {
                for _ in 0..1024 {
                    let v = cache.acquire(stamp(2), &payload, false);
                    // SAFETY: `v` is freshly acquired and unpublished.
                    unsafe { (*v).next.store(v0, Ordering::Relaxed) };
                    black_box(arr.cas_head(oid, v0, v).is_ok());
                    // Retract it so the chain (and memory) stays flat and
                    // the next acquire takes the steady-state reuse path.
                    arr.store_head(oid, v0);
                    // SAFETY: only this thread ever saw `v`; after the
                    // store above nothing reaches it.
                    unsafe { cache.release_unpublished(v) };
                }
                1024
            }),
        );
        let tids = ermia_storage::TidManager::new();
        let mut hint = 0usize;
        out.insert(
            "storage.tid_acquire_release_ns",
            probe(each, || {
                for _ in 0..1024 {
                    let (tid, ctx) = tids.acquire(Lsn::from_parts(1, 0), &mut hint);
                    ctx.enter_pending();
                    ctx.enter_precommit(Lsn::from_parts(2, 0));
                    ctx.commit(Lsn::from_parts(2, 0));
                    tids.release(black_box(tid));
                }
                1024
            }),
        );
    }

    // --- epoch ------------------------------------------------------
    {
        let mgr = ermia_epoch::EpochManager::new("probe-epoch");
        let handle = mgr.register();
        out.insert(
            "epoch.pin_ns",
            probe(each, || {
                for _ in 0..4096 {
                    black_box(handle.pin().epoch());
                }
                4096
            }),
        );
    }

    // --- log: a 4-record block, as wire_sync_write commits ------------
    {
        let log = ermia_log::LogManager::open(ermia_log::LogConfig::in_memory())
            .expect("in-memory log opens");
        let mut value = [0u8; 64];
        fill_value(&mut value, 1, 1);
        let mut buf = ermia_log::TxLogBuffer::new();
        let add4 = |buf: &mut ermia_log::TxLogBuffer| {
            for i in 0..4u64 {
                buf.add_update(TableId(1), Oid(i as u32), &key(b"prob", i, 0), &value);
            }
        };
        out.insert(
            "log.txlog_serialize_ns",
            probe(each, || {
                for _ in 0..256 {
                    buf.clear();
                    add4(&mut buf);
                    black_box(buf.serialize(Lsn::from_parts(64, 0)).len());
                }
                256
            }),
        );
        buf.clear();
        add4(&mut buf);
        out.insert(
            "log.reserve_fill_ns",
            probe(each, || {
                for _ in 0..256 {
                    let res = log.allocate(buf.block_len()).expect("log space");
                    let lsn = res.lsn();
                    res.fill(buf.serialize(lsn));
                }
                256
            }),
        );
    }

    // --- core: worker pool ------------------------------------------
    {
        let db = Database::open(DbConfig::in_memory()).expect("in-memory db opens");
        let pool = WorkerPool::new(&db, 2);
        out.insert(
            "core.pool_checkout_ns",
            probe(each, || {
                for _ in 0..1024 {
                    black_box(pool.try_checkout().is_some());
                }
                1024
            }),
        );
    }

    // --- wire codec -------------------------------------------------
    {
        let req = Request::Get { table: 0, key: key(b"prob", 12345, 0).to_vec() };
        let reply = Response::Value { value: Some(vec![7u8; 64]) };
        let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
        let mut wire: Vec<u8> = Vec::with_capacity(256);
        out.insert(
            "server.frame_codec_ns",
            probe(each, || {
                for _ in 0..256 {
                    wire.clear();
                    write_frame(&mut wire, &req.encode()).expect("vec write");
                    asm.feed(&wire);
                    let payload = asm.next_frame().expect("valid frame").expect("complete frame");
                    black_box(Request::decode(&payload).expect("decodes"));
                    wire.clear();
                    write_frame(&mut wire, &reply.encode()).expect("vec write");
                    let payload = read_frame(&mut &wire[..], MAX_FRAME_LEN).expect("valid frame");
                    black_box(Response::decode(&payload).expect("decodes"));
                }
                256
            }),
        );
        let payload = reply_shape(workload).encode();
        out.insert(
            "client.decode_ns",
            probe(each, || {
                for _ in 0..256 {
                    black_box(Response::decode(black_box(&payload)).expect("decodes"));
                }
                256
            }),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_metric_is_produced() {
        let got = run_all(Duration::from_millis(240), "wire_sync_write");
        for m in crate::metrics::PER_LAYER.iter().filter(|m| m.source == 'P') {
            let v = got.get(m.name).copied().unwrap_or_else(|| panic!("{} missing", m.name));
            assert!(v > 0.0 && v.is_finite(), "{} = {v}", m.name);
        }
        assert_eq!(got.len(), crate::metrics::PER_LAYER.iter().filter(|m| m.source == 'P').count());
    }
}
