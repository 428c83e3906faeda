//! The residency guard: a shard costs its rows, not its capacities.
//!
//! The log ring (64 MiB, its own availability map), the TID context
//! table (2.5 MiB) and each table's two indirection-array page
//! directories (128 KiB apiece) are *capacities*; what a process pays for
//! is what it has touched. Five figures, one per case: (a) opening a
//! shard and creating eight tables, (b) a second engine in one process,
//! (c) two laps of a ring, (d) heap bytes per loaded row, (e) what
//! parked prepares leave in the TID tables and rings.
//!
//! Each case runs in a process of its own — resident size is a property
//! of the process, and (b) is about what an earlier engine in the same
//! process leaves behind — so this target has no libtest harness: run
//! without `--case=` it re-runs itself once per case (positional
//! arguments filter by name, as with libtest) and prints one trend line
//! per case. Linux only: the figures are `VmRSS` from
//! `/proc/self/status`; elsewhere it does nothing.

use std::process::Command;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use ermia::{DbConfig, DeferredCommit, IsolationLevel, ShardedDb, ShardedWorker, TableId};
use ermia_common::{Oid, TestDir};
use ermia_log::{
    BlockEncoder, BlockKind, LogConfig, LogManager, LogRecordKind, BLOCK_HEADER_LEN,
    RECORD_HEADER_LEN,
};
use ermia_storage::version::DEFAULT_POOL_CAP as POOL_CAP;

const MIB: i64 = 1 << 20;
const ROWS: u64 = 100_000;

const CASES: &[(&str, fn())] = &[
    ("open_costs_what_it_touches", open_costs_what_it_touches),
    ("a_second_engine_costs_what_the_first_did", a_second_engine_costs_what_the_first_did),
    ("a_wrapped_ring_stays_released", a_wrapped_ring_stays_released),
    ("a_row_holds_148_heap_bytes", a_row_holds_148_heap_bytes),
    (
        "parked_prepares_leave_the_tid_table_as_it_was",
        parked_prepares_leave_the_tid_table_as_it_was,
    ),
];

fn main() {
    if !cfg!(target_os = "linux") {
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(case) = args.iter().find_map(|a| a.strip_prefix("--case=")) {
        let (_, body) = CASES.iter().find(|(name, _)| *name == case).expect("a known case");
        return body();
    }
    let filters: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
    let exe = std::env::current_exe().expect("own path");
    let mut failed = Vec::new();
    for (name, _) in CASES {
        if !filters.is_empty() && !filters.iter().any(|f| name.contains(f.as_str())) {
            continue;
        }
        let status = Command::new(&exe).arg(format!("--case={name}")).status().expect("re-run");
        println!("test {name} ... {}", if status.success() { "ok" } else { "FAILED" });
        if !status.success() {
            failed.push(*name);
        }
    }
    assert!(failed.is_empty(), "residency guard failed: {failed:?}");
}

/// `VmRSS`, bytes.
fn rss() -> i64 {
    ermia_telemetry::process_resident().expect("/proc/self/status").0 as i64
}

fn open(dir: &TestDir) -> ShardedDb {
    ShardedDb::open(DbConfig::durable(&**dir), 1).expect("open")
}

/// `ROWS` rows of a 16-byte key and a 64-byte value, a thousand to a
/// transaction, durable before returning (the ledger's set-up).
fn load(db: &ShardedDb) {
    let t = db.create_table("rows");
    let mut w = db.register_worker();
    for base in (0..ROWS).step_by(1000) {
        let mut tx = w.begin(IsolationLevel::Snapshot);
        for i in base..base + 1000 {
            let mut key = *b"row-........----";
            key[4..12].copy_from_slice(&i.to_be_bytes());
            tx.insert(t, &key, &[0x51; 64]).expect("insert");
        }
        tx.commit().expect("commit");
    }
}

/// (a) Opening a durable shard and creating eight tables touches a few
/// pages of each capacity, not the capacities (≈ 3.2 MB before the ring
/// and TID table were regions, 10.9 MB once the heap is dirty). The cost
/// is what became resident plus the heap handed out, which is resident
/// the moment it is cut from heap an earlier owner left dirty: each
/// table's two 128 KiB page directories were heap blocks, + 2 MiB here.
fn open_costs_what_it_touches() {
    let dir = TestDir::new("resident-open");
    let (before, heap) = (rss(), heap_held());
    let db = open(&dir);
    for i in 0..8 {
        db.create_table(&format!("t{i}"));
    }
    let (resident, held) = (rss() - before, heap_held() - heap);
    println!(
        "residency guard: open and eight tables cost {} KiB resident + {} KiB of heap",
        resident / 1024,
        held / 1024
    );
    let cost = resident + held;
    assert!(cost <= MIB + MIB / 2, "opening a shard and 8 tables cost {cost} bytes");
    drop(db);
}

/// (b) The case that sets the ledger's `rss_peak_mb`: the second engine
/// of a process. The first one's rows, once freed, leave the heap dirty
/// and glibc's mmap threshold raised, so tables built with `vec!` were
/// cut from it and were resident whole (24.9 → 33.4 MB).
fn a_second_engine_costs_what_the_first_did() {
    let (one, two) = (TestDir::new("resident-first"), TestDir::new("resident-second"));
    let db = open(&one);
    load(&db);
    let first = rss();
    drop(db);
    let db = open(&two);
    load(&db);
    let second = rss();
    println!(
        "residency guard: loaded {:.1} MiB resident, second engine {:+} KiB",
        first as f64 / MIB as f64,
        (second - first) / 1024
    );
    assert!(second <= first + MIB + MIB / 2, "first load {first}, second load {second} bytes");
    drop(db);
}

/// (c) Two laps of a 64 MiB ring: the drained bytes go back to the
/// operating system a release chunk (256 KiB) at a time, so at most a
/// chunk stays behind, plus 1 MiB of slack. Nothing lies beside the ring
/// (availability stamps did, once; kept resident they added 8 MiB).
fn a_wrapped_ring_stays_released() {
    // The ring's `RELEASE_CHUNK` (`crates/log/src/buffer.rs`).
    const RELEASE_CHUNK: i64 = 256 << 10;
    let dir = TestDir::new("resident-ring");
    let log = LogManager::open(LogConfig { dir: Some(dir.to_path_buf()), ..LogConfig::default() })
        .expect("log opens");
    let value = [0x5Au8; 8000];
    let mut block = Vec::new();
    let mut push = |upto: u64| {
        while log.next_offset() < upto {
            let len = BLOCK_HEADER_LEN + RECORD_HEADER_LEN + 3 + value.len();
            let res = log.allocate(len).expect("allocate");
            block.resize(res.len(), 0);
            let mut enc = BlockEncoder::block(&mut block, &mut []);
            enc.record(LogRecordKind::Update, TableId(1), Oid(1), b"key", &value);
            enc.finish(BlockKind::Txn, res.lsn());
            res.fill(&block);
        }
        log.sync().expect("sync");
    };
    // Scratch, segment file, the first chunk in flight.
    push(4 * MIB as u64);
    let before = rss();
    push(2 * log.ring_capacity());
    let grew = rss() - before;
    println!("residency guard: two laps of the ring leave {:+} KiB resident", grew / 1024);
    assert!(grew <= RELEASE_CHUNK + MIB, "the ring kept {grew} bytes after two laps");
}

/// (d) What the allocator holds per loaded row — a 104-byte request in a
/// 112-byte chunk, plus the row's share of its leaf (164 with the
/// 48-byte header, whose 112-byte request took a 128-byte chunk).
fn a_row_holds_148_heap_bytes() {
    #[cfg(target_env = "gnu")]
    {
        let dir = TestDir::new("resident-row");
        let db = open(&dir);
        let before = heap_in_use();
        load(&db);
        let per_row = (heap_in_use() - before) as f64 / ROWS as f64;
        println!("residency guard: {per_row:.1} heap bytes in use per loaded row");
        assert!(per_row <= 148.0, "{per_row:.1} heap bytes per loaded row");
    }
}

/// (e) Parked prepares leave the TID tables as they were: on two shards,
/// after a warm-up that laps both rings (in-memory ones, never released),
/// 20 000 cross-shard commits in windows of sixteen, each window
/// committed deferred before any is polled. A worker's claims stay in its
/// home stretch, so nothing grows; a cursor that walked on past its
/// parked contexts touched one 40-byte context per commit and shard.
///
/// Both readings are [settled](settled_rss), with each shard's version
/// pool full. Taken on the fly they swung from +0 to +424 KiB (+828 on a
/// loaded host) with what was in flight to the collectors at that instant
/// — superseded versions awaiting a pass or an epoch, a boxed destructor
/// each, bags of them in blocks of up to 128 KiB that glibc maps one by
/// one — with where glibc's heap top stood, and with how far a backlog
/// had filled the pools (up to 4096 versions a shard kept for reuse).
fn parked_prepares_leave_the_tid_table_as_it_was() {
    const WINDOW: usize = 16;
    let db = ShardedDb::open(DbConfig::in_memory(), 2).expect("open");
    let t = db.create_table("kv");
    let key_on = |shard: usize, i: usize| {
        (0u32..)
            .map(|j| format!("pair-{i}-{j}").into_bytes())
            .find(|k| ermia::shard_of_key(k, 2) == shard)
            .expect("keys hash to both shards")
    };
    let pairs: Vec<[Vec<u8>; 2]> = (0..WINDOW).map(|i| [key_on(0, i), key_on(1, i)]).collect();
    let mut w = db.register_worker();
    let lapped = |db: &ShardedDb| {
        (0..2).all(|s| db.shard(s).log().next_offset() > db.shard(s).log().ring_capacity())
    };
    while !lapped(&db) {
        commit_window(&mut w, t, &pairs);
    }
    // Twice the version pools' capacity of commits under a snapshot that
    // holds the collectors' horizon: once it ends, each pool fills to its
    // cap, and the hand-off buffers have grown past any later backlog.
    {
        let mut reader = db.register_worker();
        let mut snapshot = reader.begin(IsolationLevel::Snapshot);
        for key in &pairs[0] {
            snapshot.read(t, key, |_| ()).expect("read");
        }
        for _ in 0..2 * POOL_CAP / WINDOW {
            commit_window(&mut w, t, &pairs);
        }
        snapshot.commit().expect("a reader commits");
    }
    let (before, in_use, held) = (settled_rss(&db), heap_in_use(), heap_held());
    for _ in 0..20_000 / WINDOW {
        commit_window(&mut w, t, &pairs);
    }
    let grew = settled_rss(&db) - before;
    println!(
        "residency guard: 20 000 parked-prepare commits leave {:+} KiB resident (heap in use \
         {:+} KiB, held {:+} KiB)",
        grew / 1024,
        (heap_in_use() - in_use) / 1024,
        (heap_held() - held) / 1024
    );
    assert!(grew <= MIB / 4, "20 000 cross-shard commits made {grew} more bytes resident");
}

/// `VmRSS` once every shard's collector has drained into a full version
/// pool — nothing handed off, no destructor waiting for an epoch — and
/// glibc has handed back the free pages at its heap's top and inside it.
fn settled_rss(db: &ShardedDb) -> i64 {
    let drained = |s: usize| {
        let shard = db.shard(s);
        shard.gc_stats().retire_backlog.load(Relaxed) == 0
            && shard.epoch_stats().pending == 0
            && shard.version_pool_size() == POOL_CAP
    };
    let since = Instant::now();
    while !(0..db.shards()).all(drained) {
        assert!(since.elapsed() < Duration::from_secs(10), "the collectors never drained");
        std::thread::yield_now();
    }
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: no preconditions.
        unsafe { malloc_trim(0) };
    }
    rss()
}

/// One cross-shard commit per pair, all deferred, then each waited for.
fn commit_window(w: &mut ShardedWorker, t: TableId, pairs: &[[Vec<u8>; 2]]) {
    let mut parked = Vec::with_capacity(pairs.len());
    for pair in pairs {
        let mut tx = w.begin(IsolationLevel::Snapshot);
        for key in pair {
            if !tx.update(t, key, b"v").expect("update") {
                tx.insert(t, key, b"v").expect("insert");
            }
        }
        match tx.commit_deferred().expect("prepares") {
            DeferredCommit::Staged(staged) => parked.push(staged),
            DeferredCommit::Committed(_) => panic!("two writer shards must stage a 2PC"),
        }
    }
    for staged in parked {
        staged.wait(w).expect("commits");
    }
}

/// Bytes of heap chunks glibc has handed out and not got back, chunk
/// overhead included (`uordblks`; blocks it mapped one by one are not in
/// it, nor are the indirection arrays' 128 KiB pages, which are
/// `Region`s); 0 off glibc.
fn heap_in_use() -> i64 {
    #[cfg(target_env = "gnu")]
    return mallinfo().0;
    #[cfg(not(target_env = "gnu"))]
    0
}

/// [`heap_in_use`] plus the blocks glibc mapped one by one; 0 off glibc.
fn heap_held() -> i64 {
    #[cfg(target_env = "gnu")]
    let (arena, mapped) = mallinfo();
    #[cfg(not(target_env = "gnu"))]
    let (arena, mapped) = (0, 0);
    arena + mapped
}

/// glibc's `uordblks` and `hblkhd`.
#[cfg(target_env = "gnu")]
fn mallinfo() -> (i64, i64) {
    #[repr(C)]
    struct Mallinfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> Mallinfo2;
    }
    // SAFETY: no preconditions; the struct is glibc's `struct mallinfo2`.
    let info = unsafe { mallinfo2() };
    (info.uordblks as i64, info.hblkhd as i64)
}
