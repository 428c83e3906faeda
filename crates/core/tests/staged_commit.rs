//! The staged cross-shard commit: what a parked prepare holds and does
//! not hold, who waits for its verdict, and what each verdict leaves.

use std::os::unix::fs::FileExt;
use std::path::Path;
use std::time::{Duration, Instant};

use ermia::{
    shard_of_key, AbortReason, DbConfig, DeferredCommit, IsolationLevel, ShardedDb, ShardedWorker,
    StagedCommit, TableId,
};
use ermia_common::crc::crc32c;
use ermia_common::rng::{SplitMix64, GAMMA};
use ermia_common::TestDir;
use ermia_log::{
    BlockKind, DecideRecord, LogScanner, PrepareMarker, BLOCK_HEADER_LEN, DECIDE_RECORD_LEN,
    MIN_BLOCK_LEN,
};

/// The `i`-th key with this prefix that lives on `shard` of two.
fn key_on(shard: usize, prefix: &str, i: usize) -> Vec<u8> {
    (0u32..)
        .map(|j| format!("{prefix}-{j}").into_bytes())
        .filter(|k| shard_of_key(k, 2) == shard)
        .nth(i)
        .expect("keys hash to both shards")
}

fn gauge(db: &ShardedDb, name: &str) -> f64 {
    ermia_telemetry::parse_exposition(&db.telemetry().render_prometheus())
        .expect("exposition parses")
        .value(name)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

fn read(w: &mut ShardedWorker, t: TableId, key: &[u8]) -> Option<Vec<u8>> {
    let mut tx = w.begin(IsolationLevel::Snapshot);
    let v = tx.read(t, key, |v| v.to_vec()).unwrap();
    tx.commit().unwrap();
    v
}

fn put(w: &mut ShardedWorker, t: TableId, key: &[u8], value: &[u8]) {
    let mut tx = w.begin(IsolationLevel::Snapshot);
    if !tx.update(t, key, value).unwrap() {
        tx.insert(t, key, value).unwrap();
    }
    tx.commit().unwrap();
}

/// Write `value` under both keys and stop at the staged commit.
fn stage(
    w: &mut ShardedWorker,
    iso: IsolationLevel,
    t: TableId,
    keys: [&[u8]; 2],
    value: &[u8],
) -> Box<StagedCommit> {
    let mut tx = w.begin(iso);
    for key in keys {
        assert!(tx.update(t, key, value).unwrap(), "staged writers update loaded rows");
    }
    match tx.commit_deferred().unwrap() {
        DeferredCommit::Staged(staged) => staged,
        DeferredCommit::Committed(_) => panic!("two writer shards must stage a 2PC"),
    }
}

/// Poll until the commit verdict (the logs are healthy: it comes).
fn commit_now(staged: &mut StagedCommit, resolver: &mut ShardedWorker) -> ermia::CommitToken {
    loop {
        if let Some(verdict) = staged.poll(resolver) {
            return verdict.expect("healthy logs commit");
        }
        std::thread::yield_now();
    }
}

#[test]
fn a_parked_prepare_holds_a_slot_per_shard_and_nothing_else() {
    let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
    let t = db.create_table("kv");
    let (a, b) = (key_on(0, "k", 0), key_on(1, "k", 0));
    let mut w = db.register_worker();
    put(&mut w, t, &a, b"old");
    put(&mut w, t, &b, b"old");

    let mut staged = stage(&mut w, IsolationLevel::Snapshot, t, [&a, &b], b"new");
    assert_eq!(gauge(&db, "ermia_shard_in_doubt"), 1.0);
    assert_eq!(db.tid_slots_in_use(), 2, "the write locks: one TID slot per participant");
    let shards: Vec<usize> = staged.waits().map(|(shard, _)| shard).collect();
    assert_eq!(shards, [0, 1], "waits on both participants' logs at once");

    // The worker that ran it is free: it runs other transactions while
    // the commit is parked.
    let other = key_on(0, "other", 0);
    put(&mut w, t, &other, b"x");
    assert_eq!(read(&mut w, t, &other).as_deref(), Some(&b"x"[..]));

    // No epoch pin: every shard's epoch keeps advancing under it.
    for shard in 0..2 {
        let e0 = db.shard(shard).epoch_stats().epoch;
        let deadline = Instant::now() + Duration::from_secs(5);
        while db.shard(shard).epoch_stats().epoch < e0 + 3 {
            assert!(Instant::now() < deadline, "shard {shard}: a parked prepare pinned the epoch");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // The verdict lands on whichever worker delivers it.
    let mut resolver = db.register_worker();
    let token = commit_now(&mut staged, &mut resolver);
    assert_eq!(token.shard(), 0, "the lowest writer shard coordinates");
    drop(staged);
    assert_eq!(gauge(&db, "ermia_shard_in_doubt"), 0.0);
    assert_eq!(gauge(&db, "ermia_shard_cross_txns_total"), 1.0);
    assert_eq!(db.tid_slots_in_use(), 0);
    assert_eq!(read(&mut w, t, &a).as_deref(), Some(&b"new"[..]));
    assert_eq!(read(&mut w, t, &b).as_deref(), Some(&b"new"[..]));
}

#[test]
fn dropping_a_staged_commit_aborts_it() {
    let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
    let t = db.create_table("kv");
    let (a, b) = (key_on(0, "k", 0), key_on(1, "k", 0));
    let mut w = db.register_worker();
    put(&mut w, t, &a, b"old");
    put(&mut w, t, &b, b"old");
    drop(stage(&mut w, IsolationLevel::Snapshot, t, [&a, &b], b"new"));
    assert_eq!(gauge(&db, "ermia_shard_in_doubt"), 0.0);
    assert_eq!(db.tid_slots_in_use(), 0);
    assert_eq!(read(&mut w, t, &a).as_deref(), Some(&b"old"[..]));
    assert_eq!(read(&mut w, t, &b).as_deref(), Some(&b"old"[..]));
    // The heads are unlocked again.
    put(&mut w, t, &a, b"next");
}

/// A transaction that begins after a prepare, and meets its head, waits
/// for the verdict instead of aborting: committed, it overwrites the new
/// version; aborted, the one beneath.
#[test]
fn later_writers_and_readers_wait_for_a_prepared_owners_verdict() {
    for commit in [true, false] {
        let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
        let t = db.create_table("kv");
        let (a, b) = (key_on(0, "k", 0), key_on(1, "k", 0));
        let mut w = db.register_worker();
        put(&mut w, t, &a, b"old");
        put(&mut w, t, &b, b"old");
        let mut staged = stage(&mut w, IsolationLevel::Snapshot, t, [&a, &b], b"staged");

        let (began_tx, began_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let later = s.spawn(|| {
                let mut w = db.register_worker();
                let mut tx = w.begin(IsolationLevel::Snapshot);
                // First touch of shard 0 takes the snapshot there: after
                // the prepare, before the verdict.
                assert!(tx.read(t, &key_on(0, "unrelated", 0), |_| ()).unwrap().is_none());
                began_tx.send(()).unwrap();
                let seen = tx.read(t, &a, |v| v.to_vec()).unwrap();
                assert!(tx.update(t, &a, b"later").expect("must wait, not conflict"));
                tx.commit().unwrap();
                seen
            });
            began_rx.recv().unwrap();
            // Not needed for the outcome, which is the same whether the
            // later transaction arrives before the verdict or after; it
            // only makes "before" (the waiting path) the usual case.
            std::thread::sleep(Duration::from_millis(10));
            if commit {
                commit_now(&mut staged, &mut w);
            } else {
                staged.abort(&mut w);
            }
            let seen = later.join().unwrap();
            let want: &[u8] = if commit { b"staged" } else { b"old" };
            assert_eq!(seen.as_deref(), Some(want), "the reader saw the verdict's side");
        });
        assert_eq!(read(&mut w, t, &a).as_deref(), Some(&b"later"[..]));
        let want: &[u8] = if commit { b"staged" } else { b"old" };
        assert_eq!(read(&mut w, t, &b).as_deref(), Some(want));
        drop(staged);
        assert_eq!(db.tid_slots_in_use(), 0);
    }
}

/// Small segments: these directories are copied, some of them often.
fn small_log(dir: &Path) -> DbConfig {
    let mut cfg = DbConfig::durable(dir);
    cfg.log.segment_size = 64 << 10;
    cfg.log.buffer_size = 16 << 10;
    cfg
}

/// One 2PC-relevant block of a shard's on-disk log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Block {
    /// A single-shard commit, by its stamp.
    Txn {
        cstamp: u64,
    },
    Prepare {
        gtid: u64,
    },
    Verdict {
        gtid: u64,
        commit: bool,
    },
}

/// The blocks of `db`'s on-disk log for `shard`, each with its exclusive
/// end offset (a crash can cut the log exactly there).
fn blocks(db: &ShardedDb, shard: usize) -> Vec<(u64, Block)> {
    let mut scanner = LogScanner::new(db.shard(shard).log().segments(), 0);
    let mut out = Vec::new();
    while let Some(b) = scanner.next_block().unwrap() {
        let cstamp = b.header.cstamp.raw();
        let block = match b.header.kind {
            BlockKind::Txn => Block::Txn { cstamp },
            BlockKind::TxnPrepare => {
                let coord_lsn = b.prepare_marker().unwrap().coord_lsn;
                Block::Prepare {
                    gtid: if coord_lsn == PrepareMarker::COORD_SELF { cstamp } else { coord_lsn },
                }
            }
            BlockKind::TxnDecide => {
                let d = DecideRecord::decode(&b.payload).unwrap();
                Block::Verdict { gtid: d.gtid_lsn, commit: d.commit }
            }
            _ => continue,
        };
        out.push((scanner.offset(), block));
    }
    out
}

fn sync_logs(db: &ShardedDb) {
    for shard in 0..db.shards() {
        db.shard(shard).log().sync().unwrap();
    }
}

/// Invariants 1 and 2: with one prepare not durable nothing is published
/// and no verdict exists; the commit verdict is appended only after the
/// publish, behind the prepares, on every participant's log; and an abort
/// puts its verdict in the log before it releases anything.
#[test]
fn verdict_records_follow_the_outcome_and_nothing_precedes_durable_prepares() {
    let dir = TestDir::new("order");
    let (a, b) = (key_on(0, "k", 0), key_on(1, "k", 0));
    let db = ShardedDb::open(small_log(&dir), 2).unwrap();
    let t = db.create_table("kv");
    let mut w = db.register_worker();
    put(&mut w, t, &a, b"old");
    put(&mut w, t, &b, b"old");
    let verdicts = |shard| -> Vec<Block> {
        let all = blocks(&db, shard).into_iter().map(|(_, b)| b);
        all.filter(|b| matches!(b, Block::Verdict { .. })).collect()
    };

    // Commit: published before any verdict record exists.
    let mut staged = stage(&mut w, IsolationLevel::Snapshot, t, [&a, &b], b"new");
    let gtid = commit_now(&mut staged, &mut w).lsn().raw();
    assert_eq!(read(&mut w, t, &b).as_deref(), Some(&b"new"[..]));
    sync_logs(&db);
    for shard in 0..2 {
        assert!(blocks(&db, shard).iter().any(|(_, b)| *b == Block::Prepare { gtid }));
        assert_eq!(verdicts(shard), [], "shard {shard}: a verdict record before write_verdict");
    }
    staged.write_verdict(&mut w);
    drop(staged);
    sync_logs(&db);
    for shard in 0..2 {
        assert_eq!(verdicts(shard), [Block::Verdict { gtid, commit: true }], "shard {shard}");
    }

    // Shard 1's prepare cannot turn durable: polling publishes nothing
    // and writes no verdict.
    db.shard(1).log().halt_flusher_for_test();
    let mut staged = stage(&mut w, IsolationLevel::Snapshot, t, [&a, &b], b"newer");
    let end0 = staged.waits().next().unwrap().1;
    db.shard(0).log().wait_durable(end0).unwrap();
    for _ in 0..100 {
        assert!(staged.poll(&mut w).is_none(), "committed with a prepare still volatile");
    }
    assert!(matches!(staged.waits().collect::<Vec<_>>()[..], [(1, _)]));
    assert_eq!(db.tid_slots_in_use(), 2, "both halves still locked and unpublished");
    db.shard(0).log().sync().unwrap();
    assert_eq!(verdicts(0).len(), 1, "no verdict for a commit that has not happened");

    // Abort: the verdict is in the log, behind the prepare, and the
    // halves are rolled back.
    staged.abort(&mut w);
    drop(staged);
    assert_eq!(db.tid_slots_in_use(), 0);
    assert_eq!(read(&mut w, t, &a).as_deref(), Some(&b"new"[..]));
    db.shard(0).log().sync().unwrap();
    let log0: Vec<Block> = blocks(&db, 0).into_iter().map(|(_, b)| b).collect();
    match log0[log0.len() - 2..] {
        [Block::Prepare { gtid: p }, Block::Verdict { gtid: v, commit: false }] => assert_eq!(p, v),
        ref tail => panic!("shard 0's log must end prepare, abort verdict: {tail:?}"),
    }
}

/// An abort after every prepare is durable would be overruled by the
/// all-prepared rule at recovery — but its abort verdict is in the logs
/// behind the prepares. One surviving copy is enough: here shard 1's is
/// lost with its log's tail.
#[test]
fn an_abort_after_durable_prepares_stays_aborted_across_a_crash() {
    let dir = TestDir::new("abort");
    let (a, b) = (key_on(0, "k", 0), key_on(1, "k", 0));
    let db = ShardedDb::open(small_log(&dir), 2).unwrap();
    let t = db.create_table("kv");
    let mut w = db.register_worker();
    put(&mut w, t, &a, b"old");
    put(&mut w, t, &b, b"old");
    let mut staged = stage(&mut w, IsolationLevel::Snapshot, t, [&a, &b], b"new");
    for (shard, end) in staged.waits() {
        db.shard(shard).log().wait_durable(end).unwrap();
    }
    // Both prepares durable: from here a crash commits, unless an abort
    // verdict is durable somewhere. Shard 1's will not be.
    db.shard(1).log().halt_flusher_for_test();
    staged.abort(&mut w);
    drop(staged);
    assert_eq!(read(&mut w, t, &a).as_deref(), Some(&b"old"[..]));
    assert_eq!(read(&mut w, t, &b).as_deref(), Some(&b"old"[..]));
    assert_eq!(db.tid_slots_in_use(), 0);
    db.shard(0).log().sync().unwrap();

    let crashed = TestDir::new("abort-crashed");
    copy_dir(&dir, &crashed);
    let recovered = ShardedDb::open(small_log(&crashed), 2).unwrap();
    let t = recovered.create_table("kv");
    let stats = recovered.recover().unwrap();
    // Shard 0 resolved its prepare from its own copy; shard 1 asked.
    assert_eq!((stats.resolved_commits, stats.resolved_aborts, stats.resolved_implicit), (0, 1, 0));
    let mut w = recovered.register_worker();
    assert_eq!(read(&mut w, t, &a).as_deref(), Some(&b"old"[..]));
    assert_eq!(read(&mut w, t, &b).as_deref(), Some(&b"old"[..]));
    // Shard 0's verdict came back as the block encoder wrote it: its
    // checksum covers the payload, and its `prev` names its own offset.
    let mut scanner = LogScanner::new(recovered.shard(0).log().segments(), 0);
    let mut verdicts = 0;
    while let Some(v) = scanner.next_view().unwrap() {
        if v.header.kind == BlockKind::TxnDecide {
            assert_eq!(crc32c(v.payload), v.header.checksum);
            assert_eq!((v.header.nrec, v.header.prev), (0, v.lsn.offset() | 1));
            assert!(!DecideRecord::decode(v.payload).unwrap().commit);
            verdicts += 1;
        }
    }
    assert_eq!(verdicts, 1);
}

/// A blocking cross-shard commit whose log stops flushing gives up after
/// the logs' one patience, with `LogFailure`, and leaves an abort verdict
/// behind the prepare on both participants' logs: shard 0's on disk,
/// shard 1's in the ring its halted flusher no longer drains, where one
/// verdict block is all that follows the prepare.
#[test]
fn a_blocking_commit_on_a_log_that_stops_flushing_aborts_after_the_patience() {
    let patience = Duration::from_millis(200);
    let dir = TestDir::new("stalled");
    let (a, b) = (key_on(0, "k", 0), key_on(1, "k", 0));
    let mut cfg = small_log(&dir);
    cfg.log.wait_durable_timeout = patience;
    let db = ShardedDb::open(cfg, 2).unwrap();
    let t = db.create_table("kv");
    let mut w = db.register_worker();
    put(&mut w, t, &a, b"old");
    put(&mut w, t, &b, b"old");
    // The length of shard 1's prepare block for this shape of write, from
    // a twin that commits while both logs flush.
    let before = db.shard(1).log().next_offset();
    let mut twin = stage(&mut w, IsolationLevel::Snapshot, t, [&a, &b], b"new");
    let prepare_len = twin.waits().find(|&(shard, _)| shard == 1).unwrap().1 - before;
    commit_now(&mut twin, &mut w);
    twin.write_verdict(&mut w);
    drop(twin);
    sync_logs(&db);

    db.shard(1).log().halt_flusher_for_test();
    let tip1 = db.shard(1).log().next_offset();
    let start = Instant::now();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    for key in [&a, &b] {
        assert!(tx.update(t, key, b"bad").unwrap());
    }
    assert!(matches!(tx.commit(), Err(AbortReason::LogFailure)));
    assert!(start.elapsed() >= patience, "gave up after {:?}", start.elapsed());
    assert_eq!(db.tid_slots_in_use(), 0, "both halves rolled back");
    assert_eq!(gauge(&db, "ermia_shard_in_doubt"), 0.0);
    assert_eq!(read(&mut w, t, &a).as_deref(), Some(&b"new"[..]));
    assert_eq!(read(&mut w, t, &b).as_deref(), Some(&b"new"[..]));

    db.shard(0).log().sync().unwrap();
    let log0 = blocks(&db, 0);
    match log0[log0.len() - 2..] {
        [(_, Block::Prepare { gtid: p }), (end, Block::Verdict { gtid: v, commit: false })] => {
            assert_eq!(p, v);
            assert_eq!(end, db.shard(0).log().next_offset(), "the verdict ends shard 0's log");
        }
        ref tail => panic!("shard 0's log must end prepare, abort verdict: {tail:?}"),
    }
    let verdict_len = (BLOCK_HEADER_LEN + DECIDE_RECORD_LEN).div_ceil(MIN_BLOCK_LEN) as u64
        * MIN_BLOCK_LEN as u64;
    assert_eq!(db.shard(1).log().next_offset(), tip1 + prepare_len + verdict_len);
}

/// A step of the prefix-pair history, with the log offsets that decide
/// whether a crash keeps it.
enum Step {
    /// A cross-shard write of `value` to both keys of `pair`, committed or
    /// aborted: the end offsets of its prepare blocks and, filled in from
    /// the logs, of its verdict records.
    Cross { pair: usize, value: Vec<u8>, commit: bool, prepares: [u64; 2], verdicts: [u64; 2] },
    /// A single-shard overwrite of the pair's shard-0 key.
    Single { pair: usize, value: Vec<u8>, end: u64 },
}

/// Invariant 3, exhaustively for a short history: cut shard 0's log at
/// every block boundary and shard 1's at every block boundary, recover
/// each pair of prefixes, and compare every row with the rule — a
/// cross-shard write is there iff both its prepares are inside the cuts
/// and no abort verdict for it is; a single-shard one iff its block is.
/// A commit verdict inside a cut whose sibling prepare is outside the
/// other is the one combination skipped: verdicts are appended only after
/// every prepare is durable (the test above), so no crash leaves it.
#[test]
fn every_pair_of_log_prefixes_recovers_atomically() {
    const PAIRS: usize = 3;
    let dir = TestDir::new("prefix");
    let db = ShardedDb::open(small_log(&dir), 2).unwrap();
    let t = db.create_table("kv");
    let mut w = db.register_worker();
    let keys: Vec<[Vec<u8>; 2]> =
        (0..PAIRS).map(|p| [key_on(0, "pair", p), key_on(1, "pair", p)]).collect();
    for pair in &keys {
        put(&mut w, t, &pair[0], b"v0");
        put(&mut w, t, &pair[1], b"v0");
    }
    sync_logs(&db);
    let loaded = [0, 1].map(|shard| blocks(&db, shard).last().unwrap().0);

    // Seeded history: commits, aborts and single-shard overwrites.
    let mut rng = SplitMix64::new(GAMMA);
    let mut steps = Vec::new();
    let mut owing = Vec::new();
    for i in 0..9u32 {
        let pair = rng.below(PAIRS as u64) as usize;
        let value = format!("v{}", i + 1).into_bytes();
        match rng.below(4) {
            0 => {
                let mut tx = w.begin(IsolationLevel::Snapshot);
                assert!(tx.update(t, &keys[pair][0], &value).unwrap());
                let cstamp = tx.commit().unwrap().raw();
                sync_logs(&db);
                let end =
                    blocks(&db, 0).iter().find(|(_, b)| *b == Block::Txn { cstamp }).unwrap().0;
                steps.push(Step::Single { pair, value, end });
            }
            kind => {
                let commit = kind != 1;
                let [a, b] = &keys[pair];
                let mut staged = stage(&mut w, IsolationLevel::Snapshot, t, [a, b], &value);
                let prepares: Vec<u64> = staged.waits().map(|(_, end)| end).collect();
                let prepares: [u64; 2] = prepares.try_into().unwrap();
                if !commit {
                    staged.abort(&mut w);
                } else {
                    commit_now(&mut staged, &mut w);
                    // The verdict record is owed, not due: some are paid
                    // only when the history ends.
                    if rng.below(2) == 0 {
                        staged.write_verdict(&mut w);
                    } else {
                        owing.push(staged);
                    }
                }
                steps.push(Step::Cross { pair, value, commit, prepares, verdicts: [0; 2] });
            }
        }
    }
    for mut staged in owing {
        staged.write_verdict(&mut w);
    }
    sync_logs(&db);
    let logs = [blocks(&db, 0), blocks(&db, 1)];
    drop(w);
    drop(db);

    // Find every cross step's verdict records, and check invariant 2 on
    // the way: one polarity per gtid, behind the prepare, in both logs.
    for step in &mut steps {
        let Step::Cross { commit, prepares, verdicts, .. } = step else { continue };
        for shard in 0..2 {
            let log = &logs[shard];
            let Some(&(_, Block::Prepare { gtid })) =
                log.iter().find(|(end, _)| *end == prepares[shard])
            else {
                panic!("no prepare block ends at {}", prepares[shard]);
            };
            let mut of_gtid = log
                .iter()
                .filter(|(_, b)| matches!(b, Block::Verdict { gtid: g, .. } if *g == gtid));
            let &(end, block) = of_gtid.next().expect("every participant's log gets the verdict");
            assert_eq!(block, Block::Verdict { gtid, commit: *commit });
            assert!(of_gtid.next().is_none(), "one verdict record per log");
            assert!(end > prepares[shard], "the verdict lies behind the prepare");
            verdicts[shard] = end;
        }
    }
    assert!(
        steps.iter().any(|s| matches!(s, Step::Cross { commit: false, .. })),
        "seed has no abort"
    );
    assert!(
        steps.iter().any(|s| matches!(s, Step::Single { .. })),
        "seed has no single-shard step"
    );

    let cuts = [0, 1].map(|shard| {
        let ends = logs[shard].iter().map(|(end, _)| *end);
        ends.filter(|&end| end >= loaded[shard]).collect::<Vec<u64>>()
    });
    let (mut recovered, mut skipped) = (0, 0);
    for &cut0 in &cuts[0] {
        for &cut1 in &cuts[1] {
            let cut = [cut0, cut1];
            let unreachable = steps.iter().any(|s| match s {
                Step::Cross { commit: true, prepares, verdicts, .. } => {
                    (0..2).any(|s| verdicts[s] <= cut[s]) && (0..2).any(|s| prepares[s] > cut[s])
                }
                _ => false,
            });
            if unreachable {
                skipped += 1;
                continue;
            }
            // The rule, step by step.
            let mut want: Vec<[Vec<u8>; 2]> = vec![[b"v0".to_vec(), b"v0".to_vec()]; PAIRS];
            for step in &steps {
                match step {
                    Step::Cross { pair, value, prepares, verdicts, commit } => {
                        let prepared = (0..2).all(|s| prepares[s] <= cut[s]);
                        let abort_seen = !commit && (0..2).any(|s| verdicts[s] <= cut[s]);
                        if prepared && !abort_seen {
                            want[*pair] = [value.clone(), value.clone()];
                        }
                    }
                    Step::Single { pair, value, end } if *end <= cut[0] => {
                        want[*pair][0] = value.clone();
                    }
                    Step::Single { .. } => {}
                }
            }
            let scratch = TestDir::new("prefix-cut");
            copy_dir(&dir, &scratch);
            for (shard, &at) in cut.iter().enumerate() {
                cut_log(&scratch.join(format!("shard-{shard}")), at);
            }
            let db = ShardedDb::open(small_log(&scratch), 2).unwrap();
            let t = db.create_table("kv");
            db.recover().unwrap();
            let mut w = db.register_worker();
            for (pair, want) in keys.iter().zip(&want) {
                for side in 0..2 {
                    let got = read(&mut w, t, &pair[side]);
                    assert_eq!(
                        got.as_deref().map(String::from_utf8_lossy),
                        Some(String::from_utf8_lossy(&want[side])),
                        "cuts {cut:?}: key {}",
                        String::from_utf8_lossy(&pair[side])
                    );
                }
            }
            recovered += 1;
        }
    }
    assert!(
        recovered > 100 && skipped > 0,
        "{recovered} prefix pairs recovered, {skipped} skipped"
    );
}

/// What a power cut at logical offset `cut` leaves of the one-segment
/// log in `dir`: zeroes from there on.
fn cut_log(dir: &Path, cut: u64) {
    let segment = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("log-"))
        .expect("a segment file");
    let len = std::fs::metadata(&segment).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&segment).unwrap();
    file.write_all_at(&vec![0u8; (len - cut) as usize], cut).unwrap();
}

/// Copy a live engine's directory, leaving its pid lock behind.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dest);
        } else if entry.path().extension().is_none_or(|e| e != "lock") {
            std::fs::copy(entry.path(), dest).unwrap();
        }
    }
}
