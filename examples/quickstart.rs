//! Quickstart: open an ERMIA database, run a few transactions, observe
//! snapshot isolation and serializability in action.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ermia::{DbConfig, IsolationLevel, ShardedDb};

fn main() {
    // An in-memory database on one engine shard: the log lives in RAM,
    // the engine is fully functional (MVCC, SSN, GC, epochs).
    let db = ShardedDb::open(DbConfig::in_memory(), 1).expect("open database");
    let inventory = db.create_table("inventory");
    let pk = db.primary_index(inventory);

    let mut worker = db.register_worker();

    // --- Insert some records -------------------------------------------
    let mut tx = worker.begin(IsolationLevel::Serializable);
    for (sku, qty) in [("apples", 120u64), ("bananas", 75), ("cherries", 12)] {
        tx.insert(inventory, sku.as_bytes(), &qty.to_le_bytes()).unwrap();
    }
    let commit_lsn = tx.commit().expect("commit");
    println!("loaded 3 records, commit LSN {commit_lsn}");

    // --- Point reads and updates ----------------------------------------
    let mut tx = worker.begin(IsolationLevel::Serializable);
    let apples = tx
        .read(inventory, b"apples", |v| u64::from_le_bytes(v.try_into().unwrap()))
        .unwrap()
        .expect("apples exist");
    println!("apples in stock: {apples}");
    tx.update(inventory, b"apples", &(apples - 20).to_le_bytes()).unwrap();
    tx.commit().unwrap();

    // --- Range scan -----------------------------------------------------
    let mut tx = worker.begin(IsolationLevel::Snapshot);
    println!("inventory scan:");
    tx.scan(pk, b"a", b"z", None, |k, v| {
        let qty = u64::from_le_bytes(v.try_into().unwrap());
        println!("  {:10} {qty}", String::from_utf8_lossy(k));
        true
    })
    .unwrap();
    tx.commit().unwrap();

    // --- Snapshots in action ---------------------------------------------
    // A reader that begins before a writer commits keeps its snapshot.
    let mut reader_worker = db.register_worker();
    let mut reader = reader_worker.begin(IsolationLevel::Snapshot);
    let before = reader
        .read(inventory, b"bananas", |v| u64::from_le_bytes(v.try_into().unwrap()))
        .unwrap()
        .unwrap();

    let mut writer = worker.begin(IsolationLevel::Snapshot);
    writer.update(inventory, b"bananas", &0u64.to_le_bytes()).unwrap();
    writer.commit().unwrap();

    let after = reader
        .read(inventory, b"bananas", |v| u64::from_le_bytes(v.try_into().unwrap()))
        .unwrap()
        .unwrap();
    assert_eq!(before, after, "snapshot must be stable");
    println!("reader kept its snapshot: bananas = {after} (writer set 0 after we began)");
    reader.commit().unwrap();

    let (commits, aborts) = db.txn_counts();
    println!("done: {commits} commits, {aborts} aborts");
}
