//! What the log's test suites share: appending a block the way a test
//! builds one — a `BlockEncoder` over a `Vec` — rather than as a commit
//! does (encoded in place in the ring).

use ermia_common::{Lsn, Oid, TableId};
use ermia_log::{
    BlockEncoder, BlockKind, LogManager, LogRecordKind, BLOCK_HEADER_LEN, RECORD_HEADER_LEN,
};

/// Append one Txn block to `log`: one update of `oid` in table 1, built
/// over a `Vec` and copied in with `Reservation::fill`. Returns the
/// block's LSN and end offset.
pub fn append(log: &LogManager, oid: u64, key: &[u8], value: &[u8]) -> std::io::Result<(Lsn, u64)> {
    let res = log.allocate(BLOCK_HEADER_LEN + RECORD_HEADER_LEN + key.len() + value.len())?;
    let mut block = vec![0; res.len()];
    let mut enc = BlockEncoder::block(&mut block, &mut []);
    enc.record(LogRecordKind::Update, TableId(1), Oid(oid as u32), key, value);
    enc.finish(BlockKind::Txn, res.lsn());
    let placed = (res.lsn(), res.end_offset());
    res.fill(&block);
    Ok(placed)
}
