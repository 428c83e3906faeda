//! Key → shard: table policies, secondary-index routes and the immutable
//! snapshot of both that every transaction routes by.

use ermia_common::{IndexId, TableId};

use std::sync::atomic::Ordering::Acquire;

use crate::database::Database;

/// Deterministic key → shard map: FNV-1a over the routed key bytes,
/// reduced mod `shards`. Exported so workload generators can partition
/// keys (e.g. pick a key pair that is guaranteed cross-shard).
pub fn shard_of_key(key: &[u8], shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// How a table's rows are distributed across shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Hash the primary key to pick the owning shard. With
    /// `prefix: Some(p)` only the first `p` key bytes are hashed, so
    /// co-prefixed rows (e.g. everything in one TPC-C warehouse)
    /// colocate and prefix range scans stay single-shard.
    Hash { prefix: Option<usize> },
    /// Full copy on every shard: writes fan out to all shards inside
    /// the same transaction, reads are served by shard 0. For small
    /// read-mostly dimension tables (TPC-C `item`). Replicated tables
    /// cannot carry secondary indexes.
    Replicated,
}

impl Default for ShardPolicy {
    fn default() -> ShardPolicy {
        ShardPolicy::Hash { prefix: None }
    }
}

impl ShardPolicy {
    /// Compact `(tag, arg)` form, as the table's catalog entry carries it
    /// in the log: a recovered database — and a replica — must route
    /// exactly like the database that placed the keys.
    pub fn to_wire(self) -> (u8, u64) {
        match self {
            ShardPolicy::Hash { prefix: None } => (0, 0),
            ShardPolicy::Hash { prefix: Some(p) } => (1, p as u64),
            ShardPolicy::Replicated => (2, 0),
        }
    }

    /// Inverse of [`ShardPolicy::to_wire`]; unknown tags fall back to
    /// the default policy.
    pub fn from_wire(tag: u8, arg: u64) -> ShardPolicy {
        match tag {
            1 => ShardPolicy::Hash { prefix: Some(arg as usize) },
            2 => ShardPolicy::Replicated,
            _ => ShardPolicy::default(),
        }
    }
}

/// How a *secondary* index key routes to the owning shard. (Primary
/// indexes always route by the table's [`ShardPolicy`].)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexRouting {
    /// The secondary key embeds the owning row's shard key in its first
    /// `len` bytes (TPC-C customer-by-name starts with `w_id, d_id`).
    OwnerPrefix(usize),
    /// No shard information in the key: lookups probe every shard.
    Probe,
}

impl IndexRouting {
    /// Compact `(tag, arg)` form for the index's catalog entry (see
    /// [`ShardPolicy::to_wire`]).
    pub fn to_wire(self) -> (u8, u64) {
        match self {
            IndexRouting::Probe => (0, 0),
            IndexRouting::OwnerPrefix(len) => (1, len as u64),
        }
    }

    /// Inverse of [`IndexRouting::to_wire`]; unknown tags fall back to
    /// the always-correct `Probe`.
    pub fn from_wire(tag: u8, arg: u64) -> IndexRouting {
        match tag {
            1 => IndexRouting::OwnerPrefix(arg as usize),
            _ => IndexRouting::Probe,
        }
    }
}

#[derive(Clone, Copy)]
pub(super) enum IndexRoute {
    /// Primary index of a table: route by the table's policy.
    Primary(TableId),
    /// Secondary index with its own routing rule.
    Secondary(IndexRouting),
}

/// Immutable routing snapshot: per-table policies and per-index routes,
/// indexed by the dense ids (identical on every shard) — a function of
/// shard 0's catalog, whose entries carry them. Workers cache an `Arc`
/// and compare its `version` with the catalog's once per transaction.
pub(super) struct Routing {
    /// Shard 0's `catalog_version` when the snapshot was taken.
    pub(super) version: u64,
    pub(super) tables: Vec<ShardPolicy>,
    pub(super) indexes: Vec<IndexRoute>,
}

impl Routing {
    pub(super) fn from_catalog(db: &Database) -> Routing {
        let cat = db.inner.catalog.read().unwrap();
        let version = db.inner.catalog_version.load(Acquire);
        let mut tables = vec![ShardPolicy::default(); cat.tables.len()];
        let indexes = cat
            .entries
            .iter()
            .map(|e| match e.secondary {
                None => {
                    tables[e.table.0 as usize] = ShardPolicy::from_wire(e.route.0, e.route.1);
                    IndexRoute::Primary(e.table)
                }
                Some(_) => IndexRoute::Secondary(IndexRouting::from_wire(e.route.0, e.route.1)),
            })
            .collect();
        Routing { version, tables, indexes }
    }

    pub(super) fn table_policy(&self, table: TableId) -> ShardPolicy {
        self.tables.get(table.0 as usize).copied().unwrap_or_default()
    }

    pub(super) fn index_route(&self, index: IndexId) -> Option<IndexRoute> {
        self.indexes.get(index.0 as usize).copied()
    }

    /// Owning shard for a primary-key operation; `None` = replicated.
    pub(super) fn home_shard(&self, table: TableId, key: &[u8], shards: usize) -> Option<usize> {
        if shards == 1 {
            return Some(0);
        }
        match self.table_policy(table) {
            ShardPolicy::Hash { prefix } => {
                let routed = match prefix {
                    Some(p) if key.len() > p => &key[..p],
                    _ => key,
                };
                Some(shard_of_key(routed, shards))
            }
            ShardPolicy::Replicated => None,
        }
    }

    /// Which single shard serves a `[low, high]` scan, if any. Sound
    /// because byte-wise order means every key in the range shares any
    /// prefix `low` and `high` agree on.
    pub(super) fn scan_shard(
        &self,
        index: IndexId,
        low: &[u8],
        high: &[u8],
        shards: usize,
    ) -> Option<usize> {
        if shards == 1 {
            return Some(0);
        }
        let prefix_route = |p: usize| -> Option<usize> {
            (low.len() >= p && high.len() >= p && low[..p] == high[..p])
                .then(|| shard_of_key(&low[..p], shards))
        };
        match self.index_route(index) {
            Some(IndexRoute::Primary(table)) => match self.table_policy(table) {
                ShardPolicy::Replicated => Some(0),
                ShardPolicy::Hash { prefix: Some(p) } => prefix_route(p),
                ShardPolicy::Hash { prefix: None } => {
                    (low == high).then(|| shard_of_key(low, shards))
                }
            },
            Some(IndexRoute::Secondary(IndexRouting::OwnerPrefix(p))) => prefix_route(p),
            Some(IndexRoute::Secondary(IndexRouting::Probe)) | None => None,
        }
    }
}

/// Two keys guaranteed to land on different shards.
#[cfg(test)]
pub(super) fn cross_pair(shards: usize) -> (Vec<u8>, Vec<u8>) {
    let a = b"pair-a".to_vec();
    let home = shard_of_key(&a, shards);
    let b = (0u32..)
        .map(|i| format!("pair-b-{i}").into_bytes())
        .find(|b| shard_of_key(b, shards) != home)
        .expect("some key hashes to another shard");
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_key_disperses_and_is_stable() {
        let mut counts = [0usize; 4];
        for i in 0..4096u32 {
            counts[shard_of_key(&i.to_be_bytes(), 4)] += 1;
        }
        for c in counts {
            assert!(c > 512, "lopsided hash: {counts:?}");
        }
        assert_eq!(shard_of_key(b"alice", 4), shard_of_key(b"alice", 4));
        assert_eq!(shard_of_key(b"anything", 1), 0);
    }
}
