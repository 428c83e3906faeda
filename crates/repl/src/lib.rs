//! # ermia-repl — hot backup and log-shipping replication
//!
//! The replica side of the backup/replication subsystem (the primary
//! side — retention pins, `Subscribe`/`FetchChunk` serving — lives in
//! the engine and the server crate):
//!
//! * [`Replica::bootstrap`] connects to a primary, streams the latest
//!   checkpoint plus every durable log segment — every value rides in its
//!   transaction's log block, so nothing else is shipped — into a fresh
//!   local data directory laid out exactly like a primary's, and replays
//!   it through the engine's incremental [`LogApplier`]. The local
//!   directory is a restartable backup at every point in time.
//! * [`Replica::poll`] runs one shipping round per shard: re-pin at the
//!   applied offset, mirror newly durable bytes, apply them (rows and
//!   catalog entries alike: a table appears under the primary's id and
//!   shard route, in log order), resolve cross-shard 2PC outcomes, and
//!   advance the serving snapshot cut.
//! * The serving handle ([`Replica::serving`]) is a sharded database of
//!   read-only snapshot views: reads see a transaction-consistent,
//!   monotonically advancing cut; writes abort with `ReadOnlyMode`
//!   (surfaced over the wire as `DegradedReadOnly`). [`Replica::serve`]
//!   exposes it over the unchanged wire protocol.
//!
//! ## Cut safety
//!
//! The replica publishes the cut `c = (applied, 0)` after every round,
//! from bootstrap on. The installed checkpoint was taken at a cut — its
//! begin LSN — and holds, per key, the version visible there; replay
//! starts at exactly that offset. So `c` only covers the checkpoint plus
//! fully replayed commit blocks: every version with a stamp below it is
//! present, none above it is visible, and the snapshot is
//! transaction-consistent at every published cut.
//!
//! Known gap: a replica's GC horizon falls back to its own log manager's
//! tail, which stays where bootstrap left it (shipped bytes go to the
//! segment files directly), so versions that tailed rounds supersede wait
//! in `ermia_gc_retire_backlog` until restart. Advancing the horizon
//! with the applied frontier first needs the view's read-cut-then-register
//! race closed.

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ermia::{Database, DbConfig, LogApplier, ShardedDb};
use ermia_common::Lsn;
use ermia_server::{Client, ClientError, ReplStatus, Server, ServerConfig};
use ermia_telemetry::{Sample, SpanKind, SpanRing, TraceContext};

/// Chunk source tags of the `FetchChunk` frame.
const SRC_CHECKPOINT: u8 = 0;
const SRC_LOG: u8 = 1;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why replication stopped.
#[derive(Debug)]
pub enum ReplError {
    /// Transport or server-side failure talking to the primary.
    Client(ClientError),
    /// Local filesystem / engine failure.
    Io(io::Error),
    /// The primary truncated log the replica had not shipped yet (the
    /// retention pin was lost, e.g. across a long disconnect). The
    /// replica cannot catch up incrementally and must re-bootstrap.
    RetentionLost { shard: u32, have: u64, earliest: u64 },
    /// Primary and replica disagree on the log segment size; shipped
    /// segment files would not line up.
    SegmentSizeMismatch { local: u64, primary: u64 },
    /// The primary answered something structurally valid but
    /// semantically impossible.
    Protocol(String),
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::Client(e) => write!(f, "primary connection: {e}"),
            ReplError::Io(e) => write!(f, "replica io: {e}"),
            ReplError::RetentionLost { shard, have, earliest } => write!(
                f,
                "shard {shard}: primary truncated to {earliest:#x} but replica only has {have:#x}; re-bootstrap required"
            ),
            ReplError::SegmentSizeMismatch { local, primary } => {
                write!(f, "segment size mismatch: local {local}, primary {primary}")
            }
            ReplError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<ClientError> for ReplError {
    fn from(e: ClientError) -> ReplError {
        ReplError::Client(e)
    }
}

impl From<io::Error> for ReplError {
    fn from(e: io::Error) -> ReplError {
        ReplError::Io(e)
    }
}

pub type ReplResult<T> = Result<T, ReplError>;

// ---------------------------------------------------------------------------
// Configuration / stats
// ---------------------------------------------------------------------------

/// How to bootstrap a replica.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Primary server address (`host:port`).
    pub primary: String,
    /// Fresh local data directory; one `shard-N` subdirectory per shard
    /// is created under it, each laid out exactly like a primary data
    /// directory (segments, checkpoints) so it doubles as a
    /// promotable backup.
    pub dir: PathBuf,
    /// Shard count of the primary engine (1 for a plain server).
    pub shards: usize,
    /// Bytes requested per `FetchChunk`. The server additionally clamps
    /// replies to its frame limit.
    pub chunk_len: u32,
}

impl ReplicaConfig {
    pub fn new(primary: impl Into<String>, dir: impl Into<PathBuf>) -> ReplicaConfig {
        ReplicaConfig { primary: primary.into(), dir: dir.into(), shards: 1, chunk_len: 256 << 10 }
    }
}

/// Shared, atomically-updated replication counters; exported as
/// `ermia_repl_*` metrics on the serving database's registry.
#[derive(Default)]
pub struct ReplStats {
    lag_bytes: AtomicU64,
    shipped_segments: AtomicU64,
    applied_lsn: AtomicU64,
    rounds: AtomicU64,
}

impl ReplStats {
    /// Bytes between the primary's durable frontier and the replica's
    /// applied offset, as of the last poll (worst shard).
    pub fn lag_bytes(&self) -> u64 {
        self.lag_bytes.load(Ordering::Relaxed)
    }

    /// Log segments fully mirrored from the primary (bootstrap files +
    /// rotations observed while tailing).
    pub fn shipped_segments(&self) -> u64 {
        self.shipped_segments.load(Ordering::Relaxed)
    }

    /// Minimum applied log offset across shards.
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn.load(Ordering::Relaxed)
    }

    /// Completed poll rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }
}

/// What one [`Replica::poll`] round accomplished.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplProgress {
    /// Log bytes mirrored this round (all shards).
    pub shipped_bytes: u64,
    /// Commit blocks replayed this round (all shards).
    pub applied_blocks: u64,
    /// Worst-shard lag after the round, measured against the primary's
    /// durable frontier at subscribe time.
    pub lag_bytes: u64,
    /// Cross-shard transactions resolved from other shards' decide
    /// records this round.
    pub resolved: u64,
}

// ---------------------------------------------------------------------------
// Per-shard state
// ---------------------------------------------------------------------------

struct ShardState {
    shard: u32,
    client: Client,
    /// The applying handle: full read-write engine access, used only by
    /// the shipping loop (replay, checkpoint install).
    db: Database,
    /// The serving handle: a snapshot view whose cut advances with
    /// replay. Cloned into the serving [`ShardedDb`].
    view: Database,
    applier: LogApplier,
    /// Log bytes mirrored into local segment files so far.
    shipped: u64,
    segment_size: u64,
    /// Service ring of the applying database's tracer: shipping rounds
    /// record `repl-ship` spans and `repl-apply` events here, alongside
    /// the `repl-apply` spans the engine stitches to shipped trace ids.
    ring: Arc<SpanRing>,
}

impl ShardState {
    fn bootstrap(cfg: &ReplicaConfig, stats: &ReplStats, shard: u32) -> ReplResult<ShardState> {
        let mut client = Client::connect(cfg.primary.as_str()).map_err(ReplError::Client)?;
        let status = client.subscribe(shard, 0)?;
        let dir = cfg.dir.join(format!("shard-{shard}"));
        // The mirror is written through the storage backend the local
        // database opens it with.
        let mut dbcfg = DbConfig::durable(&dir);
        dbcfg.log.segment_size = status.segment_size;
        let io = &*dbcfg.log.io_factory;
        ermia_log::create_dirs(io, &dir, dbcfg.log.fsync)?;

        // Stream the checkpoint payload, if the primary has one.
        let mut from = 0u64;
        let mut ckpt: Option<(Lsn, Vec<u8>)> = None;
        if let Some((begin_raw, len)) = status.checkpoint {
            let mut payload = Vec::with_capacity(len as usize);
            while (payload.len() as u64) < len {
                let chunk = client.fetch_chunk(
                    shard,
                    SRC_CHECKPOINT,
                    payload.len() as u64,
                    cfg.chunk_len,
                )?;
                if chunk.is_empty() {
                    return Err(ReplError::Protocol(format!(
                        "checkpoint truncated at {} of {len} bytes",
                        payload.len()
                    )));
                }
                payload.extend_from_slice(&chunk);
            }
            let begin = Lsn::from_raw(begin_raw);
            from = begin.offset();
            ckpt = Some((begin, payload));
        } else if status.earliest > 0 {
            return Err(ReplError::RetentionLost { shard, have: 0, earliest: status.earliest });
        }

        // Mirror every durable segment as a primary-named file so the
        // local `Database::open` reconstructs the identical segment
        // table (same starts, same modulo numbers, same LSNs).
        let mut shipped = from;
        for &(index, start, durable_end) in &status.segments {
            let full_end = start + status.segment_size;
            let name = ermia_log::Segment::file_name(index, start, full_end);
            let file = io.open(&dir.join(name))?;
            // Sparse full-size file: unwritten tail reads as zeros, which
            // is how the scanner detects the first hole. Truncate first:
            // a file left by an earlier bootstrap must not keep its bytes.
            file.set_len(0)?;
            file.set_len(full_end - start)?;
            let mut off = start;
            while off < durable_end {
                let data = client.fetch_chunk(shard, SRC_LOG, off, cfg.chunk_len)?;
                if data.is_empty() {
                    break;
                }
                file.write_all_at(&data, off - start)?;
                off += data.len() as u64;
            }
            file.sync_data()?;
            shipped = shipped.max(off);
            stats.shipped_segments.fetch_add(1, Ordering::Relaxed);
        }
        // The files' entries are synced as their bytes are: the directory
        // is a restartable backup from here on.
        io.sync_dir(&dir)?;

        // Open the mirrored directory as a normal durable database (the
        // catalog comes back from the mirrored log) and rebuild state:
        // the checkpoint image, then log replay.
        let db = Database::open(dbcfg)?;
        db.set_role_replica();
        if let Some((begin, payload)) = &ckpt {
            db.store_checkpoint(*begin, payload)?;
        }
        // Nobody reads this database yet (the serving view is made below),
        // so the first round builds only what survives.
        let applier = LogApplier::rebuild(&db, ckpt)?;
        let blocks = applier.stats().replayed_blocks;

        let view = db.replica_view();
        let ring = Arc::clone(db.telemetry().tracer().svc_ring());
        if blocks > 0 {
            let applied = applier.applied_offset();
            ring.event(&TraceContext::UNTRACED, SpanKind::ReplApply, applied, blocks);
        }
        Ok(ShardState {
            shard,
            client,
            db,
            view,
            applier,
            shipped,
            segment_size: status.segment_size,
            ring,
        })
    }

    /// Subscribe (re-pinning retention at the applied offset), with one
    /// transparent reconnect on a severed transport — the resubscribe
    /// resumes from `applied`, so a dropped connection costs at most the
    /// unapplied tail, never a gap or a duplicate.
    fn subscribe(&mut self) -> ReplResult<ReplStatus> {
        let from = self.applier.applied_offset();
        match self.client.subscribe(self.shard, from) {
            Ok(s) => Ok(s),
            Err(ClientError::Io(_)) | Err(ClientError::Frame(_)) => {
                self.client.reconnect().map_err(ReplError::Client)?;
                Ok(self.client.subscribe(self.shard, from)?)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// One shipping round: mirror newly durable log bytes, then
    /// replay them. Returns (shipped bytes, replayed blocks, lag).
    fn poll(&mut self, chunk_len: u32, stats: &ReplStats) -> ReplResult<(u64, u64, u64)> {
        let status = self.subscribe()?;
        if status.segment_size != self.segment_size {
            return Err(ReplError::SegmentSizeMismatch {
                local: self.segment_size,
                primary: status.segment_size,
            });
        }
        if status.earliest > self.shipped {
            return Err(ReplError::RetentionLost {
                shard: self.shard,
                have: self.shipped,
                earliest: status.earliest,
            });
        }
        let t0 = self.ring.now_ns();
        let shipped_bytes = self.ship_log(&status, chunk_len, stats)?;
        if shipped_bytes > 0 {
            // Infra span (no trace id): rounds that moved bytes show up
            // on the replica's timeline next to the stitched apply spans.
            self.ring.record(
                &TraceContext::UNTRACED,
                SpanKind::ReplShip,
                t0,
                self.ring.now_ns(),
                shipped_bytes,
                self.shard as u64,
            );
        }
        let blocks = self.applier.apply_available(&self.db)?;
        let applied = self.applier.applied_offset();
        if blocks > 0 {
            self.ring.event(&TraceContext::UNTRACED, SpanKind::ReplApply, applied, blocks);
        }
        Ok((shipped_bytes, blocks, status.durable_lsn.saturating_sub(applied)))
    }

    fn ship_log(
        &mut self,
        status: &ReplStatus,
        chunk_len: u32,
        stats: &ReplStats,
    ) -> ReplResult<u64> {
        let durable = status.durable_lsn;
        let mut cursor = self.shipped;
        let mut shipped_bytes = 0u64;
        let mut touched: Option<Arc<ermia_log::Segment>> = None;
        while cursor < durable {
            // The primary segment holding `cursor`, or — if `cursor`
            // sits in a rotation dead zone — the next one above it.
            let covering = status.segments.iter().find(|&&(_, s, e)| cursor >= s && cursor < e);
            let (_, p_start, p_end) = match covering {
                Some(&seg) => seg,
                None => {
                    match status.segments.iter().map(|&(_, s, _)| s).filter(|&s| s > cursor).min() {
                        Some(next) => {
                            cursor = next;
                            continue;
                        }
                        None => break,
                    }
                }
            };
            // Make the local segment table cover `cursor`, rotating in
            // lock-step with the primary.
            let local = match self.db.log().segments().lookup(cursor) {
                Some(seg) => seg,
                None => {
                    let cur = self.db.log().segments().current();
                    if p_start < cur.end {
                        return Err(ReplError::Protocol(format!(
                            "primary segment start {p_start:#x} overlaps local tail {:#x}",
                            cur.end
                        )));
                    }
                    stats.shipped_segments.fetch_add(1, Ordering::Relaxed);
                    self.db.log().segments().open_next(cur.index, p_start)?
                }
            };
            let want = (p_end.min(durable) - cursor).min(chunk_len as u64) as u32;
            let data = self.client.fetch_chunk(self.shard, SRC_LOG, cursor, want)?;
            if data.is_empty() {
                break;
            }
            // Crossing a rotation: sync the finished segment before
            // writing on, so a crash after later syncs cannot leave a
            // hole behind them. The cursor never revisits a segment
            // within a round.
            if let Some(prev) = &touched {
                if prev.index != local.index {
                    if let Some(io) = &prev.io {
                        io.sync_data()?;
                    }
                }
            }
            let io = local.io.as_ref().expect("durable replica segments are file-backed");
            io.write_all_at(&data, local.file_pos(cursor))?;
            cursor += data.len() as u64;
            shipped_bytes += data.len() as u64;
            touched = Some(local);
        }
        if let Some(seg) = touched {
            if let Some(io) = &seg.io {
                io.sync_data()?;
            }
        }
        self.shipped = self.shipped.max(cursor);
        Ok(shipped_bytes)
    }

    /// Advance the serving cut to the applied frontier (see crate docs).
    fn publish(&self) {
        let applied = self.applier.applied_offset();
        self.view.advance_view(Lsn::from_parts(applied, 0));
        self.db.set_applied_lsn(applied);
    }
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

/// A log-shipping read replica: one shipping connection per primary
/// shard, a local mirrored data directory, and a sharded serving handle
/// of read-only snapshot views.
pub struct Replica {
    shards: Vec<ShardState>,
    serving: ShardedDb,
    stats: Arc<ReplStats>,
    chunk_len: u32,
    telemetry_group: u64,
}

impl Replica {
    /// Connect to the primary and build a replica from its latest
    /// checkpoint plus all durable log. `cfg.dir` must be fresh: the
    /// bootstrap lays it out as an exact mirror of the primary's data
    /// directories.
    pub fn bootstrap(cfg: ReplicaConfig) -> ReplResult<Replica> {
        let stats = Arc::new(ReplStats::default());
        let mut shards = Vec::with_capacity(cfg.shards.max(1));
        for shard in 0..cfg.shards.max(1) as u32 {
            shards.push(ShardState::bootstrap(&cfg, &stats, shard)?);
        }
        let serving = ShardedDb::from_shards(shards.iter().map(|s| s.view.clone()).collect());

        // Export the shipping counters on the serving database's metric
        // registry, where a replica-side server (`Replica::serve`) and
        // its `/metrics` endpoint will pick them up.
        let registry = serving.telemetry().registry();
        let telemetry_group = registry.group();
        let col_stats = Arc::clone(&stats);
        registry.register_collector(telemetry_group, move |out| {
            out.push(Sample::gauge(
                "ermia_repl_lag_bytes",
                "Bytes between the primary durable frontier and the replica applied offset (worst shard).",
                col_stats.lag_bytes.load(Ordering::Relaxed) as f64,
            ));
            out.push(Sample::counter(
                "ermia_repl_shipped_segments_total",
                "Log segments shipped from the primary.",
                col_stats.shipped_segments.load(Ordering::Relaxed),
            ));
            out.push(Sample::gauge(
                "ermia_repl_applied_lsn",
                "Minimum applied log offset across replica shards.",
                col_stats.applied_lsn.load(Ordering::Relaxed) as f64,
            ));
        });

        let mut replica =
            Replica { shards, serving, stats, chunk_len: cfg.chunk_len, telemetry_group };
        replica.resolve_cross_shard()?;
        replica.publish();
        Ok(replica)
    }

    /// One shipping round across every shard. Safe to call from a
    /// dedicated tailing thread; the serving handle observes cut
    /// advances atomically.
    pub fn poll(&mut self) -> ReplResult<ReplProgress> {
        let mut progress = ReplProgress::default();
        for sh in &mut self.shards {
            let (shipped, blocks, lag) = sh.poll(self.chunk_len, &self.stats)?;
            progress.shipped_bytes += shipped;
            progress.applied_blocks += blocks;
            progress.lag_bytes = progress.lag_bytes.max(lag);
        }
        progress.resolved = self.resolve_cross_shard()?;
        self.publish();
        self.stats.lag_bytes.store(progress.lag_bytes, Ordering::Relaxed);
        self.stats.rounds.fetch_add(1, Ordering::Relaxed);
        Ok(progress)
    }

    /// Poll until a round ends with zero lag and nothing shipped — the
    /// replica has caught up with the primary's durable frontier as of
    /// that round. Under continuous primary load this chases the tail
    /// and returns at the first quiescent instant.
    pub fn catch_up(&mut self) -> ReplResult<ReplProgress> {
        loop {
            let p = self.poll()?;
            if p.lag_bytes == 0 && p.shipped_bytes == 0 {
                return Ok(p);
            }
        }
    }

    /// Apply verdict records shipped on one shard to prepared-but-
    /// undecided cross-shard transactions pending on another. A replica
    /// only makes a 2PC write visible once a verdict record for it has
    /// shipped on some shard (every participant's log gets one).
    fn resolve_cross_shard(&mut self) -> ReplResult<u64> {
        let mut todo: Vec<(usize, (u32, u64), bool)> = Vec::new();
        for (i, sh) in self.shards.iter().enumerate() {
            for key in sh.applier.pending_keys() {
                if let Some(commit) = self.shards.iter().find_map(|s| s.applier.decides().get(key))
                {
                    todo.push((i, key, commit));
                }
            }
        }
        let mut resolved = 0u64;
        for (i, key, commit) in todo {
            let sh = &mut self.shards[i];
            if sh.applier.resolve(&sh.db, key, commit)? {
                resolved += 1;
            }
        }
        Ok(resolved)
    }

    fn publish(&self) {
        for sh in &self.shards {
            sh.publish();
        }
        let applied = self.applied_lsn();
        self.stats.applied_lsn.store(applied, Ordering::Relaxed);
    }

    /// The read-only serving handle: snapshot views over every shard,
    /// routed like the primary. Hand it to [`Server::start_sharded`] or
    /// embed it directly.
    pub fn serving(&self) -> &ShardedDb {
        &self.serving
    }

    /// Serve the replica's snapshots over the standard wire protocol.
    /// Reads behave exactly as against a primary; writes abort with the
    /// read-only code.
    pub fn serve(&self, addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        Server::start_sharded(&self.serving, addr, cfg)
    }

    /// Shared replication counters (also exported as metrics).
    pub fn stats(&self) -> Arc<ReplStats> {
        Arc::clone(&self.stats)
    }

    /// Minimum applied log offset across shards.
    pub fn applied_lsn(&self) -> u64 {
        self.shards.iter().map(|s| s.applier.applied_offset()).min().unwrap_or(0)
    }

    /// Force-drop and re-dial every shipping connection (the primary
    /// drops the old retention pins with the old connections). The next
    /// [`Replica::poll`] resubscribes from each shard's applied offset.
    pub fn reconnect(&mut self) -> ReplResult<()> {
        for sh in &mut self.shards {
            sh.client.reconnect().map_err(ReplError::Client)?;
        }
        Ok(())
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.serving.telemetry().registry().unregister_group(self.telemetry_group);
    }
}
