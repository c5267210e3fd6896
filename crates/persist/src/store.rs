//! The persistence façade: savepoints + log + recovery.
//!
//! Layout in the database directory:
//!
//! * `data.pages` — the page store. Pages 0 and 1 are the two alternating
//!   superblock slots holding the savepoint manifest (version counter,
//!   clock, configs, and the descriptor of the *file directory*: a sealed
//!   virtual file listing every table image's pages, so the image set is
//!   not bounded by one page). A savepoint writes all table images and
//!   then the directory as virtual files, then flips the superblock, then
//!   rotates the REDO log to the new epoch — crash-safe at every step:
//!   until the new superblock is synced, recovery still sees the previous
//!   savepoint plus the old log; after the flip, a stale-epoch log is
//!   ignored rather than replayed onto images that already contain its
//!   rows.
//! * `redo.log` — the REDO log since the last savepoint, headered with the
//!   epoch (savepoint version) its records apply on top of.
//!
//! ## Integrity
//!
//! Every persisted artifact — page, log record, manifest, table image — is
//! wrapped in the checksummed [`integrity`](crate::integrity) envelope and
//! verified on every read. A savepoint is *recoverable* only when its
//! manifest page verifies, the manifest parses, and every image blob it
//! references verifies and decodes; recovery picks the newest recoverable
//! manifest, falling back to the previous savepoint when the newest one is
//! damaged. When **no** recoverable manifest exists but the log's epoch
//! proves a savepoint once did, the open fails closed with
//! [`HanaError::Corruption`] — silently restarting as an empty database
//! would be data loss dressed up as recovery. [`Persistence::scrub_tick`]
//! walks the live pages in the background so bit rot is found while the
//! redundancy to recover from it still exists.
//!
//! Every physical operation flows through one shared [`FaultInjector`], and
//! every failure is scored by a [`Health`] tracker: repeated consecutive
//! I/O failures — including detected corruption — flip the instance into
//! **read-only degraded mode** — writes and savepoints are rejected with a
//! clear error while reads keep working — until
//! [`Persistence::clear_degraded`] is called.

use crate::codec::{Decoder, Encoder};
use crate::fault::{FailureSite, FaultInjector, Health, HealthStats};
use crate::group::{GroupCommit, LogStats};
use crate::image::TableImage;
use crate::integrity::{self, ArtifactKind, IntegrityState, IntegrityStats};
use crate::log::{LogRecord, RedoLog, NO_EPOCH};
use crate::page::{PageId, PageStore, DEFAULT_PAGE_SIZE};
use crate::vfile::VirtualFile;
use hana_common::{CommitConfig, GovernorConfig, HanaError, Result, Timestamp};
use parking_lot::Mutex;
use rustc_hash::FxHashSet;
use std::path::Path;
use std::sync::Arc;

/// Everything recovery reconstructs.
pub struct RecoveredState {
    /// Clock value at savepoint time (recovery advances it past replayed
    /// commits).
    pub clock: Timestamp,
    /// Savepoint version that was loaded (0 = none existed).
    pub savepoint_version: u64,
    /// Per-table images from the savepoint.
    pub images: Vec<TableImage>,
    /// Intact log records since that savepoint. Empty when the log's epoch
    /// doesn't match the manifest version (a stale log must not be replayed
    /// onto images that already contain its rows).
    pub log_records: Vec<LogRecord>,
    /// Commit-pipeline configuration persisted by the savepoint (defaults
    /// when no savepoint existed).
    pub commit_config: CommitConfig,
    /// Workload-isolation (resource governor) configuration persisted by
    /// the savepoint (defaults when no savepoint existed).
    pub governor_config: GovernorConfig,
}

struct Manifest {
    version: u64,
    clock: Timestamp,
    commit_config: CommitConfig,
    governor_config: GovernorConfig,
}

/// Marker in the superblock ahead of the file-directory descriptor. A
/// superblock without it (one that listed its images inline, before the
/// directory existed) does not parse, so such a database fails closed.
const DIRECTORY: u32 = u32::MAX;

/// The virtual files of one savepoint: the table images and the directory
/// listing them (both empty before the first savepoint).
#[derive(Default)]
struct Live {
    version: u64,
    directory: VirtualFile,
    images: Vec<VirtualFile>,
}

impl Live {
    /// Every virtual file the savepoint references.
    fn files(&self) -> impl Iterator<Item = &VirtualFile> {
        std::iter::once(&self.directory).chain(&self.images)
    }
}

/// Page bookkeeping snapshot: on a freshly opened store,
/// `allocated == 2 + free + live` (the crash harness's no-leak invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAccounting {
    /// Pages ever allocated, including the two superblock slots.
    pub allocated: u64,
    /// Pages on the free list.
    pub free: u64,
    /// Pages referenced by the live savepoint's virtual files.
    pub live: u64,
}

/// Result of one background-scrub batch (see [`Persistence::scrub_tick`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubTick {
    /// Pages whose checksums were verified (or that read as unwritten) this
    /// batch.
    pub scanned: u64,
    /// Newly detected corrupt artifacts (pages quarantined / blobs failed).
    pub corrupt: u64,
    /// True when this batch wrapped: one full pass over every live page
    /// completed (and one table-image blob was re-verified end-to-end).
    pub completed_pass: bool,
}

/// Round-robin position of the background scrub.
#[derive(Default)]
struct ScrubCursor {
    /// Index into the conceptual `[superblocks… live pages…]` list.
    pos: usize,
    /// Which live image blob the next completed pass re-verifies.
    blob_rr: usize,
}

/// The durable side of a database instance.
pub struct Persistence {
    pages: PageStore,
    log: RedoLog,
    group: GroupCommit,
    health: Health,
    injector: Arc<FaultInjector>,
    /// Integrity accounting shared by the page store, the log, and the
    /// manifest/scrub paths of this instance.
    integrity: Arc<IntegrityState>,
    scrub: Mutex<ScrubCursor>,
    /// The live savepoint's version and virtual files (released after the
    /// next successful savepoint).
    state: Mutex<Live>,
}

impl Persistence {
    /// Open (or initialize) persistence in `dir` with the default page size.
    pub fn open(dir: &Path) -> Result<Self> {
        Self::open_with_page_size(dir, DEFAULT_PAGE_SIZE)
    }

    /// Open with an explicit page size ("visible page limits of configurable
    /// size").
    pub fn open_with_page_size(dir: &Path, page_size: usize) -> Result<Self> {
        Self::open_with_injector(dir, page_size, FaultInjector::new())
    }

    /// Open with an explicit fault injector shared by every physical I/O
    /// site of this instance (the crash-everywhere harness's entry point).
    pub fn open_with_injector(
        dir: &Path,
        page_size: usize,
        injector: Arc<FaultInjector>,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let integrity = Arc::new(IntegrityState::new());
        let pages = PageStore::open_full(
            &dir.join("data.pages"),
            page_size,
            Arc::clone(&injector),
            Arc::clone(&integrity),
        )?;
        let log = RedoLog::open_full(
            &dir.join("redo.log"),
            Arc::clone(&injector),
            Arc::clone(&integrity),
        )?;
        let (best, saw_corruption) = read_best_valid_manifest(&pages);
        let state = match best {
            Some(l) => l.live,
            None => {
                // A log rotated past epoch 0 proves a savepoint once
                // published a manifest. If no slot is recoverable now, the
                // authoritative state is gone: opening as a fresh database
                // (and rotating the log to epoch 0) would silently discard
                // every row it ever held. Fail closed instead.
                if log.epoch() != 0 {
                    return Err(HanaError::Corruption(format!(
                        "no recoverable savepoint manifest{} but the REDO log is at \
                         epoch {} — a savepoint was once published, so the durable \
                         state is lost; refusing to reinitialize as empty",
                        if saw_corruption {
                            " (superblock or table-image checksum failures)"
                        } else {
                            ""
                        },
                        log.epoch()
                    )));
                }
                Live::default()
            }
        };
        // Reconcile the log epoch with the recovered manifest. A crash
        // between the superblock flip and the log rotation leaves a
        // stale-epoch log whose rows the images already contain; rotating
        // here discards it before any new record could land behind them.
        if log.epoch() != state.version {
            log.rotate(state.version)?;
        }
        // Reconstruct the free list: every allocated page the live manifest
        // does not reference is reclaimable. This is what un-leaks pages a
        // crashed savepoint had allocated for images it never published.
        let live: FxHashSet<u64> = state.files().flat_map(|f| &f.pages).map(|p| p.0).collect();
        let free: Vec<PageId> = (2..pages.allocated_pages())
            .filter(|p| !live.contains(p))
            .map(PageId)
            .collect();
        pages.reset_free_list(free);
        Ok(Persistence {
            pages,
            log,
            group: GroupCommit::new(),
            health: Health::default(),
            injector,
            integrity,
            scrub: Mutex::new(ScrubCursor::default()),
            state: Mutex::new(state),
        })
    }

    /// The REDO log handle.
    pub fn log(&self) -> &RedoLog {
        &self.log
    }

    /// The fault injector shared by this instance's I/O sites.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// The health/degradation tracker.
    pub fn health(&self) -> &Health {
        &self.health
    }

    /// Snapshot of the health counters.
    pub fn health_stats(&self) -> HealthStats {
        self.health.stats()
    }

    /// Leave read-only degraded mode (operator action after the underlying
    /// device recovered).
    pub fn clear_degraded(&self) {
        self.health.clear_degraded();
    }

    /// Integrity accounting shared by every verification site of this
    /// instance (page reads, log replay, manifests, scrubbing).
    pub fn integrity(&self) -> &Arc<IntegrityState> {
        &self.integrity
    }

    /// Snapshot of the integrity counters.
    pub fn integrity_stats(&self) -> IntegrityStats {
        self.integrity.stats()
    }

    /// Page ids referenced by the live savepoint's virtual files, sorted
    /// (superblock slots excluded). The corruption-injection surface.
    pub fn live_page_ids(&self) -> Vec<u64> {
        let state = self.state.lock();
        let mut v: Vec<u64> = state.files().flat_map(|f| &f.pages).map(|p| p.0).collect();
        v.sort_unstable();
        v
    }

    /// Page ids of the live savepoint's file directory, in file order
    /// (empty before the first savepoint).
    pub fn directory_page_ids(&self) -> Vec<u64> {
        self.state
            .lock()
            .directory
            .pages
            .iter()
            .map(|p| p.0)
            .collect()
    }

    /// One batch of background scrubbing: verify up to `max_pages` on-disk
    /// checksums, walking the superblock slots plus every page the live
    /// savepoint references, wrapping around. Newly detected corruption is
    /// quarantined by the read path and scored against the [`Health`]
    /// tracker (site [`FailureSite::Scrub`]) so persistent rot degrades the
    /// instance to read-only instead of going unnoticed; already-quarantined
    /// pages are skipped so one bad page is scored once, not every pass.
    /// Each completed pass additionally re-verifies one live table-image
    /// blob end-to-end (round-robin). Transient I/O errors are not the
    /// scrub's business and are ignored here.
    pub fn scrub_tick(&self, max_pages: usize) -> ScrubTick {
        let (version, targets, files) = {
            let state = self.state.lock();
            let mut v = vec![PageId(0), PageId(1)];
            v.extend(state.files().flat_map(|f| &f.pages));
            (state.version, v, state.images.clone())
        };
        let mut tick = ScrubTick::default();
        let mut cursor = self.scrub.lock();
        for _ in 0..max_pages {
            if cursor.pos >= targets.len() {
                // Wrapped: end the batch at the pass boundary.
                cursor.pos = 0;
                tick.completed_pass = true;
                break;
            }
            let p = targets[cursor.pos];
            cursor.pos += 1;
            if self.integrity.is_quarantined(p.0) {
                continue; // known-bad: counted when first detected
            }
            tick.scanned += 1;
            match self.pages.read_page(p) {
                Ok(_) => {}
                Err(e @ HanaError::Corruption(_)) => {
                    tick.corrupt += 1;
                    self.health.record_failure(FailureSite::Scrub, &e);
                }
                Err(_) => {}
            }
        }
        if tick.completed_pass && !files.is_empty() {
            let i = cursor.blob_rr % files.len();
            cursor.blob_rr = cursor.blob_rr.wrapping_add(1);
            let intact = match files[i].read(&self.pages) {
                Ok(blob) => {
                    integrity::open_envelope(ArtifactKind::TableImage, version, &blob).is_ok()
                }
                Err(HanaError::Corruption(_)) => false,
                Err(_) => true,
            };
            if !intact {
                tick.corrupt += 1;
                self.integrity.note_image_corrupt();
                let e = HanaError::Corruption(format!(
                    "table image blob {i} of savepoint v{version} failed verification \
                     during scrub"
                ));
                self.health.record_failure(FailureSite::Scrub, &e);
            }
        }
        self.integrity
            .note_scrub_batch(tick.scanned, tick.corrupt, tick.completed_pass);
        tick
    }

    /// Buffer one data record (first-appearance insert/bulk-load/delete,
    /// DDL, merge event). Rejected in degraded mode: accepting a write the
    /// instance already knows it cannot make durable would be a lie.
    pub fn append_record(&self, rec: &LogRecord) -> Result<()> {
        if self.health.is_read_only() {
            return Err(Health::read_only_error());
        }
        match self.log.append(rec) {
            Ok(()) => Ok(()),
            Err(e) => {
                if Health::counts_as_io_failure(&e) {
                    self.health.record_failure(FailureSite::Log, &e);
                }
                Err(e)
            }
        }
    }

    /// Flush buffered data records to disk. DDL uses this: the record must
    /// be durable before the new object becomes visible to other sessions.
    pub fn flush_records(&self) -> Result<()> {
        match self.log.flush() {
            Ok(()) => {
                self.health.record_success();
                Ok(())
            }
            Err(e) => {
                if Health::counts_as_io_failure(&e) {
                    self.health.record_failure(FailureSite::Log, &e);
                }
                Err(e)
            }
        }
    }

    /// Sequence one commit/abort record through the group-commit pipeline
    /// and return only once it is durable (see [`crate::group`]). `seq`
    /// runs under the pipeline's sequencing lock, so the order it
    /// establishes (commit-clock order) is the on-disk record order.
    pub fn commit_record<T>(
        &self,
        cfg: &CommitConfig,
        seq: impl FnOnce() -> Result<(LogRecord, T)>,
    ) -> Result<T> {
        if self.health.is_read_only() {
            return Err(Health::read_only_error());
        }
        match self.group.submit(&self.log, cfg, seq) {
            Ok(v) => {
                self.health.record_success();
                Ok(v)
            }
            Err(e) => {
                // Semantic sequencing failures (write conflict, finished
                // txn) say nothing about the device and don't count.
                if Health::counts_as_io_failure(&e) {
                    self.health.record_failure(FailureSite::Log, &e);
                }
                Err(e)
            }
        }
    }

    /// Counters of the group-commit pipeline.
    pub fn log_stats(&self) -> LogStats {
        self.group.stats()
    }

    /// The page store (exposed for introspection/benches).
    pub fn pages(&self) -> &PageStore {
        &self.pages
    }

    /// Page bookkeeping snapshot (see [`PageAccounting`]).
    pub fn page_accounting(&self) -> PageAccounting {
        let state = self.state.lock();
        let live = state.files().map(|f| f.pages.len() as u64).sum();
        PageAccounting {
            allocated: self.pages.allocated_pages(),
            free: self.pages.free_pages(),
            live,
        }
    }

    /// Write a savepoint: persist `images`, flip the superblock, rotate the
    /// log to the new epoch. The database-wide `commit_config` rides along
    /// in the manifest (like the per-table merge/scan knobs ride in each
    /// table's image). Returns the new savepoint version.
    ///
    /// Failure-atomic: on any error before the superblock flip, every page
    /// written for the new images is released and the previous savepoint
    /// stays the recovery target. Once the flip may have reached disk the
    /// pages stay allocated (reclaimed by free-list reconstruction at the
    /// next open) and the log is wedged until a retry rotates it — a record
    /// appended to a stale-epoch log would be silently ignored by recovery.
    pub fn savepoint(
        &self,
        clock: Timestamp,
        commit_config: &CommitConfig,
        governor_config: &GovernorConfig,
        images: &[TableImage],
    ) -> Result<u64> {
        if self.health.is_read_only() {
            return Err(Health::read_only_error());
        }
        let r = self.savepoint_inner(clock, commit_config, governor_config, images);
        match &r {
            Ok(_) => self.health.record_success(),
            Err(e) if Health::counts_as_io_failure(e) => {
                self.health.record_failure(FailureSite::Savepoint, e)
            }
            Err(_) => {}
        }
        r
    }

    fn savepoint_inner(
        &self,
        clock: Timestamp,
        commit_config: &CommitConfig,
        governor_config: &GovernorConfig,
        images: &[TableImage],
    ) -> Result<u64> {
        let mut state = self.state.lock();
        let mut new = Live {
            version: state.version + 1,
            ..Live::default()
        };
        let version = new.version;
        let release = |live: &Live| {
            for f in live.files() {
                f.release(&self.pages);
            }
        };

        // 1. Write each table image as a virtual file. The blob carries its
        //    own envelope (salted with the savepoint version) on top of the
        //    per-page checksums, so a whole image can be re-verified without
        //    trusting the page layer — the scrub's end-to-end check.
        for img in images {
            let mut e = Encoder::new();
            img.encode(&mut e);
            let blob = integrity::seal(ArtifactKind::TableImage, version, &e.into_bytes());
            match VirtualFile::write(&self.pages, &blob) {
                Ok(f) => new.images.push(f),
                Err(e) => {
                    // The failed file released its own pages; drop the
                    // completed ones too.
                    release(&new);
                    return Err(e);
                }
            }
        }

        // 2. List the images' pages in the file directory, a virtual file
        //    of its own (sealed and salted like the images), so the image
        //    set is not bounded by what one superblock page can list.
        let mut d = Encoder::new();
        d.u32(new.images.len() as u32);
        for f in &new.images {
            f.encode(&mut d);
        }
        let listing = integrity::seal(ArtifactKind::Manifest, version, &d.into_bytes());
        match VirtualFile::write(&self.pages, &listing) {
            Ok(f) => new.directory = f,
            Err(e) => {
                release(&new);
                return Err(e);
            }
        }
        if let Err(e) = self.pages.sync() {
            release(&new);
            return Err(e);
        }

        // 3. Flip the superblock (slot = version % 2).
        let mut m = Encoder::new();
        m.u64(version);
        m.u64(clock);
        encode_commit_config(&mut m, commit_config);
        encode_governor_config(&mut m, governor_config);
        m.u32(DIRECTORY);
        new.directory.encode(&mut m);
        // The superblock rides its page's envelope: the slot *is* the page
        // id, so the page checksum (salted with it) already binds and
        // verifies it end-to-end.
        let payload = m.into_bytes();
        if let Err(e) = self.pages.write_page(PageId(version % 2), &payload) {
            // Nothing durable changed (a torn slot fails its CRC and falls
            // back): the old savepoint still wins. Reclaim the new pages.
            release(&new);
            return Err(e);
        }
        if let Err(e) = self.pages.sync() {
            // The flip is *indeterminate*: the superblock sits in the page
            // cache and may reach disk despite the failed fsync. Keep both
            // generations' pages allocated (reopen reconstructs the free
            // list from whichever manifest survived) and wedge the log —
            // its epoch may no longer match the manifest on disk.
            self.log
                .wedge("savepoint superblock sync failed; manifest state indeterminate");
            return Err(e);
        }

        // 4. Rotate the log to the new epoch and release the previous
        //    savepoint's pages.
        if let Err(e) = self.log.rotate(version) {
            // The new manifest IS durable but the log still carries the old
            // epoch: recovery would ignore anything appended to it. Fail
            // loudly until a retry (same version, same slot) rotates it.
            self.log
                .wedge("savepoint manifest flipped but log rotation failed");
            return Err(e);
        }
        release(&std::mem::replace(&mut *state, new));
        Ok(version)
    }

    /// Recover the durable state from `dir`.
    pub fn recover(dir: &Path) -> Result<RecoveredState> {
        Self::recover_with_page_size(dir, DEFAULT_PAGE_SIZE)
    }

    /// Recover with an explicit page size.
    ///
    /// Picks the newest *recoverable* manifest (manifest page, parse, and
    /// every image blob all verify), so a damaged newest savepoint falls
    /// back to the previous one. A corrupt log (a complete frame failing
    /// its checksum) and a lost manifest chain both surface as
    /// [`HanaError::Corruption`] — recovery never serves damaged state.
    pub fn recover_with_page_size(dir: &Path, page_size: usize) -> Result<RecoveredState> {
        let pages_path = dir.join("data.pages");
        let (best, saw_corruption) = if pages_path.exists() {
            let pages = PageStore::open(&pages_path, page_size)?;
            read_best_valid_manifest(&pages)
        } else {
            (None, false)
        };
        let (epoch, records) = RedoLog::read_all_with_epoch(&dir.join("redo.log"))?;
        match best {
            Some(l) => {
                // Replay only a log whose epoch matches the manifest it
                // extends (a stale or newer-epoch log must not be replayed
                // onto images that don't pair with it).
                let log_records = if epoch == l.manifest.version {
                    records
                } else {
                    Vec::new()
                };
                Ok(RecoveredState {
                    clock: l.manifest.clock,
                    savepoint_version: l.manifest.version,
                    images: l.images,
                    log_records,
                    commit_config: l.manifest.commit_config,
                    governor_config: l.manifest.governor_config,
                })
            }
            None => {
                // See `open_with_injector`: an epoch past 0 proves a
                // savepoint once published; with every slot unrecoverable
                // the authoritative state is lost. (NO_EPOCH — a garbage
                // header — keeps its long-standing "ignore the file"
                // semantics.)
                if epoch != 0 && epoch != NO_EPOCH {
                    return Err(HanaError::Corruption(format!(
                        "no recoverable savepoint manifest{} but the REDO log is at \
                         epoch {epoch} — refusing to recover as an empty database",
                        if saw_corruption {
                            " (superblock or table-image checksum failures)"
                        } else {
                            ""
                        }
                    )));
                }
                let log_records = if epoch == 0 { records } else { Vec::new() };
                Ok(RecoveredState {
                    clock: 0,
                    savepoint_version: 0,
                    images: Vec::new(),
                    log_records,
                    commit_config: CommitConfig::default(),
                    governor_config: GovernorConfig::default(),
                })
            }
        }
    }
}

fn encode_commit_config(e: &mut Encoder, c: &CommitConfig) {
    e.bool(c.group_commit);
    e.u64(c.max_batch as u64);
    e.u64(c.max_wait_us);
}

fn decode_commit_config(d: &mut Decoder<'_>) -> Result<CommitConfig> {
    Ok(CommitConfig {
        group_commit: d.bool()?,
        max_batch: d.u64()? as usize,
        max_wait_us: d.u64()?,
    })
}

fn encode_governor_config(e: &mut Encoder, c: &GovernorConfig) {
    e.bool(c.enabled);
    e.u64(c.max_concurrent_scans as u64);
    e.u64(c.scan_queue_timeout_ms);
    e.u64(c.oltp_p99_budget_us);
    e.u64(c.min_scan_parallelism as u64);
}

fn decode_governor_config(d: &mut Decoder<'_>) -> Result<GovernorConfig> {
    Ok(GovernorConfig {
        enabled: d.bool()?,
        max_concurrent_scans: d.u64()? as usize,
        scan_queue_timeout_ms: d.u64()?,
        oltp_p99_budget_us: d.u64()?,
        min_scan_parallelism: d.u64()? as usize,
    })
}

/// A manifest that proved fully recoverable: its page verified, it parsed,
/// and every image blob it references verified and decoded.
struct LoadedManifest {
    manifest: Manifest,
    live: Live,
    images: Vec<TableImage>,
}

/// What one superblock slot holds.
enum Slot {
    Valid(Box<LoadedManifest>),
    /// Never written, or a torn write that never became a manifest — the
    /// normal state of the inactive slot.
    Absent,
    /// Checksummed bytes that no longer verify: bit rot, not a tear.
    Corrupt,
}

/// The manifest and its file-directory descriptor.
fn parse_manifest(payload: &[u8]) -> Option<(Manifest, VirtualFile)> {
    let mut d = Decoder::new(payload);
    let manifest = Manifest {
        version: d.u64().ok()?,
        clock: d.u64().ok()?,
        commit_config: decode_commit_config(&mut d).ok()?,
        governor_config: decode_governor_config(&mut d).ok()?,
    };
    if d.u32().ok()? != DIRECTORY {
        return None;
    }
    Some((manifest, VirtualFile::decode(&mut d).ok()?))
}

/// Read and verify a savepoint's file directory: every page checksum, the
/// sealed blob (salted with the savepoint version), and its parse.
fn read_directory(pages: &PageStore, dir: &VirtualFile, version: u64) -> Option<Vec<VirtualFile>> {
    let blob = dir.read(pages).ok()?;
    let payload = integrity::open_envelope(ArtifactKind::Manifest, version, &blob).ok()?;
    let mut d = Decoder::new(payload);
    let n = d.u32().ok()? as usize;
    let mut files = Vec::with_capacity(n.min(d.remaining()));
    for _ in 0..n {
        files.push(VirtualFile::decode(&mut d).ok()?);
    }
    Some(files)
}

/// Read one superblock slot end-to-end, distinguishing *absent* (never a
/// manifest) from *corrupt* (was one, no longer verifies) — the distinction
/// the fail-closed rule and the fallback both hinge on.
fn load_manifest_slot(pages: &PageStore, slot: u64) -> Slot {
    let integrity = pages.integrity();
    let payload = match pages.read_page(PageId(slot)) {
        // An all-zero page: the slot was never written.
        Ok(p) if p.is_empty() => return Slot::Absent,
        Ok(p) => p,
        Err(HanaError::Corruption(_)) => {
            integrity.note_manifest_corrupt();
            return Slot::Corrupt;
        }
        // Short file / transient I/O: the slot was never written.
        Err(_) => return Slot::Absent,
    };
    // A verified page holds the manifest bytes directly (the slot is the
    // page id, so the page checksum already binds them). Verified bytes
    // that don't parse — or a directory that doesn't verify — mean the
    // writer's bytes were already wrong, or predate the directory.
    let parsed = parse_manifest(&payload).and_then(|(manifest, directory)| {
        let images = read_directory(pages, &directory, manifest.version)?;
        Some((manifest, directory, images))
    });
    let Some((manifest, directory, files)) = parsed else {
        integrity.note_manifest_corrupt();
        return Slot::Corrupt;
    };
    let live = Live {
        version: manifest.version,
        directory,
        images: files,
    };
    // A manifest is only as good as the images it points at: the savepoint
    // is recoverable iff every blob verifies and decodes.
    let mut images = Vec::with_capacity(live.images.len());
    for f in &live.images {
        let blob = match f.read(pages) {
            Ok(b) => b,
            Err(_) => return Slot::Corrupt,
        };
        let img = integrity::open_envelope(ArtifactKind::TableImage, manifest.version, &blob)
            .ok()
            .and_then(|payload| TableImage::decode(&mut Decoder::new(payload)).ok());
        match img {
            Some(img) => {
                integrity.note_image_verified();
                images.push(img);
            }
            None => {
                integrity.note_image_corrupt();
                return Slot::Corrupt;
            }
        }
    }
    Slot::Valid(Box::new(LoadedManifest {
        manifest,
        live,
        images,
    }))
}

/// The newest fully recoverable manifest, plus whether any slot showed
/// checksum-level corruption (reported in fail-closed error messages).
fn read_best_valid_manifest(pages: &PageStore) -> (Option<LoadedManifest>, bool) {
    let a = load_manifest_slot(pages, 0);
    let b = load_manifest_slot(pages, 1);
    let saw_corruption = matches!(a, Slot::Corrupt) || matches!(b, Slot::Corrupt);
    let best = match (a, b) {
        (Slot::Valid(x), Slot::Valid(y)) => Some(if x.manifest.version >= y.manifest.version {
            *x
        } else {
            *y
        }),
        (Slot::Valid(x), _) => Some(*x),
        (_, Slot::Valid(y)) => Some(*y),
        _ => None,
    };
    (best, saw_corruption)
}

/// Validate a recovered manifest chain invariant (used by tests/tools).
pub fn check_recovered(state: &RecoveredState) -> Result<()> {
    for img in &state.images {
        for p in &img.main_parts {
            if p.row_ids.len() != p.begins.len() || p.begins.len() != p.ends.len() {
                return Err(HanaError::Persist(format!(
                    "inconsistent part image in table {}",
                    img.schema.name
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultErrorKind, FaultPolicy, IoOp};
    use crate::image::{DeltaImage, RowImage};
    use hana_common::TableId;
    use hana_common::{ColumnDef, DataType, RowId, Schema, TableConfig, TxnId, Value};
    use tempfile::tempdir;

    fn image(name: &str, rows: usize) -> TableImage {
        let schema = Schema::new(
            name,
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Str),
            ],
        )
        .unwrap();
        TableImage {
            table_id: 1,
            schema,
            config: TableConfig::default(),
            next_row_id: rows as u64,
            next_generation: 1,
            l1_rows: (0..rows)
                .map(|i| RowImage {
                    row_id: RowId(i as u64),
                    begin: 5,
                    end: u64::MAX,
                    values: vec![Value::Int(i as i64), Value::str(format!("v{i}"))],
                })
                .collect(),
            l2: DeltaImage::default(),
            main_parts: vec![],
            passive_count: 0,
            history: vec![],
        }
    }

    #[test]
    fn savepoint_then_recover() {
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        p.log()
            .append(&LogRecord::Commit {
                txn: TxnId(1),
                ts: 9,
            })
            .unwrap();
        p.log().flush().unwrap();
        let v = p
            .savepoint(
                10,
                &CommitConfig::default(),
                &GovernorConfig::default(),
                &[image("t", 100)],
            )
            .unwrap();
        assert_eq!(v, 1);
        // Log rotated (emptied) by the savepoint, onto the new epoch.
        assert_eq!(p.log().len_bytes().unwrap(), 0);
        assert_eq!(p.log().epoch(), 1);
        // Post-savepoint activity lands in the log.
        p.log()
            .append(&LogRecord::Delete {
                table: TableId(1),
                row_id: RowId(0),
                txn: TxnId(2),
            })
            .unwrap();
        p.log().flush().unwrap();
        drop(p);
        let rec = Persistence::recover_with_page_size(dir.path(), 256).unwrap();
        assert_eq!(rec.savepoint_version, 1);
        assert_eq!(rec.clock, 10);
        assert_eq!(rec.images.len(), 1);
        assert_eq!(rec.images[0].l1_rows.len(), 100);
        assert_eq!(rec.log_records.len(), 1);
        check_recovered(&rec).unwrap();
    }

    #[test]
    fn commit_config_round_trips_through_manifest() {
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        let cfg = CommitConfig::serial()
            .with_max_batch(17)
            .with_max_wait_us(250);
        p.savepoint(3, &cfg, &GovernorConfig::default(), &[image("t", 1)])
            .unwrap();
        drop(p);
        let rec = Persistence::recover_with_page_size(dir.path(), 256).unwrap();
        assert_eq!(rec.commit_config, cfg);
        // No savepoint ⇒ defaults.
        let dir2 = tempdir().unwrap();
        let rec2 = Persistence::recover_with_page_size(dir2.path(), 256).unwrap();
        assert_eq!(rec2.commit_config, CommitConfig::default());
    }

    #[test]
    fn governor_config_round_trips_through_manifest() {
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        let gov = GovernorConfig::default()
            .with_max_concurrent_scans(7)
            .with_scan_queue_timeout_ms(321)
            .with_oltp_p99_budget_us(1234)
            .with_min_scan_parallelism(2);
        p.savepoint(3, &CommitConfig::default(), &gov, &[image("t", 1)])
            .unwrap();
        drop(p);
        let rec = Persistence::recover_with_page_size(dir.path(), 256).unwrap();
        assert_eq!(rec.governor_config, gov);
        // A disabled governor survives the round trip too.
        let dir2 = tempdir().unwrap();
        let p2 = Persistence::open_with_page_size(dir2.path(), 256).unwrap();
        p2.savepoint(
            1,
            &CommitConfig::default(),
            &GovernorConfig::disabled(),
            &[image("t", 1)],
        )
        .unwrap();
        drop(p2);
        let rec2 = Persistence::recover_with_page_size(dir2.path(), 256).unwrap();
        assert_eq!(rec2.governor_config, GovernorConfig::disabled());
        // No savepoint ⇒ defaults.
        let dir3 = tempdir().unwrap();
        let rec3 = Persistence::recover_with_page_size(dir3.path(), 256).unwrap();
        assert_eq!(rec3.governor_config, GovernorConfig::default());
    }

    #[test]
    fn recover_empty_directory() {
        let dir = tempdir().unwrap();
        let rec = Persistence::recover(dir.path()).unwrap();
        assert_eq!(rec.savepoint_version, 0);
        assert!(rec.images.is_empty());
        assert!(rec.log_records.is_empty());
    }

    #[test]
    fn successive_savepoints_alternate_and_supersede() {
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        p.savepoint(
            5,
            &CommitConfig::default(),
            &GovernorConfig::default(),
            &[image("t", 10)],
        )
        .unwrap();
        p.savepoint(
            8,
            &CommitConfig::default(),
            &GovernorConfig::default(),
            &[image("t", 20)],
        )
        .unwrap();
        let v3 = p
            .savepoint(
                12,
                &CommitConfig::default(),
                &GovernorConfig::default(),
                &[image("t", 30)],
            )
            .unwrap();
        assert_eq!(v3, 3);
        drop(p);
        let rec = Persistence::recover_with_page_size(dir.path(), 256).unwrap();
        assert_eq!(rec.savepoint_version, 3);
        assert_eq!(rec.clock, 12);
        assert_eq!(rec.images[0].l1_rows.len(), 30);
    }

    #[test]
    fn crash_before_superblock_flip_keeps_old_savepoint() {
        // Simulate: savepoint 1 completes; then new image pages are written
        // but the superblock never flips (crash). Recovery must see v1.
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        p.savepoint(
            5,
            &CommitConfig::default(),
            &GovernorConfig::default(),
            &[image("t", 10)],
        )
        .unwrap();
        // Write orphan pages (as an interrupted savepoint would).
        let orphan = VirtualFile::write(p.pages(), &vec![9u8; 600]).unwrap();
        let _ = orphan;
        drop(p);
        let rec = Persistence::recover_with_page_size(dir.path(), 256).unwrap();
        assert_eq!(rec.savepoint_version, 1);
        assert_eq!(rec.images[0].l1_rows.len(), 10);
    }

    #[test]
    fn reopen_reclaims_orphaned_pages() {
        // Pages a crashed savepoint allocated but never published must be
        // reusable after reopen: allocated == 2 + free + live.
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        p.savepoint(
            5,
            &CommitConfig::default(),
            &GovernorConfig::default(),
            &[image("t", 10)],
        )
        .unwrap();
        let _orphan = VirtualFile::write(p.pages(), &vec![9u8; 2000]).unwrap();
        drop(p);
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        let acc = p.page_accounting();
        assert_eq!(
            acc.allocated,
            2 + acc.free + acc.live,
            "every non-superblock page is either live or free: {acc:?}"
        );
        assert!(acc.free > 0, "the orphaned pages are on the free list");
    }

    #[test]
    fn failed_savepoint_releases_pages_and_keeps_old_manifest() {
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        p.savepoint(
            5,
            &CommitConfig::default(),
            &GovernorConfig::default(),
            &[image("t", 10)],
        )
        .unwrap();
        let before = p.page_accounting();
        // Fail the 3rd image-page write of the next savepoint.
        p.injector().arm(FaultPolicy::fail_nth(
            IoOp::PageWrite,
            2,
            FaultErrorKind::Enospc,
        ));
        let err = p
            .savepoint(
                8,
                &CommitConfig::default(),
                &GovernorConfig::default(),
                &[image("t", 50)],
            )
            .unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        let after = p.page_accounting();
        assert_eq!(
            after.allocated - 2 - after.live,
            after.free,
            "partial savepoint must not leak pages: {after:?}"
        );
        assert_eq!(after.live, before.live, "old savepoint still live");
        // A healthy retry succeeds and recovery sees it.
        let v = p
            .savepoint(
                8,
                &CommitConfig::default(),
                &GovernorConfig::default(),
                &[image("t", 50)],
            )
            .unwrap();
        assert_eq!(v, 2);
        drop(p);
        let rec = Persistence::recover_with_page_size(dir.path(), 256).unwrap();
        assert_eq!(rec.savepoint_version, 2);
        assert_eq!(rec.images[0].l1_rows.len(), 50);
    }

    #[test]
    fn crash_between_flip_and_rotation_does_not_replay_stale_log() {
        // The window the epoch header closes: manifest v1 is durable but the
        // old log (epoch 0) still holds records whose rows v1's images
        // already contain. Replaying them would duplicate the rows.
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        p.log()
            .append(&LogRecord::Commit {
                txn: TxnId(1),
                ts: 9,
            })
            .unwrap();
        p.log().flush().unwrap();
        // Savepoint whose rotation "crashes".
        p.injector().arm(FaultPolicy::fail_nth(
            IoOp::LogRotate,
            0,
            FaultErrorKind::Eio,
        ));
        assert!(p
            .savepoint(
                10,
                &CommitConfig::default(),
                &GovernorConfig::default(),
                &[image("t", 10)]
            )
            .is_err());
        // The log is wedged: appending to the stale epoch would lose data.
        assert!(p.log().is_wedged());
        assert!(p
            .append_record(&LogRecord::Abort { txn: TxnId(9) })
            .is_err());
        drop(p);
        let rec = Persistence::recover_with_page_size(dir.path(), 256).unwrap();
        assert_eq!(rec.savepoint_version, 1, "manifest v1 is durable");
        assert!(
            rec.log_records.is_empty(),
            "stale epoch-0 records must not replay onto v1 images"
        );
        // Reopening reconciles: the log is rotated to the manifest's epoch.
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        assert_eq!(p.log().epoch(), 1);
        assert!(!p.log().is_wedged());
    }

    #[test]
    fn repeated_io_failures_flip_read_only_degraded_mode() {
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        p.injector()
            .arm(FaultPolicy::fail_nth(IoOp::PageWrite, 0, FaultErrorKind::Eio).persistent());
        for i in 0..3 {
            assert!(p
                .savepoint(
                    i,
                    &CommitConfig::default(),
                    &GovernorConfig::default(),
                    &[image("t", 5)]
                )
                .is_err());
        }
        let hs = p.health_stats();
        assert!(hs.read_only, "{hs:?}");
        assert_eq!(hs.savepoint_failures, 3);
        assert_eq!(hs.consecutive_failures, 3);
        // Degraded: writes rejected even though the device is now healthy…
        p.injector().disarm();
        let err = p
            .append_record(&LogRecord::Abort { txn: TxnId(1) })
            .unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
        assert!(p
            .commit_record(&CommitConfig::default(), || {
                Ok((
                    LogRecord::Commit {
                        txn: TxnId(1),
                        ts: 1,
                    },
                    (),
                ))
            })
            .is_err());
        assert!(p
            .savepoint(
                9,
                &CommitConfig::default(),
                &GovernorConfig::default(),
                &[image("t", 5)]
            )
            .is_err());
        // …until the operator clears it.
        p.clear_degraded();
        assert!(!p.health_stats().read_only);
        p.savepoint(
            9,
            &CommitConfig::default(),
            &GovernorConfig::default(),
            &[image("t", 5)],
        )
        .unwrap();
    }

    #[test]
    fn corrupt_newest_superblock_falls_back() {
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        p.savepoint(
            5,
            &CommitConfig::default(),
            &GovernorConfig::default(),
            &[image("t", 10)],
        )
        .unwrap(); // slot 1
        p.savepoint(
            8,
            &CommitConfig::default(),
            &GovernorConfig::default(),
            &[image("t", 20)],
        )
        .unwrap(); // slot 0 (v2)
        drop(p);
        // Corrupt slot 0 (the newest, version 2).
        let path = dir.path().join("data.pages");
        let mut raw = std::fs::read(&path).unwrap();
        for b in raw.iter_mut().take(64) {
            *b ^= 0xFF;
        }
        std::fs::write(&path, &raw).unwrap();
        let rec = Persistence::recover_with_page_size(dir.path(), 256).unwrap();
        // Falls back to version 1.
        assert_eq!(rec.savepoint_version, 1);
        assert_eq!(rec.images[0].l1_rows.len(), 10);
    }

    #[test]
    fn manifest_needing_many_pages_round_trips() {
        // 128-byte pages carry 116 payload bytes: forty image descriptors
        // (~14 bytes each) could never be listed inline in a superblock.
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 128).unwrap();
        let images: Vec<TableImage> = (0..40)
            .map(|i| image(&format!("t{i}"), i % 5 + 1))
            .collect();
        p.savepoint(
            5,
            &CommitConfig::default(),
            &GovernorConfig::default(),
            &images,
        )
        .unwrap();
        p.savepoint(
            7,
            &CommitConfig::default(),
            &GovernorConfig::default(),
            &images,
        )
        .unwrap();
        let directory = p.directory_page_ids();
        assert!(directory.len() > 1, "directory spans {directory:?}");
        drop(p);
        let rec = Persistence::recover_with_page_size(dir.path(), 128).unwrap();
        assert_eq!((rec.savepoint_version, rec.clock), (2, 7));
        assert_eq!(rec.images.len(), 40);
        for (i, img) in rec.images.iter().enumerate() {
            assert_eq!(img.schema.name, format!("t{i}"));
            assert_eq!(img.l1_rows.len(), i % 5 + 1);
        }
        // Reopen follows the indirection: the directory's pages are live,
        // everything else allocated is free.
        let p = Persistence::open_with_page_size(dir.path(), 128).unwrap();
        assert_eq!(p.directory_page_ids(), directory);
        let live = p.live_page_ids();
        assert!(directory.iter().all(|d| live.contains(d)));
        let acc = p.page_accounting();
        assert_eq!(acc.allocated, 2 + acc.free + acc.live, "{acc:?}");
    }

    #[test]
    fn damaged_directory_falls_back_one_generation() {
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        let cc = CommitConfig::default();
        let gc = GovernorConfig::default();
        p.savepoint(5, &cc, &gc, &[image("t", 10)]).unwrap();
        p.savepoint(8, &cc, &gc, &[image("t", 20)]).unwrap();
        let page = p.directory_page_ids()[0];
        drop(p);
        let path = dir.path().join("data.pages");
        let mut raw = std::fs::read(&path).unwrap();
        raw[page as usize * 256 + 20] ^= 1;
        std::fs::write(&path, &raw).unwrap();
        let rec = Persistence::recover_with_page_size(dir.path(), 256).unwrap();
        assert_eq!(rec.savepoint_version, 1);
        assert_eq!(rec.images[0].l1_rows.len(), 10);
    }

    #[test]
    fn inline_listing_from_before_the_directory_fails_closed() {
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        let mut e = Encoder::new();
        image("t", 3).encode(&mut e);
        let blob = integrity::seal(ArtifactKind::TableImage, 1, &e.into_bytes());
        let file = VirtualFile::write(p.pages(), &blob).unwrap();
        // A savepoint-v1 superblock listing its one image inline.
        let mut m = Encoder::new();
        m.u64(1);
        m.u64(4);
        encode_commit_config(&mut m, &CommitConfig::default());
        encode_governor_config(&mut m, &GovernorConfig::default());
        m.u32(1);
        file.encode(&mut m);
        p.pages().write_page(PageId(1), &m.into_bytes()).unwrap();
        p.pages().sync().unwrap();
        p.log().rotate(1).unwrap();
        drop(p);
        let refused = |r: Result<()>| matches!(r, Err(HanaError::Corruption(_)));
        let recovered = Persistence::recover_with_page_size(dir.path(), 256);
        assert!(refused(recovered.map(|_| ())));
        let opened = Persistence::open_with_page_size(dir.path(), 256);
        assert!(refused(opened.map(|_| ())));
    }

    /// The superblock slot the first savepoint leaves unwritten reads as
    /// zeros: unwritten, not corrupt. The scrub passes over it without
    /// finding damage, and a reopen counts no corrupt manifest.
    #[test]
    fn unwritten_superblock_slot_is_not_corruption() {
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        let (cc, gc) = (CommitConfig::default(), GovernorConfig::default());
        assert_eq!(p.savepoint(5, &cc, &gc, &[image("t", 50)]).unwrap(), 1);
        let mut passes = 0;
        while passes < 3 {
            passes += p.scrub_tick(3).completed_pass as usize;
        }
        let stats = p.integrity_stats();
        assert_eq!(stats.scrub_corruptions, 0, "{stats:?}");
        assert!(stats.scrub_pages_scanned > 6, "{stats:?}");
        assert!(!p.health_stats().read_only);
        drop(p);
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        assert_eq!(p.integrity_stats().manifests_corrupt, 0);
    }

    #[test]
    fn multiple_tables_per_savepoint() {
        let dir = tempdir().unwrap();
        let p = Persistence::open_with_page_size(dir.path(), 256).unwrap();
        p.savepoint(
            5,
            &CommitConfig::default(),
            &GovernorConfig::default(),
            &[image("a", 3), image("b", 7)],
        )
        .unwrap();
        drop(p);
        let rec = Persistence::recover_with_page_size(dir.path(), 256).unwrap();
        assert_eq!(rec.images.len(), 2);
        assert_eq!(rec.images[0].schema.name, "a");
        assert_eq!(rec.images[1].l1_rows.len(), 7);
    }
}
