//! Unified-table tuning knobs.
//!
//! The defaults follow the paper's rules of thumb: an L1-delta of
//! 10k–100k rows per node, an L2-delta of up to ~10M rows, and merge
//! scheduling that keeps resource-intensive main rebuilds rare.

/// How the delta-to-main merge should be performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// §4.1 classic merge: merge dictionaries, recode, rebuild the full main.
    Classic,
    /// §4.2 re-sorting merge: additionally re-orders rows for cross-column
    /// compression, guided by column statistics.
    ReSorting,
    /// §4.3 partial merge: merge the L2-delta only into the *active* main,
    /// leaving the passive main untouched.
    Partial,
    /// Let the cost-based policy pick per merge (partial while the active
    /// main is small, consolidating full merges when it grows).
    Auto,
}

/// Tuning knobs for the merge machinery itself (as opposed to the
/// per-table *scheduling* thresholds in [`TableConfig`]).
///
/// Both degrees use `0` to mean "auto": size from the number of logical
/// CPUs at runtime. `1` forces the serial paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeConfig {
    /// Worker threads fanning out the per-column work (dictionary merge,
    /// recode, value-index rebuild) of one delta-to-main merge.
    pub column_parallelism: usize,
    /// Worker threads in the merge daemon's pool, so several tables can
    /// merge concurrently.
    pub daemon_workers: usize,
}

impl MergeConfig {
    /// Force every merge path serial (useful for determinism baselines).
    pub fn serial() -> Self {
        MergeConfig {
            column_parallelism: 1,
            daemon_workers: 1,
        }
    }

    /// Builder-style override of the per-column fan-out degree.
    pub fn with_column_parallelism(mut self, workers: usize) -> Self {
        self.column_parallelism = workers;
        self
    }

    /// Builder-style override of the daemon pool size.
    pub fn with_daemon_workers(mut self, workers: usize) -> Self {
        self.daemon_workers = workers;
        self
    }
}

/// Tuning knobs for the scan engine of the read path.
///
/// `0` means "auto": size the chunk fan-out from the number of logical
/// CPUs at runtime. `1` forces the serial scan path. Either way the scan
/// result is bit-identical (chunk boundaries are fixed; parallelism only
/// changes scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanConfig {
    /// Worker threads fanning main-store scans out over row chunks.
    pub scan_parallelism: usize,
}

impl ScanConfig {
    /// Force every scan path serial (useful for determinism baselines).
    pub fn serial() -> Self {
        ScanConfig {
            scan_parallelism: 1,
        }
    }

    /// Builder-style override of the scan fan-out degree.
    pub fn with_scan_parallelism(mut self, workers: usize) -> Self {
        self.scan_parallelism = workers;
        self
    }
}

/// Tuning knobs for the commit path of a durable database.
///
/// With `group_commit` enabled, concurrent committers share one
/// `write + fsync`: the first committer to reach the log becomes the batch
/// leader, gathers followers for up to `max_wait_us` (or until `max_batch`
/// records are pending), syncs once, and wakes every waiter whose record
/// made it to disk. `commit()` still returns only after the caller's own
/// commit record is durable — batching changes *when* the fsync happens,
/// never the durability contract. With `group_commit` disabled every commit
/// performs its own fsync (the classic one-sync-per-transaction path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitConfig {
    /// Batch concurrent commit/abort records into shared fsyncs.
    pub group_commit: bool,
    /// Cap on records retired by one batch; a full batch flushes without
    /// waiting out the gather window.
    pub max_batch: usize,
    /// How long (µs) a batch leader waits for followers before syncing.
    /// `0` syncs immediately (batching still happens while the leader's
    /// fsync is in flight).
    pub max_wait_us: u64,
}

impl Default for CommitConfig {
    fn default() -> Self {
        CommitConfig {
            group_commit: true,
            max_batch: 64,
            max_wait_us: 100,
        }
    }
}

impl CommitConfig {
    /// The classic fsync-per-commit path (useful as a baseline and for
    /// latency-critical single-writer workloads).
    pub fn serial() -> Self {
        CommitConfig {
            group_commit: false,
            ..CommitConfig::default()
        }
    }

    /// Builder-style switch of group commit.
    pub fn with_group_commit(mut self, on: bool) -> Self {
        self.group_commit = on;
        self
    }

    /// Builder-style override of the per-batch record cap.
    pub fn with_max_batch(mut self, n: usize) -> Self {
        self.max_batch = n;
        self
    }

    /// Builder-style override of the leader gather window (µs).
    pub fn with_max_wait_us(mut self, us: u64) -> Self {
        self.max_wait_us = us;
        self
    }
}

/// Tuning knobs for the interference-aware resource governor.
///
/// The governor sits between the calc/scan layer and the shared thread
/// pools and protects OLTP tail latency under concurrent OLAP load: it
/// admits at most `max_concurrent_scans` analytical scans at a time
/// (FIFO, with a queue timeout), shrinks the per-scan chunk fan-out
/// toward `min_scan_parallelism` while the observed commit rate says the
/// OLTP side is hot, and defers background merges/GC during those hot
/// phases. Admission and clamping never change *results* — only
/// scheduling — so a query returns bit-identical rows with the governor
/// on, off, or queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Master switch; `false` restores the ungoverned scheduler.
    pub enabled: bool,
    /// Analytical scans admitted concurrently; further scans queue FIFO.
    /// `0` means "no admission limit" (clamping still applies).
    pub max_concurrent_scans: usize,
    /// How long (ms) a queued scan waits for admission before failing
    /// with a retryable error. `0` waits indefinitely.
    pub scan_queue_timeout_ms: u64,
    /// OLTP p99 latency budget (µs). Commits arriving more often than
    /// once per budget mark the write side *hot*: scan fan-out clamps and
    /// merges defer until the pressure decays.
    pub oltp_p99_budget_us: u64,
    /// Floor the hot-phase clamp shrinks a scan's fan-out to (`1` =
    /// serial).
    pub min_scan_parallelism: usize,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            enabled: true,
            max_concurrent_scans: 2,
            scan_queue_timeout_ms: 1_000,
            oltp_p99_budget_us: 5_000,
            min_scan_parallelism: 1,
        }
    }
}

impl GovernorConfig {
    /// The ungoverned scheduler (baseline arm of the F12 interference
    /// experiment): no admission, no clamping, no merge deferral.
    pub fn disabled() -> Self {
        GovernorConfig {
            enabled: false,
            ..GovernorConfig::default()
        }
    }

    /// Builder-style master switch.
    pub fn with_enabled(mut self, on: bool) -> Self {
        self.enabled = on;
        self
    }

    /// Builder-style override of the scan admission limit.
    pub fn with_max_concurrent_scans(mut self, n: usize) -> Self {
        self.max_concurrent_scans = n;
        self
    }

    /// Builder-style override of the admission queue timeout (ms).
    pub fn with_scan_queue_timeout_ms(mut self, ms: u64) -> Self {
        self.scan_queue_timeout_ms = ms;
        self
    }

    /// Builder-style override of the OLTP p99 budget (µs).
    pub fn with_oltp_p99_budget_us(mut self, us: u64) -> Self {
        self.oltp_p99_budget_us = us;
        self
    }

    /// Builder-style override of the hot-phase fan-out floor.
    pub fn with_min_scan_parallelism(mut self, n: usize) -> Self {
        self.min_scan_parallelism = n;
        self
    }
}

/// Cumulative counters of the resource governor (since database open).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Scans that received an admission token (immediately or after
    /// queueing).
    pub scans_admitted: u64,
    /// Scans that had to queue behind the token bucket.
    pub scans_queued: u64,
    /// Queued scans that hit the admission timeout (surfaced to the
    /// caller as a retryable error).
    pub scans_timed_out: u64,
    /// Scans whose chunk fan-out was shrunk below the requested degree
    /// because the OLTP signal was hot.
    pub parallelism_downshifts: u64,
    /// Background merge/GC attempts pushed back while the OLTP signal
    /// was hot.
    pub merge_deferrals: u64,
}

/// Tuning knobs for the background integrity scrub.
///
/// The scrub rides the merge-daemon infrastructure: each daemon tick it
/// re-verifies the checksums of up to `batch_pages` on-disk pages (the
/// superblock slots plus every page the live savepoint references),
/// wrapping around, and re-verifies one whole table-image blob per
/// completed pass. It is governor-aware — under a hot OLTP signal the
/// batch is deferred like any other background work — so rot is found
/// early without stealing the write path's I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubConfig {
    /// Pages verified per daemon tick. `0` disables the scrub.
    pub batch_pages: usize,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig { batch_pages: 128 }
    }
}

impl ScrubConfig {
    /// Builder-style override of the per-tick page budget.
    pub fn with_batch_pages(mut self, n: usize) -> Self {
        self.batch_pages = n;
        self
    }
}

/// User-facing partitioning request for
/// `Database::create_partitioned_table`: split a logical table into
/// `partitions` hash partitions on the value of `hash_column`.
///
/// The `TableConfig` passed alongside keeps describing the *logical*
/// table: its delta thresholds (`l1_max_rows`, `l2_max_rows`) are the
/// table-wide budget and get divided across partitions, so partitioning
/// shards the delta instead of multiplying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Number of hash partitions (must be ≥ 1).
    pub partitions: usize,
    /// Index of the column whose value routes a row to its partition.
    pub hash_column: usize,
}

impl PartitionConfig {
    /// Partition `partitions` ways on `hash_column`.
    pub fn new(partitions: usize, hash_column: usize) -> Self {
        PartitionConfig {
            partitions,
            hash_column,
        }
    }
}

/// Persisted identity of one partition inside a partitioned table.
///
/// Stamped on each partition's `TableConfig`, so it rides the existing
/// config codec into `CreateTable` log records and savepoint images;
/// recovery groups partitions back into their logical table by `group`
/// and orders them by `index`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Name of the logical (partitioned) table this shard belongs to.
    pub group: String,
    /// Index of the hash/routing column.
    pub hash_column: u32,
    /// This partition's position within the group (0-based).
    pub index: u32,
    /// Total number of partitions in the group.
    pub of: u32,
}

/// Per-table configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TableConfig {
    /// L1→L2 merge triggers when the L1-delta reaches this many rows
    /// (paper: 10,000–100,000 rows).
    pub l1_max_rows: usize,
    /// Delta-to-main merge triggers when the L2-delta reaches this many rows
    /// (paper: up to 10 million; defaults far lower for test-scale tables).
    pub l2_max_rows: usize,
    /// Merge strategy for delta-to-main merges.
    pub merge_strategy: MergeStrategy,
    /// Partial merges consolidate into a full merge once the active main
    /// exceeds this fraction of the passive main's rows.
    pub active_main_max_fraction: f64,
    /// Block size for cluster encoding and blockwise scans.
    pub block_size: usize,
    /// Whether the table is *historic*: superseded versions are moved to the
    /// history store instead of being garbage collected, enabling time
    /// travel (paper §2.2/§4.3).
    pub historic: bool,
    /// Parallelism knobs for the merge machinery.
    pub merge: MergeConfig,
    /// Parallelism knobs for the scan engine.
    pub scan: ScanConfig,
    /// Set iff this table is one partition of a hash-partitioned logical
    /// table; carries the metadata recovery needs to regroup the shards.
    pub partition: Option<PartitionSpec>,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            l1_max_rows: 10_000,
            l2_max_rows: 200_000,
            merge_strategy: MergeStrategy::Auto,
            active_main_max_fraction: 0.25,
            block_size: 1024,
            historic: false,
            merge: MergeConfig::default(),
            scan: ScanConfig::default(),
            partition: None,
        }
    }
}

impl TableConfig {
    /// Small thresholds suitable for unit tests: merges trigger quickly.
    pub fn small() -> Self {
        TableConfig {
            l1_max_rows: 16,
            l2_max_rows: 64,
            ..TableConfig::default()
        }
    }

    /// Builder-style override of the L1 threshold.
    pub fn with_l1_max(mut self, rows: usize) -> Self {
        self.l1_max_rows = rows;
        self
    }

    /// Builder-style override of the L2 threshold.
    pub fn with_l2_max(mut self, rows: usize) -> Self {
        self.l2_max_rows = rows;
        self
    }

    /// Builder-style override of the merge strategy.
    pub fn with_strategy(mut self, s: MergeStrategy) -> Self {
        self.merge_strategy = s;
        self
    }

    /// Builder-style switch to a historic (time-travel) table.
    pub fn with_history(mut self) -> Self {
        self.historic = true;
        self
    }

    /// Builder-style override of the merge parallelism knobs.
    pub fn with_merge(mut self, merge: MergeConfig) -> Self {
        self.merge = merge;
        self
    }

    /// Builder-style override of the scan parallelism knobs.
    pub fn with_scan(mut self, scan: ScanConfig) -> Self {
        self.scan = scan;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper_rules_of_thumb() {
        let c = TableConfig::default();
        assert!((10_000..=100_000).contains(&c.l1_max_rows));
        assert!(c.l2_max_rows > c.l1_max_rows);
        assert_eq!(c.merge_strategy, MergeStrategy::Auto);
        assert!(!c.historic);
    }

    #[test]
    fn builders_compose() {
        let c = TableConfig::small()
            .with_l1_max(4)
            .with_l2_max(8)
            .with_strategy(MergeStrategy::Partial)
            .with_history()
            .with_merge(MergeConfig::serial().with_column_parallelism(3))
            .with_scan(ScanConfig::default().with_scan_parallelism(5));
        assert_eq!(c.l1_max_rows, 4);
        assert_eq!(c.l2_max_rows, 8);
        assert_eq!(c.merge_strategy, MergeStrategy::Partial);
        assert!(c.historic);
        assert_eq!(c.merge.column_parallelism, 3);
        assert_eq!(c.merge.daemon_workers, 1);
        assert_eq!(c.scan.scan_parallelism, 5);
    }

    #[test]
    fn commit_config_defaults_and_builders() {
        let c = CommitConfig::default();
        assert!(c.group_commit);
        assert!(c.max_batch > 1);
        assert!(!CommitConfig::serial().group_commit);
        let c = CommitConfig::serial()
            .with_group_commit(true)
            .with_max_batch(8)
            .with_max_wait_us(50);
        assert!(c.group_commit);
        assert_eq!(c.max_batch, 8);
        assert_eq!(c.max_wait_us, 50);
    }

    #[test]
    fn merge_config_auto_by_default() {
        let m = MergeConfig::default();
        assert_eq!(m.column_parallelism, 0);
        assert_eq!(m.daemon_workers, 0);
        assert_eq!(MergeConfig::serial().column_parallelism, 1);
    }

    #[test]
    fn scan_config_auto_by_default() {
        assert_eq!(ScanConfig::default().scan_parallelism, 0);
        assert_eq!(ScanConfig::serial().scan_parallelism, 1);
    }
}
