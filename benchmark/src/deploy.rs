//! The deployment under test, and the scratch directory it lives in.
//!
//! Every workload drives the PR 10 deployment: 8 tenant archives on one
//! 4-shard `ShardedStore::on_disk(..).with_parallel_executor()` behind
//! `PipelinedStore::spawn_with_durability(.., PipelineConfig::batched(64),
//! DurabilityMode::Wal(..))` behind `cpdb_serve::Database`, on
//! `DiskBackend`, with every simulated latency left at its zero default.

use crate::gen::{Dataset, PRELOAD_TXNS, TENANTS, TXN_RECORDS};
use crate::trace::{BackendCounts, TracedBackend, TracedStore, Tracer};
use cpdb::core::{
    DurabilityMode, PipelineConfig, PipelinedStore, ProvRecord, ProvStore, ShardedStore,
};
use cpdb::serve::{Consistency, Database, Session};
use cpdb::storage::{Backend, DiskBackend, Wal};
use std::path::{Path as FsPath, PathBuf};
use std::sync::Arc;

pub type Error = Box<dyn std::error::Error + Send + Sync>;

pub const SHARDS: usize = 4;
pub const COMMIT_BATCH: usize = 64;
/// Records per `insert_batch` call of the preload.
const PRELOAD_CALL: usize = 256;

/// A directory under `benchmark/out/` that is removed when dropped, so
/// every exit path (success, failed check, `?`) leaves nothing behind.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new(label: &str) -> Result<Scratch, Error> {
        let out = PathBuf::from("benchmark/out");
        std::fs::create_dir_all(&out)?;
        // A killed run cannot run its destructors: sweep what runs that
        // no longer exist left behind.
        for entry in std::fs::read_dir(&out)?.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let pid = name.strip_prefix("run-").and_then(|rest| rest.split('-').next());
            if pid.is_some_and(|pid| !FsPath::new("/proc").join(pid).exists()) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let dir = out.join(format!("run-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What a traced deployment records into.
#[derive(Clone)]
pub struct Tracing {
    pub tracer: Arc<Tracer>,
    pub wal_counts: Arc<BackendCounts>,
}

impl Tracing {
    pub fn new() -> Tracing {
        Tracing { tracer: Tracer::new(), wal_counts: Arc::default() }
    }
}

pub struct Deployment {
    pub dir: PathBuf,
    pub sharded: Arc<ShardedStore>,
    pub pipe: Arc<PipelinedStore>,
    pub db: Database,
}

impl Deployment {
    /// Builds an empty deployment in `dir` and registers the tenants.
    pub fn create(dir: &FsPath, data: &Dataset, tracing: Option<&Tracing>) -> Result<Self, Error> {
        let containers: Vec<_> = (0..TENANTS as u8).map(|t| data.tenant_root(t)).collect();
        let boundaries = ShardedStore::split_points(&containers, SHARDS);
        let sharded = ShardedStore::on_disk(dir.join("store"), boundaries, true)?;
        Self::assemble(dir, sharded, data, tracing)
    }

    /// Reopens the deployment `create` left in `dir`, replaying the WAL.
    pub fn open(dir: &FsPath, data: &Dataset) -> Result<Self, Error> {
        let sharded = ShardedStore::open_disk(dir.join("store"))?;
        Self::assemble(dir, sharded, data, None)
    }

    fn assemble(
        dir: &FsPath,
        sharded: ShardedStore,
        data: &Dataset,
        tracing: Option<&Tracing>,
    ) -> Result<Self, Error> {
        let sharded = Arc::new(sharded.with_parallel_executor());
        assert_eq!(sharded.shard_count(), SHARDS);
        let wal_file = DiskBackend::open(dir.join("prov.wal"))?;
        let (inner, wal_backend): (Arc<dyn ProvStore>, Arc<dyn Backend>) = match tracing {
            None => (sharded.clone(), Arc::new(wal_file)),
            Some(t) => (
                Arc::new(TracedStore::new(sharded.clone(), t.tracer.clone())),
                Arc::new(TracedBackend::new(
                    wal_file,
                    t.tracer.clone(),
                    t.wal_counts.clone(),
                    ["wal.backend.read_page", "wal.backend.write_page", "wal.backend.sync"],
                )),
            ),
        };
        let pipe = Arc::new(PipelinedStore::spawn_with_durability(
            inner,
            PipelineConfig::batched(COMMIT_BATCH),
            DurabilityMode::Wal(Wal::open(wal_backend)?),
        )?);
        let db = Database::new(pipe.clone());
        for t in 0..TENANTS as u8 {
            db.create_archive(data.tenant_label(t), false)?;
        }
        Ok(Deployment { dir: dir.to_owned(), sharded, pipe, db })
    }

    /// One session per tenant at `consistency`.
    pub fn sessions(
        &self,
        data: &Dataset,
        consistency: Consistency,
    ) -> Result<Vec<Session>, Error> {
        (0..TENANTS as u8)
            .map(|t| Ok(self.db.session(data.tenant_label(t), consistency)?))
            .collect()
    }

    /// Preloads the 200,000 records through `Session::insert_batch` in
    /// 256-record calls (tenants in rotation, so all four commit lanes
    /// work and each tenant's hot set lands contiguously at the front
    /// of its shard's heap), then `flush` + `checkpoint`.
    pub fn preload(&self, data: &Dataset) -> Result<(), Error> {
        let sessions = self.sessions(data, Consistency::ReadYourWrites)?;
        let txns_per_call = (PRELOAD_CALL / TXN_RECORDS) as u32;
        let mut call: Vec<ProvRecord> = Vec::with_capacity(PRELOAD_CALL);
        for first in (0..PRELOAD_TXNS).step_by(txns_per_call as usize) {
            for (t, session) in sessions.iter().enumerate() {
                call.clear();
                for txn in first..(first + txns_per_call).min(PRELOAD_TXNS) {
                    call.extend(data.txn_records(t as u8, txn));
                }
                session.insert_batch(&call)?;
            }
        }
        self.quiesce()
    }

    /// `flush` + `checkpoint`: everything acknowledged is in the
    /// tables, the tables are on disk, the WAL is empty.
    pub fn quiesce(&self) -> Result<(), Error> {
        self.pipe.flush()?;
        self.pipe.checkpoint()?;
        Ok(())
    }

    /// Bytes of every file under the deployment directory.
    pub fn disk_bytes(&self) -> Result<u64, Error> {
        dir_bytes(&self.dir, &|_| true)
    }

    /// Bytes of the index sidecars alone.
    pub fn sidecar_bytes(&self) -> Result<u64, Error> {
        dir_bytes(&self.dir, &|name| name.ends_with(".idx.tbl"))
    }
}

fn dir_bytes(dir: &FsPath, keep: &dyn Fn(&str) -> bool) -> Result<u64, Error> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += dir_bytes(&entry.path(), keep)?;
        } else if keep(&entry.file_name().to_string_lossy()) {
            total += meta.len();
        }
    }
    Ok(total)
}
