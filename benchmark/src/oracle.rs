//! The shadow `MemStore`: the reference every sampled answer, count
//! and reopen probe is compared with.
//!
//! It is built from the generator after the measured window (the data
//! set is a pure function of the seed and of how many transactions
//! each curator had acknowledged), so the oracle's memory never shows
//! in `peak_rss_mb`.

use crate::clients::{digest, drain_digest, read_target, run_read, SampleOp, SCAN_BATCH};
use crate::deploy::Error;
use crate::gen::{AuditOp, Dataset, PRELOAD_TXNS, TENANTS, TNOW};
use cpdb::core::{MemStore, ProvStore, QueryEngine};
use std::sync::Arc;

pub struct Oracle<'a> {
    data: &'a Dataset,
    store: Arc<MemStore>,
    engines: Vec<QueryEngine>,
}

impl<'a> Oracle<'a> {
    /// `next_txn[t]` is the first transaction of tenant `t` that was
    /// *not* acknowledged ([`PRELOAD_TXNS`] for a tenant nobody wrote).
    pub fn build(data: &'a Dataset, next_txn: &[u32; TENANTS]) -> Result<Oracle<'a>, Error> {
        let store = Arc::new(MemStore::new());
        for (t, &end) in next_txn.iter().enumerate() {
            for txn in 0..end.max(PRELOAD_TXNS) {
                store.insert_batch(&data.txn_records(t as u8, txn))?;
            }
        }
        let engines = (0..TENANTS as u8)
            .map(|t| QueryEngine::new(store.clone(), false, data.tenant_label(t)))
            .collect();
        Ok(Oracle { data, store, engines })
    }

    pub fn len(&self) -> u64 {
        self.store.len()
    }

    pub fn tenant_len(&self, tenant: u8) -> Result<u64, Error> {
        Ok(self.store.by_loc_prefix(&self.data.tenant_root(tenant))?.len() as u64)
    }

    /// The digest the deployment's answer to `op` must have.
    pub fn answer(&self, op: SampleOp) -> Result<u64, Error> {
        Ok(match op {
            SampleOp::Read(op) => {
                let engine = &self.engines[op.key().tenant as usize];
                digest(&run_read(engine, op, &read_target(self.data, op))?)
            }
            SampleOp::Audit(AuditOp::Scan { tenant, container }) => {
                let prefix = self.data.container(tenant, container);
                let mut cursor = self.store.scan_loc_prefix(&prefix, SCAN_BATCH)?;
                let mut pages = Vec::new();
                while let Some(page) = cursor.next_batch()? {
                    pages.push(page);
                }
                drain_digest(&pages)
            }
            SampleOp::Audit(AuditOp::Mod { tenant, container }) => {
                let nodes = self.data.container_nodes(tenant, container, PRELOAD_TXNS);
                digest(&self.engines[tenant as usize].get_mod(&nodes, TNOW)?)
            }
        })
    }
}
