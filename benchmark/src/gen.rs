//! The seeded generator: records, chains, the hot set and op streams.
//!
//! The program under test only ever sees what this module generates.
//! The data set is 8 tenants × 3,125 transactions × 8 records. A
//! transaction `j` of tenant `t` writes the subtree `t{t}/c{j%16}/s{j}`
//! in the shape of the paper's `real` pattern (Table 2): a 4-node copy,
//! 3 inserts, 1 delete. The copy's source is the subtree written 64
//! transactions earlier by the same tenant, except that every fourth
//! stride copies from the external database `S` — so `trace` and
//! `get_hist` walk chains of at most [`MAX_HOPS`] copy steps. The seed
//! chooses the field names (fixed width, so record sizes do not depend
//! on it) and drives every op stream.

use cpdb::core::{ProvRecord, Tid};
use cpdb::tree::{Label, Path};

/// Tenant archives `t0..t7`.
pub const TENANTS: usize = 8;
/// Preloaded transactions per tenant.
pub const PRELOAD_TXNS: u32 = 3_125;
/// Records per transaction.
pub const TXN_RECORDS: usize = 8;
/// Containers `c0..c15` per tenant; transaction `j` lives in `c{j%16}`.
pub const CONTAINERS: u32 = 16;
/// A copy's source is the subtree written this many transactions ago.
pub const STRIDE: u32 = 64;
/// Longest copy chain inside a tenant.
pub const MAX_HOPS: u32 = 4;
/// The hot set: the first 128 subtrees of every tenant (8,192 records).
pub const HOT_TXNS: u32 = 128;
/// Records the set-up preloads.
pub const PRELOAD_RECORDS: u64 = TENANTS as u64 * PRELOAD_TXNS as u64 * TXN_RECORDS as u64;
/// "Now" for every query: later than any transaction the run writes.
pub const TNOW: Tid = Tid(1 << 40);

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One record's address in the generated data set.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Key {
    pub tenant: u8,
    pub txn: u32,
    /// 0..4 the copied nodes (0 is the subtree root), 4..7 the
    /// inserts, 7 the delete.
    pub slot: u8,
}

/// One query-client call.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReadOp {
    Hist(Key),
    Src(Key),
    Trace(Key),
    /// `by_loc_prefix` over the key's whole subtree.
    Prefix(Key),
}

impl ReadOp {
    pub fn key(self) -> Key {
        let (ReadOp::Hist(key) | ReadOp::Src(key) | ReadOp::Trace(key) | ReadOp::Prefix(key)) =
            self;
        key
    }
}

/// One auditor call over a tenant's container.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AuditOp {
    /// `scan_loc_prefix(t/c, 256)`, drained.
    Scan { tenant: u8, container: u8 },
    /// `get_mod` over every node of the container.
    Mod { tenant: u8, container: u8 },
}

/// The query mix: 40% `get_hist`, 30% `get_src`, 20% `trace`, 10%
/// `by_loc_prefix(subtree)`, keys uniform over the first `txns`
/// transactions of every tenant ([`HOT_TXNS`] for the hot set,
/// [`PRELOAD_TXNS`] for the whole data set).
pub fn read_op(rng: &mut Rng, txns: u32) -> ReadOp {
    let kind = rng.below(100);
    let key = Key {
        tenant: rng.below(TENANTS as u64) as u8,
        txn: rng.below(txns as u64) as u32,
        slot: rng.below(TXN_RECORDS as u64) as u8,
    };
    match kind {
        0..=39 => ReadOp::Hist(key),
        40..=69 => ReadOp::Src(key),
        70..=89 => ReadOp::Trace(key),
        _ => ReadOp::Prefix(key),
    }
}

/// The audit mix: 80% container cursor drains, 20% `get_mod`.
pub fn audit_op(rng: &mut Rng) -> AuditOp {
    let kind = rng.below(100);
    let tenant = rng.below(TENANTS as u64) as u8;
    let container = rng.below(CONTAINERS as u64) as u8;
    if kind < 80 {
        AuditOp::Scan { tenant, container }
    } else {
        AuditOp::Mod { tenant, container }
    }
}

/// Field names of one chain family (a tenant's transactions congruent
/// modulo [`STRIDE`] copy from one another, so they share names).
#[derive(Clone, Copy)]
struct Fields {
    /// Slots 1..8; slot 0 is the subtree root itself.
    names: [Label; TXN_RECORDS - 1],
    /// The family's node in the external source database.
    external: Label,
}

/// Names and paths of the generated data set for one seed.
pub struct Dataset {
    tenants: Vec<Label>,
    containers: Vec<Label>,
    /// `s{j}` for the preloaded transactions, so the query clients'
    /// key generation does not format and intern on every call.
    subtrees: Vec<Label>,
    fields: Vec<Fields>,
    source_db: Label,
}

impl Dataset {
    pub fn new(seed: u64) -> Dataset {
        let mut rng = Rng::new(seed ^ 0xC0DE_D00D);
        let mut fields = Vec::with_capacity(TENANTS * STRIDE as usize);
        for _ in 0..TENANTS * STRIDE as usize {
            // One role letter per slot keeps the names of a subtree
            // distinct whatever the seed draws.
            let mut name = |role: char| Label::new(&format!("{role}{:04x}", rng.below(1 << 16)));
            fields.push(Fields {
                names: ['a', 'b', 'c', 'i', 'j', 'k', 'd'].map(&mut name),
                external: name('x'),
            });
        }
        Dataset {
            tenants: (0..TENANTS).map(|t| Label::new(&format!("t{t}"))).collect(),
            containers: (0..CONTAINERS).map(|c| Label::new(&format!("c{c}"))).collect(),
            subtrees: (0..PRELOAD_TXNS).map(|j| Label::new(&format!("s{j}"))).collect(),
            fields,
            source_db: Label::new("S"),
        }
    }

    pub fn tenant_label(&self, tenant: u8) -> Label {
        self.tenants[tenant as usize]
    }

    pub fn tenant_root(&self, tenant: u8) -> Path {
        Path::single(self.tenants[tenant as usize])
    }

    pub fn container(&self, tenant: u8, container: u8) -> Path {
        Path::from_labels(vec![self.tenants[tenant as usize], self.containers[container as usize]])
    }

    fn family(&self, tenant: u8, txn: u32) -> &Fields {
        &self.fields[tenant as usize * STRIDE as usize + (txn % STRIDE) as usize]
    }

    /// The subtree transaction `txn` of `tenant` writes.
    pub fn subtree(&self, tenant: u8, txn: u32) -> Path {
        Path::from_labels(vec![
            self.tenants[tenant as usize],
            self.containers[(txn % CONTAINERS) as usize],
            match self.subtrees.get(txn as usize) {
                Some(label) => *label,
                None => Label::new(&format!("s{txn}")),
            },
        ])
    }

    /// The location of one record.
    pub fn loc(&self, key: Key) -> Path {
        let root = self.subtree(key.tenant, key.txn);
        match key.slot {
            0 => root,
            slot => root.child(self.family(key.tenant, key.txn).names[slot as usize - 1]),
        }
    }

    /// Copy steps a trace from a copied node of `txn` walks before the
    /// chain leaves the tenant.
    pub fn hops(txn: u32) -> u32 {
        (txn / STRIDE) % MAX_HOPS + 1
    }

    /// The 8 records of one transaction, in write order. Its `Tid` is
    /// `txn + 1` in the tenant's own numbering.
    pub fn txn_records(&self, tenant: u8, txn: u32) -> Vec<ProvRecord> {
        let tid = Tid(txn as u64 + 1);
        let fields = self.family(tenant, txn);
        let root = self.subtree(tenant, txn);
        let src_root = if Self::hops(txn) == 1 {
            Path::from_labels(vec![self.source_db, fields.external])
        } else {
            self.subtree(tenant, txn - STRIDE)
        };
        let mut out = Vec::with_capacity(TXN_RECORDS);
        out.push(ProvRecord::copy(tid, root.clone(), src_root.clone()));
        for name in &fields.names[..3] {
            out.push(ProvRecord::copy(tid, root.child(*name), src_root.child(*name)));
        }
        for name in &fields.names[3..6] {
            out.push(ProvRecord::insert(tid, root.child(*name)));
        }
        out.push(ProvRecord::delete(tid, root.child(fields.names[6])));
        out
    }

    /// Every node location of a container over the first `txns`
    /// transactions — what `get_mod` is handed for a container audit.
    pub fn container_nodes(&self, tenant: u8, container: u8, txns: u32) -> Vec<Path> {
        let mut nodes = vec![self.container(tenant, container)];
        for txn in (container as u32..txns).step_by(CONTAINERS as usize) {
            for slot in 0..TXN_RECORDS as u8 {
                nodes.push(self.loc(Key { tenant, txn, slot }));
            }
        }
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdb::core::Op;

    fn stream(seed: u64, n: usize) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        let mut out = Vec::new();
        for _ in 0..n {
            out.extend_from_slice(format!("{:?};", read_op(&mut rng, PRELOAD_TXNS)).as_bytes());
            out.extend_from_slice(format!("{:?};", audit_op(&mut rng)).as_bytes());
        }
        out
    }

    #[test]
    fn same_seed_same_stream_other_seed_differs() {
        assert_eq!(stream(7, 2_000), stream(7, 2_000));
        assert_ne!(stream(7, 2_000), stream(8, 2_000));
        let (a, b, c) = (Dataset::new(7), Dataset::new(7), Dataset::new(8));
        assert_eq!(a.txn_records(3, 700), b.txn_records(3, 700));
        assert_ne!(a.txn_records(3, 700), c.txn_records(3, 700));
    }

    #[test]
    fn every_loc_lies_under_its_tenant_root_and_shape_is_real() {
        let data = Dataset::new(1);
        for tenant in 0..TENANTS as u8 {
            let root = data.tenant_root(tenant);
            for txn in [0, 63, 64, 200, 255, 256, PRELOAD_TXNS - 1, PRELOAD_TXNS + 9] {
                let records = data.txn_records(tenant, txn);
                assert_eq!(records.len(), TXN_RECORDS);
                let subtree = data.subtree(tenant, txn);
                for (slot, r) in records.iter().enumerate() {
                    assert!(r.loc.starts_with(&root) && r.loc.starts_with(&subtree));
                    assert_eq!(r.loc, data.loc(Key { tenant, txn, slot: slot as u8 }));
                    assert_eq!(r.tid, Tid(txn as u64 + 1));
                }
                let ops: Vec<Op> = records.iter().map(|r| r.op).collect();
                assert_eq!(ops[..4], [Op::Copy; 4]);
                assert_eq!(ops[4..7], [Op::Insert; 3]);
                assert_eq!(ops[7], Op::Delete);
            }
        }
    }

    #[test]
    fn chains_are_at_most_four_hops_deep() {
        let data = Dataset::new(1);
        for txn in 0..PRELOAD_TXNS + 200 {
            // Follow the copied root back by hand.
            let mut hops = 0;
            let mut at = txn;
            loop {
                let copy = &data.txn_records(0, at)[1];
                hops += 1;
                let src = copy.src.as_ref().unwrap();
                if !src.starts_with(&data.tenant_root(0)) {
                    break;
                }
                assert_eq!(*src, data.loc(Key { tenant: 0, txn: at - STRIDE, slot: 1 }));
                at -= STRIDE;
            }
            assert_eq!(hops, Dataset::hops(txn));
            assert!(hops <= MAX_HOPS);
        }
    }

    #[test]
    fn container_nodes_cover_the_container() {
        let data = Dataset::new(1);
        let nodes = data.container_nodes(2, 5, PRELOAD_TXNS);
        let txns = (5..PRELOAD_TXNS).step_by(16).count();
        assert_eq!(nodes.len(), 1 + txns * TXN_RECORDS);
        assert!(nodes.iter().all(|n| n.starts_with(&data.container(2, 5))));
    }
}
