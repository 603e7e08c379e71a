//! MET-IBLT backend — rate-compatible extension blocks, interactive flow.
//!
//! The client requests extension blocks in ladder order; after each block it
//! re-runs joint peeling over every difference block received so far and
//! either completes or asks for the next block. Differences beyond the last
//! rung of the ladder cannot be decoded — the inflexibility the paper's §2
//! points out and the appendix experiment quantifies.

use std::marker::PhantomData;

use iblt::Iblt;
use met_iblt::{joint_decode, MetIblt};
use reconcile_core::{EngineError, Progress, ReconcileBackend, Result};
use riblt::wire::{read_vlq, write_vlq};
use riblt::{SetDifference, Symbol};
use riblt_hash::SipKey;

use crate::wirefmt::{decode_iblt, encode_iblt};

/// MET-IBLT over `symbol_len`-byte items.
#[derive(Debug, Clone)]
pub struct MetIbltBackend<S: Symbol> {
    /// Length in bytes of every item.
    pub symbol_len: usize,
    /// Cumulative target difference sizes (one block per rung).
    pub targets: Vec<u64>,
    /// Shared base checksum key (per-block keys are derived from it).
    pub key: SipKey,
    _marker: PhantomData<S>,
}

impl<S: Symbol> MetIbltBackend<S> {
    /// Creates a backend with the default target ladder.
    pub fn new(symbol_len: usize) -> Self {
        Self::with_targets(
            symbol_len,
            met_iblt::DEFAULT_TARGETS.to_vec(),
            SipKey::default(),
        )
    }

    /// Creates a backend with an explicit ladder and key.
    pub fn with_targets(symbol_len: usize, targets: Vec<u64>, key: SipKey) -> Self {
        assert!(!targets.is_empty(), "need at least one ladder rung");
        MetIbltBackend {
            symbol_len,
            targets,
            key,
            _marker: PhantomData,
        }
    }

    fn build_table(&self, items: &[S]) -> MetIblt<S> {
        let mut table = MetIblt::with_targets(&self.targets, self.key);
        for item in items {
            table.insert(item);
        }
        table
    }
}

/// Server state: the full block ladder over the reference set.
#[derive(Debug, Clone)]
pub struct MetServer<S: Symbol> {
    table: MetIblt<S>,
}

/// Client state: its own ladder plus the difference blocks received so far.
#[derive(Debug, Clone)]
pub struct MetClient<S: Symbol> {
    mine: MetIblt<S>,
    difference_blocks: Vec<Iblt<S>>,
    difference: Option<SetDifference<S>>,
    cells_received: usize,
}

impl<S: Symbol> ReconcileBackend for MetIbltBackend<S> {
    type Item = S;
    type Server = MetServer<S>;
    type Client = MetClient<S>;

    fn name(&self) -> &'static str {
        "met-iblt"
    }

    fn build_server(&self, items: &[S]) -> MetServer<S> {
        MetServer {
            table: self.build_table(items),
        }
    }

    fn build_client(&self, items: &[S]) -> MetClient<S> {
        MetClient {
            mine: self.build_table(items),
            difference_blocks: Vec::new(),
            difference: None,
            cells_received: 0,
        }
    }

    fn open_request(&self, _client: &mut MetClient<S>) -> Vec<u8> {
        let mut out = Vec::with_capacity(2);
        write_vlq(&mut out, 0); // request block 0
        out
    }

    fn serve(&self, server: &mut MetServer<S>, request: Option<&[u8]>) -> Result<Vec<u8>> {
        let req = request.ok_or(EngineError::Protocol(
            "the MET-IBLT backend is interactive; it cannot stream unprompted",
        ))?;
        let mut pos = 0;
        let index = read_vlq(req, &mut pos).map_err(EngineError::from)? as usize;
        if index >= server.table.num_blocks() {
            return Err(EngineError::Protocol("block index beyond the ladder"));
        }
        let mut out = Vec::new();
        write_vlq(&mut out, index as u64);
        encode_iblt(&mut out, server.table.block(index), self.symbol_len);
        Ok(out)
    }

    fn absorb(&self, client: &mut MetClient<S>, payload: &[u8]) -> Result<Progress> {
        let mut pos = 0;
        let index = read_vlq(payload, &mut pos).map_err(EngineError::from)? as usize;
        if index != client.difference_blocks.len() || index >= client.mine.num_blocks() {
            return Err(EngineError::Protocol("out-of-order MET-IBLT block"));
        }
        let block_key = met_iblt::block_key(self.key, index);
        let remote_block: Iblt<S> = decode_iblt(payload, &mut pos, self.symbol_len, block_key)?;
        if pos != payload.len() {
            return Err(EngineError::WireFormat("trailing MET-IBLT bytes"));
        }
        client.cells_received += remote_block.len();
        if remote_block.len() != client.mine.block(index).len()
            || remote_block.hash_count() != client.mine.block(index).hash_count()
        {
            return Err(EngineError::WireFormat("MET-IBLT ladder mismatch"));
        }
        client
            .difference_blocks
            .push(remote_block.subtracted(client.mine.block(index)));

        let outcome = joint_decode(&client.difference_blocks);
        if outcome.complete {
            client.difference = Some(outcome.difference);
            return Ok(Progress::Complete);
        }
        let next = index + 1;
        if next >= client.mine.num_blocks() {
            // The difference exceeds the last rung: the pre-selected ladder
            // cannot be extended (the limitation motivating ratelessness).
            return Err(EngineError::DecodeIncomplete);
        }
        let mut req = Vec::with_capacity(2);
        write_vlq(&mut req, next as u64);
        Ok(Progress::SendRequest(req))
    }

    fn units(&self, client: &MetClient<S>) -> usize {
        client.cells_received
    }

    fn into_difference(&self, client: MetClient<S>) -> Result<SetDifference<S>> {
        client.difference.ok_or(EngineError::DecodeIncomplete)
    }
}
