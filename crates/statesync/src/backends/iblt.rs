//! Regular IBLT backend with the strata-estimator bootstrap — the
//! "Regular IBLT + Estimator" baseline of Fig. 7, interactive flow.
//!
//! Round 1: the client ships its strata estimator; the server estimates the
//! difference, over-provisions a table for it, and ships the table. If
//! peeling stalls (the estimate was low), the client asks for a doubled
//! table and the server rebuilds — the very retry loop whose cost the
//! rateless design removes.

use std::marker::PhantomData;

use iblt::{recommended, Iblt, StrataEstimator};
use reconcile_core::{EngineError, Progress, ReconcileBackend, Result};
use riblt::wire::{read_vlq, write_vlq};
use riblt::{SetDifference, Symbol};
use riblt_hash::SipKey;

use crate::wirefmt::{decode_iblt, encode_iblt};

/// Request tags.
const TAG_ESTIMATE: u8 = 0x01;
const TAG_GROW: u8 = 0x02;

/// Hard cap on retry rounds before giving up.
const MAX_GROW_ROUNDS: usize = 24;

/// Regular IBLT + strata estimator over `symbol_len`-byte items.
#[derive(Debug, Clone)]
pub struct IbltBackend<S: Symbol> {
    /// Length in bytes of every item.
    pub symbol_len: usize,
    /// Over-provisioning multiplier applied to the (noisy) estimate.
    pub safety_factor: f64,
    /// Shared checksum key.
    pub key: SipKey,
    /// Estimator geometry: number of strata.
    pub num_strata: usize,
    /// Estimator geometry: cells per stratum.
    pub cells_per_stratum: usize,
    _marker: PhantomData<S>,
}

impl<S: Symbol> IbltBackend<S> {
    /// Creates a backend with the customary estimator geometry and a 1.4×
    /// safety factor.
    pub fn new(symbol_len: usize) -> Self {
        IbltBackend {
            symbol_len,
            safety_factor: 1.4,
            key: SipKey::default(),
            num_strata: StrataEstimator::DEFAULT_STRATA,
            cells_per_stratum: StrataEstimator::DEFAULT_CELLS,
            _marker: PhantomData,
        }
    }

    fn build_estimator(&self, items: &[S]) -> StrataEstimator {
        let mut est =
            StrataEstimator::with_geometry(self.num_strata, self.cells_per_stratum, self.key);
        for item in items {
            est.insert(item.as_bytes());
        }
        est
    }

    fn build_table(&self, cells: usize, k: usize, items: &[S]) -> Iblt<S> {
        let mut table = Iblt::with_key(cells, k, self.key);
        for item in items {
            table.insert(item);
        }
        table
    }
}

/// Server state.
#[derive(Debug, Clone)]
pub struct IbltServer<S: Symbol> {
    items: Vec<S>,
    estimator: StrataEstimator,
}

/// Client state.
#[derive(Debug, Clone)]
pub struct IbltClient<S: Symbol> {
    items: Vec<S>,
    estimator: StrataEstimator,
    difference: Option<SetDifference<S>>,
    cells_received: usize,
    grow_rounds: usize,
}

impl<S: Symbol> ReconcileBackend for IbltBackend<S> {
    type Item = S;
    type Server = IbltServer<S>;
    type Client = IbltClient<S>;

    fn name(&self) -> &'static str {
        "iblt-estimator"
    }

    fn build_server(&self, items: &[S]) -> IbltServer<S> {
        IbltServer {
            items: items.to_vec(),
            estimator: self.build_estimator(items),
        }
    }

    fn build_client(&self, items: &[S]) -> IbltClient<S> {
        IbltClient {
            items: items.to_vec(),
            estimator: self.build_estimator(items),
            difference: None,
            cells_received: 0,
            grow_rounds: 0,
        }
    }

    fn open_request(&self, client: &mut IbltClient<S>) -> Vec<u8> {
        let mut out = vec![TAG_ESTIMATE];
        out.extend_from_slice(&client.estimator.to_bytes());
        out
    }

    fn serve(&self, server: &mut IbltServer<S>, request: Option<&[u8]>) -> Result<Vec<u8>> {
        let req = request.ok_or(EngineError::Protocol(
            "the IBLT backend is interactive; it cannot stream unprompted",
        ))?;
        let (cells, k) = match req.first() {
            Some(&TAG_ESTIMATE) => {
                let remote = StrataEstimator::from_bytes(&req[1..], self.key)?;
                if remote.num_strata() != self.num_strata
                    || remote.cells_per_stratum() != self.cells_per_stratum
                {
                    return Err(EngineError::WireFormat("estimator geometry mismatch"));
                }
                let d_est = server.estimator.estimate(&remote);
                let target = ((d_est as f64 * self.safety_factor).ceil() as u64).max(1);
                let params = recommended(target);
                (params.cells, params.hash_count)
            }
            Some(&TAG_GROW) => {
                let mut pos = 1;
                let cells = read_vlq(req, &mut pos).map_err(EngineError::from)? as usize;
                let k = read_vlq(req, &mut pos).map_err(EngineError::from)? as usize;
                if cells == 0 || cells > 1 << 28 || k == 0 || k > 16 {
                    return Err(EngineError::WireFormat("bad grow request"));
                }
                (cells, k)
            }
            _ => return Err(EngineError::WireFormat("unknown IBLT request tag")),
        };
        let table = self.build_table(cells, k, &server.items);
        let mut out = Vec::new();
        encode_iblt(&mut out, &table, self.symbol_len);
        Ok(out)
    }

    fn absorb(&self, client: &mut IbltClient<S>, payload: &[u8]) -> Result<Progress> {
        let mut pos = 0;
        let remote_table: Iblt<S> = decode_iblt(payload, &mut pos, self.symbol_len, self.key)?;
        if pos != payload.len() {
            return Err(EngineError::WireFormat("trailing IBLT bytes"));
        }
        client.cells_received += remote_table.len();
        let mine = self.build_table(remote_table.len(), remote_table.hash_count(), &client.items);
        let outcome = remote_table.subtracted(&mine).decode();
        if outcome.is_complete() {
            client.difference = Some(outcome.difference());
            return Ok(Progress::Complete);
        }
        client.grow_rounds += 1;
        if client.grow_rounds >= MAX_GROW_ROUNDS {
            return Err(EngineError::DecodeIncomplete);
        }
        // The estimate was low: ask for a table twice the size (the standard
        // deployment fallback) and try again.
        let mut req = vec![TAG_GROW];
        write_vlq(&mut req, (remote_table.len() * 2) as u64);
        write_vlq(&mut req, remote_table.hash_count() as u64);
        Ok(Progress::SendRequest(req))
    }

    fn units(&self, client: &IbltClient<S>) -> usize {
        client.cells_received
    }

    fn into_difference(&self, client: IbltClient<S>) -> Result<SetDifference<S>> {
        client.difference.ok_or(EngineError::DecodeIncomplete)
    }
}
