//! PinSketch backend — BCH syndromes over GF(2^64), interactive flow.
//!
//! PinSketch reconciles 64-bit field elements, so this backend is fixed to
//! 8-byte items ([`FixedBytes<8>`]) whose value must be non-zero. The client
//! opens with a capacity guess; on decode failure it doubles the capacity
//! and the server ships a fresh (larger) sketch — the fixed-rate retry
//! ladder the paper contrasts with rateless streaming.

use std::collections::BTreeSet;

use pinsketch::{PinSketch, PinSketchError};
use reconcile_core::{EngineError, Progress, ReconcileBackend, Result};
use riblt::wire::{read_vlq, write_vlq};
use riblt::{FixedBytes, SetDifference};

/// A PinSketch failure as the engine reports it.
fn backend_error(e: PinSketchError) -> EngineError {
    EngineError::Backend(e.to_string())
}

/// The item type PinSketch reconciles: one GF(2^64) element.
pub type PinItem = FixedBytes<8>;

/// PinSketch with a doubling capacity ladder.
#[derive(Debug, Clone)]
pub struct PinSketchBackend {
    /// Capacity of the first sketch requested.
    pub initial_capacity: usize,
    /// Give up once the requested capacity exceeds this.
    pub max_capacity: usize,
}

impl PinSketchBackend {
    /// Creates a backend with a small initial capacity and a generous cap.
    pub fn new(initial_capacity: usize) -> Self {
        assert!(initial_capacity > 0, "capacity must be positive");
        PinSketchBackend {
            initial_capacity,
            max_capacity: 1 << 20,
        }
    }
}

fn elements_of(items: &[PinItem]) -> Result<Vec<u64>> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let v = item.to_u64();
        if v == 0 {
            return Err(EngineError::Backend(
                PinSketchError::ZeroElement.to_string(),
            ));
        }
        out.push(v);
    }
    Ok(out)
}

/// Server state: the raw element set (sketches are built per requested
/// capacity).
#[derive(Debug, Clone)]
pub struct PinServer {
    elements: Vec<u64>,
}

/// Client state.
#[derive(Debug, Clone)]
pub struct PinClient {
    elements: BTreeSet<u64>,
    capacity: usize,
    syndromes_received: usize,
    difference: Option<SetDifference<PinItem>>,
}

impl ReconcileBackend for PinSketchBackend {
    type Item = PinItem;
    type Server = PinServer;
    type Client = PinClient;

    fn name(&self) -> &'static str {
        "pinsketch"
    }

    fn build_server(&self, items: &[PinItem]) -> PinServer {
        PinServer {
            elements: elements_of(items).expect("PinSketch items must be non-zero"),
        }
    }

    fn build_client(&self, items: &[PinItem]) -> PinClient {
        PinClient {
            elements: elements_of(items)
                .expect("PinSketch items must be non-zero")
                .into_iter()
                .collect(),
            capacity: self.initial_capacity,
            syndromes_received: 0,
            difference: None,
        }
    }

    fn open_request(&self, client: &mut PinClient) -> Vec<u8> {
        let mut out = Vec::with_capacity(4);
        write_vlq(&mut out, client.capacity as u64);
        out
    }

    fn serve(&self, server: &mut PinServer, request: Option<&[u8]>) -> Result<Vec<u8>> {
        let req = request.ok_or(EngineError::Protocol(
            "the PinSketch backend is interactive; it cannot stream unprompted",
        ))?;
        let mut pos = 0;
        let capacity = read_vlq(req, &mut pos).map_err(EngineError::from)? as usize;
        if capacity == 0 || capacity > self.max_capacity {
            return Err(EngineError::WireFormat("bad sketch capacity"));
        }
        let sketch = PinSketch::from_set(capacity, server.elements.iter().copied())
            .map_err(backend_error)?;
        Ok(sketch.to_bytes())
    }

    fn absorb(&self, client: &mut PinClient, payload: &[u8]) -> Result<Progress> {
        let remote = PinSketch::from_bytes(payload)
            .map_err(|_| EngineError::WireFormat("malformed sketch"))?;
        client.syndromes_received += remote.capacity();
        let mine = PinSketch::from_set(remote.capacity(), client.elements.iter().copied())
            .map_err(backend_error)?;
        match remote.merged(&mine).map_err(backend_error)?.decode() {
            Ok(elements) => {
                let mut difference = SetDifference::default();
                for e in elements {
                    if client.elements.contains(&e) {
                        difference.local_only.push(PinItem::from_u64(e));
                    } else {
                        difference.remote_only.push(PinItem::from_u64(e));
                    }
                }
                client.difference = Some(difference);
                Ok(Progress::Complete)
            }
            Err(PinSketchError::DecodeFailed) => {
                let next = client.capacity * 2;
                if next > self.max_capacity {
                    return Err(EngineError::DecodeIncomplete);
                }
                client.capacity = next;
                let mut req = Vec::with_capacity(4);
                write_vlq(&mut req, next as u64);
                Ok(Progress::SendRequest(req))
            }
            Err(e) => Err(backend_error(e)),
        }
    }

    fn units(&self, client: &PinClient) -> usize {
        client.syndromes_received
    }

    fn into_difference(&self, client: PinClient) -> Result<SetDifference<PinItem>> {
        client.difference.ok_or(EngineError::DecodeIncomplete)
    }
}
