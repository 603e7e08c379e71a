//! Irregular Rateless IBLT backend (paper §8) — streaming flow with
//! per-class mapping parameters, trading ≈1.9× more CPU for ≈1.10 asymptotic
//! communication overhead.

use std::marker::PhantomData;

use riblt::{
    IrregularClasses, IrregularDecoder, IrregularEncoder, SetDifference, Symbol, SymbolCodec,
};
use riblt_hash::SipKey;

use crate::backend::{Progress, ReconcileBackend, StreamProgress};
use crate::engine::RangeRequest;
use crate::error::{EngineError, Result};
use crate::wirefmt::{encode_stream_open, stream_range_tiles, validate_stream_open};

/// Magic bytes of the opening request.
const OPEN_MAGIC: [u8; 4] = *b"IRR0";

/// Irregular Rateless IBLT over `symbol_len`-byte items.
#[derive(Debug, Clone)]
pub struct IrregularRibltBackend<S: Symbol> {
    /// Length in bytes of every item.
    pub symbol_len: usize,
    /// Coded symbols per server payload.
    pub batch_symbols: usize,
    /// Shared checksum key.
    pub key: SipKey,
    /// Class configuration (weights + per-class α).
    pub classes: IrregularClasses,
    _marker: PhantomData<S>,
}

impl<S: Symbol> IrregularRibltBackend<S> {
    /// Creates a backend with the paper's optimal class configuration.
    pub fn new(symbol_len: usize, batch_symbols: usize) -> Self {
        Self::with_classes(
            symbol_len,
            batch_symbols,
            IrregularClasses::paper_optimal(),
            SipKey::default(),
        )
    }

    /// Creates a backend with explicit classes and key.
    pub fn with_classes(
        symbol_len: usize,
        batch_symbols: usize,
        classes: IrregularClasses,
        key: SipKey,
    ) -> Self {
        assert!(batch_symbols > 0, "batch size must be positive");
        IrregularRibltBackend {
            symbol_len,
            batch_symbols,
            key,
            classes,
            _marker: PhantomData,
        }
    }
}

/// Server state.
#[derive(Debug, Clone)]
pub struct IrregularServer<S: Symbol> {
    encoder: IrregularEncoder<S>,
    codec: SymbolCodec,
}

impl<S: Symbol> IrregularServer<S> {
    /// Wire-encodes the next `count` coded symbols of the stream.
    fn next_batch(&mut self, count: usize) -> Vec<u8> {
        let start = self.encoder.next_index();
        let batch = self.encoder.produce_coded_symbols(count);
        self.codec.encode_batch(&batch, start)
    }
}

/// Client state.
#[derive(Debug, Clone)]
pub struct IrregularClient<S: Symbol> {
    decoder: IrregularDecoder<S>,
    codec: SymbolCodec,
}

impl<S: Symbol> ReconcileBackend for IrregularRibltBackend<S> {
    type Item = S;
    type Server = IrregularServer<S>;
    type Client = IrregularClient<S>;

    fn name(&self) -> &'static str {
        "irregular-riblt"
    }

    fn build_server(&self, items: &[S]) -> IrregularServer<S> {
        let mut encoder = IrregularEncoder::with_classes(self.classes.clone(), self.key);
        for item in items {
            encoder
                .add_symbol(item.clone())
                .expect("fresh encoder accepts symbols");
        }
        // The irregular stream mixes several α values; the default-α count
        // model still round-trips exactly (only the transmitted deltas grow
        // slightly).
        let codec = SymbolCodec::new(self.symbol_len, encoder.len() as u64);
        IrregularServer { encoder, codec }
    }

    fn build_client(&self, items: &[S]) -> IrregularClient<S> {
        let mut decoder = IrregularDecoder::with_classes(self.classes.clone(), self.key);
        for item in items {
            decoder
                .add_symbol(item.clone())
                .expect("fresh decoder accepts symbols");
        }
        let codec = SymbolCodec::new(self.symbol_len, 0);
        IrregularClient { decoder, codec }
    }

    fn open_request(&self, _client: &mut IrregularClient<S>) -> Vec<u8> {
        encode_stream_open(OPEN_MAGIC, self.symbol_len)
    }

    fn serve(&self, server: &mut IrregularServer<S>, request: Option<&[u8]>) -> Result<Vec<u8>> {
        if let Some(req) = request {
            validate_stream_open(req, OPEN_MAGIC, self.symbol_len)?;
        }
        Ok(server.next_batch(self.batch_symbols))
    }

    fn serve_range(&self, server: &mut Self::Server, range: RangeRequest) -> Result<Vec<Vec<u8>>> {
        let tiles = stream_range_tiles(range, self.batch_symbols, server.encoder.next_index())?;
        Ok((0..tiles)
            .map(|_| server.next_batch(self.batch_symbols))
            .collect())
    }

    fn absorb(&self, client: &mut IrregularClient<S>, payload: &[u8]) -> Result<Progress> {
        let batch = client.codec.decode_batch::<S>(payload)?;
        client.decoder.add_coded_symbols(batch.symbols);
        client.decoder.check_consistent()?;
        if client.decoder.is_decoded() {
            Ok(Progress::Complete)
        } else {
            // The mixed-α cells have no difference sketch: drivers ask one
            // batch at a time.
            Ok(Progress::AwaitStream(StreamProgress {
                consumed: client.decoder.coded_symbols_received(),
                ..Default::default()
            }))
        }
    }

    fn units(&self, client: &IrregularClient<S>) -> usize {
        client.decoder.coded_symbols_received()
    }

    fn into_difference(&self, client: IrregularClient<S>) -> Result<SetDifference<S>> {
        if !client.decoder.is_decoded() {
            return Err(EngineError::DecodeIncomplete);
        }
        Ok(client.decoder.into_difference())
    }
}
