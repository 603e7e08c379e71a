//! Rateless IBLT backend — the paper's scheme, streaming flow.

use std::marker::PhantomData;

use riblt::{Decoder, Encoder, SetDifference, Symbol, SymbolCodec};
use riblt_hash::SipKey;

use crate::backend::{Progress, ReconcileBackend, StreamProgress};
use crate::engine::RangeRequest;
use crate::error::Result;
use crate::wirefmt::{encode_stream_open, stream_range_tiles, validate_stream_open};

/// Magic bytes of the opening request, exported so transports that serve
/// the rateless stream outside the generic engine — e.g. the `reconciled`
/// daemon answering opens straight from shared sketch caches — validate
/// exactly the requests [`RibltBackend`] clients emit.
pub const RIBLT_STREAM_MAGIC: [u8; 4] = *b"RLT0";

const OPEN_MAGIC: [u8; 4] = RIBLT_STREAM_MAGIC;

/// Rateless IBLT over `symbol_len`-byte items, streaming `batch_symbols`
/// coded symbols per payload.
#[derive(Debug, Clone)]
pub struct RibltBackend<S: Symbol> {
    /// Length in bytes of every item.
    pub symbol_len: usize,
    /// Coded symbols per server payload.
    pub batch_symbols: usize,
    /// Shared checksum key.
    pub key: SipKey,
    /// Mapping parameter α (0.5 in the paper's final design).
    pub alpha: f64,
    _marker: PhantomData<S>,
}

impl<S: Symbol> RibltBackend<S> {
    /// Creates a backend with the default key and α = 0.5.
    pub fn new(symbol_len: usize, batch_symbols: usize) -> Self {
        Self::with_key_and_alpha(
            symbol_len,
            batch_symbols,
            SipKey::default(),
            riblt::DEFAULT_ALPHA,
        )
    }

    /// Creates a backend with an explicit key and mapping parameter.
    pub fn with_key_and_alpha(
        symbol_len: usize,
        batch_symbols: usize,
        key: SipKey,
        alpha: f64,
    ) -> Self {
        assert!(batch_symbols > 0, "batch size must be positive");
        RibltBackend {
            symbol_len,
            batch_symbols,
            key,
            alpha,
            _marker: PhantomData,
        }
    }
}

/// Server state: the streaming encoder plus its wire codec.
#[derive(Debug, Clone)]
pub struct RibltServer<S: Symbol> {
    encoder: Encoder<S>,
    codec: SymbolCodec,
}

impl<S: Symbol> RibltServer<S> {
    /// Wire-encodes the next `count` coded symbols of the stream.
    fn next_batch(&mut self, count: usize) -> Vec<u8> {
        let start = self.encoder.next_index();
        let batch = self.encoder.produce_coded_symbols(count);
        self.codec.encode_batch(&batch, start)
    }
}

/// Client state: the peeling decoder plus its wire codec.
#[derive(Debug, Clone)]
pub struct RibltClient<S: Symbol> {
    decoder: Decoder<S>,
    codec: SymbolCodec,
}

impl<S: Symbol> ReconcileBackend for RibltBackend<S> {
    type Item = S;
    type Server = RibltServer<S>;
    type Client = RibltClient<S>;

    fn name(&self) -> &'static str {
        "riblt"
    }

    fn build_server(&self, items: &[S]) -> RibltServer<S> {
        let mut encoder = Encoder::with_key_and_alpha(self.key, self.alpha);
        for item in items {
            encoder
                .add_symbol(item.clone())
                .expect("fresh encoder accepts symbols");
        }
        // The codec's expected-count model is derived from the encoder's own
        // α, keeping the §6 compression aligned with the coded-symbol
        // density even for non-default mappings.
        let codec = SymbolCodec::with_alpha(self.symbol_len, encoder.len() as u64, encoder.alpha());
        RibltServer { encoder, codec }
    }

    fn build_client(&self, items: &[S]) -> RibltClient<S> {
        let mut decoder = Decoder::with_key_and_alpha(self.key, self.alpha);
        for item in items {
            decoder
                .add_symbol(item.clone())
                .expect("fresh decoder accepts symbols");
        }
        let codec = SymbolCodec::with_alpha(self.symbol_len, 0, decoder.alpha());
        RibltClient { decoder, codec }
    }

    fn open_request(&self, _client: &mut RibltClient<S>) -> Vec<u8> {
        encode_stream_open(OPEN_MAGIC, self.symbol_len)
    }

    fn serve(&self, server: &mut RibltServer<S>, request: Option<&[u8]>) -> Result<Vec<u8>> {
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

    fn absorb(&self, client: &mut RibltClient<S>, payload: &[u8]) -> Result<Progress> {
        let batch = client.codec.decode_batch::<S>(payload)?;
        client.decoder.add_coded_symbols(batch.symbols);
        client.decoder.check_consistent()?;
        if client.decoder.is_decoded() {
            Ok(Progress::Complete)
        } else {
            Ok(Progress::AwaitStream(StreamProgress {
                consumed: client.decoder.coded_symbols_received(),
                estimate: client.decoder.difference_estimate(),
            }))
        }
    }

    fn units(&self, client: &RibltClient<S>) -> usize {
        client.decoder.coded_symbols_received()
    }

    fn into_difference(&self, client: RibltClient<S>) -> Result<SetDifference<S>> {
        Ok(client.decoder.try_into_difference()?)
    }
}
