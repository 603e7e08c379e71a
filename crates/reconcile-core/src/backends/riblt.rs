//! Rateless IBLT backends — the paper's scheme and its irregular variant
//! (§8), streaming flow. One implementation, generic over the mapping rule.

use std::marker::PhantomData;

use riblt::{
    Decoder, Encoder, HashedSymbol, IrregularClasses, MappingRule, SetDifference, Symbol,
    SymbolCodec, Uniform, DEFAULT_ALPHA,
};
use riblt_hash::SipKey;

use crate::backend::{Progress, ReconcileBackend, StreamProgress};
use crate::engine::RangeRequest;
use crate::error::{EngineError, Result};
use crate::wirefmt::{encode_stream_open, stream_range_tiles, validate_stream_open};

/// Magic bytes of the regular stream's opening request, exported so
/// transports that serve the rateless stream outside the generic engine —
/// e.g. the `reconciled` daemon answering opens straight from shared sketch
/// caches — validate exactly the requests [`RibltBackend`] clients emit.
pub const RIBLT_STREAM_MAGIC: [u8; 4] = *b"RLT0";

/// What a mapping rule's stream is called on the wire and in reports: the
/// two constants that tell the two streaming backends apart.
pub trait StreamRule: MappingRule {
    /// [`ReconcileBackend::name`] of the backend streaming under this rule.
    const NAME: &'static str;
    /// Magic bytes of its opening request.
    const OPEN_MAGIC: [u8; 4];
}

impl StreamRule for Uniform {
    const NAME: &'static str = "riblt";
    const OPEN_MAGIC: [u8; 4] = RIBLT_STREAM_MAGIC;
}

impl StreamRule for IrregularClasses {
    const NAME: &'static str = "irregular-riblt";
    const OPEN_MAGIC: [u8; 4] = *b"IRR0";
}

/// Rateless IBLT over `symbol_len`-byte items, streaming `batch_symbols`
/// coded symbols per payload.
#[derive(Debug, Clone)]
pub struct RibltBackend<S: Symbol, R: StreamRule = Uniform> {
    /// Length in bytes of every item.
    pub symbol_len: usize,
    /// Coded symbols per server payload.
    pub batch_symbols: usize,
    /// Shared checksum key.
    pub key: SipKey,
    /// Mapping rule: one α (0.5 in the paper's final design), or the
    /// irregular variant's class configuration (weights + per-class α).
    pub rule: R,
    _marker: PhantomData<S>,
}

/// Irregular Rateless IBLT (paper §8) over `symbol_len`-byte items: per-class
/// mapping parameters, trading ≈1.9× more CPU for ≈1.10 asymptotic
/// communication overhead.
pub type IrregularRibltBackend<S> = RibltBackend<S, IrregularClasses>;

impl<S: Symbol, R: StreamRule> RibltBackend<S, R> {
    /// Creates a backend with the default key and the rule's default:
    /// α = 0.5 for [`RibltBackend`], the paper's optimal class configuration
    /// for [`IrregularRibltBackend`].
    pub fn new(symbol_len: usize, batch_symbols: usize) -> Self
    where
        R: Default,
    {
        Self::with_rule(symbol_len, batch_symbols, R::default(), SipKey::default())
    }

    fn with_rule(symbol_len: usize, batch_symbols: usize, rule: R, key: SipKey) -> Self {
        assert!(batch_symbols > 0, "batch size must be positive");
        RibltBackend {
            symbol_len,
            batch_symbols,
            key,
            rule,
            _marker: PhantomData,
        }
    }

    /// The wire codec's expected-count model follows the rule's α, keeping
    /// the §6 compression aligned with the coded-symbol density even for
    /// non-default mappings. An irregular stream mixes several α values; the
    /// default-α model still round-trips exactly (only the transmitted
    /// deltas grow slightly).
    fn codec(&self, set_size: u64) -> SymbolCodec {
        let alpha = self.rule.uniform_alpha().unwrap_or(DEFAULT_ALPHA);
        SymbolCodec::with_alpha(self.symbol_len, set_size, alpha)
    }

    /// The client endpoint over a local set of `len` hashed symbols, its
    /// window sized for them up front.
    fn client_over(
        &self,
        len: usize,
        local_set: impl Iterator<Item = HashedSymbol<S>>,
    ) -> RibltClient<S, R> {
        let mut decoder = Decoder::with_rule(self.rule.clone(), self.key);
        decoder.reserve_local_set(len);
        for hashed in local_set {
            decoder
                .add_hashed_symbol(hashed)
                .expect("fresh decoder accepts symbols");
        }
        let codec = self.codec(0);
        RibltClient { decoder, codec }
    }
}

impl<S: Symbol> RibltBackend<S> {
    /// Creates a backend with an explicit key and mapping parameter.
    pub fn with_key_and_alpha(
        symbol_len: usize,
        batch_symbols: usize,
        key: SipKey,
        alpha: f64,
    ) -> Self {
        Self::with_rule(symbol_len, batch_symbols, Uniform(alpha), key)
    }
}

impl<S: Symbol> RibltBackend<S, IrregularClasses> {
    /// Creates a backend with explicit classes and key.
    pub fn with_classes(
        symbol_len: usize,
        batch_symbols: usize,
        classes: IrregularClasses,
        key: SipKey,
    ) -> Self {
        Self::with_rule(symbol_len, batch_symbols, classes, key)
    }
}

/// Server state: the streaming encoder plus its wire codec.
#[derive(Debug, Clone)]
pub struct RibltServer<S: Symbol, R: StreamRule = Uniform> {
    encoder: Encoder<S, R>,
    codec: SymbolCodec,
}

/// Server state of [`IrregularRibltBackend`].
pub type IrregularServer<S> = RibltServer<S, IrregularClasses>;

impl<S: Symbol, R: StreamRule> RibltServer<S, R> {
    /// Wire-encodes the next `count` coded symbols of the stream.
    fn next_batch(&mut self, count: usize) -> Vec<u8> {
        let start = self.encoder.next_index();
        let batch = self.encoder.produce_coded_symbols(count);
        self.codec.encode_batch(&batch, start)
    }
}

/// Client state: the peeling decoder plus its wire codec.
#[derive(Debug, Clone)]
pub struct RibltClient<S: Symbol, R: StreamRule = Uniform> {
    decoder: Decoder<S, R>,
    codec: SymbolCodec,
}

/// Client state of [`IrregularRibltBackend`].
pub type IrregularClient<S> = RibltClient<S, IrregularClasses>;

impl<S: Symbol, R: StreamRule> ReconcileBackend for RibltBackend<S, R> {
    type Item = S;
    type Server = RibltServer<S, R>;
    type Client = RibltClient<S, R>;

    fn name(&self) -> &'static str {
        R::NAME
    }

    fn build_server(&self, items: &[S]) -> RibltServer<S, R> {
        let mut encoder = Encoder::with_rule(self.rule.clone(), self.key);
        encoder.reserve(items.len());
        for item in items {
            encoder
                .add_symbol(item.clone())
                .expect("fresh encoder accepts symbols");
        }
        let codec = self.codec(encoder.len() as u64);
        RibltServer { encoder, codec }
    }

    fn build_client(&self, items: &[S]) -> RibltClient<S, R> {
        let hashed = items
            .iter()
            .map(|item| HashedSymbol::new(item.clone(), self.key));
        self.client_over(items.len(), hashed)
    }

    fn build_client_keyed(
        &self,
        items: &[S],
        hashes: &[u64],
        members: &[u32],
    ) -> RibltClient<S, R> {
        assert_eq!(items.len(), hashes.len(), "one keyed hash per item");
        let hashed = members.iter().map(|&m| {
            let m = m as usize;
            HashedSymbol::with_hash(items[m].clone(), hashes[m])
        });
        self.client_over(members.len(), hashed)
    }

    fn open_request(&self, _client: &mut RibltClient<S, R>) -> Vec<u8> {
        encode_stream_open(R::OPEN_MAGIC, self.symbol_len)
    }

    fn serve(&self, server: &mut RibltServer<S, R>, request: Option<&[u8]>) -> Result<Vec<u8>> {
        if let Some(req) = request {
            validate_stream_open(req, R::OPEN_MAGIC, self.symbol_len)?;
        }
        Ok(server.next_batch(self.batch_symbols))
    }

    fn serve_range(&self, server: &mut Self::Server, range: RangeRequest) -> Result<Vec<Vec<u8>>> {
        let tiles = stream_range_tiles(range, self.batch_symbols, server.encoder.next_index())?;
        Ok((0..tiles)
            .map(|_| server.next_batch(self.batch_symbols))
            .collect())
    }

    fn absorb(&self, client: &mut RibltClient<S, R>, payload: &[u8]) -> Result<Progress> {
        let batch = client.codec.decode_batch::<S>(payload)?;
        // The decoder peels cells by position: a batch from anywhere but the
        // next index (a tile repeated or skipped) would be peeled as the
        // wrong cells. Once decoded, it takes nothing more anyway.
        let next = client.decoder.coded_symbols_received() as u64;
        if batch.start_index != next && !client.decoder.is_decoded() {
            return Err(EngineError::Protocol("payload out of sequence"));
        }
        client.decoder.add_coded_symbols(batch.symbols);
        client.decoder.check_consistent()?;
        if client.decoder.is_decoded() {
            Ok(Progress::Complete)
        } else {
            // Mixed-α cells carry no difference estimate: the decoder leaves
            // it empty, and drivers ask one batch at a time.
            Ok(Progress::AwaitStream(StreamProgress {
                consumed: client.decoder.coded_symbols_received(),
                estimate: client.decoder.difference_estimate(),
            }))
        }
    }

    fn units(&self, client: &RibltClient<S, R>) -> usize {
        client.decoder.coded_symbols_received()
    }

    fn into_difference(&self, client: RibltClient<S, R>) -> Result<SetDifference<S>> {
        Ok(client.decoder.try_into_difference()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riblt::FixedBytes;

    type Item = FixedBytes<8>;

    /// A client 100 differences from its server, and the server's first
    /// three 16-symbol tiles: none of them decodes the difference alone.
    fn client_and_tiles() -> (RibltBackend<Item>, RibltClient<Item>, Vec<Vec<u8>>) {
        let backend = RibltBackend::<Item>::new(8, 16);
        let items: Vec<Item> = (0..1_000).map(Item::from_u64).collect();
        let mut server = backend.build_server(&items);
        let tiles = (0..3)
            .map(|_| backend.serve(&mut server, None).unwrap())
            .collect();
        let client = backend.build_client(&items[100..]);
        (backend, client, tiles)
    }

    #[test]
    fn a_repeated_tile_is_refused_not_peeled() {
        let (backend, mut client, tiles) = client_and_tiles();
        assert!(matches!(
            backend.absorb(&mut client, &tiles[0]),
            Ok(Progress::AwaitStream(_))
        ));
        assert_eq!(
            backend.absorb(&mut client, &tiles[0]),
            Err(EngineError::Protocol("payload out of sequence"))
        );
        // Nothing of it was taken: the stream goes on from where it stood.
        assert_eq!(backend.units(&client), 16);
        assert!(backend.absorb(&mut client, &tiles[1]).is_ok());
        assert_eq!(backend.units(&client), 32);
    }

    #[test]
    fn a_tile_ahead_of_the_stream_is_refused() {
        let (backend, mut client, tiles) = client_and_tiles();
        assert_eq!(
            backend.absorb(&mut client, &tiles[1]),
            Err(EngineError::Protocol("payload out of sequence"))
        );
        assert_eq!(backend.units(&client), 0);
        for tile in &tiles {
            assert!(backend.absorb(&mut client, tile).is_ok());
        }
        assert_eq!(
            backend.absorb(&mut client, &tiles[2]),
            Err(EngineError::Protocol("payload out of sequence"))
        );
    }
}
