//! §6 wire-format measurement: average bytes used by the compressed `count`
//! field when encoding a 10^6-item set into 10^4 coded symbols (the paper
//! reports 1.05 bytes per coded symbol).
//!
//! Output columns: `set_size, coded_symbols, count_bytes_total, count_bytes_per_symbol`.

use riblt::{Encoder, SymbolCodec};
use riblt_bench::{items8, BenchCli, Item8};

fn main() {
    let cli = BenchCli::from_args();
    let scale = cli.scale;
    let mut csv = cli.sink();
    let n = scale.pick(1_000_000u64, 1_000_000u64);
    let m = 10_000usize;
    eprintln!("# §6 count-compression measurement ({:?} mode)", scale);
    let items = items8(n, cli.seed_or(0x37a6));
    let mut enc = Encoder::<Item8>::new();
    for it in items {
        enc.add_symbol(it).unwrap();
    }
    let symbols = enc.produce_coded_symbols(m);
    let codec = SymbolCodec::new(8, n);
    let total = codec.count_field_bytes(&symbols, 0);
    csv.header(&[
        "set_size",
        "coded_symbols",
        "count_bytes_total",
        "count_bytes_per_symbol",
    ]);
    riblt_bench::csv_emit!(csv, n, m, total, format!("{:.3}", total as f64 / m as f64));
}
