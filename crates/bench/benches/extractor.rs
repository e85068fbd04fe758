//! Criterion bench: the ION Extractor (log → tables), the CSV writer
//! and the table artifact codec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use extractor::csv::to_csv;
use extractor::{decode_table, encode_table, extract_tables};
use workloads::ior::ior_easy_2kb_shared;
use workloads::Workload;

fn bench_extract(c: &mut Criterion) {
    let mut group = c.benchmark_group("extractor");
    for scale in [0.05, 0.25] {
        let log = ior_easy_2kb_shared(scale).generate();
        let ops: usize = log.dxt.iter().map(darshan::dxt::DxtRecord::len).sum();
        group.bench_with_input(BenchmarkId::new("extract_tables", ops), &log, |b, log| {
            b.iter(|| extract_tables(log));
        });
        let tables = extract_tables(&log);
        let dxt = tables.get("DXT").unwrap();
        group.bench_with_input(BenchmarkId::new("to_csv", ops), dxt, |b, t| {
            b.iter(|| to_csv(t));
        });
        group.bench_with_input(BenchmarkId::new("encode_table", ops), dxt, |b, t| {
            b.iter(|| encode_table(t));
        });
        let artifact = encode_table(dxt);
        group.bench_with_input(BenchmarkId::new("decode_table", ops), &artifact, |b, a| {
            b.iter(|| decode_table(a).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_extract);
criterion_main!(benches);
