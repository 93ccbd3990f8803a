//! Codec micro-benchmarks: compression and decompression throughput of
//! the from-scratch LZ77 (`crunch-fast`) and LZ77+Huffman (`crunch-dense`)
//! codecs per entropy class — the substrate behind the paper's lz4-vs-xz
//! trade-off discussion — and the JSONL event codec (`jsonl`: encode and
//! strict decode of the small scenario's codecrunch event stream; divide
//! the time by the printed element count for ns/event).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bench::BenchScenario;
use cc_compress::{parse_sequences, Codec, CrunchDense, CrunchFast, EntropyClass, FsImage};
use cc_obs::{write_event_line, BufferSink};
use cc_sim::Simulation;
use codecrunch::CodeCrunch;

const IMAGE_SIZE: usize = 256 * 1024;

fn bench_compress(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.throughput(Throughput::Bytes(IMAGE_SIZE as u64));
    for class in EntropyClass::ALL {
        let image = FsImage::generate(1, IMAGE_SIZE, class);
        for (name, codec) in [
            ("fast", &CrunchFast as &dyn Codec),
            ("dense", &CrunchDense as &dyn Codec),
        ] {
            group.bench_with_input(BenchmarkId::new(name, class), image.bytes(), |b, data| {
                b.iter(|| codec.compress(data))
            });
        }
    }
    group.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompress");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.throughput(Throughput::Bytes(IMAGE_SIZE as u64));
    for class in EntropyClass::ALL {
        let image = FsImage::generate(1, IMAGE_SIZE, class);
        for (name, codec) in [
            ("fast", &CrunchFast as &dyn Codec),
            ("dense", &CrunchDense as &dyn Codec),
        ] {
            let frame = codec.compress(image.bytes());
            group.bench_with_input(BenchmarkId::new(name, class), &frame, |b, frame| {
                b.iter(|| codec.decompress(frame).expect("valid frame"))
            });
        }
    }
    group.finish();
}

/// The greedy LZ77 parse in isolation — the match-extension loop this
/// isolates is the compression half's hot kernel, shared by both codecs.
fn bench_parse_sequences(c: &mut Criterion) {
    let mut group = c.benchmark_group("parse_sequences");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.throughput(Throughput::Bytes(IMAGE_SIZE as u64));
    for class in EntropyClass::ALL {
        let image = FsImage::generate(1, IMAGE_SIZE, class);
        group.bench_with_input(
            BenchmarkId::from_parameter(class),
            image.bytes(),
            |b, data| b.iter(|| parse_sequences(data)),
        );
    }
    group.finish();
}

/// The JSONL event codec over one run's stream: `encode` appends every
/// event's line into a reused buffer; `decode` strictly decodes every line.
fn bench_jsonl(c: &mut Criterion) {
    let scenario = BenchScenario::small();
    let mut sink = BufferSink::new();
    Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload)
        .run_with_sink(&mut CodeCrunch::new(), &mut sink);
    let events = sink.events;
    let mut bytes = Vec::new();
    for event in &events {
        write_event_line(&mut bytes, event);
    }
    let text = String::from_utf8(bytes).expect("JSONL lines are ASCII");

    let mut group = c.benchmark_group("jsonl");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.throughput(Throughput::Elements(events.len() as u64));
    let mut out = Vec::with_capacity(text.len());
    group.bench_function("encode", |b| {
        b.iter(|| {
            out.clear();
            for event in &events {
                write_event_line(&mut out, event);
            }
            out.len()
        })
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            for line in text.lines() {
                black_box(cc_replay::decode_line(line).expect("canonical line"));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_compress,
    bench_decompress,
    bench_parse_sequences,
    bench_jsonl
);
criterion_main!(benches);
