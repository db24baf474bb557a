//! Throughput of the synthetic trace generator and the trace codec.
//!
//! The `msr_like_2048` group splits the generator's cost per stage on the
//! benchmark's replay trace (`EnsembleConfig::msr_like()` at scale 1/2048,
//! seed 1), each case reported per block event (`elem/s` below counts
//! blocks, the unit `trace.stream.drain_ns_per_event` uses):
//!
//! * `server_day` — plan, generate and sort one server-day;
//! * `sort_requests` — the sort alone, on that server-day in a seeded
//!   shuffle (a sorted input would hit the sort's presorted fast path);
//! * `stream_drain` — the whole eight-day stream drained in memory:
//!   every server-day plus the 13-way merge and the chunk channel.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sievestore_trace::{
    sort_requests, EnsembleConfig, Scale, StreamMsg, SyntheticTrace, TraceReader,
    TraceStreamConfig, TraceWriter,
};
use sievestore_types::{Day, Request};

fn generation(c: &mut Criterion) {
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(7)).expect("valid config");
    let day_len = trace.day_requests(Day::new(1)).len() as u64;
    let mut group = c.benchmark_group("trace_generation");
    group.sample_size(20);
    group.throughput(Throughput::Elements(day_len));
    group.bench_function("tiny_ensemble_day", |b| {
        b.iter(|| black_box(trace.day_requests(black_box(Day::new(1)))))
    });
    group.finish();
}

fn blocks(requests: &[Request]) -> u64 {
    requests.iter().map(|r| u64::from(r.len_blocks)).sum()
}

fn msr_like_stages(c: &mut Criterion) {
    let trace = SyntheticTrace::new(
        EnsembleConfig::msr_like()
            .with_scale(Scale::new(2048).expect("valid scale"))
            .with_seed(1),
    )
    .expect("valid config");
    let (server, day) = (0, Day::new(1));
    let run = trace.server_day(server, day);
    let mut shuffled = run.clone();
    let mut rng = SmallRng::seed_from_u64(1);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.random_range(0..=i));
    }
    let mut group = c.benchmark_group("trace_generation/msr_like_2048");
    group.throughput(Throughput::Elements(blocks(&run)));
    group.bench_function("server_day", |b| {
        b.iter(|| black_box(trace.server_day(server, day)))
    });
    group.bench_function("sort_requests", |b| {
        b.iter_with_setup(
            || shuffled.clone(),
            |mut requests| {
                sort_requests(&mut requests);
                requests
            },
        )
    });
    let total: u64 = (0..trace.days())
        .map(|d| blocks(&trace.day_requests(Day::new(d))))
        .sum();
    group.throughput(Throughput::Elements(total));
    group.bench_function("stream_drain", |b| {
        b.iter(|| {
            let mut stream = trace.stream(TraceStreamConfig::default());
            let mut drained = 0u64;
            while let Some(msg) = stream.next_msg() {
                if let StreamMsg::Chunk(chunk) = msg {
                    drained += blocks(&chunk);
                    stream.recycle(chunk);
                }
            }
            drained
        })
    });
    group.finish();
}

fn codec(c: &mut Criterion) {
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(7)).expect("valid config");
    let requests = trace.day_requests(Day::new(1));
    let mut group = c.benchmark_group("trace_codec");
    group.sample_size(20);
    group.throughput(Throughput::Elements(requests.len() as u64));
    group.bench_function("write_binary", |b| {
        b.iter(|| {
            let mut bytes = Vec::with_capacity(requests.len() * 28 + 16);
            let mut writer = TraceWriter::new(&mut bytes).expect("vec write");
            for r in &requests {
                writer.write(r).expect("vec write");
            }
            writer.finish().expect("vec write");
            black_box(bytes)
        })
    });
    let mut bytes = Vec::new();
    let mut writer = TraceWriter::new(&mut bytes).expect("vec write");
    for r in &requests {
        writer.write(r).expect("vec write");
    }
    writer.finish().expect("vec write");
    group.bench_function("read_binary", |b| {
        b.iter(|| {
            let reader = TraceReader::new(bytes.as_slice()).expect("valid header");
            black_box(
                reader
                    .inspect(|r| assert!(r.is_ok(), "valid record"))
                    .count(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, generation, msr_like_stages, codec);
criterion_main!(benches);
