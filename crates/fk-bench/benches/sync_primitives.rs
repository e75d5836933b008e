//! Criterion microbenchmarks of the synchronization primitives and the
//! KV-store expression engine — the real implementation cost (no
//! simulated latency), complementing Table 6a's modelled latencies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fk_cloud::metering::Meter;
use fk_cloud::trace::Ctx;
use fk_cloud::value::{Item, Value};
use fk_cloud::{Condition, KvStore, Region, Update};
use fk_sync::{AtomicCounter, AtomicList, TimedLockManager};

fn bench_kv_ops(c: &mut Criterion) {
    let kv = KvStore::new("bench", Region::US_EAST_1, Meter::new());
    let ctx = Ctx::disabled();
    let mut group = c.benchmark_group("kvstore");
    for size in [64usize, 1024, 65536] {
        kv.put(
            &ctx,
            "item",
            Item::new().with("data", vec![0u8; size]),
            Condition::Always,
        )
        .unwrap();
        group.bench_with_input(
            BenchmarkId::new("conditional_update", size),
            &size,
            |b, _| {
                let mut version = 0i64;
                b.iter(|| {
                    version += 1;
                    kv.update(
                        &ctx,
                        "item",
                        &Update::new().set("version", version),
                        Condition::ItemExists,
                    )
                    .unwrap()
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("strong_get", size), &size, |b, _| {
            b.iter(|| kv.get(&ctx, "item").unwrap());
        });
    }
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let kv = KvStore::new("bench", Region::US_EAST_1, Meter::new());
    let ctx = Ctx::disabled();
    let locks = TimedLockManager::new(kv.clone(), 3_600_000);
    let counter = AtomicCounter::new(kv.clone(), "ctr");
    let list = AtomicList::new(kv.clone(), "list");

    let mut group = c.benchmark_group("primitives");
    group.bench_function("lock_acquire_release", |b| {
        let mut t = 0i64;
        b.iter(|| {
            t += 1;
            let acq = locks.acquire(&ctx, "locked", t).unwrap();
            locks.release(&ctx, &acq.token).unwrap();
        });
    });
    group.bench_function("counter_increment", |b| {
        b.iter(|| counter.increment(&ctx).unwrap());
    });
    group.bench_function("list_append_remove", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            list.append(&ctx, vec![Value::Num(i)]).unwrap();
            list.remove(&ctx, vec![Value::Num(i)]).unwrap();
        });
    });
    group.finish();
}

criterion_group!(benches, bench_kv_ops, bench_primitives);
criterion_main!(benches);
