//! Figure 4: cost and performance of storage in the AWS cloud.
//!
//! (a) Cost of storage services for varying data size and 1 kB
//!     operations, and for varying operation counts on 1 GB of data.
//! (b) Latency of read and write operations against S3-like and
//!     DynamoDB-like stores, intra- and cross-region.

use fk_bench::stats::{ms, print_table, summarize, usd};
use fk_cloud::latency::{ExecEnv, LatencyModel};
use fk_cloud::ops::Op;
use fk_cost::{AwsPricing, CostModel};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let model = CostModel::paper_default();
    let pricing = AwsPricing::default();

    // ---- Fig 4a left: 1M operations of 1 kB + monthly storage.
    let mut rows = Vec::new();
    for gb in [0.01, 0.03, 0.12, 0.40, 1.0, 4.0, 10.0] {
        let ops = 1_000_000.0;
        let bytes = 1024;
        let s3_storage = gb * pricing.s3_gb_month;
        let ddb_storage = gb * pricing.ddb_gb_month;
        rows.push(vec![
            format!("{gb:.2}"),
            usd(ops * model.r_s3(bytes) + s3_storage),
            usd(ops * model.w_s3(bytes) + s3_storage),
            usd(ops * model.r_dd(bytes) + ddb_storage),
            usd(ops * model.w_dd(bytes) + ddb_storage),
        ]);
    }
    print_table(
        "Fig 4a (left): monthly cost, 1M x 1 kB ops + storage",
        &["GB stored", "S3 read", "S3 write", "DDB read", "DDB write"],
        &rows,
    );
    println!(
        "-> object storage writes are {:.1}x more expensive than reads \
         (paper: 12.5x)",
        model.w_s3(1024) / model.r_s3(1024)
    );

    // ---- Fig 4a right: cost vs number of operations on 1 GB of data.
    let mut rows = Vec::new();
    for exp in [1u32, 3, 5, 7] {
        let ops = 10f64.powi(exp as i32);
        rows.push(vec![
            format!("1e{exp}"),
            usd(ops * model.r_s3(1024)),
            usd(ops * model.w_s3(1024)),
            usd(ops * model.r_dd(1024)),
            usd(ops * model.w_dd(1024)),
        ]);
    }
    print_table(
        "Fig 4a (right): cost vs operation count (1 kB ops, 1 GB stored)",
        &["ops", "S3 read", "S3 write", "DDB read", "DDB write"],
        &rows,
    );
    println!(
        "-> object storage too expensive for frequent small writes: at 1e7 \
         writes S3 costs {} vs DynamoDB {}",
        usd(1e7 * model.w_s3(1024)),
        usd(1e7 * model.w_dd(1024))
    );

    // ---- Fig 4b: latency vs payload size, intra vs cross region.
    let latency = LatencyModel::aws();
    let env = ExecEnv::client();
    let mut rng = SmallRng::seed_from_u64(4242);
    let sizes = [1usize, 50 * 1024, 100 * 1024, 250 * 1024, 500 * 1024];
    let mut rows = Vec::new();
    for &size in &sizes {
        let mut sample = |op: Op, cross: bool| -> f64 {
            let samples: Vec<f64> = (0..300)
                .map(|_| {
                    latency
                        .sample(op, size, cross, &env, &mut rng)
                        .as_secs_f64()
                        * 1e3
                })
                .collect();
            summarize(&samples).p50
        };
        rows.push(vec![
            fk_bench::stats::size_label(size),
            ms(sample(Op::ObjGet, false)),
            ms(sample(Op::ObjPut, false)),
            ms(sample(Op::ObjGet, true)),
            ms(sample(Op::ObjPut, true)),
            ms(sample(Op::KvGet, false)),
            ms(sample(Op::KvPut, false)),
            ms(sample(Op::KvGet, true)),
            ms(sample(Op::KvPut, true)),
        ]);
    }
    print_table(
        "Fig 4b: p50 latency [ms] by payload size (S3-like | DynamoDB-like)",
        &[
            "size",
            "S3 rd",
            "S3 wr",
            "S3 rd x-reg",
            "S3 wr x-reg",
            "DDB rd",
            "DDB wr",
            "DDB rd x-reg",
            "DDB wr x-reg",
        ],
        &rows,
    );
    println!(
        "-> S3: efficient read/write on large data; DynamoDB: slow writes on \
         large user data; both pay a cross-region penalty"
    );
}
