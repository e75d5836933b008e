//! Seeded crash-recovery property suite (tree level).
//!
//! The engine-level suite (`fk-store/tests/crash_recovery.rs`) proves
//! the LSM recovers its acked key/value prefix; this suite proves the
//! property the pipeline actually needs: a [`DurableUserStore`] killed
//! at a seeded storage operation — possibly mid-batch, mid-flush or
//! mid-manifest-swap — reopens to a tree **byte-identical** (via
//! [`fk_core::codec::encode_node`]) to an unkilled twin store that
//! received exactly the acknowledged operations.
//!
//! `FK_STORE_CASES` scales the case count; every assert carries the
//! replay stamp (master seed + case + kill point).

use bytes::Bytes;
use fk_cloud::metering::Meter;
use fk_cloud::trace::Ctx;
use fk_cloud::{CloudError, MemStore, Region};
use fk_core::durable::DurableUserStore;
use fk_core::user_store::{MemUserStore, NodeRecord, UserStore};
use fk_store::{FsyncPolicy, LsmConfig, SimStorage};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

const MASTER_SEED: u64 = 0x7EE5_C0DE;

fn cases_from_env(default: usize) -> usize {
    std::env::var("FK_STORE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Tiny geometry so a few hundred records exercise flush + compaction.
fn crash_config() -> LsmConfig {
    LsmConfig {
        memtable_bytes: 1024,
        block_bytes: 256,
        sst_target_bytes: 2048,
        l0_compact_trigger: 2,
        fsync: FsyncPolicy::Always,
        background_compaction: false,
        injector: None,
    }
}

fn path(rng: &mut SmallRng) -> String {
    if rng.gen_bool(0.3) {
        format!(
            "/n/{:02}/c{}",
            rng.gen_range(0u32..12),
            rng.gen_range(0u32..4)
        )
    } else {
        format!("/n/{:02}", rng.gen_range(0u32..12))
    }
}

fn record(rng: &mut SmallRng, path: String) -> NodeRecord {
    let len = rng.gen_range(0usize..96);
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    let children: Vec<String> = (0..rng.gen_range(0usize..4))
        .map(|i| format!("c{i}"))
        .collect();
    let epoch_marks: Vec<u64> = (0..rng.gen_range(0usize..3))
        .map(|_| rng.gen_range(1u64..1000))
        .collect();
    NodeRecord {
        path,
        data: Bytes::from(data),
        created_txid: rng.gen_range(1u64..1_000),
        modified_txid: rng.gen_range(1u64..1_000),
        version: rng.gen_range(0i32..64),
        children: Arc::new(children),
        children_txid: rng.gen_range(1u64..1_000),
        ephemeral_owner: rng
            .gen_bool(0.2)
            .then(|| format!("s{}", rng.gen_range(0u32..8))),
        epoch_marks: Arc::new(epoch_marks),
    }
}

/// One seeded mutation against both stores; returns `false` once the
/// killed store's device died (twin is only fed *acknowledged* ops).
fn apply_step(
    rng: &mut SmallRng,
    ctx: &Ctx,
    killed: &DurableUserStore,
    twin: &MemUserStore,
    stamp: &str,
) -> bool {
    let roll = rng.gen_range(0u32..100);
    let outcome = if roll < 55 {
        let p = path(rng);
        let rec = record(rng, p);
        killed.write_node(ctx, &rec).map(|()| {
            twin.write_node(ctx, &rec).unwrap();
        })
    } else if roll < 75 {
        // A batch: one WAL record, all-or-nothing on the kill.
        let recs: Vec<NodeRecord> = (0..rng.gen_range(2usize..=4))
            .map(|_| {
                let p = path(rng);
                record(rng, p)
            })
            .collect();
        killed.write_batch(ctx, &recs).map(|()| {
            twin.write_batch(ctx, &recs).unwrap();
        })
    } else if roll < 90 {
        let p = path(rng);
        killed.delete_node(ctx, &p).map(|()| {
            twin.delete_node(ctx, &p).unwrap();
        })
    } else {
        let paths: Vec<String> = (0..rng.gen_range(1usize..=3)).map(|_| path(rng)).collect();
        killed.delete_batch(ctx, &paths).map(|()| {
            twin.delete_batch(ctx, &paths).unwrap();
        })
    };
    match outcome {
        Ok(()) => true,
        Err(CloudError::StorageFailed { .. }) => false,
        Err(e) => panic!("{stamp}: unexpected error: {e}"),
    }
}

/// Byte-identity of the full trees: every path, every record, compared
/// through the canonical binary frame.
fn assert_trees_identical(ctx: &Ctx, recovered: &dyn UserStore, twin: &dyn UserStore, stamp: &str) {
    let got = recovered
        .scan_subtree(ctx, "/")
        .unwrap_or_else(|e| panic!("{stamp}: recovered scan failed: {e}"));
    let want = twin
        .scan_subtree(ctx, "/")
        .unwrap_or_else(|e| panic!("{stamp}: twin scan failed: {e}"));
    let got_paths: Vec<&str> = got.iter().map(|e| e.path.as_str()).collect();
    let want_paths: Vec<&str> = want.iter().map(|e| e.path.as_str()).collect();
    assert_eq!(
        got_paths, want_paths,
        "{stamp}: recovered path set diverged"
    );
    for entry in &want {
        let a = recovered
            .read_node(ctx, &entry.path)
            .unwrap_or_else(|e| panic!("{stamp}: read {} failed: {e}", entry.path))
            .unwrap_or_else(|| panic!("{stamp}: {} missing after recovery", entry.path));
        let b = twin
            .read_node(ctx, &entry.path)
            .unwrap()
            .expect("twin has scanned path");
        assert_eq!(
            fk_core::codec::encode_node(&a),
            fk_core::codec::encode_node(&b),
            "{stamp}: node {} not byte-identical after recovery",
            entry.path
        );
    }
}

#[test]
fn killed_store_recovers_tree_byte_identical_to_unkilled_twin() {
    let cases = cases_from_env(24);
    for case in 0..cases as u64 {
        let case_seed = MASTER_SEED ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let kill_at = rng.gen_range(1u64..=500);
        let stamp = format!("tree crash seed {MASTER_SEED:#x} case {case} kill@{kill_at}");
        let ctx = Ctx::disabled();
        let region = Region::US_EAST_1;

        let dev = SimStorage::new();
        let killed =
            DurableUserStore::open(Arc::new(dev.clone()), crash_config(), region, Meter::new())
                .unwrap_or_else(|e| panic!("{stamp}: open failed: {e}"));
        let twin = MemUserStore::new(MemStore::new(region, Meter::new()));
        dev.arm_kill(kill_at, case_seed ^ 0x5A5A);

        let mut acked = 0u32;
        for _ in 0..200 {
            if !apply_step(&mut rng, &ctx, &killed, &twin, &stamp) {
                break;
            }
            acked += 1;
        }
        drop(killed);

        dev.crash();
        let recovered =
            DurableUserStore::open(Arc::new(dev.clone()), crash_config(), region, Meter::new())
                .unwrap_or_else(|e| panic!("{stamp}: recovery open failed: {e}"));
        assert_trees_identical(
            &ctx,
            &recovered,
            &twin,
            &format!("{stamp} ({acked} acked ops)"),
        );

        // The recovered store keeps taking (and durably acking) writes.
        let post = record(&mut rng, "/post-recovery".to_owned());
        recovered
            .write_node(&ctx, &post)
            .unwrap_or_else(|e| panic!("{stamp}: post-recovery write failed: {e}"));
        assert_eq!(
            recovered.read_node(&ctx, "/post-recovery").unwrap(),
            Some(post),
            "{stamp}: post-recovery write not readable"
        );
    }
}

#[test]
fn durable_profile_runs_the_full_pipeline_unchanged() {
    // `DeploymentConfig::aws().durable()` swaps both the user store and
    // the system KV onto the LSM engine; the client/follower/leader/
    // distributor pipeline must not notice.
    use fk_core::api::CreateMode;
    use fk_core::deploy::{Deployment, DeploymentConfig};

    let fk = Deployment::start(DeploymentConfig::aws().durable());
    let client = fk.connect("s1").unwrap();
    client
        .create("/durable", b"on disk", CreateMode::Persistent)
        .unwrap();
    client
        .create("/durable/child", b"nested", CreateMode::Persistent)
        .unwrap();
    client.set_data("/durable", b"rewritten", -1).unwrap();
    assert_eq!(
        client.get_data("/durable", false).unwrap().0.as_ref(),
        b"rewritten"
    );
    assert_eq!(
        client.get_data("/durable/child", false).unwrap().0.as_ref(),
        b"nested"
    );
    assert_eq!(
        fk.user_store().kind(),
        fk_core::user_store::UserStoreKind::Durable,
        "durable profile installs the LSM-backed user store"
    );
    assert!(
        fk.system().kv().is_durable(),
        "durable profile attaches the LSM-backed system KV"
    );
    fk.shutdown();
}

#[test]
fn recovery_is_stable_across_repeated_reopens() {
    // Reopening an already-recovered device twice more must not change
    // a byte (replay is idempotent; garbage collection converges).
    let cases = cases_from_env(24).min(8);
    for case in 0..cases as u64 {
        let case_seed = MASTER_SEED ^ 0xB007 ^ case.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let kill_at = rng.gen_range(1u64..=300);
        let stamp = format!("tree reopen seed {MASTER_SEED:#x} case {case} kill@{kill_at}");
        let ctx = Ctx::disabled();
        let region = Region::US_EAST_1;

        let dev = SimStorage::new();
        let killed =
            DurableUserStore::open(Arc::new(dev.clone()), crash_config(), region, Meter::new())
                .unwrap();
        let twin = MemUserStore::new(MemStore::new(region, Meter::new()));
        dev.arm_kill(kill_at, case_seed);
        for _ in 0..120 {
            if !apply_step(&mut rng, &ctx, &killed, &twin, &stamp) {
                break;
            }
        }
        drop(killed);
        dev.crash();
        for reopen in 0..3 {
            let recovered =
                DurableUserStore::open(Arc::new(dev.clone()), crash_config(), region, Meter::new())
                    .unwrap_or_else(|e| panic!("{stamp}: reopen {reopen} failed: {e}"));
            assert_trees_identical(&ctx, &recovered, &twin, &format!("{stamp} reopen {reopen}"));
        }
    }
}
