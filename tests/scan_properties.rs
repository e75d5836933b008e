//! Property-based validation of the subtree scan surface: for random
//! znode trees, random scan roots and every storage backend, the scan
//! result must be *exactly* the reference-model enumeration (the
//! [`fk_core::in_subtree`] membership predicate applied to the created
//! path set), and the scan's modeled price must honour the cost model's
//! contracts — the standard LIST+GET closed form, and the hybrid
//! aggregate-Query economy (a scan is never dearer than point-reading
//! every entry it returned).
//!
//! A second suite drives the same check end-to-end through a live
//! deployment at random pipeline geometry (shards × epoch batch ×
//! leader groups), where `get_subtree` may be served by the replica
//! tier or by storage — the enumeration must be identical either way.

use bytes::Bytes;
use fk_cloud::trace::Ctx;
use fk_cloud::Meter;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::user_store::NodeRecord;
use fk_core::{in_subtree, CreateMode, FkError};
use fk_cost::{CostModel, StorageMode};
use fk_testkit::geometry;
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic per-path payload size: mostly small, with every fifth
/// node pushed past the 4 kB hybrid offload threshold so scans cross
/// the inline/offloaded split in the same run.
fn size_for(index: usize, seed: u64) -> usize {
    if (index as u64 + seed).is_multiple_of(5) {
        4097 + (index % 3) * 1000
    } else {
        1 + (index * 37 + seed as usize) % 600
    }
}

fn record(path: &str, size: usize) -> NodeRecord {
    NodeRecord {
        path: path.to_owned(),
        data: Bytes::from(vec![0xA5u8; size]),
        created_txid: 1,
        modified_txid: 2,
        version: 0,
        children: Arc::new(Vec::new()),
        children_txid: 2,
        ephemeral_owner: None,
        epoch_marks: Arc::new(Vec::new()),
    }
}

/// The reference model: enumerate the subtree by filtering the created
/// path set with the membership predicate, sorted by path.
fn reference(paths: &[String], root: &str) -> Vec<String> {
    let mut expected: Vec<String> = paths
        .iter()
        .filter(|p| in_subtree(root, p))
        .cloned()
        .collect();
    expected.sort();
    expected
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Backend-level: `scan_subtree` ≡ reference enumeration on every
    /// backend, at every root (each created node, the tree root `/`,
    /// and a path that does not exist), with the scan priced through
    /// the cost model.
    #[test]
    fn scan_matches_reference_enumeration_on_all_backends(
        paths in geometry::tree_paths(),
        root_pick in 0usize..64,
        seed in geometry::schedule_seed(),
    ) {
        let ctx = Ctx::disabled();
        let model = CostModel::paper_default();
        let sizes: Vec<usize> = (0..paths.len()).map(|i| size_for(i, seed)).collect();
        for (name, store) in fk_testkit::user_stores(&Meter::new()) {
            for (i, path) in paths.iter().enumerate() {
                store.write_node(&ctx, &record(path, sizes[i])).unwrap();
            }
            for root in [&paths[root_pick % paths.len()], &"/".to_owned(), &"/missing".to_owned()] {
                let entries = store.scan_subtree(&ctx, root).unwrap();
                let got: Vec<String> = entries.iter().map(|e| e.path.clone()).collect();
                let expected = reference(&paths, root);
                prop_assert_eq!(
                    &got, &expected,
                    "backend {}, root {}", name, root
                );
                // Every entry carries the payload and stat the write put
                // there — the raw-bytes summary decode loses nothing.
                for entry in &entries {
                    let i = paths.iter().position(|p| p == &entry.path).unwrap();
                    prop_assert_eq!(entry.data.len(), sizes[i]);
                    prop_assert_eq!(entry.stat.data_length as usize, sizes[i]);
                    prop_assert_eq!(entry.stat.modified_txid, 2);
                }

                // Cost-model contracts for this scan's entry sizes.
                let entry_sizes: Vec<usize> =
                    entries.iter().map(|e| e.data.len()).collect();
                let standard = model.cost_scan(StorageMode::Standard, &entry_sizes);
                prop_assert!(
                    (standard
                        - (model.pricing.s3_put
                            + entry_sizes.len() as f64 * model.pricing.s3_get))
                        .abs()
                        < 1e-15,
                    "standard scan is one LIST plus one GET per entry"
                );
                let hybrid = model.cost_scan(StorageMode::Hybrid, &entry_sizes);
                let point_reads: f64 = entry_sizes
                    .iter()
                    .map(|s| model.cost_read(StorageMode::Hybrid, *s))
                    .sum();
                prop_assert!(hybrid > 0.0, "even an empty Query bills a read unit");
                if !entry_sizes.is_empty() {
                    prop_assert!(
                        hybrid <= point_reads + 1e-15,
                        "aggregate Query ({hybrid}) must never exceed per-entry \
                         point reads ({point_reads})"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// End-to-end at random pipeline geometry: build a random tree
    /// through the write path, then `get_subtree` at every node — the
    /// result (whether served by the replica tier or by a storage scan)
    /// must equal the reference enumeration, and
    /// `get_children_with_data` must list exactly the direct children.
    #[test]
    fn subtree_reads_match_reference_at_random_geometry(
        paths in geometry::tree_paths(),
        config in geometry::distributor_config(),
        replicas in geometry::replica_config(),
        root_pick in 0usize..64,
    ) {
        let fk = Deployment::start(
            DeploymentConfig::aws()
                .with_distributor(config)
                .with_replicas(replicas),
        );
        let client = fk.connect("scan").unwrap();
        for (i, path) in paths.iter().enumerate() {
            client
                .create(path, &vec![b'd'; 1 + i % 40], CreateMode::Persistent)
                .unwrap();
        }

        let root = &paths[root_pick % paths.len()];
        let entries = client.get_subtree(root, false).unwrap();
        let got: Vec<String> = entries.iter().map(|e| e.path.clone()).collect();
        prop_assert_eq!(&got, &reference(&paths, root), "root {}", root);

        let children = client.get_children_with_data(root, false).unwrap();
        let mut expected_children: Vec<String> = paths
            .iter()
            .filter(|p| {
                p.len() > root.len()
                    && p.starts_with(root.as_str())
                    && p.as_bytes()[root.len()] == b'/'
                    && !p[root.len() + 1..].contains('/')
            })
            .cloned()
            .collect();
        expected_children.sort();
        let got_children: Vec<String> =
            children.iter().map(|e| e.path.clone()).collect();
        prop_assert_eq!(&got_children, &expected_children, "children of {}", root);

        // A root that was never created scans empty and lists NoNode.
        prop_assert!(client.get_subtree("/never-created", false).unwrap().is_empty());
        prop_assert!(matches!(
            client.get_children_with_data("/never-created", false),
            Err(FkError::NoNode)
        ));
        fk.shutdown();
    }
}
