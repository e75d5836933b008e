//! Load generators. Every stream is a pure function of the seed: the
//! program receives only what is generated here.

use crate::adapter::{lane_of, WriteSpec, Zipf};
use std::collections::VecDeque;

/// Zipf skew of every hot-key choice (the YCSB default).
pub const THETA: f64 = 0.99;

/// SplitMix64: small, fast, and good enough to pick ops and fill
/// payloads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `len` payload bytes that are a function of `tag` alone, so a checker
/// can rebuild what a write stored from the tag.
pub fn payload(len: usize, tag: u64) -> Vec<u8> {
    let mut rng = Rng::new(tag);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

// ----------------------------------------------------------------------
// storm_mixed
// ----------------------------------------------------------------------

/// Op classes of the storm mix, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormKind {
    SetData,
    Read,
    CheckSet,
    Create,
}

/// One storm op: `session` issues it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormOp {
    pub session: usize,
    pub kind: StormKind,
    /// The write, or `None` for a read of `path`.
    pub write: Option<WriteSpec>,
    pub path: String,
}

/// 65 % `set_data` / 15 % read / 10 % check+`set_data` / 10 % cold
/// create, zipf over the hot nodes, sessions round-robin.
pub struct StormGen {
    rng: Rng,
    zipf: Zipf,
    sessions: usize,
    node_size: usize,
    issued: u64,
}

impl StormGen {
    pub const SHARES: [(StormKind, f64); 4] = [
        (StormKind::SetData, 0.65),
        (StormKind::Read, 0.15),
        (StormKind::CheckSet, 0.10),
        (StormKind::Create, 0.10),
    ];

    pub fn new(seed: u64, sessions: usize, hot_nodes: u64, node_size: usize) -> StormGen {
        StormGen {
            rng: Rng::new(seed ^ 0x5707_0001),
            zipf: Zipf::new(hot_nodes, THETA, seed ^ 0x5707_0002),
            sessions,
            node_size,
            issued: 0,
        }
    }

    pub fn hot_path(node: u64) -> String {
        format!("/f/n{node}")
    }

    pub fn next_op(&mut self) -> StormOp {
        let k = self.issued;
        self.issued += 1;
        let session = (k % self.sessions as u64) as usize;
        let roll = self.rng.unit();
        let tag = self.rng.next_u64();
        if roll < 0.65 {
            let path = Self::hot_path(self.zipf.next_key());
            StormOp {
                session,
                kind: StormKind::SetData,
                write: Some(WriteSpec::SetData {
                    path: path.clone(),
                    data: payload(self.node_size, tag),
                }),
                path,
            }
        } else if roll < 0.80 {
            StormOp {
                session,
                kind: StormKind::Read,
                write: None,
                path: Self::hot_path(self.zipf.next_key()),
            }
        } else if roll < 0.90 {
            let path = Self::hot_path(self.zipf.next_key());
            StormOp {
                session,
                kind: StormKind::CheckSet,
                write: Some(WriteSpec::CheckSet {
                    path: path.clone(),
                    data: payload(16, tag),
                }),
                path,
            }
        } else {
            // A fresh path: tree growth and the parent's children
            // rewrite.
            let path = format!("/f/x{k}");
            StormOp {
                session,
                kind: StormKind::Create,
                write: Some(WriteSpec::Create {
                    path: path.clone(),
                    data: payload(8, tag),
                }),
                path,
            }
        }
    }
}

// ----------------------------------------------------------------------
// session_pipeline
// ----------------------------------------------------------------------

/// Op classes of the recipe mix, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecipeKind {
    Create,
    Delete,
    SetData,
}

/// One recipe op of one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecipeOp {
    pub kind: RecipeKind,
    pub write: WriteSpec,
    /// The parent whose children the session lists first, as the
    /// recipes do around an enrolment (lock: find the predecessor to
    /// watch; queue `take`: list, then delete the oldest).
    pub list_first: Option<String>,
}

/// What lock and queue enrolment does: 45 % list a hot parent and
/// create a child under it, 45 % list the parent and delete the session's
/// own oldest child, 10 % `set_data` on a hot parent. Consecutive paths of a session alternate between
/// the leader lanes, so a write's predecessor sits in the other lane.
pub struct RecipeGen {
    rng: Rng,
    lanes: usize,
    /// Hot parents, grouped by the lane their own path routes to.
    parents_by_lane: Vec<Vec<String>>,
    /// The same parents, flat.
    parents: Vec<String>,
    sessions: Vec<RecipeSession>,
}

struct RecipeSession {
    /// Own live children, oldest first, per lane.
    children: Vec<VecDeque<String>>,
    next_child: u64,
    next_lane: usize,
}

impl RecipeGen {
    pub const SHARES: [(RecipeKind, f64); 3] = [
        (RecipeKind::Create, 0.45),
        (RecipeKind::Delete, 0.45),
        (RecipeKind::SetData, 0.10),
    ];

    /// `parents_per_lane` hot parents per lane (named so that their own
    /// paths route evenly).
    pub fn new(seed: u64, sessions: usize, lanes: usize, parents_per_lane: usize) -> RecipeGen {
        let mut parents_by_lane: Vec<Vec<String>> = vec![Vec::new(); lanes];
        let mut n = 0u64;
        while parents_by_lane.iter().any(|p| p.len() < parents_per_lane) {
            let path = format!("/q{n}");
            n += 1;
            let lane = lane_of(&path, lanes);
            if parents_by_lane[lane].len() < parents_per_lane {
                parents_by_lane[lane].push(path);
            }
        }
        RecipeGen {
            rng: Rng::new(seed ^ 0x5E55_0001),
            lanes,
            parents: parents_by_lane.iter().flatten().cloned().collect(),
            parents_by_lane,
            sessions: (0..sessions)
                .map(|s| RecipeSession {
                    children: vec![VecDeque::new(); lanes],
                    next_child: 0,
                    next_lane: s % lanes,
                })
                .collect(),
        }
    }

    /// Every hot parent.
    pub fn parents(&self) -> &[String] {
        &self.parents
    }

    fn create(&mut self, session: usize, lane: usize) -> RecipeOp {
        let pick = self.rng.below(self.parents.len() as u64) as usize;
        let parent = self.parents[pick].clone();
        let tag = self.rng.next_u64();
        let state = &mut self.sessions[session];
        // Name the child so that its path routes to the wanted lane.
        let path = loop {
            let path = format!("{parent}/s{session}c{}", state.next_child);
            state.next_child += 1;
            if lane_of(&path, self.lanes) == lane {
                break path;
            }
        };
        state.children[lane].push_back(path.clone());
        RecipeOp {
            kind: RecipeKind::Create,
            write: WriteSpec::Create {
                path,
                data: payload(32, tag),
            },
            list_first: Some(parent),
        }
    }

    /// A set-up op: the session adds to its stock of children, in
    /// alternating lanes.
    pub fn stock_op(&mut self, session: usize) -> RecipeOp {
        let lane = self.sessions[session].next_lane;
        self.sessions[session].next_lane = (lane + 1) % self.lanes;
        self.create(session, lane)
    }

    pub fn next_op(&mut self, session: usize) -> RecipeOp {
        let lane = self.sessions[session].next_lane;
        self.sessions[session].next_lane = (lane + 1) % self.lanes;
        let roll = self.rng.unit();
        if roll < 0.45 {
            return self.create(session, lane);
        }
        if roll < 0.90 {
            let state = &mut self.sessions[session];
            let other = (lane + 1) % self.lanes;
            let victim = match state.children[lane].pop_front() {
                Some(path) => Some(path),
                None => state.children[other].pop_front(),
            };
            // A session with no child left enrols again instead.
            let Some(path) = victim else {
                return self.create(session, lane);
            };
            let parent = path[..path.rfind('/').expect("child path")].to_owned();
            return RecipeOp {
                kind: RecipeKind::Delete,
                write: WriteSpec::Delete { path },
                list_first: Some(parent),
            };
        }
        let choices = &self.parents_by_lane[lane];
        let path = choices[self.rng.below(choices.len() as u64) as usize].clone();
        let tag = self.rng.next_u64();
        RecipeOp {
            kind: RecipeKind::SetData,
            write: WriteSpec::SetData {
                path,
                data: payload(64, tag),
            },
            list_first: None,
        }
    }
}

// ----------------------------------------------------------------------
// read_fanout
// ----------------------------------------------------------------------

/// Op classes of the read mix, in table order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FanoutOp {
    GetData {
        node: usize,
        watch: bool,
    },
    Exists {
        node: usize,
    },
    ExistsAbsent {
        path: String,
    },
    GetChildren {
        parent: usize,
    },
    SetData {
        node: usize,
        data: Vec<u8>,
        tag: u64,
    },
}

impl FanoutOp {
    /// Index into [`FanoutGen::SHARES`].
    pub fn class(&self) -> usize {
        match self {
            FanoutOp::GetData { .. } => 0,
            FanoutOp::Exists { .. } | FanoutOp::ExistsAbsent { .. } => 1,
            FanoutOp::GetChildren { .. } => 2,
            FanoutOp::SetData { .. } => 3,
        }
    }
}

/// 80 % `get_data` (1 in 10 arming a data watch) / 8 % `exists` (half
/// on absent paths) / 7 % `get_children` / 5 % `set_data`, zipf over the
/// tree.
pub struct FanoutGen {
    rng: Rng,
    nodes: Zipf,
    parents: Zipf,
    pub parent_count: usize,
    pub children_per_parent: usize,
    pub node_size: usize,
}

impl FanoutGen {
    pub const SHARES: [f64; 4] = [0.80, 0.08, 0.07, 0.05];

    pub fn new(seed: u64, parents: usize, children: usize, node_size: usize) -> FanoutGen {
        FanoutGen {
            rng: Rng::new(seed ^ 0xFA20_0001),
            nodes: Zipf::new((parents * children) as u64, THETA, seed ^ 0xFA20_0002),
            parents: Zipf::new(parents as u64, THETA, seed ^ 0xFA20_0003),
            parent_count: parents,
            children_per_parent: children,
            node_size,
        }
    }

    pub fn parent_path(parent: usize) -> String {
        format!("/r{parent}")
    }

    /// Path of tree node `node`. Zipf ranks are spread over the parents
    /// so the hottest nodes do not share one children list.
    pub fn node_path(&self, node: usize) -> String {
        let parent = node % self.parent_count;
        let child = node / self.parent_count;
        format!("/r{parent}/c{child}")
    }

    /// The payload a node is seeded with.
    pub fn initial_data(&self, node: usize) -> Vec<u8> {
        tagged_payload(self.node_size, node as u64, 0)
    }

    pub fn next_op(&mut self) -> FanoutOp {
        let roll = self.rng.unit();
        let extra = self.rng.next_u64();
        if roll < 0.80 {
            FanoutOp::GetData {
                node: self.nodes.next_key() as usize,
                watch: extra.is_multiple_of(10),
            }
        } else if roll < 0.88 {
            let node = self.nodes.next_key() as usize;
            if extra.is_multiple_of(2) {
                FanoutOp::Exists { node }
            } else {
                FanoutOp::ExistsAbsent {
                    path: format!("{}-absent", self.node_path(node)),
                }
            }
        } else if roll < 0.95 {
            FanoutOp::GetChildren {
                parent: self.parents.next_key() as usize,
            }
        } else {
            let node = self.nodes.next_key() as usize;
            let tag = extra | 1;
            FanoutOp::SetData {
                node,
                data: tagged_payload(self.node_size, node as u64, tag),
                tag,
            }
        }
    }
}

/// A payload that names its node and the write that produced it in its
/// first 16 bytes, so a reader can tell which write it is looking at.
pub fn tagged_payload(len: usize, node: u64, tag: u64) -> Vec<u8> {
    let mut data = payload(len, node ^ tag.rotate_left(17));
    data[..8].copy_from_slice(&node.to_le_bytes());
    data[8..16].copy_from_slice(&tag.to_le_bytes());
    data
}

/// `(node, tag)` of a [`tagged_payload`].
pub fn read_tag(data: &[u8]) -> Option<(u64, u64)> {
    let node = u64::from_le_bytes(data.get(..8)?.try_into().ok()?);
    let tag = u64::from_le_bytes(data.get(8..16)?.try_into().ok()?);
    Some((node, tag))
}

// ----------------------------------------------------------------------
// durable_store
// ----------------------------------------------------------------------

/// Op classes of the store mix, in table order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOp {
    Read {
        key: usize,
    },
    /// Overwrite these keys in one batch.
    WriteBatch {
        keys: Vec<usize>,
    },
    /// Delete these keys in one batch, then create them again.
    Recreate {
        keys: Vec<usize>,
    },
    /// Scan the subtree of one parent.
    Scan {
        parent: usize,
    },
}

impl StoreOp {
    /// Index into [`StoreGen::SHARES`].
    pub fn class(&self) -> usize {
        match self {
            StoreOp::Read { .. } => 0,
            StoreOp::WriteBatch { .. } => 1,
            StoreOp::Recreate { .. } => 2,
            StoreOp::Scan { .. } => 3,
        }
    }
}

/// 50 % uniform `read_node` / 30 % `write_batch` of zipf overwrites /
/// 10 % `delete_batch` + re-create / 10 % `scan_subtree` of one parent.
pub struct StoreGen {
    rng: Rng,
    zipf: Zipf,
    pub keys: usize,
    pub children_per_parent: usize,
    pub batch: usize,
}

impl StoreGen {
    pub const SHARES: [f64; 4] = [0.50, 0.30, 0.10, 0.10];

    pub fn new(seed: u64, keys: usize, children_per_parent: usize, batch: usize) -> StoreGen {
        StoreGen {
            rng: Rng::new(seed ^ 0xD57A_0001),
            zipf: Zipf::new(keys as u64, THETA, seed ^ 0xD57A_0002),
            keys,
            children_per_parent,
            batch,
        }
    }

    pub fn parent_path(&self, parent: usize) -> String {
        format!("/d/p{parent:05}")
    }

    pub fn key_path(&self, key: usize) -> String {
        let parent = key / self.children_per_parent;
        let child = key % self.children_per_parent;
        format!("/d/p{parent:05}/c{child:02}")
    }

    /// Distinct keys for one batch: zipf ranks are scattered over the
    /// key space so hot keys do not share SST blocks.
    fn batch_keys(&mut self, zipf: bool) -> Vec<usize> {
        let mut keys: Vec<usize> = Vec::with_capacity(self.batch);
        while keys.len() < self.batch {
            let key = if zipf {
                (self.zipf.next_key() as usize).wrapping_mul(40_503) % self.keys
            } else {
                self.rng.below(self.keys as u64) as usize
            };
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys
    }

    pub fn next_op(&mut self) -> StoreOp {
        let roll = self.rng.unit();
        if roll < 0.50 {
            StoreOp::Read {
                key: self.rng.below(self.keys as u64) as usize,
            }
        } else if roll < 0.80 {
            StoreOp::WriteBatch {
                keys: self.batch_keys(true),
            }
        } else if roll < 0.90 {
            StoreOp::Recreate {
                keys: self.batch_keys(false),
            }
        } else {
            StoreOp::Scan {
                parent: self
                    .rng
                    .below((self.keys / self.children_per_parent) as u64)
                    as usize,
            }
        }
    }
}
