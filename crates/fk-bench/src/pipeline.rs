//! Direct-drive write pipeline for latency experiments.
//!
//! Runs one `set_data`/`create` request synchronously through the real
//! function bodies — client encode → session queue → follower (Alg. 1) →
//! leader queue → leader (Alg. 2, inline watch dispatch) — on a single
//! virtual-time context, so the end-to-end latency and the per-phase
//! breakdown (Figures 9–12, Table 3) emerge from the actual code path
//! under the calibrated latency model.

use fk_cloud::ops::Op;
use fk_cloud::trace::Ctx;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::follower::{Follower, LEADER_GROUP};
use fk_core::leader::Leader;
use fk_core::messages::{ClientRequest, Payload, WriteOp};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Result of one measured write.
#[derive(Debug, Clone, Default)]
pub struct WriteSample {
    /// Client-observed end-to-end latency (request submit → success
    /// notification), ms.
    pub e2e_ms: f64,
    /// Total time inside the follower function, ms.
    pub follower_ms: f64,
    /// Total time inside the leader function, ms.
    pub leader_ms: f64,
    /// Charged time per phase label, ms.
    pub phases: BTreeMap<String, f64>,
}

/// A reusable direct-drive pipeline.
pub struct WritePipeline {
    deployment: Deployment,
    follower: Follower,
    leader: Leader,
    session: String,
    next_request: u64,
    stage_threshold: usize,
}

impl WritePipeline {
    /// Builds the pipeline on a direct (trigger-less) deployment.
    pub fn new(config: DeploymentConfig) -> Self {
        let deployment = Deployment::direct(config);
        let follower = deployment.make_follower();
        let leader = deployment.make_leader_inline();
        let session = "bench-session".to_owned();
        let ctx = Ctx::disabled();
        deployment
            .system()
            .register_session(&ctx, &session, 0)
            .expect("register bench session");
        // A bus endpoint so notifications have somewhere to go.
        let (rx, _alive) = deployment.bus().register(&session);
        std::mem::forget(rx); // keep the endpoint alive for the run
        WritePipeline {
            deployment,
            follower,
            leader,
            session,
            next_request: 1,
            stage_threshold: 192 * 1024,
        }
    }

    /// The underlying deployment (meter access etc.).
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Creates a node without measuring (setup).
    pub fn seed_node(&mut self, path: &str, size: usize) {
        let data = vec![0x5A; size];
        let ctx = Ctx::disabled();
        self.drive(&ctx, path, &data, true);
    }

    fn fresh_ctx(&self, seed: u64) -> Ctx {
        let mode = self.deployment.config().mode;
        let ctx = Ctx::new(Arc::clone(self.deployment.model()), mode, seed);
        ctx.set_region(self.deployment.config().regions[0]);
        ctx
    }

    /// Charges a warm function's trigger: the queue's dispatch of a
    /// `bytes` batch and the sandbox's warm-start overhead, under `label`.
    fn invoke(&self, ctx: &Ctx, label: &'static str, bytes: usize) {
        ctx.span(label, || {
            ctx.charge(
                Op::QueueDispatch(self.deployment.config().queue_kind()),
                bytes,
            );
            ctx.charge(Op::FnWarmOverhead, 0);
        });
    }

    /// Drives one request through client → follower → leader on `ctx`.
    /// Returns `(t_client, t_follower_start, t_follower_end, t_leader_end)`
    /// in virtual time.
    fn drive(
        &mut self,
        ctx: &Ctx,
        path: &str,
        data: &[u8],
        create: bool,
    ) -> (Duration, Duration, Duration, Duration) {
        let request_id = self.next_request;
        self.next_request += 1;

        // --- client side: payload framing (+ optional staging, §4.4).
        ctx.push_phase("client");
        ctx.charge(Op::ClientWork, data.len());
        let payload = if data.len() > self.stage_threshold {
            let key = format!("staging/{}/{request_id}", self.session);
            self.deployment
                .staging()
                .put(ctx, &key, bytes::Bytes::from(data.to_vec()))
                .expect("staging put");
            Payload::Staged {
                key,
                len: data.len(),
            }
        } else {
            Payload::inline(data)
        };
        let op = if create {
            WriteOp::Create {
                path: path.to_owned(),
                payload,
                mode: fk_core::api::CreateMode::Persistent,
            }
        } else {
            WriteOp::SetData {
                path: path.to_owned(),
                payload,
                expected_version: -1,
            }
        };
        let request = ClientRequest {
            session_id: self.session.clone(),
            request_id,
            op,
        };
        self.deployment
            .write_queue()
            .send(ctx, &self.session, request.encode())
            .expect("send to write queue");
        ctx.pop_phase();
        let t_client = ctx.now();

        // --- follower invocation (warm).
        let batch = self
            .deployment
            .write_queue()
            .receive(10, Duration::from_secs(30))
            .expect("follower batch");
        let bytes: usize = batch.messages.iter().map(|m| m.body.len()).sum();
        self.invoke(ctx, "invoke_follower", bytes);
        let t_follower_start = ctx.now();
        let follower_env = self.deployment.config().follower_fn.env();
        ctx.with_env(follower_env, || {
            self.follower
                .process_messages(ctx, &batch.messages)
                .expect("follower processes");
        });
        self.deployment.write_queue().ack(batch.receipt);
        let t_follower_end = ctx.now();
        self.deployment.meter().fn_invocation(
            self.deployment.config().follower_fn.memory_mb,
            t_follower_end.saturating_sub(t_follower_start),
        );

        // --- leader invocation (warm).
        let lbatch = self
            .deployment
            .leader_queue()
            .receive(10, Duration::from_secs(30))
            .expect("leader batch");
        debug_assert_eq!(&*lbatch.messages[0].group, LEADER_GROUP);
        let lbytes: usize = lbatch.messages.iter().map(|m| m.body.len()).sum();
        self.invoke(ctx, "invoke_leader", lbytes);
        let leader_env = self.deployment.config().leader_fn.env();
        let t_leader_start = ctx.now();
        ctx.with_env(leader_env, || {
            self.leader
                .process_messages(ctx, &lbatch.messages)
                .expect("leader processes");
        });
        self.deployment.leader_queue().ack(lbatch.receipt);
        let t_leader_end = ctx.now();
        self.deployment.meter().fn_invocation(
            self.deployment.config().leader_fn.memory_mb,
            t_leader_end.saturating_sub(t_leader_start),
        );

        (t_client, t_follower_start, t_follower_end, t_leader_end)
    }

    /// Runs one measured `set_data` write; the node must exist.
    pub fn run_write(&mut self, seed: u64, path: &str, data: &[u8]) -> WriteSample {
        let ctx = self.fresh_ctx(seed);
        let (_, t_fs, t_fe, t_le) = self.drive(&ctx, path, data, false);

        let spans = ctx.take_spans();
        let mut phases: BTreeMap<String, f64> = BTreeMap::new();
        let mut notify_end = None;
        for span in &spans {
            let label = span.phase.split('/').next().unwrap_or("other").to_owned();
            *phases.entry(label).or_insert(0.0) += span.duration.as_secs_f64() * 1e3;
            if span.phase.starts_with("notify_client") {
                notify_end = Some(span.start + span.duration);
            }
        }
        WriteSample {
            // The client learns the outcome at the success notification;
            // remaining leader work (pop, watch waits) runs on.
            e2e_ms: notify_end.unwrap_or(t_le).as_secs_f64() * 1e3,
            follower_ms: (t_fe - t_fs).as_secs_f64() * 1e3,
            leader_ms: (t_le - t_fe).as_secs_f64() * 1e3,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fk_cloud::trace::LatencyMode;

    #[test]
    fn pipeline_produces_plausible_breakdown() {
        let config = DeploymentConfig::aws().with_mode(LatencyMode::Virtual, 42);
        let mut pipe = WritePipeline::new(config);
        pipe.seed_node("/bench", 1024);
        let sample = pipe.run_write(7, "/bench", &[0u8; 1024]);
        // Calibration sanity: e2e in the paper's ballpark (~60–150 ms for
        // 1 kB at 2048 MB), follower ≈ 25–60 ms, leader ≈ 40–120 ms.
        assert!(
            sample.e2e_ms > 40.0 && sample.e2e_ms < 250.0,
            "e2e {}",
            sample.e2e_ms
        );
        assert!(sample.follower_ms > 10.0, "follower {}", sample.follower_ms);
        assert!(sample.leader_ms > 20.0, "leader {}", sample.leader_ms);
        assert!(sample.phases.contains_key("lock_node"));
        assert!(sample.phases.contains_key("push_to_leader"));
        assert!(sample.phases.contains_key("commit"));
        assert!(sample.phases.contains_key("update_user_storage"));
    }

    #[test]
    fn disabled_mode_still_functions() {
        let mut pipe = WritePipeline::new(DeploymentConfig::aws());
        pipe.seed_node("/n", 16);
        let sample = pipe.run_write(1, "/n", b"new-data");
        assert_eq!(sample.e2e_ms, 0.0);
        // The write actually happened.
        let ctx = Ctx::disabled();
        let rec = pipe
            .deployment()
            .user_store()
            .read_node(&ctx, "/n")
            .unwrap()
            .unwrap();
        assert_eq!(rec.data.as_ref(), b"new-data");
        assert_eq!(rec.version, 1);
    }

    #[test]
    fn large_payloads_take_staging_path() {
        let config = DeploymentConfig::aws().with_mode(LatencyMode::Virtual, 3);
        let mut pipe = WritePipeline::new(config);
        pipe.seed_node("/big", 16);
        let data = vec![1u8; 250 * 1024];
        let sample = pipe.run_write(5, "/big", &data);
        assert!(sample.e2e_ms > 50.0);
        // Staged object cleaned up by the leader.
        let ctx = Ctx::disabled();
        assert!(pipe
            .deployment()
            .staging()
            .list(&ctx, "staging/")
            .is_empty());
    }
}
