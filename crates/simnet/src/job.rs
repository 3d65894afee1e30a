//! Job-level launch hooks: the vocabulary a cluster scheduler uses to run
//! *foreign* work on pre-spawned processes.
//!
//! The engine's process table is fixed when [`crate::Sim::run`] starts, so
//! a multi-tenant scheduler cannot spawn a process per arriving job.
//! Instead it keeps a pool of long-lived *slot workers* and ships each
//! task to one of them as a closure inside a [`crate::Payload::Value`]
//! message. This module defines the pieces both sides share:
//!
//! * [`TaskClosure`] — the shippable task body. It receives the worker's
//!   own [`crate::ProcCtx`], so every cost the task charges (compute,
//!   disk, NIC) lands on the worker's node and contends with co-located
//!   tenants exactly like a real container would.
//! * [`LaunchEnv`] — what a dispatched task knows about its launch: job
//!   and wave ids, its index in the gang, and the pids/nodes of its
//!   gang peers, so runtime adapters can run collectives (rings,
//!   barriers, shuffles) between tasks of the same wave.
//! * [`JobChannel`] — a per-(job, wave) tag namespace carved out of the
//!   high tag space, so intra-gang messages never collide with the
//!   scheduler's control plane or with another tenant's traffic.
//!
//! Everything here is deterministic: a tag is a pure function of
//! `(job, wave, lane)`, and the launch environment is assembled by the
//! scheduler at a well-defined virtual time. No wall-clock state leaks
//! in, so both execution modes see bit-identical job schedules.

use std::sync::Arc;

use crate::engine::{Pid, ProcCtx};
use crate::message::Tag;
use crate::topology::NodeId;

/// Tags at or above this value are reserved for job-private channels
/// allocated through [`JobChannel`]. Framework control tags (small
/// constants) must stay below it.
pub const JOB_TAG_BASE: Tag = 1 << 62;

/// A task body shipped from a scheduler to a slot worker. Bodies must be
/// pure functions of `(ctx, env)` — no host state — so replaying the
/// same schedule reproduces the same virtual timeline bit-for-bit.
pub type TaskClosure = Arc<dyn Fn(&mut ProcCtx, &LaunchEnv) + Send + Sync>;

/// A per-(job, wave) message-tag namespace.
///
/// Lane numbers let one wave multiplex several logical channels (e.g. a
/// reduction ring and a barrier) without collisions: the packed tag is
/// unique across jobs, waves and lanes, and always `>= JOB_TAG_BASE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobChannel {
    /// Scheduler-assigned job sequence number.
    pub job: u64,
    /// Wave (stage) index within the job.
    pub wave: u32,
}

impl JobChannel {
    /// The tag for `lane` of this (job, wave) channel.
    ///
    /// Packing: 38 bits of job, 14 bits of wave, 10 bits of lane. The
    /// asserts fire long before any realistic scenario reaches the
    /// limits (275 G jobs, 16 K waves, 1 K lanes).
    #[inline]
    pub fn tag(&self, lane: u32) -> Tag {
        assert!(self.job < (1 << 38), "job id out of tag range");
        assert!(self.wave < (1 << 14), "wave out of tag range");
        assert!(lane < (1 << 10), "lane out of tag range");
        JOB_TAG_BASE | (self.job << 24) | ((self.wave as u64) << 10) | lane as u64
    }
}

/// Everything a dispatched task knows about where and with whom it runs.
#[derive(Debug, Clone)]
pub struct LaunchEnv {
    /// Scheduler-assigned job sequence number.
    pub job: u64,
    /// Wave (stage) index this task belongs to.
    pub wave: u32,
    /// This task's index within its wave.
    pub index: u32,
    /// Pids of the workers running this wave, in task-index order. Empty
    /// for elastic (non-gang) waves, whose tasks never message peers.
    pub gang: Vec<Pid>,
    /// Nodes hosting each gang member, parallel to `gang`.
    pub gang_nodes: Vec<NodeId>,
    /// The wave's private tag namespace.
    pub channel: JobChannel,
}

impl LaunchEnv {
    /// Number of peers in the gang (0 for elastic tasks).
    #[inline]
    pub fn gang_size(&self) -> usize {
        self.gang.len()
    }

    /// Pid of gang member `i`.
    #[inline]
    pub fn peer(&self, i: usize) -> Pid {
        self.gang[i]
    }

    /// Node of gang member `i`.
    #[inline]
    pub fn peer_node(&self, i: usize) -> NodeId {
        self.gang_nodes[i]
    }

    /// The tag for `lane` of this wave's channel.
    #[inline]
    pub fn tag(&self, lane: u32) -> Tag {
        self.channel.tag(lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_across_jobs_waves_and_lanes() {
        let mut seen = std::collections::HashSet::new();
        for job in [0u64, 1, 2, 1000, (1 << 38) - 1] {
            for wave in [0u32, 1, 37, (1 << 14) - 1] {
                for lane in [0u32, 1, 1023] {
                    let t = JobChannel { job, wave }.tag(lane);
                    assert!(t >= JOB_TAG_BASE);
                    assert!(seen.insert(t), "collision at {job}/{wave}/{lane}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane out of tag range")]
    fn oversized_lane_rejected() {
        let _ = JobChannel { job: 0, wave: 0 }.tag(1 << 10);
    }

    #[test]
    fn launch_env_accessors() {
        let env = LaunchEnv {
            job: 7,
            wave: 2,
            index: 1,
            gang: vec![Pid(4), Pid(9)],
            gang_nodes: vec![NodeId(0), NodeId(1)],
            channel: JobChannel { job: 7, wave: 2 },
        };
        assert_eq!(env.gang_size(), 2);
        assert_eq!(env.peer(1), Pid(9));
        assert_eq!(env.peer_node(0), NodeId(0));
        assert_eq!(env.tag(3), JobChannel { job: 7, wave: 2 }.tag(3));
    }
}
