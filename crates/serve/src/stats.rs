//! Server-wide observability: the [`ServerStats`] snapshot a `stats`
//! request returns.

use exi_sim::CacheStats;

use crate::json::{n, obj, Json};

/// A consistent snapshot of the daemon's lifetime counters, queue state and
/// warm plan-cache residency, taken under the server's stats lock.
///
/// The solver counters (`accepted_steps` through `shared_plan_hits`) are the
/// server-wide merge of every finished job's
/// [`RunStats`](exi_sim::RunStats) — the fleet-amortization contract shows
/// up here as `plan_compilations == distinct structures`, however many jobs
/// ran, while `symbolic_analyses` grows by one per job and matrix role.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerStats {
    /// Jobs admitted to the queue.
    pub jobs_accepted: u64,
    /// Jobs that finished with a complete waveform.
    pub jobs_completed: u64,
    /// Jobs that stopped with a simulation/parse/I/O error.
    pub jobs_failed: u64,
    /// Jobs cancelled over the wire or by their deadline.
    pub jobs_cancelled: u64,
    /// `run` requests bounced with `busy` because the queue was full.
    pub jobs_rejected: u64,
    /// `run` requests refused at admission by the per-job or in-flight
    /// footprint budget (`rejected{reason: "budget" | "inflight"}`).
    pub jobs_rejected_budget: u64,
    /// `run` requests shed by the overload ladder or refused while degraded
    /// (`rejected{reason: "overload" | "degraded"}`).
    pub jobs_shed_overload: u64,
    /// Running jobs cancelled by the overload ladder (stages 2–3).
    pub jobs_cancelled_overload: u64,
    /// Worker threads respawned by the supervisor after a panic.
    pub workers_respawned: u64,
    /// Connections closed by the read/idle timeout reaper.
    pub connections_reaped: u64,
    /// Frame writes abandoned because the client stalled past the
    /// write-stall deadline.
    pub write_stalls: u64,
    /// Overload-ladder stage changes since boot (escalations and
    /// de-escalations both count).
    pub overload_transitions: u64,
    /// Current overload-ladder stage: 0 normal, 1 shed, 2 cancel, 3 drain.
    pub overload_stage: usize,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// The queue's capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Merged accepted time steps across all finished jobs.
    pub accepted_steps: usize,
    /// Merged symbolic LU analyses (one per job and matrix role).
    pub symbolic_analyses: usize,
    /// Merged `G` analyses whose ordering the warm plan already held.
    pub shared_symbolic_hits: usize,
    /// Merged stamping-plan compilations (one per distinct structure).
    pub plan_compilations: usize,
    /// Merged shared plan-cache hits.
    pub shared_plan_hits: usize,
    /// Residency counters of the warm plan cache.
    pub plan_cache: CacheStats,
}

/// Serializes one [`CacheStats`] as a JSON object (capacity `null` when
/// unbounded).
fn cache_json(c: &CacheStats) -> Json {
    obj(vec![
        ("entries", n(c.entries)),
        (
            "capacity",
            c.capacity.map_or(Json::Null, |v| Json::Num(v as f64)),
        ),
        ("hits", Json::Num(c.hits as f64)),
        ("misses", Json::Num(c.misses as f64)),
        ("evictions", Json::Num(c.evictions as f64)),
    ])
}

/// Reads one [`CacheStats`] back from its JSON object form.
fn cache_from_json(v: &Json) -> Option<CacheStats> {
    Some(CacheStats {
        entries: v.get("entries")?.as_u64()? as usize,
        capacity: match v.get("capacity")? {
            Json::Null => None,
            other => Some(other.as_u64()? as usize),
        },
        hits: v.get("hits")?.as_u64()?,
        misses: v.get("misses")?.as_u64()?,
        evictions: v.get("evictions")?.as_u64()?,
    })
}

impl ServerStats {
    /// Serializes the snapshot as the payload of a `stats` response.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("jobs_accepted", Json::Num(self.jobs_accepted as f64)),
            ("jobs_completed", Json::Num(self.jobs_completed as f64)),
            ("jobs_failed", Json::Num(self.jobs_failed as f64)),
            ("jobs_cancelled", Json::Num(self.jobs_cancelled as f64)),
            ("jobs_rejected", Json::Num(self.jobs_rejected as f64)),
            (
                "jobs_rejected_budget",
                Json::Num(self.jobs_rejected_budget as f64),
            ),
            (
                "jobs_shed_overload",
                Json::Num(self.jobs_shed_overload as f64),
            ),
            (
                "jobs_cancelled_overload",
                Json::Num(self.jobs_cancelled_overload as f64),
            ),
            (
                "workers_respawned",
                Json::Num(self.workers_respawned as f64),
            ),
            (
                "connections_reaped",
                Json::Num(self.connections_reaped as f64),
            ),
            ("write_stalls", Json::Num(self.write_stalls as f64)),
            (
                "overload_transitions",
                Json::Num(self.overload_transitions as f64),
            ),
            ("overload_stage", n(self.overload_stage)),
            ("queue_depth", n(self.queue_depth)),
            ("queue_capacity", n(self.queue_capacity)),
            ("workers", n(self.workers)),
            ("accepted_steps", n(self.accepted_steps)),
            ("symbolic_analyses", n(self.symbolic_analyses)),
            ("shared_symbolic_hits", n(self.shared_symbolic_hits)),
            ("plan_compilations", n(self.plan_compilations)),
            ("shared_plan_hits", n(self.shared_plan_hits)),
            ("plan_cache", cache_json(&self.plan_cache)),
        ])
    }

    /// Reads a snapshot back from its JSON form (the client side).
    pub fn from_json(v: &Json) -> Option<ServerStats> {
        Some(ServerStats {
            jobs_accepted: v.get("jobs_accepted")?.as_u64()?,
            jobs_completed: v.get("jobs_completed")?.as_u64()?,
            jobs_failed: v.get("jobs_failed")?.as_u64()?,
            jobs_cancelled: v.get("jobs_cancelled")?.as_u64()?,
            jobs_rejected: v.get("jobs_rejected")?.as_u64()?,
            jobs_rejected_budget: v.get("jobs_rejected_budget")?.as_u64()?,
            jobs_shed_overload: v.get("jobs_shed_overload")?.as_u64()?,
            jobs_cancelled_overload: v.get("jobs_cancelled_overload")?.as_u64()?,
            workers_respawned: v.get("workers_respawned")?.as_u64()?,
            connections_reaped: v.get("connections_reaped")?.as_u64()?,
            write_stalls: v.get("write_stalls")?.as_u64()?,
            overload_transitions: v.get("overload_transitions")?.as_u64()?,
            overload_stage: v.get("overload_stage")?.as_u64()? as usize,
            queue_depth: v.get("queue_depth")?.as_u64()? as usize,
            queue_capacity: v.get("queue_capacity")?.as_u64()? as usize,
            workers: v.get("workers")?.as_u64()? as usize,
            accepted_steps: v.get("accepted_steps")?.as_u64()? as usize,
            symbolic_analyses: v.get("symbolic_analyses")?.as_u64()? as usize,
            shared_symbolic_hits: v.get("shared_symbolic_hits")?.as_u64()? as usize,
            plan_compilations: v.get("plan_compilations")?.as_u64()? as usize,
            shared_plan_hits: v.get("shared_plan_hits")?.as_u64()? as usize,
            plan_cache: cache_from_json(v.get("plan_cache")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json() {
        let stats = ServerStats {
            jobs_accepted: 7,
            jobs_completed: 5,
            jobs_failed: 1,
            jobs_cancelled: 1,
            jobs_rejected: 2,
            jobs_rejected_budget: 3,
            jobs_shed_overload: 4,
            jobs_cancelled_overload: 1,
            workers_respawned: 2,
            connections_reaped: 5,
            write_stalls: 1,
            overload_transitions: 6,
            overload_stage: 1,
            queue_depth: 3,
            queue_capacity: 16,
            workers: 4,
            accepted_steps: 1234,
            symbolic_analyses: 7,
            shared_symbolic_hits: 6,
            plan_compilations: 1,
            shared_plan_hits: 6,
            plan_cache: CacheStats {
                entries: 1,
                capacity: None,
                hits: 6,
                misses: 1,
                evictions: 0,
            },
        };
        let json = stats.to_json();
        let back = ServerStats::from_json(&Json::parse(&json.dump()).unwrap()).unwrap();
        assert_eq!(back, stats);
    }
}
