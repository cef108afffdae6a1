//! Server-wide observability: the [`ServerStats`] snapshot a `stats`
//! request returns.

use exi_sim::{CacheStats, RunStats};

use crate::json::{n, obj, Json};

/// A consistent snapshot of the daemon's lifetime counters, queue state and
/// warm plan-cache residency, taken under the server's stats lock.
///
/// [`ServerStats::solver`] is the server-wide merge of every finished job's
/// [`RunStats`] — the fleet-amortization contract shows up there as
/// `plan_compilations == distinct structures`, however many jobs ran, while
/// `symbolic_analyses` grows by one per job and matrix role.
#[derive(Debug, Clone, PartialEq, Default)]
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
    /// Every finished job's session statistics, merged by
    /// [`RunStats::absorb`].
    pub solver: RunStats,
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

/// Every [`RunStats`] field as a JSON member under its own name
/// ([`RunStats::fields`]).
pub(crate) fn run_stats_json(stats: &RunStats) -> Vec<(&'static str, Json)> {
    stats
        .clone()
        .fields()
        .map(|field| (field.name, Json::Num(field.slot.get())))
        .collect()
}

/// Reads the [`RunStats`] fields of an object back by name.
///
/// # Errors
///
/// Names the first field that is missing or does not fit.
pub(crate) fn run_stats_from_json(v: &Json) -> Result<RunStats, String> {
    RunStats::from_named(|name| v.get(name)?.as_f64())
        .map_err(|name| format!("missing counter '{name}'"))
}

impl ServerStats {
    /// Serializes the snapshot as the payload of a `stats` response, with
    /// every [`ServerStats::solver`] field as a top-level key of its own.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
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
        ];
        members.extend(run_stats_json(&self.solver));
        members.push(("plan_cache", cache_json(&self.plan_cache)));
        obj(members)
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
            solver: run_stats_from_json(v).ok()?,
            plan_cache: cache_from_json(v.get("plan_cache")?)?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A [`RunStats`] whose every field holds a distinct, nonzero value.
    pub(crate) fn distinct_counters() -> RunStats {
        let mut stats = RunStats::default();
        for (k, mut field) in stats.fields().enumerate() {
            assert!(field.slot.set(1000.0 + k as f64));
        }
        stats
    }

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
            solver: distinct_counters(),
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
